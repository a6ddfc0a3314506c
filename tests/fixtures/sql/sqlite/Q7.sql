SELECT DISTINCT d2.pre, d1.pre AS item, d3.pre
FROM   doc AS d1, doc AS d2, doc AS d3, doc AS d4, doc AS d5, doc AS d6, doc AS d7, doc AS d8
WHERE  d1.kind = 'ELEM'
AND    d1.name = 'name'
AND    d2.kind = 'ELEM'
AND    d2.name = 'person'
AND    d3.kind = 'ELEM'
AND    d3.name = 'bidder'
AND    d4.kind = 'DOC'
AND    d4.name = 'auction.xml'
AND    d5.kind = 'ATTR'
AND    d5.name = 'id'
AND    d6.kind = 'ELEM'
AND    d6.name = 'open_auction'
AND    d7.kind = 'ELEM'
AND    d7.name = 'personref'
AND    d8.kind = 'ATTR'
AND    d8.name = 'person'
AND    d1.pre BETWEEN d2.pre + 1 AND d2.pre + d2.size
AND    d2.level + 1 = d1.level
AND    d2.pre BETWEEN d4.pre + 1 AND d4.pre + d4.size
AND    d2.level + 1 = d5.level
AND    d5.pre BETWEEN d2.pre + 1 AND d2.pre + d2.size
AND    d3.pre BETWEEN d6.pre + 1 AND d6.pre + d6.size
AND    d6.level + 1 = d3.level
AND    d3.level + 1 = d7.level
AND    d7.pre BETWEEN d3.pre + 1 AND d3.pre + d3.size
AND    d6.pre BETWEEN d4.pre + 1 AND d4.pre + d4.size
AND    d8.value = d5.value
AND    d7.level + 1 = d8.level
AND    d8.pre BETWEEN d7.pre + 1 AND d7.pre + d7.size
ORDER BY d2.pre, d3.pre, d1.pre
