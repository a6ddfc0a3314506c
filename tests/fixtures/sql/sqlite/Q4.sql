SELECT DISTINCT d1.pre AS item
FROM   doc AS d1, doc AS d2, doc AS d3, doc AS d4
WHERE  d1.kind = 'TEXT'
AND    d2.kind = 'ELEM'
AND    d2.name = 'price'
AND    d3.kind = 'ELEM'
AND    d3.name = 'closed_auction'
AND    d4.kind = 'DOC'
AND    d4.name = 'auction.xml'
AND    d1.pre BETWEEN d2.pre + 1 AND d2.pre + d2.size
AND    d2.level + 1 = d1.level
AND    d2.pre BETWEEN d3.pre + 1 AND d3.pre + d3.size
AND    d3.level + 1 = d2.level
AND    d3.pre BETWEEN d4.pre + 1 AND d4.pre + d4.size
ORDER BY d1.pre
