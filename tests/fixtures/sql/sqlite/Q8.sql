SELECT DISTINCT d1.pre AS item
FROM   doc AS d1, doc AS d2, doc AS d3, doc AS d4, doc AS d5
WHERE  d1.kind = 'ELEM'
AND    d1.name = 'increase'
AND    d2.kind = 'ELEM'
AND    d2.name = 'bidder'
AND    d3.kind <> 'ATTR'
AND    d3.kind = 'ELEM'
AND    d3.name = 'bidder'
AND    d4.kind = 'DOC'
AND    d4.name = 'auction.xml'
AND    d5.data > 20
AND    d5.kind = 'ELEM'
AND    d5.name = 'increase'
AND    d1.pre BETWEEN d2.pre + 1 AND d2.pre + d2.size
AND    d2.level + 1 = d1.level
AND    d2.pre < d3.pre
AND    d3.parent = d2.parent
AND    d3.pre BETWEEN d4.pre + 1 AND d4.pre + d4.size
AND    d3.level + 1 = d5.level
AND    d5.pre BETWEEN d3.pre + 1 AND d3.pre + d3.size
ORDER BY d1.pre
