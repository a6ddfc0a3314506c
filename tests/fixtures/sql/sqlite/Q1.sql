SELECT DISTINCT d1.pre AS item
FROM   doc AS d1, doc AS d2, doc AS d3
WHERE  d1.kind = 'ELEM'
AND    d1.name = 'open_auction'
AND    d2.kind = 'DOC'
AND    d2.name = 'auction.xml'
AND    d3.kind = 'ELEM'
AND    d3.name = 'bidder'
AND    d1.pre BETWEEN d2.pre + 1 AND d2.pre + d2.size
AND    d1.level + 1 = d3.level
AND    d3.pre BETWEEN d1.pre + 1 AND d1.pre + d1.size
ORDER BY d1.pre
