SELECT DISTINCT d2.pre, d1.pre AS item, d3.pre, d4.pre
FROM   doc AS d1, doc AS d2, doc AS d3, doc AS d4, doc AS d5, doc AS d6, doc AS d7, doc AS d8, doc AS d9, doc AS d10, doc AS d11, doc AS d12
WHERE  d1.kind = 'ELEM'
AND    d1.name = 'name'
AND    d2.kind = 'ELEM'
AND    d2.name = 'closed_auction'
AND    d3.kind = 'ELEM'
AND    d3.name = 'item'
AND    d4.kind = 'ELEM'
AND    d4.name = 'category'
AND    d5.kind = 'DOC'
AND    d5.name = 'auction.xml'
AND    d6.kind = 'ELEM'
AND    d6.name = 'itemref'
AND    d7.data > 500
AND    d7.kind = 'ELEM'
AND    d7.name = 'price'
AND    d8.kind = 'ELEM'
AND    d8.name = 'incategory'
AND    d9.kind = 'ATTR'
AND    d9.name = 'id'
AND    d10.kind = 'ATTR'
AND    d10.name = 'id'
AND    d11.kind = 'ATTR'
AND    d11.name = 'item'
AND    d12.kind = 'ATTR'
AND    d12.name = 'category'
AND    d1.pre BETWEEN d4.pre + 1 AND d4.pre + d4.size
AND    d4.level + 1 = d1.level
AND    d2.pre BETWEEN d5.pre + 1 AND d5.pre + d5.size
AND    d2.level + 1 = d6.level
AND    d6.pre BETWEEN d2.pre + 1 AND d2.pre + d2.size
AND    d2.level + 1 = d7.level
AND    d7.pre BETWEEN d2.pre + 1 AND d2.pre + d2.size
AND    d3.pre BETWEEN d5.pre + 1 AND d5.pre + d5.size
AND    d3.level + 1 = d8.level
AND    d8.pre BETWEEN d3.pre + 1 AND d3.pre + d3.size
AND    d3.level + 1 = d9.level
AND    d9.pre BETWEEN d3.pre + 1 AND d3.pre + d3.size
AND    d4.pre BETWEEN d5.pre + 1 AND d5.pre + d5.size
AND    d10.pre BETWEEN d4.pre + 1 AND d4.pre + d4.size
AND    d4.level + 1 = d10.level
AND    d11.pre BETWEEN d6.pre + 1 AND d6.pre + d6.size
AND    d6.level + 1 = d11.level
AND    d12.pre BETWEEN d8.pre + 1 AND d8.pre + d8.size
AND    d8.level + 1 = d12.level
AND    d11.value = d9.value
AND    d12.value = d10.value
ORDER BY d2.pre, d3.pre, d4.pre, d1.pre
