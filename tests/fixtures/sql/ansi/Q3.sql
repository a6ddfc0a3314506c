SELECT DISTINCT d1.pre AS item
FROM   doc AS d1, doc AS d2, doc AS d3, doc AS d4, doc AS d5, doc AS d6, doc AS d7
WHERE  d1.kind = 'TEXT'
AND    d2.kind = 'ELEM'
AND    d2.name = 'name'
AND    d3.kind = 'ELEM'
AND    d3.name = 'person'
AND    d4.kind = 'ELEM'
AND    d4.name = 'people'
AND    d5.kind = 'ATTR'
AND    d5.name = 'id'
AND    d5."value" = 'person0'
AND    d6.kind = 'ELEM'
AND    d6.name = 'site'
AND    d7.kind = 'DOC'
AND    d7.name = 'auction.xml'
AND    d1.pre BETWEEN d2.pre + 1 AND d2.pre + d2."size"
AND    d2."level" + 1 = d1."level"
AND    d2.pre BETWEEN d3.pre + 1 AND d3.pre + d3."size"
AND    d3."level" + 1 = d2."level"
AND    d3.pre BETWEEN d4.pre + 1 AND d4.pre + d4."size"
AND    d4."level" + 1 = d3."level"
AND    d3."level" + 1 = d5."level"
AND    d5.pre BETWEEN d3.pre + 1 AND d3.pre + d3."size"
AND    d4.pre BETWEEN d6.pre + 1 AND d6.pre + d6."size"
AND    d6."level" + 1 = d4."level"
AND    d6.pre BETWEEN d7.pre + 1 AND d7.pre + d7."size"
AND    d7."level" + 1 = d6."level"
ORDER BY d1.pre
