SELECT DISTINCT d1.pre AS item
FROM   doc AS d1, doc AS d2, doc AS d3, doc AS d4, doc AS d5, doc AS d6
WHERE  d1.kind = 'ELEM'
AND    d1.name = 'phdthesis'
AND    d2.kind = 'ELEM'
AND    d2.name = 'author'
AND    d3.kind = 'ELEM'
AND    d3.name = 'dblp'
AND    d4.kind = 'ELEM'
AND    d4.name = 'title'
AND    d5.kind = 'ELEM'
AND    d5.name = 'year'
AND    d5."value" < '1994'
AND    d6.kind = 'DOC'
AND    d6.name = 'dblp.xml'
AND    d1."level" + 1 = d2."level"
AND    d2.pre BETWEEN d1.pre + 1 AND d1.pre + d1."size"
AND    d1.pre BETWEEN d3.pre + 1 AND d3.pre + d3."size"
AND    d3."level" + 1 = d1."level"
AND    d1."level" + 1 = d4."level"
AND    d4.pre BETWEEN d1.pre + 1 AND d1.pre + d1."size"
AND    d1."level" + 1 = d5."level"
AND    d5.pre BETWEEN d1.pre + 1 AND d1.pre + d1."size"
AND    d3.pre BETWEEN d6.pre + 1 AND d6.pre + d6."size"
AND    d6."level" + 1 = d3."level"
ORDER BY d1.pre
