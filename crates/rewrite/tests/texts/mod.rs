//! The 11 fixed benchmark texts the isolation tests pin: Q1–Q8 are
//! `jgi_core::queries` (jgi-core depends on jgi-rewrite and jgi-check, so
//! the texts are repeated here); JB/JC/JD are copied from
//! `benchmark/src/queries.rs`, which is not to be edited. Included by the
//! golden fire sequences of `jgi-rewrite` and the audit-coverage test of
//! `jgi-check`.

const AUCTION: &str = "auction.xml";
const DBLP: &str = "dblp.xml";

const Q1: &str = r#"doc("auction.xml")/descendant::open_auction[bidder]"#;
const Q2: &str = r#"
    let $a := doc("auction.xml")
    for $ca in $a//closed_auction[price > 500],
        $i in $a//item,
        $c in $a//category
    where $ca/itemref/@item = $i/@id
      and $i/incategory/@category = $c/@id
    return $c/name"#;
const Q3: &str = r#"/site/people/person[@id = "person0"]/name/text()"#;
const Q4: &str = r#"//closed_auction/price/text()"#;
const Q5: &str = r#"/dblp/*[@key = "conf/vldb2001" and editor and title]/title"#;
const Q6: &str = r#"
    for $thesis in /dblp/phdthesis[year < "1994" and author and title]
    return $thesis"#;
const Q7: &str = r#"
    let $a := doc("auction.xml")
    for $p in $a//person,
        $b in $a//open_auction/bidder
    where $b/personref/@person = $p/@id
    return $p/name"#;
const Q8: &str = r#"doc("auction.xml")//bidder[increase > 20]/preceding-sibling::bidder/increase"#;
const JB: &str = r#"let $a := doc("auction.xml")
    for $ca in $a//closed_auction, $p in $a//person
    where $ca/buyer/@person = $p/@id
    return $p/name"#;
const JC: &str = r#"let $a := doc("auction.xml")
    for $ca in $a//closed_auction, $p in $a//person, $i in $a//item
    where $ca/buyer/@person = $p/@id and $ca/itemref/@item = $i/@id
    return $i/name"#;
const JD: &str = r#"let $a := doc("auction.xml")
    for $p in $a//person, $o in $a//open_auction
    where $o/seller/@person = $p/@id and $o/bidder/personref/@person = $p/@id
    return $o/initial"#;

/// `(name, text, context document)`.
pub const TEXTS: [(&str, &str, Option<&str>); 11] = [
    ("Q1", Q1, None),
    ("Q2", Q2, None),
    ("Q3", Q3, Some(AUCTION)),
    ("Q4", Q4, Some(AUCTION)),
    ("Q5", Q5, Some(DBLP)),
    ("Q6", Q6, Some(DBLP)),
    ("Q7", Q7, None),
    ("Q8", Q8, None),
    ("JB", JB, None),
    ("JC", JC, None),
    ("JD", JD, None),
];
