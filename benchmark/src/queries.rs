//! Query populations and the seeded op stream.
//!
//! `PATH` is Q1, Q3, Q4, Q5, Q6, Q8 of the paper corpus plus two literal
//! families — Q3 with other person ids, Q5 with other proceedings keys —
//! whose literals are drawn Zipf(1.0): 22 distinct texts, well under the
//! serving tier's 256-plan cache. `JOIN` is Q2 and Q7 plus three value joins
//! defined here.

use crate::docs::{DocText, AUCTION, DBLP};
use jgi_core::queries::paper_corpus;

/// JB — binary value join: names of the persons who bought something.
pub const JB: &str = r#"let $a := doc("auction.xml")
    for $ca in $a//closed_auction, $p in $a//person
    where $ca/buyer/@person = $p/@id
    return $p/name"#;

/// JC — three-way chain: names of items sold to a known buyer.
pub const JC: &str = r#"let $a := doc("auction.xml")
    for $ca in $a//closed_auction, $p in $a//person, $i in $a//item
    where $ca/buyer/@person = $p/@id and $ca/itemref/@item = $i/@id
    return $i/name"#;

/// JD — cyclic: persons bidding in an auction they sell in (two equality
/// edges between the same pair of loops; usually few or no results, which
/// makes it all join work and no output).
pub const JD: &str = r#"let $a := doc("auction.xml")
    for $p in $a//person, $o in $a//open_auction
    where $o/seller/@person = $p/@id and $o/bidder/personref/@person = $p/@id
    return $o/initial"#;

/// Every query type id a workload can report, in report order.
pub const TYPE_IDS: [&str; 13] =
    ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "JB", "JC", "JD", "Q3lit", "Q5lit"];

/// Literals per family.
pub const FAMILY: usize = 8;

/// One distinct query text.
#[derive(Debug, Clone)]
pub struct QueryText {
    /// Oracle key: the type id, plus `/<literal>` for family members.
    pub key: String,
    /// The text on one line, as the line protocol needs it.
    pub text: String,
    /// Context document of a rooted path.
    pub ctx: Option<&'static str>,
}

/// A query type: one text, or a literal family of [`FAMILY`] texts.
#[derive(Debug, Clone)]
pub struct QueryType {
    pub id: &'static str,
    pub variants: Vec<QueryText>,
}

fn one_line(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

fn corpus_type(id: &'static str) -> QueryType {
    let (_, text, ctx) = paper_corpus()
        .into_iter()
        .find(|(name, _, _)| *name == id)
        .unwrap_or_else(|| panic!("{id} is not in the paper corpus"));
    QueryType { id, variants: vec![QueryText { key: id.to_string(), text: one_line(text), ctx }] }
}

fn own_type(id: &'static str, text: &str) -> QueryType {
    QueryType {
        id,
        variants: vec![QueryText { key: id.to_string(), text: one_line(text), ctx: None }],
    }
}

/// `PATH`: six corpus queries and the two literal families. The families'
/// literals are drawn from the generated documents with the run's seed.
pub fn path_population(docs: &DocText, seed: u64) -> Vec<QueryType> {
    let mut rng = Rng::new(seed ^ 0x51_7e_7a_15);
    let mut types: Vec<QueryType> =
        ["Q1", "Q3", "Q4", "Q5", "Q6", "Q8"].into_iter().map(corpus_type).collect();

    // person0 is Q3's own literal; the family takes eight others.
    let ids = rng.distinct(FAMILY, docs.persons - 1);
    types.push(QueryType {
        id: "Q3lit",
        variants: ids
            .into_iter()
            .map(|k| {
                let id = format!("person{}", k + 1);
                QueryText {
                    key: format!("Q3lit/{id}"),
                    text: format!(r#"/site/people/person[@id = "{id}"]/name/text()"#),
                    ctx: Some(AUCTION),
                }
            })
            .collect(),
    });

    assert!(docs.proceedings_keys.len() >= FAMILY, "too few proceedings for the Q5 family");
    let picks = rng.distinct(FAMILY, docs.proceedings_keys.len());
    types.push(QueryType {
        id: "Q5lit",
        variants: picks
            .into_iter()
            .map(|i| {
                let key = &docs.proceedings_keys[i];
                QueryText {
                    key: format!("Q5lit/{key}"),
                    text: format!(r#"/dblp/*[@key = "{key}" and editor and title]/title"#),
                    ctx: Some(DBLP),
                }
            })
            .collect(),
    });
    types
}

/// `JOIN`: the corpus value joins plus JB, JC, JD. The smoke population
/// leaves out the three texts whose isolation alone takes longer than a
/// smoke run may (Q2, JC, JD: 1.7 s, 1.4 s, 0.25 s on any document).
pub fn join_population(smoke: bool) -> Vec<QueryType> {
    let mut types = vec![
        corpus_type("Q2"),
        corpus_type("Q7"),
        own_type("JB", JB),
        own_type("JC", JC),
        own_type("JD", JD),
    ];
    if smoke {
        types.retain(|t| !matches!(t.id, "Q2" | "JC" | "JD"));
    }
    types
}

/// What `compile_cold` compiles: the six `PATH` base texts and `JOIN`.
pub fn compile_population(smoke: bool) -> Vec<QueryType> {
    let mut types: Vec<QueryType> =
        ["Q1", "Q3", "Q4", "Q5", "Q6", "Q8"].into_iter().map(corpus_type).collect();
    types.extend(join_population(smoke));
    types
}

/// All distinct texts of a population.
pub fn texts(types: &[QueryType]) -> impl Iterator<Item = &QueryText> {
    types.iter().flat_map(|t| t.variants.iter())
}

/// SplitMix64: the benchmark's only source of randomness, so an op stream is
/// a pure function of the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `k` distinct values from `0..n`, in draw order.
    pub fn distinct(&mut self, k: usize, n: usize) -> Vec<usize> {
        assert!(k <= n, "cannot draw {k} distinct values from 0..{n}");
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let v = self.below(n);
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }
}

/// Zipf(1.0) over `0..n`: rank `i` is drawn with probability ∝ 1/(i+1).
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let total: f64 = (1..=n).map(|i| 1.0 / i as f64).sum();
        let mut acc = 0.0;
        let cumulative = (1..=n)
            .map(|i| {
                acc += 1.0 / i as f64 / total;
                acc
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cumulative.iter().position(|&c| u < c).unwrap_or(self.cumulative.len() - 1)
    }
}

/// The op stream of one client: round-robin over the types (each client
/// starts at its own offset so clients do not convoy on one query), the
/// variant of a family drawn Zipf(1.0).
pub struct OpStream {
    rng: Rng,
    zipf: Zipf,
    at: usize,
}

impl OpStream {
    pub fn new(seed: u64, client: usize) -> OpStream {
        OpStream {
            rng: Rng::new(seed ^ (client as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f)),
            zipf: Zipf::new(FAMILY),
            at: client,
        }
    }

    /// `(type index, variant index)` of the next op over `types`.
    pub fn next(&mut self, types: &[QueryType]) -> (usize, usize) {
        let t = self.at % types.len();
        self.at += 1;
        let v = if types[t].variants.len() > 1 { self.zipf.draw(&mut self.rng) } else { 0 };
        (t, v)
    }

    /// The stream's generator, for draws that belong to the same client
    /// (write targets).
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docs::TINY;

    #[test]
    fn populations_have_the_advertised_shape() {
        let docs = DocText::generate(TINY);
        let path = path_population(&docs, 7);
        assert_eq!(path.len(), 8);
        assert_eq!(texts(&path).count(), 22);
        let mut keys: Vec<&str> = texts(&path).map(|t| t.key.as_str()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 22, "all texts are distinct");
        assert!(texts(&path).all(|t| !t.text.contains('\n')));
        assert_eq!(join_population(false).len(), 5);
        assert_eq!(join_population(true).len(), 2);
        assert_eq!(compile_population(false).len(), 11);
        assert_eq!(compile_population(true).len(), 8);
        for t in path.iter().chain(&join_population(false)) {
            assert!(TYPE_IDS.contains(&t.id));
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let docs = DocText::generate(TINY);
        let path = path_population(&docs, 7);
        let run = |seed| {
            let mut s = OpStream::new(seed, 1);
            (0..200).map(|_| s.next(&path)).collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
        let texts_of =
            |seed| texts(&path_population(&docs, seed)).map(|t| t.text.clone()).collect::<Vec<_>>();
        assert_eq!(texts_of(7), texts_of(7));
        assert_ne!(texts_of(7), texts_of(8), "the seed picks the family literals");
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(8);
        let mut rng = Rng::new(1);
        let mut hits = [0usize; 8];
        for _ in 0..80_000 {
            hits[z.draw(&mut rng)] += 1;
        }
        // H(8) = 2.7179; rank 0 gets 1/H ≈ 36.8 %, rank 7 gets ≈ 4.6 %.
        assert!((hits[0] as f64 / 80_000.0 - 0.368).abs() < 0.01, "{hits:?}");
        assert!((hits[7] as f64 / 80_000.0 - 0.046).abs() < 0.005, "{hits:?}");
        assert!(hits.windows(2).all(|w| w[0] > w[1]), "{hits:?}");
    }
}
