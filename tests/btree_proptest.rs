//! Property tests: the engine's B+tree against `std::collections::BTreeMap`
//! as the executable specification.

use jgi_engine::btree::BTree;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Total-ordering key of the reference map.
type RefKey = (i64, i64);

/// Order-preserving code of a small integer.
fn code(i: i64) -> u64 {
    (i + 1000) as u64
}

fn to_key(k: RefKey) -> [u64; 2] {
    [code(k.0), code(k.1)]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Bulk load: every entry is findable, full iteration is sorted, and
    /// prefix scans match a filtered reference.
    #[test]
    fn bulk_load_matches_reference(
        entries in proptest::collection::vec(((-50i64..50, -50i64..50), 0u32..1000), 0..400),
        probe in -50i64..50,
    ) {
        let tree = BTree::bulk_load(
            2,
            entries.iter().flat_map(|(k, _)| to_key(*k)).collect(),
            entries.iter().map(|(_, v)| *v).collect(),
        );
        prop_assert_eq!(tree.len(), entries.len());

        // Full iteration is sorted by (key, value).
        let all: Vec<(Vec<u64>, u32)> = tree.iter().map(|(k, v)| (k.to_vec(), v)).collect();
        prop_assert!(all.windows(2).all(|w| w[0] <= w[1]));

        // Prefix scan on the first key component.
        let got: Vec<u32> = {
            let mut v: Vec<u32> = tree.scan_prefix(&[code(probe)]).map(|(_, x)| x).collect();
            v.sort_unstable();
            v
        };
        let mut want: Vec<u32> = entries
            .iter()
            .filter(|((a, _), _)| *a == probe)
            .map(|(_, v)| *v)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// Range scans match the reference under all bound strictness modes.
    #[test]
    fn range_scans_match_reference(
        entries in proptest::collection::vec((-100i64..100, 0u32..1000), 0..300),
        lo in -100i64..100,
        delta in 0i64..60,
        lo_strict in any::<bool>(),
        hi_strict in any::<bool>(),
    ) {
        let hi = lo + delta;
        let mut reference: BTreeMap<(i64, u32), ()> = BTreeMap::new();
        for (i, (k, v)) in entries.iter().enumerate() {
            reference.insert((*k, *v * 1000 + i as u32), ());
        }
        let tree = BTree::bulk_load(
            1,
            entries.iter().map(|(k, _)| code(*k)).collect(),
            entries.iter().enumerate().map(|(i, (_, v))| *v * 1000 + i as u32).collect(),
        );
        let (lo_key, hi_key) = ([code(lo)], [code(hi)]);
        let mut got: Vec<u32> =
            tree.scan(&lo_key, lo_strict, &hi_key, hi_strict).map(|(_, v)| v).collect();
        got.sort_unstable();
        let mut want: Vec<u32> = reference
            .keys()
            .filter(|(k, _)| {
                let lo_ok = if lo_strict { *k > lo } else { *k >= lo };
                let hi_ok = if hi_strict { *k < hi } else { *k <= hi };
                lo_ok && hi_ok
            })
            .map(|(_, v)| *v)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }
}
