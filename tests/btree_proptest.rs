//! Property tests: the engine's B+tree against `std::collections::BTreeMap`
//! as the executable specification.

use jgi_engine::btree::BTree;
use proptest::prelude::*;
use std::cmp::Ordering;
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

/// Probe codes around a stored domain of `1000..1010`, whose fields take
/// 10 bits: below the minimum, inside it, above the maximum, at and past
/// the field's largest value (1023), and `u64::MAX`.
const EDGE_CODES: [u64; 12] =
    [0, 1, 999, 1000, 1004, 1009, 1010, 1011, 1023, 1024, 1 << 40, u64::MAX];

/// Lexicographic comparison of a probe prefix with the same-length prefix
/// of a key, the way the tree's bounds are specified.
fn cmp_prefix(probe: &[u64], key: &[u64]) -> Ordering {
    probe.cmp(&key[..probe.len()])
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
        )
        .unwrap();
        prop_assert_eq!(tree.len(), entries.len());

        // Full iteration is sorted by (key, value) and decodes to the
        // loaded entries.
        let all: Vec<(Vec<u64>, u32)> = tree.iter().map(|(k, v)| (tree.decode(k), v)).collect();
        prop_assert!(all.windows(2).all(|w| w[0] <= w[1]));
        let mut loaded: Vec<(Vec<u64>, u32)> =
            entries.iter().map(|(k, v)| (to_key(*k).to_vec(), *v)).collect();
        loaded.sort();
        prop_assert_eq!(&all, &loaded);

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
        )
        .unwrap();
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

    /// Bounds outside the stored domain — below its minimum, above its
    /// maximum, past a field's largest value, `u64::MAX` — of every prefix
    /// length and both strictnesses select what the reference does, from a
    /// scan and from a fresh seek alike.
    #[test]
    fn out_of_domain_bounds_match_reference(
        entries in proptest::collection::vec(
            ((1000u64..1010, 1000u64..1010, 1000u64..1010), 0u32..1000),
            0..300,
        ),
        probes in proptest::collection::vec(
            (
                (0usize..=3, proptest::collection::vec(0usize..EDGE_CODES.len(), 3..4)),
                (0usize..=3, proptest::collection::vec(0usize..EDGE_CODES.len(), 3..4)),
                any::<bool>(),
                any::<bool>(),
            ),
            16..17,
        ),
    ) {
        let mut reference: BTreeMap<(Vec<u64>, u32), ()> = BTreeMap::new();
        for (i, ((a, b, c), v)) in entries.iter().enumerate() {
            reference.insert((vec![*a, *b, *c], *v * 1000 + i as u32), ());
        }
        let tree = BTree::bulk_load(
            3,
            entries.iter().flat_map(|((a, b, c), _)| [*a, *b, *c]).collect(),
            entries.iter().enumerate().map(|(i, (_, v))| *v * 1000 + i as u32).collect(),
        )
        .unwrap();
        for ((lo_len, lo_at), (hi_len, hi_at), lo_strict, hi_strict) in probes {
            let lo: Vec<u64> = lo_at[..lo_len].iter().map(|&i| EDGE_CODES[i]).collect();
            let hi: Vec<u64> = hi_at[..hi_len].iter().map(|&i| EDGE_CODES[i]).collect();
            let want: Vec<u32> = reference
                .keys()
                .filter(|(k, _)| {
                    let lo_ok = lo.is_empty() || match cmp_prefix(&lo, k) {
                        Ordering::Less => true,
                        Ordering::Equal => !lo_strict,
                        Ordering::Greater => false,
                    };
                    let hi_ok = hi.is_empty() || match cmp_prefix(&hi, k) {
                        Ordering::Greater => true,
                        Ordering::Equal => !hi_strict,
                        Ordering::Less => false,
                    };
                    lo_ok && hi_ok
                })
                .map(|(_, v)| *v)
                .collect();
            let got: Vec<u32> =
                tree.scan(&lo, lo_strict, &hi, hi_strict).map(|(_, v)| v).collect();
            prop_assert_eq!(&got, &want, "lo {:?} {} hi {:?} {}", lo, lo_strict, hi, hi_strict);
            let sought: Vec<u32> =
                tree.seek_cursor().seek(&lo, lo_strict, &hi, hi_strict).map(|(_, v)| v).collect();
            prop_assert_eq!(&sought, &want, "seek lo {:?} {} hi {:?} {}", lo, lo_strict, hi, hi_strict);
        }
    }
}
