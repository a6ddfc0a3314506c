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

/// Does `key` lie within the bounds, under prefix comparison?
fn admits(key: &[u64], lo: &[u64], lo_strict: bool, hi: &[u64], hi_strict: bool) -> bool {
    let lo_ok = lo.is_empty()
        || match cmp_prefix(lo, key) {
            Ordering::Less => true,
            Ordering::Equal => !lo_strict,
            Ordering::Greater => false,
        };
    let hi_ok = hi.is_empty()
        || match cmp_prefix(hi, key) {
            Ordering::Greater => true,
            Ordering::Equal => !hi_strict,
            Ordering::Less => false,
        };
    lo_ok && hi_ok
}

/// A bulk-loaded tree's entries: the codes of its `width` key components
/// (the appended value field dropped) and the value.
fn key_entries(tree: &BTree, width: usize) -> Vec<(Vec<u64>, u32)> {
    tree.entries().into_iter().map(|(k, v)| (k[..width].to_vec(), v)).collect()
}

/// Bits a field takes for codes up to `max`.
fn field_bits(max: u64) -> u32 {
    u128::BITS - (max as u128 + 1).leading_zeros()
}

/// Probe codes around the offset domain `base..base + 6` of a field of
/// `bits` bits (`base` is its top bit): below it, inside it, above it, at
/// and past the field's largest value, and `u64::MAX`.
fn edge_codes(bits: u32) -> [u64; 9] {
    let base = 1u64 << (bits - 1);
    let top = (1u64 << bits) - 1;
    [0, base - 1, base, base + 2, base + 5, base + 6, top, top + 1, u64::MAX]
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
        let all = key_entries(&tree, 2);
        prop_assert!(all.windows(2).all(|w| w[0] <= w[1]));
        let mut loaded: Vec<(Vec<u64>, u32)> =
            entries.iter().map(|(k, v)| (to_key(*k).to_vec(), *v)).collect();
        loaded.sort();
        prop_assert_eq!(&all, &loaded);

        // Prefix scan on the first key component.
        let got: Vec<u32> = {
            let mut v: Vec<u32> = tree.scan_prefix(&[code(probe)]).collect();
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
        let mut got: Vec<u32> = tree.scan(&lo_key, lo_strict, &hi_key, hi_strict).collect();
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
                .filter(|(k, _)| admits(k, &lo, lo_strict, &hi, hi_strict))
                .map(|(_, v)| *v)
                .collect();
            let got: Vec<u32> = tree.scan(&lo, lo_strict, &hi, hi_strict).collect();
            prop_assert_eq!(&got, &want, "lo {:?} {} hi {:?} {}", lo, lo_strict, hi, hi_strict);
            let sought: Vec<u32> = tree.seek_cursor().seek(&lo, lo_strict, &hi, hi_strict).collect();
            prop_assert_eq!(&sought, &want, "seek lo {:?} {} hi {:?} {}", lo, lo_strict, hi, hi_strict);
        }
    }

    /// Two fields of offset domains whose widths, with the value field's,
    /// sum to about 55–71 or 113–136 bits: the tree takes the 8-byte word
    /// exactly when they fit in 64, the 16-byte word when they fit in 128,
    /// and on every word its iteration, prefix scans, range scans and seek
    /// passes match the reference, duplicates included.
    #[test]
    fn keys_straddling_word_boundaries_match_reference(
        (wa, wb) in prop_oneof![
            (8u32..=46, 54u32..=61).prop_map(|(wa, sum)| (wa, sum - wa)),
            (56u32..=63, 56u32..=63),
        ],
        entries in proptest::collection::vec(((0u64..6, 0u64..6), 0u32..256), 1..300),
        bounds in proptest::collection::vec(
            (
                (0usize..=2, 0usize..9, 0usize..9),
                (0usize..=2, 0usize..9, 0usize..9),
                any::<bool>(),
                any::<bool>(),
            ),
            12..13,
        ),
        pass in proptest::collection::vec((0usize..9, 0usize..9, 0u64..4), 1..40),
        (pass_len, pass_strict) in (1usize..=2, any::<bool>()),
    ) {
        let (base_a, base_b) = (1u64 << (wa - 1), 1u64 << (wb - 1));
        let mut reference: BTreeMap<(Vec<u64>, u32), usize> = BTreeMap::new();
        for ((a, b), v) in &entries {
            *reference.entry((vec![base_a + a, base_b + b], *v)).or_default() += 1;
        }
        let select = |lo: &[u64], lo_strict: bool, hi: &[u64], hi_strict: bool| -> Vec<u32> {
            reference
                .iter()
                .filter(|((k, _), _)| admits(k, lo, lo_strict, hi, hi_strict))
                .flat_map(|((_, v), &n)| std::iter::repeat_n(*v, n))
                .collect()
        };
        let tree = BTree::bulk_load(
            2,
            entries.iter().flat_map(|((a, b), _)| [base_a + a, base_b + b]).collect(),
            entries.iter().map(|(_, v)| *v).collect(),
        )
        .unwrap();
        let max_v = entries.iter().map(|(_, v)| *v).max().unwrap();
        let width = wa + wb + field_bits(2 * max_v as u64 + 2);
        let word = match width {
            ..=64 => 8,
            65..=128 => 16,
            _ => 24,
        };
        prop_assert_eq!(tree.word_bytes(), word, "{} bits", width);

        // Iteration.
        let want: Vec<(Vec<u64>, u32)> = reference
            .iter()
            .flat_map(|(e, &n)| std::iter::repeat_n(e.clone(), n))
            .collect();
        prop_assert_eq!(key_entries(&tree, 2), want);

        // Prefix scans on one and on both components.
        for a in 0..6 {
            let got: Vec<u32> = tree.scan_prefix(&[base_a + a]).collect();
            prop_assert_eq!(got, select(&[base_a + a], false, &[base_a + a], false));
            let key = [base_a + a, base_b + a];
            prop_assert_eq!(tree.scan_prefix(&key).collect::<Vec<u32>>(), select(&key, false, &key, false));
        }

        // Range scans and fresh seeks with bounds around both domains.
        let (edges_a, edges_b) = (edge_codes(wa), edge_codes(wb));
        let bound = |(len, ia, ib): (usize, usize, usize)| -> Vec<u64> {
            [edges_a[ia], edges_b[ib]][..len].to_vec()
        };
        for (lo, hi, lo_strict, hi_strict) in bounds {
            let (lo, hi) = (bound(lo), bound(hi));
            let want = select(&lo, lo_strict, &hi, hi_strict);
            let got: Vec<u32> = tree.scan(&lo, lo_strict, &hi, hi_strict).collect();
            prop_assert_eq!(&got, &want, "lo {:?} {} hi {:?} {}", lo, lo_strict, hi, hi_strict);
            let sought: Vec<u32> = tree.seek_cursor().seek(&lo, lo_strict, &hi, hi_strict).collect();
            prop_assert_eq!(&sought, &want, "seek lo {:?} {} hi {:?} {}", lo, lo_strict, hi, hi_strict);
        }

        // One seek pass over sorted lower bounds of one length and
        // strictness, as an access presents them, each with an upper bound a
        // few codes past it in its last component.
        let mut pass: Vec<(Vec<u64>, u64)> =
            pass.into_iter().map(|(ia, ib, reach)| (bound((pass_len, ia, ib)), reach)).collect();
        pass.sort();
        let mut cursor = tree.seek_cursor();
        for (lo, reach) in &pass {
            let mut hi = lo.clone();
            let last = hi.last_mut().expect("a pass bound has a component");
            *last = last.saturating_add(*reach);
            let want = select(lo, pass_strict, &hi, false);
            let got: Vec<u32> = cursor.seek(lo, pass_strict, &hi, false).collect();
            prop_assert_eq!(&got, &want, "pass lo {:?} {} hi {:?}", lo, pass_strict, hi);
        }
    }
}
