//! Property tests for the adaptive `Relation` backend: random pair sets
//! are round-tripped through the dense and sparse representations, and
//! every algebra operation must agree across representations, with the
//! dense implementation (and Warshall for closure) as the oracle.
//!
//! Dimensions include the word boundaries `n = 64` and `n = 65`, the
//! degenerate `n = 0`, and a multi-word dimension; row restriction also
//! runs either side of the 256-node dense cutoff. Uses the vendored
//! proptest shim (deterministic cases, no shrinking).

use gde_datagraph::{Relation, RelationBuilder};
use proptest::prelude::*;

/// Dimensions under test: degenerate, single-word boundary, word+1, and a
/// three-word dimension.
const DIMS: [usize; 5] = [0, 1, 64, 65, 130];

fn rel_pair(n: usize, raw: &[(u32, u32)], sparse: bool) -> Relation {
    let mut b = RelationBuilder::new(n);
    if n > 0 {
        for &(i, j) in raw {
            b.push(i as usize % n, j as usize % n);
        }
    }
    let mut r = b.build();
    if sparse {
        r.force_sparse();
    } else {
        r.force_dense();
    }
    r
}

/// Dimensions for `restrict_rows`: either side of the 256-node dense
/// cutoff, plus the degenerate ones.
const RESTRICT_DIMS: [usize; 6] = [0, 1, 200, 256, 257, 300];

/// A seeded random relation over `0..n`. `dense_density` puts its pair
/// count past the dense/sparse switch (`nnz · 32 ≥ n²`), else well below
/// it; `repr_sel` keeps the builder's density-picked representation (0)
/// or forces the dense (1) or sparse (2) one.
fn random_relation(n: usize, dense_density: bool, repr_sel: usize, seed: u64) -> Relation {
    let mut state = seed;
    let mut next = || {
        // SplitMix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as usize
    };
    let pairs = if dense_density { n * n / 16 } else { n / 2 };
    let mut b = RelationBuilder::new(n);
    if n > 0 {
        for _ in 0..pairs {
            b.push(next() % n, next() % n);
        }
    }
    let mut r = b.build();
    match repr_sel {
        1 => r.force_dense(),
        2 => r.force_sparse(),
        _ => {}
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn algebra_agrees_across_representations(
        dim_sel in 0usize..DIMS.len(),
        raw_a in prop::collection::vec((any::<u32>(), any::<u32>()), 0..40),
        raw_b in prop::collection::vec((any::<u32>(), any::<u32>()), 0..40),
    ) {
        let n = DIMS[dim_sel];
        let da = rel_pair(n, &raw_a, false);
        let sa = rel_pair(n, &raw_a, true);
        let db = rel_pair(n, &raw_b, false);
        let sb = rel_pair(n, &raw_b, true);

        // the two representations hold the same pairs
        prop_assert_eq!(&da, &sa);
        prop_assert_eq!(da.len(), sa.len());
        prop_assert_eq!(
            da.iter_pairs().collect::<Vec<_>>(),
            sa.iter_pairs().collect::<Vec<_>>()
        );
        prop_assert_eq!(da.domain(), sa.domain());
        for i in 0..n {
            prop_assert_eq!(
                da.row_iter(i).collect::<Vec<_>>(),
                sa.row_iter(i).collect::<Vec<_>>()
            );
        }

        // composition: dense∘dense is the oracle
        let oracle = da.compose(&db);
        prop_assert_eq!(&sa.compose(&sb), &oracle);
        prop_assert_eq!(&sa.compose(&db), &oracle);
        prop_assert_eq!(&da.compose(&sb), &oracle);

        // union
        let u_oracle = da.union(&db);
        for (x, y) in [(&sa, &sb), (&sa, &db), (&da, &sb)] {
            let mut u = x.clone();
            u.union_with(y);
            prop_assert_eq!(&u, &u_oracle);
        }

        // intersection
        let mut i_oracle = da.clone();
        i_oracle.intersect_with(&db);
        for (x, y) in [(&sa, &sb), (&sa, &db), (&da, &sb)] {
            let mut i = x.clone();
            i.intersect_with(y);
            prop_assert_eq!(&i, &i_oracle);
        }

        // subset relations hold across representations
        prop_assert!(i_oracle.is_subset_of(&sa));
        prop_assert!(sa.is_subset_of(&u_oracle));
        prop_assert_eq!(da.is_subset_of(&db), sa.is_subset_of(&sb));

        // inverse is an involution and representation-independent
        prop_assert_eq!(&sa.inverse(), &da.inverse());
        prop_assert_eq!(&sa.inverse().inverse(), &da);

        // filtering
        let keep = |i: usize, j: usize| (i + j).is_multiple_of(2);
        prop_assert_eq!(&sa.filter(keep), &da.filter(keep));

        // complement returns everything the relation misses
        let comp = sa.complement();
        prop_assert_eq!(comp.len(), n * n - da.len());
        let mut disjoint = comp.clone();
        disjoint.intersect_with(&da);
        prop_assert!(disjoint.is_empty());
    }

    #[test]
    fn closure_agrees_with_warshall_oracle(
        dim_sel in 0usize..DIMS.len(),
        raw in prop::collection::vec((any::<u32>(), any::<u32>()), 0..60),
    ) {
        let n = DIMS[dim_sel];
        let dense = rel_pair(n, &raw, false);
        let sparse = rel_pair(n, &raw, true);
        let oracle = dense.transitive_closure_warshall();
        prop_assert_eq!(&sparse.transitive_closure_scc(), &oracle);
        prop_assert_eq!(&dense.transitive_closure_scc(), &oracle);
        prop_assert_eq!(&sparse.transitive_closure(), &oracle);
        // reflexive closure = closure + identity, on both representations
        let rtc = sparse.reflexive_transitive_closure();
        prop_assert_eq!(&rtc, &dense.reflexive_transitive_closure());
        let mut expect = oracle.clone();
        expect.union_with(&Relation::identity(n));
        prop_assert_eq!(&rtc, &expect);
    }

    #[test]
    fn restrict_rows_keeps_exactly_the_range_rows(
        seed in any::<u64>(),
        a in 0usize..400,
        b in 0usize..400,
    ) {
        for n in RESTRICT_DIMS {
            let (a, b) = (a % (n + 2), b % (n + 2));
            for dense_density in [false, true] {
                for repr_sel in 0..3 {
                    let r = random_relation(n, dense_density, repr_sel, seed);
                    // empty, full, a prefix, ending at or beyond n, and
                    // any range at all (an inverted, empty one included)
                    for rows in [a..a, 0..n, 0..b, a..n + b, a..b] {
                        let got = r.restrict_rows(rows.clone());
                        let kept = r.iter_pairs().filter(|(i, _)| rows.contains(i));
                        let oracle = Relation::from_pairs(n, kept);
                        prop_assert_eq!(got.dim(), n);
                        prop_assert_eq!(got.len(), oracle.len());
                        prop_assert_eq!(&got, &oracle);
                        // the result has the representation the builder
                        // picks for the kept pairs, except that a range
                        // covering every row clones a forced one
                        let clone = n == 0 || (rows.start == 0 && rows.end >= n);
                        if repr_sel == 0 || !clone {
                            prop_assert_eq!(got.is_dense(), oracle.is_dense());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn incremental_mutation_matches_bulk_build(
        dim_sel in 1usize..DIMS.len(), // skip n = 0: nothing to insert
        raw in prop::collection::vec((any::<u32>(), any::<u32>()), 0..30),
    ) {
        let n = DIMS[dim_sel];
        let bulk = rel_pair(n, &raw, true);
        // one-by-one sparse inserts must agree with the bulk builder
        let mut inc = Relation::empty(n);
        inc.force_sparse();
        for &(i, j) in &raw {
            inc.insert(i as usize % n, j as usize % n);
        }
        prop_assert_eq!(&inc, &bulk);
        // removing every pair empties it again
        for &(i, j) in &raw {
            inc.remove(i as usize % n, j as usize % n);
        }
        prop_assert!(inc.is_empty());
    }
}
