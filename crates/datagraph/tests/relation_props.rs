//! Property tests for the adaptive `Relation` backend: random pair sets
//! are round-tripped through the dense and sparse representations, and
//! every algebra operation must agree across representations, with the
//! dense implementation (and Warshall for closure) as the oracle.
//!
//! Dimensions include the word boundaries `n = 64` and `n = 65`, the
//! degenerate `n = 0`, and a multi-word dimension. Uses the vendored
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
