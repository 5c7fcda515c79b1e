//! Property tests for the REE row evaluator's in-place tests and its
//! early-exit Boolean walk: `=`/`≠` over a memoised closure, read row by
//! row through the snapshot's value groups, and
//! [`Ree::holds_rows_snapshot`], checked against the one-shot
//! evaluation on random small graphs with self-loops, isolated nodes and
//! null values.

use crate::ree::{Ree, ReeRowMemo};
use gde_datagraph::{DataGraph, Label, NodeId, Value};
use proptest::prelude::*;

/// Edge labels `a`, `b`, `c` (interned first, so they are labels 0..3).
const LABELS: u16 = 3;

/// A random graph on 1–9 nodes. Ids are spread (`3i + 1`) so dense
/// indices and ids differ; values come from a pool of three integers and
/// the null, so value groups hold several nodes and `=`/`≠` both hold and
/// fail; a separate list adds self-loops; nodes no edge touches stay
/// isolated.
fn arb_graph() -> impl Strategy<Value = DataGraph> {
    (
        1usize..10,
        prop::collection::vec(0u8..4, 9..10),
        prop::collection::vec((0usize..9, 0u16..LABELS, 0usize..9), 0..20),
        prop::collection::vec((0usize..9, 0u16..LABELS), 0..4),
    )
        .prop_map(|(n, values, edges, loops)| {
            let mut g = DataGraph::new();
            for name in ["a", "b", "c"] {
                g.alphabet_mut().intern(name);
            }
            let id = |i: usize| NodeId(3 * (i % n) as u32 + 1);
            for (i, &v) in values.iter().take(n).enumerate() {
                let value = if v == 3 {
                    Value::Null
                } else {
                    Value::int(v as i64)
                };
                g.add_node(id(i), value).expect("fresh id");
            }
            for (u, l, v) in edges {
                g.add_edge(id(u), Label(l), id(v)).expect("nodes exist");
            }
            for (u, l) in loops {
                g.add_edge(id(u), Label(l), id(u)).expect("nodes exist");
            }
            g
        })
}

/// Random REEs over `a`, `b`, `c` with every constructor, tests and
/// closures nested anywhere.
fn arb_ree() -> BoxedStrategy<Ree> {
    let leaf = prop_oneof![
        Just(Ree::Epsilon),
        (0u16..LABELS).prop_map(|l| Ree::Atom(Label(l))),
        (0u16..LABELS).prop_map(|l| Ree::Atom(Label(l))),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Ree::Concat(vec![a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Ree::Union(vec![a, b])),
            inner.clone().prop_map(Ree::plus),
            inner.clone().prop_map(Ree::star),
            inner.clone().prop_map(Ree::eq),
            inner.prop_map(Ree::neq),
        ]
    })
}

/// A test over a closure, `(e⁺)=`, `(e*)=`, `(e⁺)≠` or `(e*)≠`, placed
/// where the row evaluator meets it: at the top, in either union arm, as
/// a concatenation head, or as a non-head factor (which phase 1 stores
/// whole).
fn arb_test_over_closure() -> impl Strategy<Value = Ree> {
    (arb_ree(), 0u8..4, arb_ree(), 0u8..5).prop_map(|(body, kind, other, place)| {
        let closure = if kind & 1 == 0 {
            body.plus()
        } else {
            body.star()
        };
        let test = if kind & 2 == 0 {
            closure.eq()
        } else {
            closure.neq()
        };
        match place {
            0 => test,
            1 => Ree::Union(vec![test, other]),
            2 => Ree::Union(vec![other, test]),
            3 => Ree::Concat(vec![test, other]),
            _ => Ree::Concat(vec![other, test]),
        }
    })
}

/// The memo-driven evaluation equals the one-shot one, and the
/// early-exit walk is the one-shot answer's non-emptiness.
fn check(e: &Ree, g: &DataGraph) {
    let s = g.snapshot();
    let memo = ReeRowMemo::build(e, &s);
    let full = e.eval_snapshot(&s);
    assert_eq!(e.eval_rows_snapshot(&s, &memo), full, "{e:?}");
    assert_eq!(e.holds_rows_snapshot(&s, &memo), full.any(), "{e:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tests_over_closures_match_the_full_evaluation(
        g in arb_graph(),
        e in arb_test_over_closure(),
    ) {
        check(&e, &g);
    }

    #[test]
    fn random_rees_match_the_full_evaluation(
        g in arb_graph(),
        e in arb_ree(),
    ) {
        check(&e, &g);
    }
}

/// `(a⁺)=` on a fixed graph where both walk directions run: a cycle
/// through a null node, whose rows reach more nodes than their value
/// groups hold (probe the group), and a short chain `9 → 8 → 7` whose
/// rows are shorter than the group of value 1 (walk the row).
#[test]
fn equality_over_a_closure_walks_either_side() {
    let mut g = DataGraph::new();
    let a = g.alphabet_mut().intern("a");
    let values = [1, 1, 2, 1, 3, 1];
    for (i, &v) in values.iter().enumerate() {
        g.add_node(NodeId(i as u32), Value::int(v))
            .expect("fresh id");
    }
    g.add_node(NodeId(6), Value::Null).expect("fresh id");
    for i in 0..7u32 {
        g.add_edge(NodeId(i), a, NodeId((i + 1) % 7))
            .expect("nodes exist");
    }
    for (i, v) in [(7, 3), (8, 1), (9, 1)] {
        g.add_node(NodeId(i), Value::int(v)).expect("fresh id");
    }
    for (u, v) in [(4, 7), (8, 7), (9, 8)] {
        g.add_edge(NodeId(u), a, NodeId(v)).expect("nodes exist");
    }
    for e in [
        Ree::Atom(a).plus().eq(),
        Ree::Atom(a).star().eq(),
        Ree::Atom(a).plus().neq(),
        Ree::Atom(a).star().neq(),
    ] {
        check(&e, &g);
    }
    let s = g.snapshot();
    let ix = |id: u32| s.idx(NodeId(id)).expect("node exists") as usize;
    let e = Ree::Atom(a).plus().eq();
    let rows = e.eval_rows_snapshot(&s, &ReeRowMemo::build(&e, &s));
    assert!(rows.contains(ix(4), ix(7)), "probed from the value group");
    assert!(rows.contains(ix(9), ix(8)), "walked along the closure row");
    assert!(rows.contains(ix(0), ix(0)), "around the cycle");
    assert_eq!(rows.row_len(ix(6)), 0, "a null row has no witness");
}
