//! Property tests for the per-start evaluation kernels: [`Nfa`] and
//! [`RegisterAutomaton`] evaluation on one shared workspace per call,
//! checked against the per-start reference searches they replaced, on
//! random small graphs with self-loops, isolated nodes and null values.

use crate::register::{Builder, EpsAction};
use crate::{Cond, Nfa, Reg, Regex, RegisterAutomaton};
use gde_datagraph::{DataGraph, GraphSnapshot, Label, NodeId, Relation, Value};
use proptest::prelude::*;

/// Edge labels `a`, `b`, `c` (interned first, so they are labels 0..3).
const LABELS: u16 = 3;

/// A random graph on 1–9 nodes. Ids are spread (`3i + 1`) so dense
/// indices and ids differ; values come from a pool of three integers and
/// the null, so equality checks both hold and fail; a separate list adds
/// self-loops; nodes no edge touches stay isolated.
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

/// Random regexes over `a`, `b`, `c`, heavy in ε: ε and ∅ leaves, stars
/// and plusses, and the `(e | ε)*` shape whose Thompson NFA is an ε-cycle.
fn arb_regex() -> BoxedStrategy<Regex> {
    let leaf = prop_oneof![
        Just(Regex::Epsilon),
        (0u16..LABELS).prop_map(|l| Regex::Atom(Label(l))),
        (0u16..LABELS).prop_map(|l| Regex::Atom(Label(l))),
        Just(Regex::Empty),
    ];
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Regex::Concat(vec![a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Regex::Union(vec![a, b])),
            inner.clone().prop_map(|a| Regex::Star(Box::new(a))),
            inner.clone().prop_map(|a| Regex::Plus(Box::new(a))),
            inner.prop_map(|a| Regex::Star(Box::new(Regex::Union(vec![a, Regex::Epsilon])))),
        ]
    })
}

/// One ε-transition of a random register automaton: `(from, action kind,
/// action argument, to)`.
type EpsSpec = (u32, u8, u8, u32);

/// Build a register automaton from a raw spec: `regs` registers (0–2),
/// `states` states, stores into and checks against registers picked by
/// the argument, then optionally closed under star, plus, or
/// concatenation with itself — the shapes the REM compiler produces.
fn build_ra(
    regs: u8,
    states: u32,
    accepting: u32,
    eps: &[EpsSpec],
    steps: &[(u32, u16, u32)],
    wrap: u8,
) -> RegisterAutomaton {
    let mut b = Builder::new(regs as usize);
    for s in 0..states {
        b.add_state();
        if accepting & (1 << s) != 0 {
            b.set_accepting(s);
        }
    }
    b.set_initial(0);
    let reg = |arg: u8| Reg(arg % regs.max(1));
    for &(from, kind, arg, to) in eps {
        let action = match (kind, regs) {
            (_, 0) | (0, _) => EpsAction::Jump,
            (1, _) => EpsAction::Store(vec![reg(arg)]),
            (2, _) => EpsAction::Store(vec![Reg(0), reg(arg)]),
            (3, _) => EpsAction::Check(Cond::Eq(reg(arg))),
            (4, _) => EpsAction::Check(Cond::Neq(reg(arg))),
            (5, _) => EpsAction::Check(Cond::and(Cond::Eq(Reg(0)), Cond::Neq(reg(arg)))),
            _ => EpsAction::Check(Cond::or(Cond::Eq(reg(arg)), Cond::True)),
        };
        b.add_eps(from % states, action, to % states);
    }
    for &(from, l, to) in steps {
        b.add_step(from % states, Label(l), to % states);
    }
    let ra = b.build();
    match wrap {
        1 => ra.star(),
        2 => ra.plus(),
        3 => ra.concat(&ra),
        _ => ra,
    }
}

fn arb_ra() -> impl Strategy<Value = RegisterAutomaton> {
    (
        (0u8..3, 1u32..6, 0u32..64),
        prop::collection::vec((0u32..6, 0u8..7, 0u8..2, 0u32..6), 0..8),
        prop::collection::vec((0u32..6, 0u16..LABELS, 0u32..6), 0..8),
        0u8..5,
    )
        .prop_map(|((regs, states, accepting), eps, steps, wrap)| {
            build_ra(regs, states, accepting, &eps, &steps, wrap)
        })
}

/// The per-start surface both automata expose, so one checker covers
/// both.
trait PerStart {
    fn reference(&self, s: &GraphSnapshot, from: NodeId) -> Vec<NodeId>;
    fn per_start(&self, s: &GraphSnapshot, from: NodeId) -> Vec<NodeId>;
    fn full(&self, s: &GraphSnapshot) -> Relation;
    fn holds(&self, s: &GraphSnapshot) -> bool;
}

impl PerStart for Nfa {
    fn reference(&self, s: &GraphSnapshot, from: NodeId) -> Vec<NodeId> {
        self.reference_eval_from(s, from)
    }
    fn per_start(&self, s: &GraphSnapshot, from: NodeId) -> Vec<NodeId> {
        self.eval_from_snapshot(s, from)
    }
    fn full(&self, s: &GraphSnapshot) -> Relation {
        self.eval_snapshot(s)
    }
    fn holds(&self, s: &GraphSnapshot) -> bool {
        self.holds_snapshot(s)
    }
}

impl PerStart for RegisterAutomaton {
    fn reference(&self, s: &GraphSnapshot, from: NodeId) -> Vec<NodeId> {
        self.reference_eval_from(s, from)
    }
    fn per_start(&self, s: &GraphSnapshot, from: NodeId) -> Vec<NodeId> {
        self.eval_from_snapshot(s, from)
    }
    fn full(&self, s: &GraphSnapshot) -> Relation {
        self.eval_snapshot(s)
    }
    fn holds(&self, s: &GraphSnapshot) -> bool {
        self.holds_snapshot(s)
    }
}

/// Every row of one whole evaluation (one workspace reused by all starts)
/// equals the reference; the per-start entry point agrees; and the
/// Boolean projection, which stops at the first answer, is the
/// evaluation's non-emptiness.
fn check(a: &impl PerStart, g: &DataGraph) {
    let s = g.snapshot();
    let all = a.full(&s);
    for u in 0..s.n() {
        let want = a.reference(&s, s.id_at(u as u32));
        let row: Vec<NodeId> = all.row_iter(u).map(|v| s.id_at(v as u32)).collect();
        assert_eq!(row, want, "row {u}");
        assert_eq!(a.per_start(&s, s.id_at(u as u32)), want, "start {u}");
    }
    assert_eq!(a.holds(&s), !all.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn nfa_kernel_matches_per_start_reference(
        g in arb_graph(),
        e in arb_regex(),
    ) {
        let nfa = Nfa::from_regex(&e);
        check(&nfa, &g);
        // the adjacency-list entry point runs the same kernel
        let s = g.snapshot();
        for id in g.node_ids() {
            let mut want = nfa.reference_eval_from(&s, id);
            let mut got = nfa.eval_from(&g, id);
            want.sort();
            got.sort();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn register_kernel_matches_per_start_reference(
        g in arb_graph(),
        ra in arb_ra(),
    ) {
        check(&ra, &g);
        // pairs are the relation's pairs as ids, sorted
        let s = g.snapshot();
        let mut want: Vec<(NodeId, NodeId)> = Vec::new();
        for u in 0..s.n() as u32 {
            for v in ra.reference_eval_from(&s, s.id_at(u)) {
                want.push((s.id_at(u), v));
            }
        }
        want.sort();
        prop_assert_eq!(ra.eval_pairs_snapshot(&s), want);
    }
}

/// A start that reaches every configuration followed by starts that reach
/// few: stale visited marks from the first would hide the later ones'
/// answers.
#[test]
fn workspace_reuse_forgets_the_previous_start() {
    let mut g = DataGraph::new();
    let a = g.alphabet_mut().intern("a");
    for i in 0..4 {
        g.add_node(NodeId(i), Value::int(i as i64 % 2)).unwrap();
    }
    // 0 → 1 → 2 → 3 → 1, and 2 has a self-loop
    for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 1), (2, 2)] {
        g.add_edge(NodeId(u), a, NodeId(v)).unwrap();
    }
    let s = g.snapshot();
    let nfa = Nfa::from_regex(&Regex::Plus(Box::new(Regex::Atom(a))));
    let rows = nfa.eval_snapshot(&s);
    for u in 0..4u32 {
        let want = nfa.reference_eval_from(&s, s.id_at(u));
        let row: Vec<NodeId> = rows
            .row_iter(u as usize)
            .map(|v| s.id_at(v as u32))
            .collect();
        assert_eq!(row, want, "row {u}");
    }
    // ↓x.(a⁺[x=])⁺: walks back to a node with the start's value
    let ra = build_ra(
        1,
        4,
        0b1000,
        &[(0, 1, 0, 1), (2, 3, 0, 3), (3, 0, 0, 1)],
        &[(1, 0, 2), (2, 0, 2)],
        0,
    );
    let rows = ra.eval_snapshot(&s);
    for u in 0..4u32 {
        let want = ra.reference_eval_from(&s, s.id_at(u));
        let row: Vec<NodeId> = rows
            .row_iter(u as usize)
            .map(|v| s.id_at(v as u32))
            .collect();
        assert_eq!(row, want, "row {u}");
        assert!(!want.is_empty(), "every start returns to its value");
    }
}
