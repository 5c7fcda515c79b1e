//! Canonical solutions for relational graph schema mappings.
//!
//! Two constructions from the paper, identical except for the values given
//! to invented nodes:
//!
//! * **Universal solutions** (§7): invented nodes are *null nodes* `(n, n)`
//!   carrying the SQL null. Under SQL-null comparison semantics these map
//!   homomorphically into every solution over `D ∪ {n}` (Lemma 1), which is
//!   what makes certain answers `2ⁿ` computable by direct evaluation
//!   (Theorem 4).
//! * **Least informative solutions** (§8): invented nodes carry pairwise
//!   distinct *fresh data values*. For queries without inequalities
//!   (REM=/REE=) these compute genuine certain answers `2` (Theorem 5) —
//!   a fresh value can never satisfy an equality test, and no inequality
//!   tests exist to notice freshness.
//!
//! Both follow the paper's procedure: add `dom(M, G_s)`, then for each rule
//! `(q, a₁…a_k)` and each `(v,v') ∈ q(G_s)` add a fresh path
//! `v a₁ v₁ a₂ … v_{k-1} a_k v'`.

use crate::gsm::Gsm;
use gde_datagraph::{DataGraph, FxHashSet, NodeId, Value};

/// Why a canonical solution could not be built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolutionError {
    /// The mapping is not relational (some target query is not a word).
    NotRelational,
    /// A rule with target word ε requires `(v,v')` with `v ≠ v'` to be
    /// connected by an empty path — impossible, so *no* solution exists and
    /// every tuple is vacuously certain.
    NoSolution {
        /// The offending source pair.
        pair: (NodeId, NodeId),
    },
    /// The invented nodes do not fit into the node ids above every source
    /// id, which end at `u32::MAX`.
    IdSpaceExhausted,
}

impl std::fmt::Display for SolutionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolutionError::NotRelational => {
                write!(f, "canonical solutions require a relational mapping")
            }
            SolutionError::NoSolution { pair } => write!(
                f,
                "no solution exists: ε-rule forces distinct nodes {} = {}",
                pair.0, pair.1
            ),
            SolutionError::IdSpaceExhausted => write!(
                f,
                "node id space exhausted: invented nodes need ids above every source id, up to {}",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for SolutionError {}

/// A canonical (universal or least informative) solution.
#[derive(Clone, Debug)]
pub struct CanonicalSolution {
    /// The target graph.
    pub graph: DataGraph,
    /// Nodes invented by the construction (in creation order). All other
    /// nodes of `graph` form `dom(M, G_s)`.
    pub invented: Vec<NodeId>,
}

impl CanonicalSolution {
    /// Package a target graph with its invented-node list.
    pub fn new(graph: DataGraph, invented: Vec<NodeId>) -> CanonicalSolution {
        CanonicalSolution { graph, invented }
    }

    /// Nodes of `dom(M, G_s)` (sorted).
    pub fn dom_nodes(&self) -> Vec<NodeId> {
        let invented: FxHashSet<NodeId> = self.invented.iter().copied().collect();
        let mut out: Vec<NodeId> = self
            .graph
            .node_ids()
            .filter(|id| !invented.contains(id))
            .collect();
        out.sort();
        out
    }

    /// Approximate heap footprint of the solution in bytes (graph storage
    /// plus the invented-node list). An estimate for cache budgeting, not
    /// an allocator measurement: nodes are costed at the
    /// id/value/hash-index/adjacency-header rate, edges at the
    /// hash-set-entry plus two-adjacency-slots rate.
    pub fn approx_bytes(&self) -> usize {
        self.graph.node_count() * 96
            + self.graph.edge_count() * 56
            + self.invented.len() * std::mem::size_of::<NodeId>()
    }
}

/// Which values invented nodes receive.
enum InventedValues {
    SqlNull,
    FreshDistinct,
}

fn build(
    m: &Gsm,
    gs: &DataGraph,
    style: InventedValues,
) -> Result<CanonicalSolution, SolutionError> {
    if !m.is_relational() {
        return Err(SolutionError::NotRelational);
    }
    let mut gt = DataGraph::with_alphabet(m.target_alphabet().clone());
    // invented node ids start above every source id, so id spaces stay
    // disjoint across graphs sharing the paper's global N
    gt.reserve_ids(gs.fresh_id_watermark());

    // Each rule's source query is evaluated once; both steps read it.
    let answers = m.rule_answers(gs);

    // Step 1: dom(M, G_s) with source values.
    for id in Gsm::dom_of(&answers) {
        let val = gs.value(id).expect("invariant: dom node in source").clone();
        gt.add_node(id, val).expect("invariant: distinct dom nodes");
    }

    // Step 2: fresh paths per rule and source pair. The watermark
    // saturates at u32::MAX, so a source holding that id leaves no fresh id.
    let source_full = gs.has_node(NodeId(gs.fresh_id_watermark()));
    let mut invented = Vec::new();
    let mut fresh_counter: u64 = 0;
    for (rule, pairs) in m.rules().iter().zip(answers) {
        let word = rule
            .target
            .as_word()
            .expect("invariant: relational checked");
        for (u, v) in pairs {
            if word.is_empty() {
                if u != v {
                    return Err(SolutionError::NoSolution { pair: (u, v) });
                }
                continue;
            }
            let mut cur = u;
            for (i, &label) in word.iter().enumerate() {
                let next = if i + 1 == word.len() {
                    v
                } else {
                    let val = match style {
                        InventedValues::SqlNull => Value::Null,
                        InventedValues::FreshDistinct => {
                            fresh_counter += 1;
                            Value::str(format!("fresh#{fresh_counter}"))
                        }
                    };
                    let id = NodeId(gt.fresh_id_watermark());
                    if source_full || gt.add_node(id, val).is_err() {
                        return Err(SolutionError::IdSpaceExhausted);
                    }
                    invented.push(id);
                    id
                };
                gt.add_edge(cur, label, next)
                    .expect("invariant: nodes exist");
                cur = next;
            }
        }
    }
    Ok(CanonicalSolution::new(gt, invented))
}

/// The universal solution of §7 (invented nodes are null nodes).
pub fn universal_solution(m: &Gsm, gs: &DataGraph) -> Result<CanonicalSolution, SolutionError> {
    build(m, gs, InventedValues::SqlNull)
}

/// The least informative solution of §8 (invented nodes carry fresh,
/// pairwise distinct data values).
pub fn least_informative_solution(
    m: &Gsm,
    gs: &DataGraph,
) -> Result<CanonicalSolution, SolutionError> {
    build(m, gs, InventedValues::FreshDistinct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gde_automata::parse_regex;
    use gde_datagraph::{Alphabet, Value};

    fn scenario() -> (Gsm, DataGraph) {
        let mut sa = Alphabet::from_labels(["a", "b"]);
        let mut ta = Alphabet::from_labels(["x", "y"]);
        let mut m = Gsm::new(sa.clone(), ta.clone());
        m.add_rule(
            parse_regex("a", &mut sa).unwrap(),
            parse_regex("x y", &mut ta).unwrap(),
        );
        m.add_rule(
            parse_regex("b", &mut sa).unwrap(),
            parse_regex("y", &mut ta).unwrap(),
        );
        let mut gs = DataGraph::new();
        gs.add_node(NodeId(0), Value::int(10)).unwrap();
        gs.add_node(NodeId(1), Value::int(20)).unwrap();
        gs.add_node(NodeId(2), Value::int(30)).unwrap();
        gs.add_edge_str(NodeId(0), "a", NodeId(1)).unwrap();
        gs.add_edge_str(NodeId(1), "b", NodeId(2)).unwrap();
        (m, gs)
    }

    #[test]
    fn universal_is_a_solution() {
        let (m, gs) = scenario();
        let sol = universal_solution(&m, &gs).unwrap();
        assert!(m.is_solution(&gs, &sol.graph));
    }

    #[test]
    fn least_informative_is_a_solution() {
        let (m, gs) = scenario();
        let sol = least_informative_solution(&m, &gs).unwrap();
        assert!(m.is_solution(&gs, &sol.graph));
    }

    #[test]
    fn universal_shape() {
        let (m, gs) = scenario();
        let sol = universal_solution(&m, &gs).unwrap();
        // dom = {0,1,2}; rule a/xy invents 1 node; rule b/y invents none
        assert_eq!(sol.dom_nodes(), vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(sol.invented.len(), 1);
        assert_eq!(sol.graph.node_count(), 4);
        assert_eq!(sol.graph.edge_count(), 3);
        // invented node is a null node with id above the source watermark
        let inv = sol.invented[0];
        assert!(inv.0 >= gs.fresh_id_watermark());
        assert!(sol.graph.value(inv).unwrap().is_null());
        assert!(sol.invented.contains(&inv));
        assert!(!sol.invented.contains(&NodeId(0)));
    }

    #[test]
    fn least_informative_values_fresh_and_distinct() {
        let mut sa = Alphabet::from_labels(["a"]);
        let mut ta = Alphabet::from_labels(["x"]);
        let mut m = Gsm::new(sa.clone(), ta.clone());
        m.add_rule(
            parse_regex("a", &mut sa).unwrap(),
            parse_regex("x x x", &mut ta).unwrap(),
        );
        let mut gs = DataGraph::new();
        gs.add_node(NodeId(0), Value::int(1)).unwrap();
        gs.add_node(NodeId(1), Value::int(1)).unwrap();
        gs.add_edge_str(NodeId(0), "a", NodeId(1)).unwrap();
        let sol = least_informative_solution(&m, &gs).unwrap();
        assert_eq!(sol.invented.len(), 2);
        let v1 = sol.graph.value(sol.invented[0]).unwrap();
        let v2 = sol.graph.value(sol.invented[1]).unwrap();
        assert_ne!(v1, v2);
        assert!(!v1.is_null() && !v2.is_null());
        // fresh values differ from all source values
        assert!(!gs.value_set().contains(v1));
    }

    #[test]
    fn non_relational_rejected() {
        let (m, gs) = scenario();
        let mut m2 = m.clone();
        let reach = gde_automata::Regex::reachability(m2.target_alphabet());
        m2.add_rule(
            gde_automata::Regex::Atom(m2.source_alphabet().label("a").unwrap()),
            reach,
        );
        assert_eq!(
            universal_solution(&m2, &gs).err(),
            Some(SolutionError::NotRelational)
        );
    }

    #[test]
    fn epsilon_rule_detects_unsatisfiability() {
        let mut sa = Alphabet::from_labels(["a"]);
        let ta = Alphabet::from_labels(["x"]);
        let mut m = Gsm::new(sa.clone(), ta);
        m.add_rule(
            parse_regex("a", &mut sa).unwrap(),
            gde_automata::Regex::Epsilon,
        );
        let mut gs = DataGraph::new();
        gs.add_node(NodeId(0), Value::int(1)).unwrap();
        gs.add_node(NodeId(1), Value::int(2)).unwrap();
        gs.add_edge_str(NodeId(0), "a", NodeId(1)).unwrap();
        match universal_solution(&m, &gs) {
            Err(SolutionError::NoSolution { pair }) => assert_eq!(pair, (NodeId(0), NodeId(1))),
            other => panic!("expected NoSolution, got {other:?}"),
        }
        // with a self-loop the ε-rule is fine
        let mut gs2 = DataGraph::new();
        gs2.add_node(NodeId(0), Value::int(1)).unwrap();
        gs2.add_edge_str(NodeId(0), "a", NodeId(0)).unwrap();
        assert!(universal_solution(&m, &gs2).is_ok());
    }

    #[test]
    fn longer_source_queries_allowed() {
        // relational restricts targets, not sources: q = a+ is fine
        let mut sa = Alphabet::from_labels(["a"]);
        let mut ta = Alphabet::from_labels(["x"]);
        let mut m = Gsm::new(sa.clone(), ta.clone());
        m.add_rule(
            parse_regex("a+", &mut sa).unwrap(),
            parse_regex("x", &mut ta).unwrap(),
        );
        let mut gs = DataGraph::new();
        for i in 0..3 {
            gs.add_node(NodeId(i), Value::int(i as i64)).unwrap();
        }
        gs.add_edge_str(NodeId(0), "a", NodeId(1)).unwrap();
        gs.add_edge_str(NodeId(1), "a", NodeId(2)).unwrap();
        let sol = universal_solution(&m, &gs).unwrap();
        // a+ yields pairs (0,1),(1,2),(0,2): three x-edges, no invented nodes
        assert_eq!(sol.invented.len(), 0);
        assert_eq!(sol.graph.edge_count(), 3);
        assert!(m.is_solution(&gs, &sol.graph));
    }
}
