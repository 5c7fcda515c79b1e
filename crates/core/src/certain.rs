//! Tractable certain answers via canonical solutions (Theorems 3–5): the
//! answer and error types of the canonical-solution engines.
//!
//! * `2ⁿ_M(Q, G_s)` of §7 ([`crate::engine::Semantics::Nulls`]): evaluate
//!   `Q` (under SQL-null semantics, which is how all of `gde-dataquery`
//!   evaluates) on the universal solution and keep tuples without null
//!   nodes. Sound and complete for `2ⁿ` by Theorem 4 for every query
//!   closed under null-absorbing homomorphisms — in particular all data
//!   RPQs (Proposition 6). It *underapproximates* the plain certain
//!   answers `2`: `2ⁿ ⊆ 2`.
//! * `2_M(Q, G_s)` of §8 ([`crate::engine::Semantics::LeastInformative`]),
//!   exact for REM=/REE= queries (Theorem 5): evaluate on the least
//!   informative solution and keep tuples over `dom(M, G_s)`.
//!
//! Both are served by [`crate::engine::MappingService`] (register once,
//! answer many, absorb deltas); [`crate::engine::answer_once`] answers a
//! single query without keeping anything.

use crate::solution::SolutionError;
use gde_datagraph::NodeId;
use gde_dataquery::AnswerRun;

/// Errors from the tractable certain-answer engines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveError {
    /// The mapping is not relational; these engines require word targets.
    NotRelational,
    /// The canonical solution's invented nodes do not fit into the node
    /// ids above every source id ([`SolutionError::IdSpaceExhausted`]).
    IdSpaceExhausted,
    /// The query is outside the fragment the engine is exact for.
    UnsupportedQuery(&'static str),
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::NotRelational => write!(f, "mapping is not relational"),
            SolveError::IdSpaceExhausted => SolutionError::IdSpaceExhausted.fmt(f),
            SolveError::UnsupportedQuery(what) => write!(f, "unsupported query: {what}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// The answer of a certain-answer computation: either a set of node pairs,
/// or *everything* because the mapping admits no solution at all (an ε-rule
/// conflict — then every tuple is vacuously certain).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertainAnswers {
    /// The computed set of certain pairs (sorted). Shared: the serving
    /// engine hands out the answer its cache holds, so a clone is an
    /// `Arc` clone.
    Pairs(AnswerRun),
    /// No solution exists; certain answers are all tuples, vacuously.
    AllVacuously,
}

impl CertainAnswers {
    /// The pairs as an owned copy, treating the vacuous case as an error
    /// in contexts where it cannot occur.
    pub fn into_pairs(self) -> Vec<(NodeId, NodeId)> {
        match self {
            CertainAnswers::Pairs(p) => p.to_vec(),
            CertainAnswers::AllVacuously => {
                panic!("certain answers are vacuously all tuples (no solution exists)")
            }
        }
    }

    /// Does the result contain the pair?
    pub fn contains(&self, u: NodeId, v: NodeId) -> bool {
        match self {
            CertainAnswers::Pairs(p) => p.binary_search(&(u, v)).is_ok(),
            CertainAnswers::AllVacuously => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{answer_once, ServeError};
    use crate::gsm::Gsm;
    use crate::Semantics;
    use gde_automata::parse_regex;
    use gde_datagraph::{Alphabet, DataGraph, Value};
    use gde_dataquery::{parse_ree, DataQuery};

    /// Source: 0(v5) -a-> 1(v5), 1 -a-> 2(v7).
    /// Mapping: (a, x y) — each a-edge becomes an x·y path with an invented
    /// middle node.
    fn scenario() -> (Gsm, DataGraph) {
        let mut sa = Alphabet::from_labels(["a"]);
        let mut ta = Alphabet::from_labels(["x", "y"]);
        let mut m = Gsm::new(sa.clone(), ta.clone());
        m.add_rule(
            parse_regex("a", &mut sa).unwrap(),
            parse_regex("x y", &mut ta).unwrap(),
        );
        let mut gs = DataGraph::new();
        gs.add_node(NodeId(0), Value::int(5)).unwrap();
        gs.add_node(NodeId(1), Value::int(5)).unwrap();
        gs.add_node(NodeId(2), Value::int(7)).unwrap();
        gs.add_edge_str(NodeId(0), "a", NodeId(1)).unwrap();
        gs.add_edge_str(NodeId(1), "a", NodeId(2)).unwrap();
        (m, gs)
    }

    fn tuples(
        m: &Gsm,
        q: &DataQuery,
        gs: &DataGraph,
        sem: Semantics,
    ) -> Result<CertainAnswers, ServeError> {
        answer_once(m, gs, &q.compile(), sem).map(|a| a.into_tuples())
    }

    fn boolean(m: &Gsm, q: &DataQuery, gs: &DataGraph, sem: Semantics) -> bool {
        answer_once(m, gs, &q.compile(), sem).unwrap().boolean()
    }

    #[test]
    fn navigational_certain_answers() {
        let (m, gs) = scenario();
        let q: DataQuery = parse_regex("x y", &mut m.target_alphabet().clone())
            .unwrap()
            .into();
        let ans = tuples(&m, &q, &gs, Semantics::nulls())
            .unwrap()
            .into_pairs();
        assert_eq!(ans, vec![(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))]);
    }

    #[test]
    fn equality_query_on_nulls_underapproximates() {
        let (m, gs) = scenario();
        let mut ta = m.target_alphabet().clone();
        // (x y)=: endpoints equal. For pair (0,1): values 5,5 — matches in
        // the universal solution (nulls only in the middle).
        let q: DataQuery = parse_ree("(x y)=", &mut ta).unwrap().into();
        let ans = tuples(&m, &q, &gs, Semantics::nulls())
            .unwrap()
            .into_pairs();
        assert_eq!(ans, vec![(NodeId(0), NodeId(1))]);
    }

    #[test]
    fn tests_touching_nulls_do_not_fire() {
        let (m, gs) = scenario();
        let mut ta = m.target_alphabet().clone();
        // (x)=: source node vs invented null node — never certain
        let q: DataQuery = parse_ree("x=", &mut ta).unwrap().into();
        let ans = tuples(&m, &q, &gs, Semantics::nulls())
            .unwrap()
            .into_pairs();
        assert!(ans.is_empty());
        // and pairs ending in a null node are filtered anyway
        let q: DataQuery = parse_ree("x", &mut ta).unwrap().into();
        let ans = tuples(&m, &q, &gs, Semantics::nulls())
            .unwrap()
            .into_pairs();
        assert!(ans.is_empty());
    }

    #[test]
    fn least_informative_agrees_on_equality_queries() {
        let (m, gs) = scenario();
        let mut ta = m.target_alphabet().clone();
        let q: DataQuery = parse_ree("(x y)=", &mut ta).unwrap().into();
        let a1 = tuples(&m, &q, &gs, Semantics::nulls())
            .unwrap()
            .into_pairs();
        let a2 = tuples(&m, &q, &gs, Semantics::least_informative())
            .unwrap()
            .into_pairs();
        assert_eq!(a1, a2);
    }

    #[test]
    fn least_informative_rejects_inequalities() {
        let (m, gs) = scenario();
        let mut ta = m.target_alphabet().clone();
        let q: DataQuery = parse_ree("(x y)!=", &mut ta).unwrap().into();
        assert!(matches!(
            tuples(&m, &q, &gs, Semantics::least_informative()),
            Err(ServeError::UnsupportedQuery(_))
        ));
    }

    #[test]
    fn inequality_on_nulls_is_conservative() {
        let (m, gs) = scenario();
        let mut ta = m.target_alphabet().clone();
        // (x y)≠: (1,2) has values 5,7 — differs in the universal solution,
        // and in fact in every solution (dom values are fixed): 2ⁿ finds it.
        let q: DataQuery = parse_ree("(x y)!=", &mut ta).unwrap().into();
        let ans = tuples(&m, &q, &gs, Semantics::nulls())
            .unwrap()
            .into_pairs();
        assert_eq!(ans, vec![(NodeId(1), NodeId(2))]);
    }

    #[test]
    fn boolean_variants() {
        let (m, gs) = scenario();
        let mut ta = m.target_alphabet().clone();
        let q: DataQuery = parse_ree("x y", &mut ta).unwrap().into();
        assert!(boolean(&m, &q, &gs, Semantics::nulls_boolean()));
        assert!(boolean(&m, &q, &gs, Semantics::least_informative_boolean()));
        // "y x" holds too: the universal solution chains the two invented
        // paths through node 1 (0 -x-> m₁ -y-> 1 -x-> m₂ -y-> 2).
        let q2: DataQuery = parse_ree("y x", &mut ta).unwrap().into();
        assert!(boolean(&m, &q2, &gs, Semantics::nulls_boolean()));
        // "y y" can never appear in any minimal solution
        let q3: DataQuery = parse_ree("y y", &mut ta).unwrap().into();
        assert!(!boolean(&m, &q3, &gs, Semantics::nulls_boolean()));
    }

    #[test]
    fn non_relational_mapping_rejected() {
        let (m, gs) = scenario();
        let mut m2 = m.clone();
        let reach = gde_automata::Regex::reachability(m2.target_alphabet());
        m2.add_rule(
            gde_automata::Regex::Atom(m2.source_alphabet().label("a").unwrap()),
            reach,
        );
        let mut ta = m.target_alphabet().clone();
        let q: DataQuery = parse_ree("x", &mut ta).unwrap().into();
        assert_eq!(
            tuples(&m2, &q, &gs, Semantics::nulls()).err(),
            Some(ServeError::NotRelational)
        );
    }

    #[test]
    fn vacuous_certainty_when_no_solution() {
        let mut sa = Alphabet::from_labels(["a"]);
        let ta = Alphabet::from_labels(["x"]);
        let mut m = Gsm::new(sa.clone(), ta.clone());
        m.add_rule(
            parse_regex("a", &mut sa).unwrap(),
            gde_automata::Regex::Epsilon,
        );
        let mut gs = DataGraph::new();
        gs.add_node(NodeId(0), Value::int(1)).unwrap();
        gs.add_node(NodeId(1), Value::int(2)).unwrap();
        gs.add_edge_str(NodeId(0), "a", NodeId(1)).unwrap();
        let mut ta2 = ta.clone();
        let q: DataQuery = parse_ree("x", &mut ta2).unwrap().into();
        let ans = tuples(&m, &q, &gs, Semantics::nulls()).unwrap();
        assert_eq!(ans, CertainAnswers::AllVacuously);
        assert!(ans.contains(NodeId(0), NodeId(1)));
        assert!(boolean(&m, &q, &gs, Semantics::nulls_boolean()));
    }
}
