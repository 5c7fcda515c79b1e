//! Exact certain answers for relational GSMs — the coNP procedure of
//! Theorem 2 / Proposition 2, implemented as a *complete* counterexample
//! search.
//!
//! The paper's proof shows every solution contains a bounded sub-solution;
//! our implementation uses the sharper structure of relational mappings:
//! every solution is an (exact-homomorphism) image of the universal-solution
//! *skeleton* under some assignment `ρ` of data values to the invented
//! nodes. Since all query classes here are generic (they compare values
//! only for equality, never against constants) and closed under
//! homomorphisms (Proposition 6), it follows that
//!
//! ```text
//! 2_M(Q, G_s)  =  ⋂_ρ Q(ρ(U)) ∩ dom(M,G_s)²
//! ```
//!
//! with `ρ` ranging over assignments *up to equality pattern*: each invented
//! node takes either a value already present on `dom(M, G_s)` or one of at
//! most `m` interchangeable fresh values. Patterns are enumerated as
//! restricted-growth strings; the count is `(s + ·)^m`-ish — exponential in
//! the number `m` of invented nodes, as it must be (Proposition 3 shows
//! coNP-hardness). Use [`ExactOptions`] to bound the search.

use crate::certain::CertainAnswers;
use crate::gsm::Gsm;
use crate::solution::{universal_solution, CanonicalSolution, SolutionError};
use gde_datagraph::{DataGraph, FxHashSet, NodeId, Value};
use gde_dataquery::DataQuery;

/// Search bounds for the exact engine.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ExactOptions {
    /// Maximum number of invented nodes to enumerate over.
    pub max_invented: usize,
    /// Maximum number of valuation patterns to try.
    pub max_patterns: u64,
}

impl Default for ExactOptions {
    fn default() -> ExactOptions {
        ExactOptions {
            max_invented: 16,
            max_patterns: 4_000_000,
        }
    }
}

/// Failure of the exact engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExactError {
    /// The mapping is not relational.
    NotRelational,
    /// The universal solution's invented nodes do not fit into the node
    /// ids above every source id ([`SolutionError::IdSpaceExhausted`]).
    IdSpaceExhausted,
    /// The instance exceeds the configured bounds.
    TooComplex {
        /// Number of invented nodes in the skeleton.
        invented: usize,
        /// The configured cap that was exceeded.
        cap: String,
    },
}

impl std::fmt::Display for ExactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExactError::NotRelational => write!(f, "exact engine requires a relational mapping"),
            ExactError::IdSpaceExhausted => SolutionError::IdSpaceExhausted.fmt(f),
            ExactError::TooComplex { invented, cap } => write!(
                f,
                "instance too large for exhaustive search ({invented} invented nodes; cap: {cap})"
            ),
        }
    }
}

impl std::error::Error for ExactError {}

/// Exact plain certain answers `2_M(Q, G_s)` for a relational GSM.
/// Exponential in the number of invented nodes — see module docs. One-shot
/// wrapper over the unified serving entry point
/// ([`crate::engine::answer_once`] with [`crate::engine::Semantics::Exact`]); serving
/// paths should hold a [`crate::engine::MappingService`] instead.
pub fn certain_answers_exact(
    m: &Gsm,
    q: &DataQuery,
    gs: &DataGraph,
    opts: ExactOptions,
) -> Result<CertainAnswers, ExactError> {
    use crate::engine::{answer_once, exact_error, Answer, Mode, Semantics};
    answer_once(m, gs, &q.compile(), Semantics::Exact(Mode::Tuples, opts))
        .map(Answer::into_tuples)
        .map_err(exact_error)
}

/// The enumeration core of [`certain_answers_exact`], starting from an
/// already-built universal solution (the prepared-mapping engine reuses its
/// cached one here).
pub(crate) fn exact_answers_from(
    sol: &CanonicalSolution,
    q: &DataQuery,
    opts: ExactOptions,
) -> Result<CertainAnswers, ExactError> {
    let dom: FxHashSet<NodeId> = sol.dom_nodes().into_iter().collect();
    let mut skeleton = sol.graph.clone();
    let answers = intersect_over_patterns(
        &mut skeleton,
        &sol.invented,
        q,
        Some(&dom),
        None,
        opts,
        &mut 0,
    )?;
    Ok(CertainAnswers::Pairs(answers.unwrap_or_default().into()))
}

/// Exact Boolean certain answer: does `Q` hold (match some pair) in *every*
/// solution?
pub fn certain_boolean_exact(
    m: &Gsm,
    q: &DataQuery,
    gs: &DataGraph,
    opts: ExactOptions,
) -> Result<bool, ExactError> {
    use crate::engine::{answer_once, exact_error, Mode, Semantics};
    answer_once(m, gs, &q.compile(), Semantics::Exact(Mode::Boolean, opts))
        .map(|a| a.boolean())
        .map_err(exact_error)
}

/// The enumeration core of [`certain_boolean_exact`], from a prebuilt
/// universal solution.
pub(crate) fn exact_boolean_from(
    sol: &CanonicalSolution,
    q: &DataQuery,
    opts: ExactOptions,
) -> Result<bool, ExactError> {
    let mut skeleton = sol.graph.clone();
    let mut holds = true;
    // lower the query once; each pattern only changes invented-node values
    let compiled = q.compile();
    for_each_pattern(&mut skeleton, &sol.invented, opts, &mut 0, &mut |g| {
        if !compiled.holds_somewhere(&g.snapshot()) {
            holds = false;
            return false; // counterexample found: stop
        }
        true
    })?;
    Ok(holds)
}

/// Total number of valuation patterns the exact engine would enumerate for
/// this scenario (for reporting in benches; saturates at `u64::MAX`).
pub fn pattern_count(m: &Gsm, gs: &DataGraph) -> Option<u64> {
    let sol = universal_solution(m, gs).ok()?;
    let s = palette(&sol).len() as u128;
    let m_inv = sol.invented.len() as u32;
    // restricted growth: product over i of (s + 1 + min(i, classes so far));
    // we compute the simple upper bound ∏ (s + i + 1) which is what the
    // enumerator visits at most.
    let mut total: u128 = 1;
    for i in 0..m_inv {
        total = total.saturating_mul(s + i as u128 + 1);
        if total > u64::MAX as u128 {
            return Some(u64::MAX);
        }
    }
    Some(total as u64)
}

/// The source-value palette: distinct non-null values on the skeleton's dom
/// nodes, in a deterministic order.
fn palette(sol: &CanonicalSolution) -> Vec<Value> {
    let mut vals: Vec<Value> = sol
        .dom_nodes()
        .into_iter()
        .filter_map(|id| sol.graph.value(id).cloned())
        .filter(|v| !v.is_null())
        .collect();
    vals.sort();
    vals.dedup();
    vals
}

/// Enumerate all valuation patterns of `invented` over
/// `palette ∪ {fresh classes}` (restricted growth on the fresh part),
/// calling `visit` on the mutated graph for each; `visit` returning false
/// stops early. The graph is restored caller-visible values only via
/// mutation — callers pass a scratch clone.
pub(crate) fn for_each_pattern(
    g: &mut DataGraph,
    invented: &[NodeId],
    opts: ExactOptions,
    patterns_tried: &mut u64,
    visit: &mut dyn FnMut(&DataGraph) -> bool,
) -> Result<(), ExactError> {
    if invented.len() > opts.max_invented {
        return Err(ExactError::TooComplex {
            invented: invented.len(),
            cap: format!("max_invented={}", opts.max_invented),
        });
    }
    // palette from current dom values present in g (invented excluded)
    let inv_set: FxHashSet<NodeId> = invented.iter().copied().collect();
    let mut pal: Vec<Value> = g
        .nodes()
        .filter(|(id, v)| !inv_set.contains(id) && !v.is_null())
        .map(|(_, v)| v.clone())
        .collect();
    pal.sort();
    pal.dedup();
    // fresh class values: guaranteed distinct from palette and each other
    let fresh: Vec<Value> = (0..invented.len())
        .map(|i| Value::str(format!("✦fresh{i}")))
        .collect();

    #[allow(clippy::too_many_arguments)]
    fn rec(
        g: &mut DataGraph,
        invented: &[NodeId],
        pal: &[Value],
        fresh: &[Value],
        i: usize,
        fresh_used: usize,
        opts: &ExactOptions,
        patterns_tried: &mut u64,
        visit: &mut dyn FnMut(&DataGraph) -> bool,
    ) -> Result<bool, ExactError> {
        if i == invented.len() {
            *patterns_tried += 1;
            if *patterns_tried > opts.max_patterns {
                return Err(ExactError::TooComplex {
                    invented: invented.len(),
                    cap: format!("max_patterns={}", opts.max_patterns),
                });
            }
            return Ok(visit(g));
        }
        // choose: a palette value, an existing fresh class, or a new class
        for v in pal {
            g.set_value(invented[i], v.clone()).expect("invented node");
            if !rec(
                g,
                invented,
                pal,
                fresh,
                i + 1,
                fresh_used,
                opts,
                patterns_tried,
                visit,
            )? {
                return Ok(false);
            }
        }
        for k in 0..=fresh_used.min(fresh.len().saturating_sub(1)) {
            g.set_value(invented[i], fresh[k].clone())
                .expect("invented node");
            let next_used = fresh_used.max(k + 1);
            if !rec(
                g,
                invented,
                pal,
                fresh,
                i + 1,
                next_used,
                opts,
                patterns_tried,
                visit,
            )? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    rec(
        g,
        invented,
        &pal,
        &fresh,
        0,
        0,
        &opts,
        patterns_tried,
        visit,
    )?;
    Ok(())
}

/// Intersect `Q(ρ(U))` over all patterns, restricted to pairs over `dom`
/// when given. `initial` seeds the candidate set (used by the arbitrary-
/// mapping engine to chain intersections across skeletons). Returns `None`
/// if no pattern was visited (zero invented nodes still visits one).
#[allow(clippy::too_many_arguments)]
pub(crate) fn intersect_over_patterns(
    g: &mut DataGraph,
    invented: &[NodeId],
    q: &DataQuery,
    dom: Option<&FxHashSet<NodeId>>,
    initial: Option<Vec<(NodeId, NodeId)>>,
    opts: ExactOptions,
    patterns_tried: &mut u64,
) -> Result<Option<Vec<(NodeId, NodeId)>>, ExactError> {
    let mut candidates: Option<Vec<(NodeId, NodeId)>> = initial;
    // lower the query once; each pattern only changes invented-node values
    let compiled = q.compile();
    for_each_pattern(g, invented, opts, patterns_tried, &mut |g| {
        let mut answers = compiled.eval_pairs_graph(g);
        if let Some(dom) = dom {
            answers.retain(|(u, v)| dom.contains(u) && dom.contains(v));
        }
        match &mut candidates {
            None => candidates = Some(answers),
            Some(c) => {
                let set: FxHashSet<(NodeId, NodeId)> = answers.into_iter().collect();
                c.retain(|p| set.contains(p));
            }
        }
        // early exit once empty
        !matches!(&candidates, Some(c) if c.is_empty())
    })?;
    Ok(candidates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{answer_once, Semantics};
    use gde_automata::parse_regex;
    use gde_datagraph::{Alphabet, Value};
    use gde_dataquery::parse_ree;

    /// The `2ⁿ` answers through the unified serving entry point.
    fn nulls_pairs(m: &Gsm, q: &DataQuery, gs: &DataGraph) -> Vec<(NodeId, NodeId)> {
        answer_once(m, gs, &q.compile(), Semantics::nulls())
            .unwrap()
            .into_pairs()
    }

    /// Source: 0(v5) -a-> 1(v5); mapping (a, x y).
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
        gs.add_edge_str(NodeId(0), "a", NodeId(1)).unwrap();
        (m, gs)
    }

    #[test]
    fn exact_agrees_with_nulls_on_plain_words() {
        let (m, gs) = scenario();
        let mut ta = m.target_alphabet().clone();
        let q: DataQuery = parse_ree("x y", &mut ta).unwrap().into();
        let exact = certain_answers_exact(&m, &q, &gs, ExactOptions::default())
            .unwrap()
            .into_pairs();
        let nulls = nulls_pairs(&m, &q, &gs);
        assert_eq!(exact, nulls);
        assert_eq!(exact, vec![(NodeId(0), NodeId(1))]);
    }

    #[test]
    fn exact_can_exceed_null_underapproximation() {
        // Query (x= | x!=) wrapped as a union: x with endpoints either equal
        // or different. On the universal solution the middle node is null so
        // NEITHER test fires; but in every real solution the invented node
        // has SOME value, so for pair (0, mid)... mid is not a dom node.
        // Instead use: ((x y)= | (x y)!=): endpoints are dom nodes 0,1 with
        // values 5,5: the = branch always fires. Both engines find it; but
        // consider values 5,7 and query ((x)=(y)= | ...) — the cleanest
        // demonstrable gap: Q = (x= y) | (x!= y): "the invented middle value
        // equals the first endpoint or not" — true in every solution, but on
        // the universal solution the null middle satisfies neither.
        let (m, gs) = scenario();
        let mut ta = m.target_alphabet().clone();
        let q: DataQuery = parse_ree("(x= y) | (x!= y)", &mut ta).unwrap().into();
        let nulls = nulls_pairs(&m, &q, &gs);
        assert!(nulls.is_empty(), "2ⁿ misses the disjunction over nulls");
        let exact = certain_answers_exact(&m, &q, &gs, ExactOptions::default())
            .unwrap()
            .into_pairs();
        assert_eq!(
            exact,
            vec![(NodeId(0), NodeId(1))],
            "2 sees that some value must be there"
        );
    }

    #[test]
    fn containment_2n_subseteq_2() {
        let (m, gs) = scenario();
        let mut ta = m.target_alphabet().clone();
        for src in ["x y", "(x y)=", "(x y)!=", "x= y", "(x | y)+"] {
            let q: DataQuery = parse_ree(src, &mut ta).unwrap().into();
            let nulls = nulls_pairs(&m, &q, &gs);
            let exact = certain_answers_exact(&m, &q, &gs, ExactOptions::default())
                .unwrap()
                .into_pairs();
            for p in &nulls {
                assert!(exact.contains(p), "2ⁿ ⊆ 2 violated for {src} at {p:?}");
            }
        }
    }

    #[test]
    fn boolean_exact() {
        let (m, gs) = scenario();
        let mut ta = m.target_alphabet().clone();
        // some value must repeat along x y when endpoints share value 5:
        // actually endpoints 0,1 both have 5, so (x y)= always holds
        let q: DataQuery = parse_ree("(x y)=", &mut ta).unwrap().into();
        assert!(certain_boolean_exact(&m, &q, &gs, ExactOptions::default()).unwrap());
        // "middle equals first" does not hold in all solutions
        let q: DataQuery = parse_ree("x=", &mut ta).unwrap().into();
        assert!(!certain_boolean_exact(&m, &q, &gs, ExactOptions::default()).unwrap());
    }

    #[test]
    fn budget_exceeded_reported() {
        let (m, gs) = scenario();
        let mut ta = m.target_alphabet().clone();
        let q: DataQuery = parse_ree("x y", &mut ta).unwrap().into();
        let err = certain_answers_exact(
            &m,
            &q,
            &gs,
            ExactOptions {
                max_invented: 0,
                max_patterns: 10,
            },
        )
        .unwrap_err();
        assert!(matches!(err, ExactError::TooComplex { .. }));
    }

    #[test]
    fn pattern_count_sane() {
        let (m, gs) = scenario();
        // 1 invented node, palette {5}: patterns = palette(1) + fresh(1) = 2
        assert_eq!(pattern_count(&m, &gs), Some(2));
    }

    #[test]
    fn no_invented_nodes_single_pattern() {
        // GAV mapping: (a, x): no invented nodes; exact == nulls == least-inf
        let mut sa = Alphabet::from_labels(["a"]);
        let mut ta = Alphabet::from_labels(["x"]);
        let mut m = Gsm::new(sa.clone(), ta.clone());
        m.add_rule(
            parse_regex("a", &mut sa).unwrap(),
            parse_regex("x", &mut ta).unwrap(),
        );
        let mut gs = DataGraph::new();
        gs.add_node(NodeId(0), Value::int(1)).unwrap();
        gs.add_node(NodeId(1), Value::int(1)).unwrap();
        gs.add_edge_str(NodeId(0), "a", NodeId(1)).unwrap();
        let q: DataQuery = parse_ree("x=", &mut ta).unwrap().into();
        let exact = certain_answers_exact(&m, &q, &gs, ExactOptions::default())
            .unwrap()
            .into_pairs();
        assert_eq!(exact, vec![(NodeId(0), NodeId(1))]);
    }
}
