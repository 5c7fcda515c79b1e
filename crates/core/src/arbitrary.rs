//! Certain answers under *arbitrary* (non-relational) GSMs, via bounded
//! skeleton enumeration — the implementable content of Propositions 5 and 7.
//!
//! For a rule `(q, q')` with a non-word target, a solution must connect each
//! source pair by *some* path with label in `L(q')`. The adversary
//! (minimizing query truth) therefore chooses, per rule and per source pair,
//! a word of `L(q')` — and then data values for the invented nodes. Three
//! observations make this searchable:
//!
//! 1. **Fresh-path skeletons dominate.** Identifying invented nodes with
//!    each other or with existing nodes yields a homomorphic image, which
//!    (for hom-closed queries) can only *gain* answers; the adversary never
//!    benefits. So it suffices to intersect over skeletons with one fresh
//!    path per (rule, pair).
//! 2. **Long words are opaque to short queries.** A data path query `Q`
//!    traverses an inserted fresh path completely or not at all; if the path
//!    is longer than `|Q|`, not at all. Hence all words longer than `|Q|`
//!    are interchangeable: we enumerate `L(q') ∩ Σ^{≤|Q|}` plus one
//!    canonical longer word (when one exists). This is the "cutting"
//!    argument in the paper's proof sketch of Proposition 5 and makes the
//!    engine **exact for data path queries** (and any iteration-free REE).
//! 3. For queries *with* iteration (`⁺`/`*`), matches can cross arbitrarily
//!    long inserted paths, so the cutoff makes the result an
//!    **overapproximation** of the certain answers (the solution pool is a
//!    subset of all solutions). The paper's Proposition 7 shows the exact
//!    bound needs Ramsey-size models; we expose the bounded engine instead
//!    and flag the approximation in [`ArbitraryOutcome`].

use crate::certain::CertainAnswers;
use crate::exact::{intersect_over_patterns, ExactError, ExactOptions};
use crate::gsm::Gsm;
use gde_automata::Nfa;
use gde_datagraph::{DataGraph, FxHashSet, Label, NodeId, Value};
use gde_dataquery::DataQuery;

/// Bounds for the arbitrary-mapping engine.
#[derive(Copy, Clone, Debug)]
pub struct ArbitraryOptions {
    /// Enumerate target words up to this length (defaults to the query's
    /// path length for data path queries).
    pub max_word_len: usize,
    /// Cap on enumerated words per rule.
    pub max_words_per_rule: usize,
    /// Cap on the number of skeletons (choice functions).
    pub max_skeletons: u64,
    /// Budget for the per-skeleton valuation-pattern search.
    pub exact: ExactOptions,
}

impl Default for ArbitraryOptions {
    fn default() -> ArbitraryOptions {
        ArbitraryOptions {
            max_word_len: 4,
            max_words_per_rule: 64,
            max_skeletons: 10_000,
            exact: ExactOptions::default(),
        }
    }
}

/// Result of the bounded engine, flagging exactness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArbitraryOutcome {
    /// The computed answers.
    pub answers: CertainAnswers,
    /// True when the result is provably the exact certain answers (query
    /// iteration-free and cutoff ≥ query length); otherwise the result is an
    /// overapproximation (every reported pair might still be spoiled by a
    /// solution outside the bounded pool).
    pub exact: bool,
}

/// Errors from the bounded engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArbitraryError {
    /// A search bound was exceeded.
    TooComplex(String),
}

impl std::fmt::Display for ArbitraryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArbitraryError::TooComplex(s) => write!(f, "bounded search exceeded: {s}"),
        }
    }
}

impl std::error::Error for ArbitraryError {}

impl From<ExactError> for ArbitraryError {
    fn from(e: ExactError) -> ArbitraryError {
        ArbitraryError::TooComplex(e.to_string())
    }
}

/// Is the cutoff sufficient for exactness on this query?
fn cutoff_exact_for(q: &DataQuery, k: usize) -> bool {
    match q {
        DataQuery::PathTest(p) => p.len() <= k,
        DataQuery::Ree(e) => e.is_iteration_free() && ree_len_at_most(e, k),
        _ => false,
    }
}

fn ree_len_at_most(e: &gde_dataquery::Ree, k: usize) -> bool {
    use gde_dataquery::Ree;
    fn max_len(e: &Ree) -> Option<usize> {
        match e {
            Ree::Epsilon => Some(0),
            Ree::Atom(_) => Some(1),
            Ree::Concat(es) => es.iter().map(max_len).try_fold(0usize, |a, b| Some(a + b?)),
            Ree::Union(es) => es
                .iter()
                .map(max_len)
                .try_fold(0usize, |a, b| Some(a.max(b?))),
            Ree::Plus(_) | Ree::Star(_) => None,
            Ree::Eq(e) | Ree::Neq(e) => max_len(e),
        }
    }
    max_len(e).is_some_and(|l| l <= k)
}

/// Certain answers under an arbitrary GSM (see module docs for exactness).
pub fn certain_answers_arbitrary(
    m: &Gsm,
    q: &DataQuery,
    gs: &DataGraph,
    opts: ArbitraryOptions,
) -> Result<ArbitraryOutcome, ArbitraryError> {
    let k = opts.max_word_len;
    let exact = cutoff_exact_for(q, k);

    // Per rule: the source pairs and the word choices.
    struct PairChoices {
        pair: (NodeId, NodeId),
        words: Vec<Vec<Label>>,
    }
    let mut slots: Vec<PairChoices> = Vec::new();
    let answers = m.rule_answers(gs);
    for (rule, pairs) in m.rules().iter().zip(&answers) {
        if pairs.is_empty() {
            continue;
        }
        let nfa = Nfa::from_regex(&rule.target);
        let mut words = nfa.words_up_to(k, opts.max_words_per_rule + 1);
        if words.len() > opts.max_words_per_rule {
            return Err(ArbitraryError::TooComplex(format!(
                "more than {} words of length ≤ {k} in a rule target",
                opts.max_words_per_rule
            )));
        }
        words.sort();
        if let Some(long) = nfa.some_word_longer_than(k) {
            words.push(long);
        }
        for &pair in pairs {
            let mut ws = words.clone();
            // ε connects a pair only when its endpoints coincide
            if pair.0 != pair.1 {
                ws.retain(|w| !w.is_empty());
            }
            if ws.is_empty() {
                // this pair cannot be satisfied at all: no solution exists
                return Ok(ArbitraryOutcome {
                    answers: CertainAnswers::AllVacuously,
                    exact: true,
                });
            }
            slots.push(PairChoices { pair, words: ws });
        }
    }

    // Count skeletons.
    let mut total: u128 = 1;
    for s in &slots {
        total = total.saturating_mul(s.words.len() as u128);
        if total > opts.max_skeletons as u128 {
            return Err(ArbitraryError::TooComplex(format!(
                "more than {} skeletons",
                opts.max_skeletons
            )));
        }
    }

    // Base target graph: dom nodes with values.
    let dom_nodes = Gsm::dom_of(&answers);
    let dom: FxHashSet<NodeId> = dom_nodes.iter().copied().collect();
    let mut base = DataGraph::with_alphabet(m.target_alphabet().clone());
    base.reserve_ids(gs.fresh_id_watermark());
    for &id in &dom_nodes {
        base.add_node(id, gs.value(id).expect("dom node").clone())
            .expect("distinct");
    }

    // Iterate the cartesian product of word choices.
    let mut indices = vec![0usize; slots.len()];
    let mut candidates: Option<Vec<(NodeId, NodeId)>> = None;
    let mut patterns_tried: u64 = 0;
    loop {
        // build skeleton for this choice
        let mut g = base.clone();
        let mut free_invented: Vec<NodeId> = Vec::new();
        let mut opaque_counter = 0u64;
        for (slot, &wi) in slots.iter().zip(indices.iter()) {
            let w = &slot.words[wi];
            let (u, v) = slot.pair;
            let mut cur = u;
            let opaque = w.len() > k;
            for (i, &label) in w.iter().enumerate() {
                let next = if i + 1 == w.len() {
                    v
                } else if opaque {
                    opaque_counter += 1;
                    g.fresh_node(Value::str(format!("‡opaque{opaque_counter}")))
                } else {
                    let id = g.fresh_node(Value::Null);
                    free_invented.push(id);
                    id
                };
                g.add_edge(cur, label, next).expect("nodes exist");
                cur = next;
            }
        }
        candidates = intersect_over_patterns(
            &mut g,
            &free_invented,
            q,
            Some(&dom),
            candidates,
            opts.exact,
            &mut patterns_tried,
        )?;
        if matches!(&candidates, Some(c) if c.is_empty()) {
            break;
        }
        // next choice
        let mut i = 0;
        loop {
            if i == indices.len() {
                // done
                return Ok(ArbitraryOutcome {
                    answers: CertainAnswers::Pairs(candidates.unwrap_or_default().into()),
                    exact,
                });
            }
            indices[i] += 1;
            if indices[i] < slots[i].words.len() {
                break;
            }
            indices[i] = 0;
            i += 1;
        }
    }
    Ok(ArbitraryOutcome {
        answers: CertainAnswers::Pairs(candidates.unwrap_or_default().into()),
        exact,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gde_automata::{parse_regex, Regex};
    use gde_datagraph::Alphabet;
    use gde_dataquery::{parse_ree, PathTest};

    /// Source 0(v5) -a-> 1(v5); rule (a, x (y|z)): adversary picks y or z.
    fn scenario_choice() -> (Gsm, DataGraph) {
        let mut sa = Alphabet::from_labels(["a"]);
        let mut ta = Alphabet::from_labels(["x", "y", "z"]);
        let mut m = Gsm::new(sa.clone(), ta.clone());
        m.add_rule(
            parse_regex("a", &mut sa).unwrap(),
            parse_regex("x (y | z)", &mut ta).unwrap(),
        );
        let mut gs = DataGraph::new();
        gs.add_node(NodeId(0), Value::int(5)).unwrap();
        gs.add_node(NodeId(1), Value::int(5)).unwrap();
        gs.add_edge_str(NodeId(0), "a", NodeId(1)).unwrap();
        (m, gs)
    }

    #[test]
    fn adversary_chooses_the_bad_branch() {
        let (m, gs) = scenario_choice();
        let mut ta = m.target_alphabet().clone();
        // Q = x y : adversary picks z instead — not certain
        let q: DataQuery = parse_ree("x y", &mut ta).unwrap().into();
        let out = certain_answers_arbitrary(&m, &q, &gs, ArbitraryOptions::default()).unwrap();
        assert_eq!(out.answers, CertainAnswers::Pairs(vec![].into()));
        // Q = x (y|z): certain
        let q: DataQuery = parse_ree("x y | x z", &mut ta).unwrap().into();
        let out = certain_answers_arbitrary(&m, &q, &gs, ArbitraryOptions::default()).unwrap();
        assert_eq!(
            out.answers,
            CertainAnswers::Pairs(vec![(NodeId(0), NodeId(1))].into())
        );
    }

    #[test]
    fn agrees_with_exact_engine_on_relational_mappings() {
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
        let mut ta2 = ta.clone();
        for src in ["x y", "(x y)=", "(x y)!=", "(x= y) | (x!= y)"] {
            let q: DataQuery = parse_ree(src, &mut ta2).unwrap().into();
            let a1 = certain_answers_arbitrary(&m, &q, &gs, ArbitraryOptions::default())
                .unwrap()
                .answers;
            let a2 =
                crate::exact::certain_answers_exact(&m, &q, &gs, ExactOptions::default()).unwrap();
            assert_eq!(a1, a2, "for {src}");
        }
    }

    #[test]
    fn reachability_rule_long_paths_defeat_short_queries() {
        // rule (a, x+): adversary can insert an arbitrarily long x-chain, so
        // Q = "x" (single step) is not certain; Q = x+ is (as an RPQ,
        // navigational) — but x+ has iteration so result is flagged inexact.
        let mut sa = Alphabet::from_labels(["a"]);
        let mut ta = Alphabet::from_labels(["x"]);
        let mut m = Gsm::new(sa.clone(), ta.clone());
        m.add_rule(
            parse_regex("a", &mut sa).unwrap(),
            parse_regex("x+", &mut ta).unwrap(),
        );
        let mut gs = DataGraph::new();
        gs.add_node(NodeId(0), Value::int(5)).unwrap();
        gs.add_node(NodeId(1), Value::int(7)).unwrap();
        gs.add_edge_str(NodeId(0), "a", NodeId(1)).unwrap();
        let q: DataQuery = DataQuery::PathTest(PathTest::Atom(ta.label("x").unwrap()));
        let out = certain_answers_arbitrary(&m, &q, &gs, ArbitraryOptions::default()).unwrap();
        assert!(out.exact);
        assert_eq!(out.answers, CertainAnswers::Pairs(vec![].into()));
        let q: DataQuery = parse_ree("x+", &mut ta.clone()).unwrap().into();
        let out = certain_answers_arbitrary(&m, &q, &gs, ArbitraryOptions::default()).unwrap();
        assert!(!out.exact);
        assert_eq!(
            out.answers,
            CertainAnswers::Pairs(vec![(NodeId(0), NodeId(1))].into())
        );
    }

    #[test]
    fn unsatisfiable_rule_vacuous() {
        // rule target ∅: no solution when the source query matches
        let mut sa = Alphabet::from_labels(["a"]);
        let ta = Alphabet::from_labels(["x"]);
        let mut m = Gsm::new(sa.clone(), ta.clone());
        m.add_rule(parse_regex("a", &mut sa).unwrap(), Regex::Empty);
        let mut gs = DataGraph::new();
        gs.add_node(NodeId(0), Value::int(5)).unwrap();
        gs.add_node(NodeId(1), Value::int(5)).unwrap();
        gs.add_edge_str(NodeId(0), "a", NodeId(1)).unwrap();
        let q: DataQuery = DataQuery::PathTest(PathTest::Atom(ta.label("x").unwrap()));
        let out = certain_answers_arbitrary(&m, &q, &gs, ArbitraryOptions::default()).unwrap();
        assert_eq!(out.answers, CertainAnswers::AllVacuously);
    }

    #[test]
    fn epsilon_choice_respected() {
        // rule (a, x*): self-loop pair can use ε; distinct pair cannot.
        let mut sa = Alphabet::from_labels(["a"]);
        let mut ta = Alphabet::from_labels(["x"]);
        let mut m = Gsm::new(sa.clone(), ta.clone());
        m.add_rule(
            parse_regex("a", &mut sa).unwrap(),
            parse_regex("x*", &mut ta).unwrap(),
        );
        let mut gs = DataGraph::new();
        gs.add_node(NodeId(0), Value::int(5)).unwrap();
        gs.add_edge_str(NodeId(0), "a", NodeId(0)).unwrap();
        // Q = x: adversary satisfies the loop pair with ε — not certain
        let q: DataQuery = DataQuery::PathTest(PathTest::Atom(ta.label("x").unwrap()));
        let out = certain_answers_arbitrary(&m, &q, &gs, ArbitraryOptions::default()).unwrap();
        assert_eq!(out.answers, CertainAnswers::Pairs(vec![].into()));
    }

    #[test]
    fn budget_errors() {
        let (m, gs) = scenario_choice();
        let mut ta = m.target_alphabet().clone();
        let q: DataQuery = parse_ree("x y", &mut ta).unwrap().into();
        let err = certain_answers_arbitrary(
            &m,
            &q,
            &gs,
            ArbitraryOptions {
                max_skeletons: 1,
                ..ArbitraryOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, ArbitraryError::TooComplex(_)));
    }
}
