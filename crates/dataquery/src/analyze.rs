//! Static query shapes and cardinality estimation.
//!
//! The serving engine answers [`crate::CompiledQuery`]s against canonical
//! solutions; before the first evaluation ever runs, three facts about a
//! query are decidable from its AST alone:
//!
//! * which edge **labels** it can possibly traverse (an over-approximation
//!   of the labels of its language — the safe direction: a query whose
//!   mentioned labels are disjoint from a mapping's produced labels is
//!   certainly empty on every solution);
//! * whether it **may match an isolated node** — can `(u, u)` be an answer
//!   for a node with no incident edges? This gates both dead-rule pruning
//!   (a pruned rule may remove nodes from `dom(M, G_s)` that only a
//!   trivial-path match could see) and the statically-empty short-circuit;
//! * its **star depth** — nesting of `⁺`/`*`, the closure-hazard proxy
//!   that multiplies estimated fan-out.
//!
//! [`QueryShape`] packages the three and is computed once per
//! [`crate::CompiledQuery`] at compile time; [`estimate_cardinality`]
//! crosses a shape with [`GraphSnapshot`] label-density statistics into
//! the answer-size estimates of the mapping analyzer's reports.

use crate::query::DataQuery;
use crate::ree::Ree;
use crate::rem::Rem;
use gde_datagraph::{GraphSnapshot, Label};

/// The statically decidable shape of a [`DataQuery`]: label footprint,
/// trivial-path matching, and closure nesting. Computed once at query
/// compile time and cached on the [`crate::CompiledQuery`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryShape {
    /// Every label the query mentions, sorted and deduplicated. An
    /// over-approximation of the labels of its language (a `∅`-annihilated
    /// branch still contributes), which is the conservative direction for
    /// disjointness-based emptiness verdicts.
    pub labels: Vec<Label>,
    /// Can the query match a node with no incident edges (a trivial-path
    /// answer `(u, u)`)? Over-approximated: `true` may be spurious,
    /// `false` is definite. `false` is required for the statically-empty
    /// short-circuit; any registered `true` query disables dead-rule
    /// pruning (pruning may shrink `dom(M, G_s)`).
    pub may_match_isolated: bool,
    /// Maximum nesting depth of `⁺`/`*` — each level multiplies the
    /// fan-out a closure evaluation explores.
    pub star_depth: usize,
}

impl QueryShape {
    /// Compute the shape of a query. Cost is proportional to the query
    /// size; no graph is involved.
    pub fn of(q: &DataQuery) -> QueryShape {
        let mut labels = Vec::new();
        collect_labels(q, &mut labels);
        labels.sort();
        labels.dedup();
        QueryShape {
            labels,
            may_match_isolated: may_match_isolated(q),
            star_depth: star_depth(q),
        }
    }

    /// Are the query's labels disjoint from `produced` (sorted slices)?
    /// Together with `!may_match_isolated` this makes the query
    /// statically empty on any graph whose edges all carry `produced`
    /// labels.
    pub fn disjoint_from(&self, produced: &[Label]) -> bool {
        // both sorted: one linear sweep
        let (mut i, mut j) = (0, 0);
        while i < self.labels.len() && j < produced.len() {
            match self.labels[i].cmp(&produced[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return false,
            }
        }
        true
    }
}

fn collect_labels(q: &DataQuery, out: &mut Vec<Label>) {
    match q {
        DataQuery::Rpq(e) => out.extend(e.labels()),
        DataQuery::Ree(e) => ree_labels(e, out),
        DataQuery::Rem(e) => rem_labels(e, out),
        DataQuery::PathTest(e) => out.extend(e.word_of()),
        DataQuery::Conjunctive(c) => {
            for a in &c.atoms {
                collect_labels(&a.query, out);
            }
        }
    }
}

fn ree_labels(e: &Ree, out: &mut Vec<Label>) {
    match e {
        Ree::Epsilon => {}
        Ree::Atom(l) => out.push(*l),
        Ree::Concat(es) | Ree::Union(es) => {
            for e in es {
                ree_labels(e, out);
            }
        }
        Ree::Plus(e) | Ree::Star(e) | Ree::Eq(e) | Ree::Neq(e) => ree_labels(e, out),
    }
}

fn rem_labels(e: &Rem, out: &mut Vec<Label>) {
    match e {
        Rem::Epsilon => {}
        Rem::Atom(l) => out.push(*l),
        Rem::Concat(es) | Rem::Union(es) => {
            for e in es {
                rem_labels(e, out);
            }
        }
        Rem::Plus(e) | Rem::Star(e) => rem_labels(e, out),
        Rem::Bind(_, e) => rem_labels(e, out),
        Rem::Test(e, _) => rem_labels(e, out),
    }
}

/// Can the query match the trivial (edgeless) path at some node? `true`
/// may be an over-approximation; `false` is exact.
fn may_match_isolated(q: &DataQuery) -> bool {
    match q {
        DataQuery::Rpq(e) => e.nullable(),
        DataQuery::Ree(e) => ree_nullable(e),
        DataQuery::Rem(e) => rem_nullable(e),
        // paths with tests are non-empty words by construction
        DataQuery::PathTest(_) => false,
        // conservative: a trivial-path match needs every atom to admit
        // one, and an atomless query constrains nothing
        DataQuery::Conjunctive(c) => {
            c.atoms.is_empty() || c.atoms.iter().any(|a| may_match_isolated(&a.query))
        }
    }
}

fn ree_nullable(e: &Ree) -> bool {
    match e {
        Ree::Epsilon | Ree::Star(_) => true,
        Ree::Atom(_) => false,
        Ree::Concat(es) => es.iter().all(ree_nullable),
        Ree::Union(es) => es.iter().any(ree_nullable),
        Ree::Plus(e) => ree_nullable(e),
        // `e=` on a trivial path compares a value with itself — may hold
        // (non-null values), so pass the inner nullability through
        Ree::Eq(e) => ree_nullable(e),
        // `e≠` on a trivial path compares a value with itself — sql_ne is
        // false even for nulls, so a trivial path can never satisfy it
        Ree::Neq(_) => false,
    }
}

fn rem_nullable(e: &Rem) -> bool {
    match e {
        Rem::Epsilon | Rem::Star(_) => true,
        Rem::Atom(_) => false,
        Rem::Concat(es) => es.iter().all(rem_nullable),
        Rem::Union(es) => es.iter().any(rem_nullable),
        Rem::Plus(e) => rem_nullable(e),
        Rem::Bind(_, e) => rem_nullable(e),
        // conservative: the condition may hold at the trivial path's value
        Rem::Test(e, _) => rem_nullable(e),
    }
}

fn star_depth(q: &DataQuery) -> usize {
    match q {
        DataQuery::Rpq(e) => e.star_depth(),
        DataQuery::Ree(e) => ree_star_depth(e),
        DataQuery::Rem(e) => rem_star_depth(e),
        DataQuery::PathTest(_) => 0,
        DataQuery::Conjunctive(c) => c
            .atoms
            .iter()
            .map(|a| star_depth(&a.query))
            .max()
            .unwrap_or(0),
    }
}

fn ree_star_depth(e: &Ree) -> usize {
    match e {
        Ree::Epsilon | Ree::Atom(_) => 0,
        Ree::Concat(es) | Ree::Union(es) => es.iter().map(ree_star_depth).max().unwrap_or(0),
        Ree::Plus(e) | Ree::Star(e) => 1 + ree_star_depth(e),
        Ree::Eq(e) | Ree::Neq(e) => ree_star_depth(e),
    }
}

fn rem_star_depth(e: &Rem) -> usize {
    match e {
        Rem::Epsilon | Rem::Atom(_) => 0,
        Rem::Concat(es) | Rem::Union(es) => es.iter().map(rem_star_depth).max().unwrap_or(0),
        Rem::Plus(e) | Rem::Star(e) => 1 + rem_star_depth(e),
        Rem::Bind(_, e) | Rem::Test(e, _) => rem_star_depth(e),
    }
}

/// A static answer-size estimate for one query shape against one
/// snapshot's label statistics, reported by the mapping analyzer (its
/// cardinality estimates and closure-hazard flags).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CardinalityEstimate {
    /// Estimated answer pairs (clamped at `n²`).
    pub pairs: u64,
    /// Estimated bytes of the materialised answer (16 bytes/pair).
    pub bytes: u64,
    /// Deep closure over dense labels: star depth ≥ 2 and the query's
    /// label mass exceeds the node count (each closure level can explore
    /// the full reachable fan-out). Flagged as a diagnostic.
    pub closure_hazard: bool,
}

/// Cross a [`QueryShape`] with a snapshot's per-label edge counts.
///
/// Model: `base = Σ |E_l|` over the query's labels; each star level
/// multiplies by the mean label density `1 + base/n`; the result clamps
/// at `n²` pairs. Trivial-path matches add up to `n` reflexive pairs.
/// Deliberately simple — the estimate only has to order queries for the
/// planner until real stats take over.
pub fn estimate_cardinality(shape: &QueryShape, s: &GraphSnapshot) -> CardinalityEstimate {
    let n = s.n() as u64;
    let base: u64 = shape
        .labels
        .iter()
        .map(|&l| s.label_edge_count(l) as u64)
        .sum();
    let reflexive = if shape.may_match_isolated { n } else { 0 };
    let cap = n.saturating_mul(n);
    let mut pairs = base;
    if n > 0 {
        // integer growth per star level: 1 + ⌈base/n⌉
        let growth = 1 + base.div_ceil(n);
        for _ in 0..shape.star_depth {
            pairs = pairs.saturating_mul(growth);
            if pairs >= cap {
                break;
            }
        }
    }
    let pairs = (pairs + reflexive).min(cap);
    CardinalityEstimate {
        pairs,
        bytes: pairs.saturating_mul(16),
        closure_hazard: shape.star_depth >= 2 && base > n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_ree, parse_rem};
    use gde_automata::parse_regex;
    use gde_datagraph::{Alphabet, DataGraph, NodeId, Value};

    fn shape(q: impl Into<DataQuery>) -> QueryShape {
        QueryShape::of(&q.into())
    }

    #[test]
    fn shapes_across_classes() {
        let mut al = Alphabet::from_labels(["a", "b", "c"]);
        let a = al.label("a").unwrap();
        let b = al.label("b").unwrap();

        let rpq = shape(parse_regex("a b*", &mut al).unwrap());
        assert_eq!(rpq.labels, vec![a, b]);
        assert!(!rpq.may_match_isolated);
        assert_eq!(rpq.star_depth, 1);

        let eps = shape(parse_regex("a*", &mut al).unwrap());
        assert!(eps.may_match_isolated);

        // REE: = passes nullability through, ≠ never matches trivially
        let ree_eq = shape(parse_ree("(a*)=", &mut al).unwrap());
        assert!(ree_eq.may_match_isolated);
        let ree_ne = shape(parse_ree("(a*)!=", &mut al).unwrap());
        assert!(!ree_ne.may_match_isolated);
        assert_eq!(
            shape(parse_ree("((a+)= b)*", &mut al).unwrap()).star_depth,
            2
        );

        // REM: binds don't consume input
        let rem = shape(parse_rem("@x.(a*[x=])", &mut al).unwrap());
        assert!(rem.may_match_isolated);
        assert_eq!(rem.labels, vec![a]);

        // paths with tests are never trivial
        let pt = shape(DataQuery::PathTest(crate::PathTest::Atom(a).eq()));
        assert!(!pt.may_match_isolated);
        assert_eq!(pt.labels, vec![a]);
    }

    #[test]
    fn conjunctive_shape() {
        use crate::crpq::{CdAtom, ConjunctiveDataRpq};
        let mut al = Alphabet::from_labels(["a", "b"]);
        let q = ConjunctiveDataRpq::new(
            (0, 2),
            vec![
                CdAtom {
                    from: 0,
                    query: parse_regex("a+", &mut al).unwrap().into(),
                    to: 1,
                },
                CdAtom {
                    from: 1,
                    query: parse_regex("b", &mut al).unwrap().into(),
                    to: 2,
                },
            ],
        );
        let s = shape(q);
        assert_eq!(s.labels.len(), 2);
        assert!(!s.may_match_isolated, "no nullable atom");
        assert_eq!(s.star_depth, 1);
    }

    #[test]
    fn disjointness_sweep() {
        let mut al = Alphabet::from_labels(["a", "b", "c"]);
        let s = shape(parse_regex("a c", &mut al).unwrap());
        let b = al.label("b").unwrap();
        let c = al.label("c").unwrap();
        assert!(s.disjoint_from(&[b]));
        assert!(!s.disjoint_from(&[b, c]));
        assert!(s.disjoint_from(&[]));
    }

    #[test]
    fn cardinality_orders_queries() {
        let mut g = DataGraph::new();
        for i in 0..20u32 {
            g.add_node(NodeId(i), Value::int(i as i64)).unwrap();
        }
        for i in 0..20u32 {
            g.add_edge_str(NodeId(i), "a", NodeId((i + 1) % 20))
                .unwrap();
            g.add_edge_str(NodeId(i), "a", NodeId((i + 7) % 20))
                .unwrap();
        }
        g.alphabet_mut().intern("b");
        let s = g.snapshot();
        let word = QueryShape::of(&parse_regex("a a", g.alphabet_mut()).unwrap().into());
        let star = QueryShape::of(&parse_regex("a*", g.alphabet_mut()).unwrap().into());
        let dead = QueryShape::of(&parse_regex("b", g.alphabet_mut()).unwrap().into());
        let e_word = estimate_cardinality(&word, &s);
        let e_star = estimate_cardinality(&star, &s);
        let e_dead = estimate_cardinality(&dead, &s);
        assert!(e_star.pairs > e_word.pairs, "closure estimates higher");
        assert_eq!(e_dead.pairs, 0, "unused label estimates empty");
        assert!(e_star.pairs <= 400, "clamped at n²");
        assert!(!e_word.closure_hazard);
        // deep closure over a dense label trips the hazard flag
        let deep = QueryShape::of(&parse_regex("(a+)*", g.alphabet_mut()).unwrap().into());
        assert!(estimate_cardinality(&deep, &s).closure_hazard);
    }

    #[test]
    fn empty_graph_estimates_zero() {
        let mut al = Alphabet::from_labels(["a"]);
        let s = DataGraph::new().snapshot();
        let sh = QueryShape::of(&parse_regex("a*", &mut al).unwrap().into());
        let e = estimate_cardinality(&sh, &s);
        assert_eq!(e.pairs, 0);
        assert_eq!(e.bytes, 0);
    }
}
