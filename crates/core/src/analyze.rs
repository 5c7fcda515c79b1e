//! Static analysis of mappings and query workloads (`gde-analyze`).
//!
//! Everything here runs **before** any serving: on the [`Gsm`] alone, on a
//! registered workload of [`CompiledQuery`]s, and (optionally) on a frozen
//! [`GraphSnapshot`] for cardinality priors. The analyzer produces a
//! [`MappingReport`] of structured [`Diagnostic`]s:
//!
//! * **dead rules** — rules whose target word's labels are never read by
//!   any workload query, so their fresh paths can never appear in an
//!   answer;
//! * **subsumed rules** — rules implied by another rule (source language
//!   contained, target language containing), decided by DFA product
//!   containment per the relational fragment of Calì & Torlone;
//! * **statically empty queries** — workload queries whose labels are
//!   disjoint from the mapping's producible output alphabet, so their
//!   certain answer is empty on *every* source graph (given the mapping
//!   can always be solved);
//! * **closure hazards** — queries whose star nesting over dense labels
//!   predicts transitive-closure blowup, with a cardinality estimate.
//!
//! [`pruned_gsm`] turns the rule diagnostics into a smaller mapping that
//! is answer-equivalent *for the covered workload* (the soundness gates
//! are documented on the function); the serving engine uses it to build
//! smaller canonical solutions, and uses the per-query verdicts to
//! short-circuit statically empty serves (see `engine`).

use gde_automata::Dfa;
use gde_datagraph::{GraphSnapshot, Label};
use gde_dataquery::{estimate_cardinality, CardinalityEstimate, CompiledQuery, QueryShape};

use crate::gsm::Gsm;

/// Subsumption analysis is quadratic in the rule count (a DFA product per
/// ordered pair); past this many rules it is skipped.
const MAX_SUBSUMPTION_RULES: usize = 256;

/// One analyzer finding, indexed into the mapping's rules / the analyzed
/// query slice.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Diagnostic {
    /// Rule `rule`'s target word uses only labels no workload query reads:
    /// its fresh paths can never contribute to a covered answer.
    DeadRule {
        /// Index into [`Gsm::rules`].
        rule: usize,
    },
    /// Rule `rule` is implied by rule `by`: every solution satisfying `by`
    /// satisfies `rule` (source language ⊆, target language ⊇).
    SubsumedRule {
        /// Index of the implied rule.
        rule: usize,
        /// Index of the rule that implies it.
        by: usize,
    },
    /// Query `query`'s labels are disjoint from every label the mapping
    /// can produce, and it cannot match on an isolated node: its certain
    /// answer is empty for every source graph.
    EmptyQuery {
        /// Index into the analyzed query slice.
        query: usize,
    },
    /// Query `query` nests stars over labels denser than the node count:
    /// evaluation behaves like repeated transitive closure.
    ClosureHazard {
        /// Index into the analyzed query slice.
        query: usize,
        /// The estimate that tripped the hazard.
        estimate: CardinalityEstimate,
    },
}

/// Facts about a mapping that hold for **every** source graph, derived
/// from the rules alone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MappingFacts {
    /// Every target query is a word RPQ (Definition 3).
    pub relational: bool,
    /// A solution exists for every source graph: the mapping is relational
    /// and no target word is ε (ε-rules fail on source pairs with distinct
    /// endpoints).
    pub always_solvable: bool,
    /// Union of the labels in the rules' target words (sorted,
    /// deduplicated): every edge of every canonical solution carries one
    /// of these.
    pub produced: Vec<Label>,
}

impl MappingFacts {
    /// Derive the facts from a mapping.
    pub fn of(m: &Gsm) -> MappingFacts {
        let mut relational = true;
        let mut always_solvable = true;
        let mut produced: Vec<Label> = Vec::new();
        for rule in m.rules() {
            match rule.target.as_word() {
                Some(w) => {
                    if w.is_empty() {
                        always_solvable = false;
                    }
                    produced.extend_from_slice(&w);
                }
                None => {
                    relational = false;
                    always_solvable = false;
                    // over-approximate: any label the target could mention
                    produced.extend(rule.target.labels());
                }
            }
        }
        produced.sort();
        produced.dedup();
        MappingFacts {
            relational,
            always_solvable,
            produced,
        }
    }
}

/// The label/nullability summary of a registered query workload — the
/// only information dead-rule pruning depends on, so coverage of a new
/// query is decidable without replaying the whole workload.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkloadProfile {
    labels: Vec<Label>,
    any_isolated: bool,
    n_queries: usize,
}

impl WorkloadProfile {
    /// An empty workload (covers nothing; disables dead-rule pruning).
    pub fn new() -> WorkloadProfile {
        WorkloadProfile::default()
    }

    /// Build a profile from compiled queries.
    pub fn from_queries<'a, I: IntoIterator<Item = &'a CompiledQuery>>(qs: I) -> WorkloadProfile {
        let mut p = WorkloadProfile::new();
        for q in qs {
            p.extend_with(q.shape());
        }
        p
    }

    /// Fold one query shape into the profile; `true` if the profile
    /// changed (new labels, or first isolated-matching query).
    pub fn extend_with(&mut self, shape: &QueryShape) -> bool {
        self.n_queries += 1;
        let mut changed = false;
        for &l in &shape.labels {
            if self.labels.binary_search(&l).is_err() {
                let at = self.labels.partition_point(|&x| x < l);
                self.labels.insert(at, l);
                changed = true;
            }
        }
        if shape.may_match_isolated && !self.any_isolated {
            self.any_isolated = true;
            changed = true;
        }
        changed
    }

    /// Is a query with this shape answered identically by a mapping
    /// pruned against this profile? True iff its labels are already in
    /// the profile and its nullability is accounted for.
    pub fn covers(&self, shape: &QueryShape) -> bool {
        if self.n_queries == 0 {
            return false;
        }
        if shape.may_match_isolated && !self.any_isolated {
            return false;
        }
        shape
            .labels
            .iter()
            .all(|l| self.labels.binary_search(l).is_ok())
    }

    /// Union of all query labels (sorted, deduplicated).
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Does any query in the workload match on isolated nodes (nullable
    /// path language)? Dead-rule pruning is disabled while true, because
    /// pruning shrinks `dom(M, G_s)` and nullable queries answer the
    /// reflexive pairs of dom nodes.
    pub fn any_isolated(&self) -> bool {
        self.any_isolated
    }

    /// Number of queries folded in.
    pub fn len(&self) -> usize {
        self.n_queries
    }

    /// Has no queries been folded in?
    pub fn is_empty(&self) -> bool {
        self.n_queries == 0
    }
}

/// The analyzer's verdict for one query of the workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryVerdict {
    /// The query's certain answer is empty on every source graph (labels
    /// disjoint from [`MappingFacts::produced`], not nullable, and the
    /// mapping is always solvable). The engine serves these without
    /// touching a prepared solution.
    pub statically_empty: bool,
    /// Cardinality prior from snapshot label densities; `None` when no
    /// snapshot was supplied.
    pub estimate: Option<CardinalityEstimate>,
}

/// The full static-analysis report for a mapping and (optionally) a
/// workload and a snapshot. Produced by [`analyze_mapping`] or
/// `MappingService::analyze`.
#[derive(Clone, Debug)]
pub struct MappingReport {
    /// Number of rules analyzed.
    pub rule_count: usize,
    /// Per-graph-independent facts about the mapping.
    pub facts: MappingFacts,
    /// Rule dependency graph: `feeds[i]` lists rules `j` whose *source*
    /// query reads a label name that rule `i`'s *target* can write —
    /// i.e. in a composed pipeline, rule `i`'s head can feed rule `j`'s
    /// body. Matched by label *name* across the two alphabets.
    pub feeds: Vec<Vec<usize>>,
    /// Rules dead for the analyzed workload (sorted). Empty when the
    /// workload is empty (nothing to be dead relative to).
    pub dead_rules: Vec<usize>,
    /// `(rule, by)` pairs: `rule` is implied by `by`. Mutually equivalent
    /// rules keep the lowest index; the rest point at it.
    pub subsumed_rules: Vec<(usize, usize)>,
    /// One verdict per analyzed query, in input order.
    pub verdicts: Vec<QueryVerdict>,
    /// All findings in one stream (rules first, then queries).
    pub diagnostics: Vec<Diagnostic>,
}

impl MappingReport {
    /// Rules that survive pruning (neither dead nor subsumed).
    pub fn live_rules(&self) -> usize {
        let mut dropped: Vec<usize> = self.dead_rules.clone();
        dropped.extend(self.subsumed_rules.iter().map(|&(r, _)| r));
        dropped.sort();
        dropped.dedup();
        self.rule_count - dropped.len()
    }

    /// Number of statically empty queries in the workload.
    pub fn statically_empty(&self) -> usize {
        self.verdicts.iter().filter(|v| v.statically_empty).count()
    }

    /// Number of closure hazards flagged.
    pub fn closure_hazards(&self) -> usize {
        self.verdicts
            .iter()
            .filter(|v| v.estimate.as_ref().is_some_and(|e| e.closure_hazard))
            .count()
    }
}

/// Does rule `j` imply (subsume) rule `i` in mapping `m`? True iff
/// `L(src_i) ⊆ L(src_j)` and `L(tgt_j) ⊆ L(tgt_i)`: then any solution
/// satisfying rule `j` satisfies rule `i`, so dropping `i` preserves the
/// solution set exactly. Decided by DFA product containment.
pub fn subsumes(m: &Gsm, j: usize, i: usize) -> bool {
    if i == j {
        return false;
    }
    let rules = m.rules();
    let sa = m.source_alphabet();
    let ta = m.target_alphabet();
    let src_i = Dfa::from_regex(&rules[i].source, sa);
    let src_j = Dfa::from_regex(&rules[j].source, sa);
    if !src_i.subset_of(&src_j) {
        return false;
    }
    let tgt_i = Dfa::from_regex(&rules[i].target, ta);
    let tgt_j = Dfa::from_regex(&rules[j].target, ta);
    tgt_j.subset_of(&tgt_i)
}

/// Compute the subsumption pairs `(rule, by)`. Mutual (equivalent) rules
/// keep the lowest index; strictly subsumed rules point at any subsumer
/// that is itself kept. Skipped (empty result) past
/// [`MAX_SUBSUMPTION_RULES`] rules.
fn subsumption_pairs(m: &Gsm) -> Vec<(usize, usize)> {
    let r = m.len();
    if !(2..=MAX_SUBSUMPTION_RULES).contains(&r) {
        return Vec::new();
    }
    let rules = m.rules();
    let sa = m.source_alphabet();
    let ta = m.target_alphabet();
    let srcs: Vec<Dfa> = rules
        .iter()
        .map(|x| Dfa::from_regex(&x.source, sa))
        .collect();
    let tgts: Vec<Dfa> = rules
        .iter()
        .map(|x| Dfa::from_regex(&x.target, ta))
        .collect();
    let implies = |j: usize, i: usize| srcs[i].subset_of(&srcs[j]) && tgts[j].subset_of(&tgts[i]);
    let mut out = Vec::new();
    for i in 0..r {
        // drop i if some j implies it and either j is strictly stronger
        // or j is the lowest-index member of a mutual class
        for j in 0..r {
            if j == i || !implies(j, i) {
                continue;
            }
            if !implies(i, j) || j < i {
                out.push((i, j));
                break;
            }
        }
    }
    out
}

/// The rule dependency graph (see [`MappingReport::feeds`]).
fn rule_feeds(m: &Gsm) -> Vec<Vec<usize>> {
    let rules = m.rules();
    let sa = m.source_alphabet();
    let ta = m.target_alphabet();
    // names each rule's target writes / source reads
    let heads: Vec<Vec<&str>> = rules
        .iter()
        .map(|r| r.target.labels().iter().map(|&l| ta.name(l)).collect())
        .collect();
    let bodies: Vec<Vec<&str>> = rules
        .iter()
        .map(|r| r.source.labels().iter().map(|&l| sa.name(l)).collect())
        .collect();
    heads
        .iter()
        .map(|h| {
            (0..rules.len())
                .filter(|&j| bodies[j].iter().any(|b| h.contains(b)))
                .collect()
        })
        .collect()
}

/// Rules dead for the profile: relational rules with a **nonempty**
/// target word none of whose labels any workload query reads. (ε-word
/// rules are constraints, not producers — never dead; non-word rules are
/// left alone.) Empty when the profile has no queries.
fn dead_rules_for(m: &Gsm, profile: &WorkloadProfile) -> Vec<usize> {
    if profile.is_empty() {
        return Vec::new();
    }
    let read = profile.labels();
    m.rules()
        .iter()
        .enumerate()
        .filter_map(|(i, rule)| {
            let w = rule.target.as_word()?;
            if !w.is_empty() && w.iter().all(|l| read.binary_search(l).is_err()) {
                Some(i)
            } else {
                None
            }
        })
        .collect()
}

/// Analyze a mapping against a query workload and an optional snapshot
/// (the canonical solution's, for cardinality priors).
pub fn analyze_mapping(
    m: &Gsm,
    queries: &[&CompiledQuery],
    snapshot: Option<&GraphSnapshot>,
) -> MappingReport {
    analyze_mapping_with(m, queries, WorkloadProfile::new(), snapshot)
}

/// [`analyze_mapping`] with a pre-existing workload profile folded in:
/// dead-rule detection runs against the union of `base` and `queries`
/// (the serving engine passes its registered workload here), while the
/// per-query verdicts cover `queries` only.
pub fn analyze_mapping_with(
    m: &Gsm,
    queries: &[&CompiledQuery],
    base: WorkloadProfile,
    snapshot: Option<&GraphSnapshot>,
) -> MappingReport {
    let facts = MappingFacts::of(m);
    let mut profile = base;
    for q in queries {
        profile.extend_with(q.shape());
    }
    let dead_rules = dead_rules_for(m, &profile);
    let subsumed_rules = subsumption_pairs(m);
    let feeds = rule_feeds(m);

    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    for &rule in &dead_rules {
        diagnostics.push(Diagnostic::DeadRule { rule });
    }
    for &(rule, by) in &subsumed_rules {
        diagnostics.push(Diagnostic::SubsumedRule { rule, by });
    }

    let mut verdicts = Vec::with_capacity(queries.len());
    for (qi, q) in queries.iter().enumerate() {
        let shape = q.shape();
        let statically_empty = facts.always_solvable
            && !shape.may_match_isolated
            && shape.disjoint_from(&facts.produced);
        if statically_empty {
            diagnostics.push(Diagnostic::EmptyQuery { query: qi });
        }
        let estimate = snapshot.map(|s| estimate_cardinality(shape, s));
        if let Some(e) = &estimate {
            if e.closure_hazard {
                diagnostics.push(Diagnostic::ClosureHazard {
                    query: qi,
                    estimate: *e,
                });
            }
        }
        verdicts.push(QueryVerdict {
            statically_empty,
            estimate,
        });
    }

    MappingReport {
        rule_count: m.len(),
        facts,
        feeds,
        dead_rules,
        subsumed_rules,
        verdicts,
        diagnostics,
    }
}

/// Is a query with this shape **statically empty** under the mapping
/// facts — certain answer empty on every source graph? Requires the
/// mapping to be solvable on every source (otherwise a `NoSolution`
/// source makes every answer vacuously certain), the query to need at
/// least one edge, and its labels to be ones the mapping never produces.
pub fn statically_empty(shape: &QueryShape, facts: &MappingFacts) -> bool {
    facts.always_solvable && !shape.may_match_isolated && shape.disjoint_from(&facts.produced)
}

/// The pruned mapping the engine serves from, or `None` when no pruning
/// applies. Soundness gates, all enforced here:
///
/// 1. the **full** mapping must be relational — pruning must not make a
///    `NotRelational` mapping servable;
/// 2. **subsumed** rules are dropped unconditionally: the solution set is
///    unchanged, so every query's certain answer is unchanged;
/// 3. **dead** rules are dropped only when no workload query can match an
///    isolated node (dropping a rule shrinks `dom`, and nullable queries
///    answer reflexive dom pairs); only nonempty-word rules are ever
///    dead, so `NoSolution` behaviour is preserved too.
///
/// The result is answer-equivalent to `m` for every query the profile
/// [`WorkloadProfile::covers`] — the engine re-registers and rebuilds
/// when an uncovered query arrives.
pub fn pruned_gsm(m: &Gsm, profile: &WorkloadProfile) -> Option<Gsm> {
    if !m.is_relational() {
        return None;
    }
    let mut drop: Vec<usize> = subsumption_pairs(m).into_iter().map(|(r, _)| r).collect();
    if !profile.any_isolated() {
        drop.extend(dead_rules_for(m, profile));
    }
    drop.sort();
    drop.dedup();
    if drop.is_empty() {
        return None;
    }
    let mut pruned = Gsm::new(m.source_alphabet().clone(), m.target_alphabet().clone());
    for (i, rule) in m.rules().iter().enumerate() {
        if drop.binary_search(&i).is_err() {
            pruned.add_rule(rule.source.clone(), rule.target.clone());
        }
    }
    Some(pruned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gde_automata::{parse_regex, Regex};
    use gde_datagraph::Alphabet;
    use gde_dataquery::DataQuery;

    fn mapping(rules: &[(&str, &str)]) -> Gsm {
        let mut sa = Alphabet::from_labels(["a", "b", "c"]);
        let mut ta = Alphabet::from_labels(["x", "y", "z"]);
        let parsed: Vec<(Regex, Regex)> = rules
            .iter()
            .map(|(s, t)| {
                (
                    parse_regex(s, &mut sa).unwrap(),
                    parse_regex(t, &mut ta).unwrap(),
                )
            })
            .collect();
        let mut m = Gsm::new(sa, ta);
        for (s, t) in parsed {
            m.add_rule(s, t);
        }
        m
    }

    fn query(m: &Gsm, text: &str) -> CompiledQuery {
        let mut ta = m.target_alphabet().clone();
        DataQuery::Rpq(parse_regex(text, &mut ta).unwrap()).compile()
    }

    #[test]
    fn facts_of_relational_mapping() {
        let m = mapping(&[("a", "x y"), ("b", "y")]);
        let f = MappingFacts::of(&m);
        assert!(f.relational && f.always_solvable);
        let names: Vec<&str> = f
            .produced
            .iter()
            .map(|&l| m.target_alphabet().name(l))
            .collect();
        assert_eq!(names, ["x", "y"]);
    }

    #[test]
    fn epsilon_rule_breaks_always_solvable() {
        let m = mapping(&[("a", "()")]);
        let f = MappingFacts::of(&m);
        assert!(f.relational && !f.always_solvable);
    }

    #[test]
    fn dead_rules_need_a_workload() {
        let m = mapping(&[("a", "x"), ("b", "z")]);
        // no workload: nothing is dead
        let r = analyze_mapping(&m, &[], None);
        assert!(r.dead_rules.is_empty());
        // workload reading only x: the z-rule is dead
        let q = query(&m, "x*");
        let r = analyze_mapping(&m, &[&q], None);
        assert_eq!(r.dead_rules, vec![1]);
        assert_eq!(r.live_rules(), 1);
        assert!(r.diagnostics.contains(&Diagnostic::DeadRule { rule: 1 }));
    }

    #[test]
    fn subsumption_strict_and_mutual() {
        // rule 1 strictly subsumed by 0 (a ⊆ a|b, same target);
        // rules 2 and 3 mutually equivalent (keep 2)
        let m = mapping(&[("a|b", "x"), ("a", "x"), ("c", "y"), ("c", "y")]);
        let r = analyze_mapping(&m, &[], None);
        assert_eq!(r.subsumed_rules, vec![(1, 0), (3, 2)]);
        assert_eq!(r.live_rules(), 2);
    }

    #[test]
    fn subsumption_respects_target_direction() {
        // same source, but 0's target language {x} ⊄ {y}: no subsumption
        let m = mapping(&[("a", "x"), ("a", "y")]);
        assert!(analyze_mapping(&m, &[], None).subsumed_rules.is_empty());
        // target containment the right way: L(tgt_0)={x,y} ⊇ L(tgt_1)... no:
        // subsumes(j=1, i=0) needs L(tgt_1) ⊆ L(tgt_0). singleton targets
        // over a union source
        let m2 = mapping(&[("a", "x|y"), ("a", "x")]);
        // rule 1's target {x} ⊆ rule 0's {x,y} — wrong direction: rule 0 is
        // the weaker constraint, so rule 0 is subsumed by rule 1
        assert_eq!(analyze_mapping(&m2, &[], None).subsumed_rules, vec![(0, 1)]);
    }

    #[test]
    fn statically_empty_query_detection() {
        let m = mapping(&[("a", "x y")]);
        let live = query(&m, "x");
        let empty = query(&m, "z");
        let nullable = query(&m, "z*"); // matches isolated nodes: not empty
        let r = analyze_mapping(&m, &[&live, &empty, &nullable], None);
        assert!(!r.verdicts[0].statically_empty);
        assert!(r.verdicts[1].statically_empty);
        assert!(!r.verdicts[2].statically_empty);
        assert_eq!(r.statically_empty(), 1);
        assert!(r.diagnostics.contains(&Diagnostic::EmptyQuery { query: 1 }));
    }

    #[test]
    fn epsilon_rule_disables_empty_verdict() {
        // an ε-rule can make build() fail, turning answers vacuous — no
        // query may be declared empty then
        let m = mapping(&[("a", "()"), ("b", "x")]);
        let q = query(&m, "z");
        let r = analyze_mapping(&m, &[&q], None);
        assert!(!r.verdicts[0].statically_empty);
    }

    #[test]
    fn rule_feed_graph_by_name() {
        // shared-name pipeline: rule 0 writes x, rule 1 reads x (as a
        // source label) in a mapping whose source alphabet contains "x"
        let mut sa = Alphabet::from_labels(["a", "x"]);
        let mut ta = Alphabet::from_labels(["x", "y"]);
        let r0 = (
            parse_regex("a", &mut sa).unwrap(),
            parse_regex("x", &mut ta).unwrap(),
        );
        let r1 = (
            parse_regex("x", &mut sa).unwrap(),
            parse_regex("y", &mut ta).unwrap(),
        );
        let mut m = Gsm::new(sa, ta);
        m.add_rule(r0.0, r0.1);
        m.add_rule(r1.0, r1.1);
        let r = analyze_mapping(&m, &[], None);
        assert_eq!(r.feeds, vec![vec![1], vec![]]);
    }

    #[test]
    fn pruning_gates() {
        let m = mapping(&[("a", "x"), ("a", "x"), ("b", "z")]);
        // empty profile: subsumption only
        let p = WorkloadProfile::new();
        let pruned = pruned_gsm(&m, &p).unwrap();
        assert_eq!(pruned.len(), 2);
        // x-only workload: z-rule dead too
        let q = query(&m, "x");
        let p = WorkloadProfile::from_queries([&q]);
        let pruned = pruned_gsm(&m, &p).unwrap();
        assert_eq!(pruned.len(), 1);
        // nullable query in the workload: dead pruning off again
        let qn = query(&m, "x*");
        let p = WorkloadProfile::from_queries([&q, &qn]);
        assert_eq!(pruned_gsm(&m, &p).unwrap().len(), 2);
        // non-relational mapping: no pruning at all
        let mut nr = mapping(&[("a", "x"), ("a", "x")]);
        let star = Regex::Star(Box::new(Regex::Atom(
            nr.target_alphabet().label("x").unwrap(),
        )));
        nr.add_rule(Regex::Atom(nr.source_alphabet().label("a").unwrap()), star);
        assert!(pruned_gsm(&nr, &WorkloadProfile::new()).is_none());
    }

    #[test]
    fn workload_profile_coverage() {
        let m = mapping(&[("a", "x y")]);
        let qx = query(&m, "x");
        let qy = query(&m, "y");
        let qn = query(&m, "x*");
        let mut p = WorkloadProfile::new();
        assert!(!p.covers(qx.shape())); // empty profile covers nothing
        assert!(p.extend_with(qx.shape()));
        assert!(p.covers(qx.shape()));
        assert!(!p.covers(qy.shape()));
        assert!(!p.covers(qn.shape())); // nullable not yet accounted for
        assert!(p.extend_with(qn.shape()));
        assert!(p.covers(qn.shape()));
        assert!(!p.extend_with(qx.shape())); // no change
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn empty_mapping_report() {
        let sa = Alphabet::from_labels(["a"]);
        let ta = Alphabet::from_labels(["x"]);
        let m = Gsm::new(sa, ta);
        let r = analyze_mapping(&m, &[], None);
        assert_eq!(r.rule_count, 0);
        assert_eq!(r.live_rules(), 0);
        assert!(r.diagnostics.is_empty());
        assert!(pruned_gsm(&m, &WorkloadProfile::new()).is_none());
    }
}
