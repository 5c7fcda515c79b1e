//! Compiled queries: lower a [`DataQuery`] to its evaluation machine
//! **once**, then evaluate it many times against frozen
//! [`GraphSnapshot`]s.
//!
//! The one-shot entry points ([`DataQuery::eval_pairs`] and friends)
//! re-lower on every call — an RPQ rebuilds its Thompson NFA, a memory RPQ
//! recompiles to a register automaton, a path-with-tests re-derives its
//! REE form. That is invisible for a single evaluation but dominates when a
//! serving engine answers a stream of queries against one canonical
//! solution (the access pattern of the paper's Theorems 3–5). A
//! [`CompiledQuery`] performs the lowering exactly once:
//!
//! | class | lowered form |
//! |-------|--------------|
//! | RPQ | Thompson [`Nfa`] |
//! | REE | the AST itself (its evaluation *is* relation algebra) |
//! | REM | [`RegisterAutomaton`] |
//! | path with tests | its REE form |
//! | conjunctive data RPQ | compiled atoms + the shared join |
//!
//! Evaluation consumes a [`GraphSnapshot`], so letter transitions walk
//! label-partitioned CSR slices and `=`/`≠` tests compare interned value
//! ids. Building one snapshot and one compiled query and pairing them is
//! exactly what `gde-core`'s `MappingService` engine does.

use crate::analyze::QueryShape;
use crate::cache::{subplan_hash, CacheHandle, LruSubRelCache, SubRelKey};
use crate::control::EvalControl;
use crate::crpq::{join_atom_answers, AtomAnswers};
use crate::query::DataQuery;
use crate::ree::ReeRowMemo;
use gde_automata::{Nfa, RegisterAutomaton};
use gde_datagraph::{DataGraph, GraphSnapshot, Label, NodeId, Relation, RelationBuilder};
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

/// The lowered form of one query class.
#[derive(Clone, Debug)]
enum CompiledForm {
    /// Navigational RPQ as a Thompson NFA.
    Rpq(Nfa),
    /// Equality RPQ: the AST is already its evaluation plan.
    Ree(crate::ree::Ree),
    /// Memory RPQ as a register automaton.
    Rem(RegisterAutomaton),
    /// Conjunctive data RPQ: head plus compiled atoms.
    Conjunctive {
        head: (u32, u32),
        atoms: Vec<(u32, u32, CompiledQuery)>,
    },
}

impl CompiledForm {
    /// Rewrite every transition/AST label through the binding vector
    /// (slot label → `bindings[slot]`). Structure — automaton states,
    /// registers, memo layout — is untouched; this is the cheap half of
    /// template binding.
    fn map_labels(&self, bindings: &[Label]) -> CompiledForm {
        let mut subst = |l: Label| bindings[l.index()];
        match self {
            CompiledForm::Rpq(nfa) => CompiledForm::Rpq(nfa.map_labels(&mut subst)),
            CompiledForm::Ree(e) => CompiledForm::Ree(crate::canon::map_ree(e, &mut subst)),
            CompiledForm::Rem(ra) => CompiledForm::Rem(ra.map_labels(&mut subst)),
            CompiledForm::Conjunctive { head, atoms } => CompiledForm::Conjunctive {
                head: *head,
                atoms: atoms
                    .iter()
                    .map(|(from, to, cq)| {
                        // inner atoms never key caches on their own; a
                        // bound atom is indistinguishable from a direct
                        // compile of its bound source
                        let source = crate::canon::map_query_labels(&cq.source, &mut subst);
                        let bound = CompiledQuery {
                            form: Box::new(cq.form.map_labels(bindings)),
                            equality_only: cq.equality_only,
                            plan_hash: subplan_hash("query", &source),
                            binding: 0,
                            shape: QueryShape::of(&source),
                            source: Box::new(source),
                        };
                        (*from, *to, bound)
                    })
                    .collect(),
            },
        }
    }
}

/// A [`DataQuery`] lowered once for repeated evaluation.
///
/// The source query is retained (it is query-sized, not graph-sized), so a
/// compiled query is a self-contained serving artifact: engines that need
/// the original AST — like the exact certain-answer enumeration behind
/// `gde-core`'s unified `Semantics` entry point — can recover it via
/// [`CompiledQuery::source`] instead of threading the `DataQuery`
/// alongside.
#[derive(Clone, Debug)]
pub struct CompiledQuery {
    form: Box<CompiledForm>,
    source: Box<DataQuery>,
    equality_only: bool,
    plan_hash: u128,
    binding: u64,
    shape: QueryShape,
}

impl CompiledQuery {
    /// Lower a query. Cost is proportional to the query size only — no
    /// graph is involved.
    pub fn compile(q: &DataQuery) -> CompiledQuery {
        let form = match q {
            DataQuery::Rpq(e) => CompiledForm::Rpq(Nfa::from_regex(e)),
            DataQuery::Ree(e) => CompiledForm::Ree(e.clone()),
            DataQuery::Rem(e) => CompiledForm::Rem(e.compile()),
            // a path with tests is a (checked) REE; lower through that form
            DataQuery::PathTest(e) => CompiledForm::Ree(e.to_ree()),
            DataQuery::Conjunctive(q) => CompiledForm::Conjunctive {
                head: q.head,
                atoms: q
                    .atoms
                    .iter()
                    .map(|a| (a.from, a.to, CompiledQuery::compile(&a.query)))
                    .collect(),
            },
        };
        CompiledQuery {
            form: Box::new(form),
            source: Box::new(q.clone()),
            equality_only: q.is_equality_only(),
            plan_hash: subplan_hash("query", q),
            binding: 0,
            shape: QueryShape::of(q),
        }
    }

    /// Stamp out a bound instance of this compiled *skeleton* (the
    /// compiled artifact held by a `canon::QueryTemplate`, whose labels
    /// are slot indices): transition labels are rewritten through
    /// `bindings` — a linear copy of the transition tables, never a
    /// re-compilation — and the instance's cache identity becomes
    /// `(skeleton_hash, binding_hash(bindings))`. Binding-independent
    /// shape facts (trivial-path matching, star depth, equality-onlyness)
    /// carry over from the skeleton; the binding-sensitive label
    /// footprint is recomputed from the binding vector, so the static
    /// analyzer's per-query verdicts stay exact on bound instances.
    ///
    /// The caller (`QueryTemplate::bind`) has already checked arity:
    /// every slot label indexes into `bindings`.
    pub(crate) fn bind_template(&self, bindings: &[Label], skeleton_hash: u128) -> CompiledQuery {
        let source = crate::canon::map_query_labels(&self.source, &mut |l| bindings[l.index()]);
        let mut labels: Vec<Label> = bindings.to_vec();
        labels.sort_unstable();
        labels.dedup();
        CompiledQuery {
            form: Box::new(self.form.map_labels(bindings)),
            source: Box::new(source),
            equality_only: self.equality_only,
            plan_hash: skeleton_hash,
            binding: crate::canon::binding_hash(bindings),
            shape: QueryShape {
                labels,
                may_match_isolated: self.shape.may_match_isolated,
                star_depth: self.shape.star_depth,
            },
        }
    }

    /// The statically decidable shape of the source query (label
    /// footprint, trivial-path matching, star depth), computed once at
    /// compile time. Input of the static analyzer's emptiness and
    /// cardinality verdicts.
    pub fn shape(&self) -> &QueryShape {
        &self.shape
    }

    /// The query this artifact was lowered from.
    pub fn source(&self) -> &DataQuery {
        &self.source
    }

    /// Structural hash of the whole query ([`crate::cache::subplan_hash`]
    /// over the source AST): the canonical key under which this query's
    /// evaluated answer artifacts live in a sub-relation cache.
    /// Structurally identical queries — recompiled, cloned, re-parsed —
    /// share one hash.
    pub fn plan_hash(&self) -> u128 {
        self.plan_hash
    }

    /// The binding discriminant of this artifact's cache identity: `0`
    /// for directly compiled queries (whose [`CompiledQuery::plan_hash`]
    /// covers their concrete labels), else the binding-vector hash of
    /// the template binding that produced it (whose `plan_hash` is the
    /// label-free *skeleton* hash). Cache keys carry
    /// `(plan_hash, binding)` so two bindings of one skeleton never
    /// alias.
    pub fn binding_hash(&self) -> u64 {
        self.binding
    }

    /// Does the query avoid inequality comparisons? (Cached from the source
    /// query; the §8 REM=/REE= fragments.)
    pub fn is_equality_only(&self) -> bool {
        self.equality_only
    }

    /// Evaluate to sorted `(NodeId, NodeId)` pairs against a snapshot.
    pub fn eval_pairs(&self, s: &GraphSnapshot) -> Vec<(NodeId, NodeId)> {
        match &*self.form {
            CompiledForm::Rpq(nfa) => nfa.eval_pairs_snapshot(s),
            CompiledForm::Ree(e) => e.eval_pairs_snapshot(s),
            CompiledForm::Rem(ra) => ra.eval_pairs_snapshot(s),
            CompiledForm::Conjunctive { head, atoms } => {
                let rels: Vec<AtomAnswers> = atoms
                    .iter()
                    .map(|(from, to, cq)| (*from, *to, cq.eval_pairs(s)))
                    .collect();
                join_atom_answers(rels, *head)
            }
        }
    }

    /// Evaluate to a [`Relation`] over the snapshot's dense node indices.
    /// RPQs, REEs and memory RPQs already evaluate natively to relations
    /// (no pair materialisation or sort); conjunctive queries build one
    /// from their pair answers. The serving engine consumes this form so
    /// its dom-filtering runs on packed rows instead of hashed node ids.
    pub fn eval_relation(&self, s: &GraphSnapshot) -> Relation {
        match &*self.form {
            CompiledForm::Rpq(nfa) => nfa.eval_snapshot(s),
            CompiledForm::Ree(e) => e.eval_snapshot(s),
            CompiledForm::Rem(ra) => ra.eval_snapshot(s),
            CompiledForm::Conjunctive { .. } => {
                let mut b = RelationBuilder::new(s.n());
                for (u, v) in self.eval_pairs(s) {
                    if let (Some(i), Some(j)) = (s.idx(u), s.idx(v)) {
                        b.push(i as usize, j as usize);
                    }
                }
                b.build()
            }
        }
    }

    /// Boolean projection: is the answer set non-empty on this snapshot?
    /// An REE goes through [`Ree::holds_rows_snapshot`], so an `=`/`≠`
    /// test at its root stops at the first witness.
    ///
    /// [`Ree::holds_rows_snapshot`]: crate::ree::Ree::holds_rows_snapshot
    pub fn holds_somewhere(&self, s: &GraphSnapshot) -> bool {
        match &*self.form {
            CompiledForm::Rpq(_) => self.eval_relation(s).any(),
            CompiledForm::Ree(e) => e.holds_rows_snapshot(s, &ReeRowMemo::build(e, s)),
            _ => !self.eval_pairs(s).is_empty(),
        }
    }

    /// Convenience: evaluate against a graph by freezing it first. Prefer
    /// [`CompiledQuery::eval_pairs`] with a shared snapshot when issuing
    /// several queries against one graph.
    pub fn eval_pairs_graph(&self, g: &DataGraph) -> Vec<(NodeId, NodeId)> {
        self.eval_pairs(&g.snapshot())
    }

    /// Build this query's phase-1 state into `shared`: the REE memo of
    /// closures and tail factors (through `shared`'s cache when it has
    /// one), or the full answer of a conjunctive query, whose join does
    /// not run through the phase-2 evaluators. Per-start classes (RPQ,
    /// REM) have no phase-1 state — a no-op. Idempotent, and safe to skip:
    /// [`CompiledQuery::eval_relation_with`] and
    /// [`CompiledQuery::holds_with`] build the same state lazily. The
    /// serving engine calls it first so that phase 1 is timed on its own.
    pub fn build_phase1(&self, s: &GraphSnapshot, shared: &RowEvalShared) {
        match &*self.form {
            CompiledForm::Ree(e) => {
                shared.memo(e, s);
            }
            CompiledForm::Conjunctive { .. } => {
                shared.full(self, s);
            }
            CompiledForm::Rpq(_) | CompiledForm::Rem(_) => {}
        }
    }

    /// [`CompiledQuery::eval_relation`] through `shared`'s phase-1 state:
    /// an REE reads its closures and tail factors from the memo, so
    /// artifacts its cache holds are not recomputed, and a conjunctive
    /// query reads its full answer from `shared`. `shared` must be used
    /// with a single `(query, snapshot)` pairing; create a fresh
    /// [`RowEvalShared`] per pairing. A control that has already fired
    /// yields the empty relation: the caller discards the serve.
    ///
    /// A relation that already lives elsewhere is borrowed, not copied: a
    /// conjunctive query's full answer from `shared`, and an REE that is
    /// a label or a memoised closure from the snapshot or the memo.
    pub fn eval_relation_with<'a>(
        &self,
        s: &'a GraphSnapshot,
        shared: &'a RowEvalShared,
    ) -> Cow<'a, Relation> {
        if shared.control.should_stop() {
            return Cow::Owned(Relation::empty(s.n()));
        }
        match &*self.form {
            CompiledForm::Rpq(nfa) => Cow::Owned(nfa.eval_snapshot(s)),
            CompiledForm::Ree(e) => e.eval_rows(s, shared.memo(e, s)),
            CompiledForm::Rem(ra) => Cow::Owned(ra.eval_snapshot(s)),
            CompiledForm::Conjunctive { .. } => Cow::Borrowed(shared.full(self, s)),
        }
    }

    /// Boolean projection of [`CompiledQuery::eval_relation_with`]: is the
    /// answer non-empty? RPQs and REMs stop at the first satisfying start
    /// row, and so does an REE rooted in an `=`/`≠` test
    /// ([`Ree::holds_rows_snapshot`]) at its first witness.
    ///
    /// [`Ree::holds_rows_snapshot`]: crate::ree::Ree::holds_rows_snapshot
    pub fn holds_with(&self, s: &GraphSnapshot, shared: &RowEvalShared) -> bool {
        if shared.control.should_stop() {
            return false;
        }
        match &*self.form {
            CompiledForm::Rpq(nfa) => nfa.holds_snapshot(s),
            CompiledForm::Rem(ra) => ra.holds_snapshot(s),
            CompiledForm::Ree(e) => e.holds_rows_snapshot(s, shared.memo(e, s)),
            CompiledForm::Conjunctive { .. } => shared.full(self, s).any(),
        }
    }
}

/// Shared phase-1 state for evaluating **one** compiled query against
/// **one** snapshot: the REE memo of materialised sub-relations, or the
/// full answer relation of a conjunctive query. Built by
/// [`CompiledQuery::build_phase1`], or lazily by the first evaluation
/// that needs it.
///
/// Constructed [`RowEvalShared::with_cache`], phase-1 artifacts are
/// looked up in / inserted into an [`LruSubRelCache`] under their
/// structural subplan keys, so repeated calls (and queries sharing
/// subexpressions) reuse closures and tail factors instead of recomputing
/// them.
#[derive(Debug, Default)]
pub struct RowEvalShared {
    ree_memo: OnceLock<ReeRowMemo>,
    full: OnceLock<Arc<Relation>>,
    cache: Option<CacheHandle>,
    control: Arc<EvalControl>,
}

impl RowEvalShared {
    /// Fresh, empty shared state with no cache: every artifact is
    /// computed from scratch (and dropped with this value).
    pub fn new() -> RowEvalShared {
        RowEvalShared::default()
    }

    /// Shared state whose phase-1 artifacts go through `cache`. Its keys
    /// name artifacts of the snapshot being served, so one cache must
    /// serve one snapshot only.
    pub fn with_cache(cache: Arc<LruSubRelCache>) -> RowEvalShared {
        RowEvalShared {
            ree_memo: OnceLock::new(),
            full: OnceLock::new(),
            cache: Some(CacheHandle::new(cache)),
            control: Arc::new(EvalControl::unbounded()),
        }
    }

    /// Attach a deadline/cancellation control: evaluation checks it
    /// before it starts and between phase-1 memo nodes, returning empty
    /// results (and inserting nothing into the cache) once it fires. The
    /// caller must check [`EvalControl::fired`] and discard the serve.
    pub fn with_control(mut self, control: Arc<EvalControl>) -> RowEvalShared {
        self.control = control;
        self
    }

    /// The deadline/cancellation control governing this shared state.
    pub fn control(&self) -> &Arc<EvalControl> {
        &self.control
    }

    /// The cache handle, if this shared state was built with one.
    pub fn cache(&self) -> Option<&CacheHandle> {
        self.cache.as_ref()
    }

    /// Cache hits recorded through this shared state (0 when uncached).
    pub fn cache_hits(&self) -> u64 {
        self.cache.as_ref().map_or(0, CacheHandle::hits)
    }

    /// Cache misses recorded through this shared state (0 when uncached).
    pub fn cache_misses(&self) -> u64 {
        self.cache.as_ref().map_or(0, CacheHandle::misses)
    }

    /// Bytes this shared state's cache inserts found no room for (0 when
    /// uncached; see [`CacheHandle::shortfall`]).
    pub fn cache_shortfall(&self) -> u64 {
        self.cache.as_ref().map_or(0, CacheHandle::shortfall)
    }

    /// Is the phase-1 state already built (memo or full answer)?
    pub fn memo_ready(&self) -> bool {
        self.ree_memo.get().is_some() || self.full.get().is_some()
    }

    fn memo(&self, e: &crate::ree::Ree, s: &GraphSnapshot) -> &ReeRowMemo {
        self.ree_memo
            .get_or_init(|| ReeRowMemo::build_controlled(e, s, self.cache.as_ref(), &self.control))
    }

    fn full(&self, q: &CompiledQuery, s: &GraphSnapshot) -> &Relation {
        self.full.get_or_init(|| {
            // a fired control stops before the (expensive, uninterruptible)
            // full evaluation and fabricates nothing into the cache
            if self.control.should_stop() {
                return Arc::new(Relation::empty(s.n()));
            }
            match &self.cache {
                Some(h) => h.get_or_insert(
                    SubRelKey::artifact(q.plan_hash()).with_binding(q.binding),
                    || q.eval_relation(s),
                ),
                None => Arc::new(q.eval_relation(s)),
            }
        })
    }
}

impl DataQuery {
    /// Lower this query for repeated evaluation (see [`CompiledQuery`]).
    pub fn compile(&self) -> CompiledQuery {
        CompiledQuery::compile(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crpq::{CdAtom, ConjunctiveDataRpq};
    use crate::parser::{parse_ree, parse_rem};
    use crate::pathtest::PathTest;
    use gde_automata::parse_regex;
    use gde_datagraph::Value;

    /// 0(v1) -a-> 1(v2) -b-> 2(v1); 2 -a-> 0
    fn sample_graph() -> DataGraph {
        let mut g = DataGraph::new();
        g.add_node(NodeId(0), Value::int(1)).unwrap();
        g.add_node(NodeId(1), Value::int(2)).unwrap();
        g.add_node(NodeId(2), Value::int(1)).unwrap();
        g.add_edge_str(NodeId(0), "a", NodeId(1)).unwrap();
        g.add_edge_str(NodeId(1), "b", NodeId(2)).unwrap();
        g.add_edge_str(NodeId(2), "a", NodeId(0)).unwrap();
        g
    }

    fn all_query_classes(g: &mut DataGraph) -> Vec<DataQuery> {
        let a = g.alphabet().label("a").unwrap();
        let rpq: DataQuery = parse_regex("a b", g.alphabet_mut()).unwrap().into();
        let ree: DataQuery = parse_ree("(a b)=", g.alphabet_mut()).unwrap().into();
        let rem: DataQuery = parse_rem("@x.(a b[x=])", g.alphabet_mut()).unwrap().into();
        let pt: DataQuery = DataQuery::PathTest(PathTest::Atom(a).eq());
        let conj: DataQuery = ConjunctiveDataRpq::new(
            (0, 2),
            vec![
                CdAtom {
                    from: 0,
                    query: parse_regex("a", g.alphabet_mut()).unwrap().into(),
                    to: 1,
                },
                CdAtom {
                    from: 1,
                    query: parse_regex("b", g.alphabet_mut()).unwrap().into(),
                    to: 2,
                },
            ],
        )
        .into();
        vec![rpq, ree, rem, pt, conj]
    }

    #[test]
    fn compiled_matches_one_shot_for_every_class() {
        let mut g = sample_graph();
        let queries = all_query_classes(&mut g);
        let snap = g.snapshot();
        for q in &queries {
            let compiled = q.compile();
            assert_eq!(
                compiled.eval_pairs(&snap),
                q.eval_pairs(&g),
                "compiled vs one-shot disagree for {q:?}"
            );
            assert_eq!(compiled.holds_somewhere(&snap), q.holds_somewhere(&g));
            assert_eq!(compiled.is_equality_only(), q.is_equality_only());
            assert_eq!(compiled.source(), q, "compiled query retains its source");
        }
    }

    #[test]
    fn one_compiled_query_serves_many_snapshots() {
        let mut g1 = sample_graph();
        let q: DataQuery = parse_ree("(a b)=", g1.alphabet_mut()).unwrap().into();
        let compiled = q.compile();
        let s1 = g1.snapshot();
        assert_eq!(compiled.eval_pairs(&s1), vec![(NodeId(0), NodeId(2))]);
        // a second, different graph: same compiled artifact
        let mut g2 = sample_graph();
        g2.set_value(NodeId(2), Value::int(7)).unwrap(); // breaks the = test
        let s2 = g2.snapshot();
        assert!(compiled.eval_pairs(&s2).is_empty());
        // and the first snapshot still answers (immutability)
        assert_eq!(compiled.eval_pairs(&s1), vec![(NodeId(0), NodeId(2))]);
    }

    #[test]
    fn eval_pairs_graph_convenience() {
        let mut g = sample_graph();
        let q: DataQuery = parse_regex("a", g.alphabet_mut()).unwrap().into();
        assert_eq!(q.compile().eval_pairs_graph(&g), q.eval_pairs(&g));
    }

    #[test]
    fn shared_evaluation_matches_full_eval_for_every_class() {
        use gde_datagraph::Value;

        // a denser graph than sample_graph, so closures are non-trivial
        let mut g = DataGraph::new();
        for i in 0..12u32 {
            g.add_node(NodeId(i), Value::int(i as i64 % 4)).unwrap();
        }
        for i in 0..12u32 {
            g.add_edge_str(NodeId(i), "a", NodeId((i + 1) % 12))
                .unwrap();
            if i % 2 == 0 {
                g.add_edge_str(NodeId(i), "b", NodeId((i + 5) % 12))
                    .unwrap();
            }
        }
        // a null-valued node on an `a` path: its row passes no test
        g.add_node(NodeId(12), Value::Null).unwrap();
        g.add_edge_str(NodeId(11), "a", NodeId(12)).unwrap();
        g.add_edge_str(NodeId(12), "a", NodeId(0)).unwrap();
        g.add_edge_str(NodeId(12), "b", NodeId(5)).unwrap();
        let queries = all_query_classes(&mut g);
        // closure-heavy REEs exercise the memoised two-phase path, and
        // tests over closures read the memo in place
        let extra: Vec<DataQuery> = [
            "a* (a+)= b*",
            "(a b)= a",
            "a+ + (b b)!=",
            "(a+)=",
            "(a*)=",
            "(a+)!=",
            "(a+)= b",
            "b | (a+)=",
        ]
        .iter()
        .map(|s| parse_ree(s, g.alphabet_mut()).unwrap().into())
        .collect();
        let snap = g.snapshot();
        // a label interned after the snapshot froze has no edges in it: as
        // a head atom and as a memoised tail factor, the answer is empty
        let foreign: Vec<DataQuery> = ["zz", "(a zz)="]
            .iter()
            .map(|s| parse_ree(s, g.alphabet_mut()).unwrap().into())
            .collect();
        assert!(g.alphabet().label("zz").unwrap().index() >= snap.label_count());
        for q in queries.iter().chain(&extra).chain(&foreign) {
            let compiled = q.compile();
            let full = compiled.eval_relation(&snap);
            let shared = RowEvalShared::new();
            assert_eq!(*compiled.eval_relation_with(&snap, &shared), full, "{q:?}");
            let holds = compiled.holds_with(&snap, &shared);
            assert_eq!(holds, compiled.holds_somewhere(&snap), "{q:?}");
            // the Booleans against the independent full evaluation
            assert_eq!(holds, full.any(), "{q:?}");
        }
        for q in &foreign {
            assert!(q.compile().eval_relation(&snap).is_empty(), "{q:?}");
        }
    }

    #[test]
    fn cached_shared_state_serves_identical_answers() {
        use gde_datagraph::Value;

        let mut g = DataGraph::new();
        for i in 0..16u32 {
            g.add_node(NodeId(i), Value::int(i as i64 % 5)).unwrap();
        }
        for i in 0..16u32 {
            g.add_edge_str(NodeId(i), "a", NodeId((i + 1) % 16))
                .unwrap();
            g.add_edge_str(NodeId(i), "b", NodeId((i * 3) % 16))
                .unwrap();
        }
        let queries = all_query_classes(&mut g);
        let extra: Vec<DataQuery> = ["a* (a+)= b*", "a+ b+", "(b b)!="]
            .iter()
            .map(|s| parse_ree(s, g.alphabet_mut()).unwrap().into())
            .collect();
        let snap = g.snapshot();
        let eval_all = |shared: &RowEvalShared, cq: &CompiledQuery| -> Relation {
            cq.eval_relation_with(&snap, shared).into_owned()
        };
        let unbounded = || Arc::new(LruSubRelCache::new(Arc::default()));
        for q in queries.iter().chain(&extra) {
            // a fresh cache per query: cross-query sharing is asserted below
            let cache = unbounded();
            let cq = q.compile();
            let plain = eval_all(&RowEvalShared::new(), &cq);
            // cold pass populates the cache
            let cold = RowEvalShared::with_cache(cache.clone());
            assert_eq!(eval_all(&cold, &cq), plain, "cold cached run ({q:?})");
            assert_eq!(cold.cache_hits(), 0, "first run cannot hit ({q:?})");
            // warm pass serves the same artifacts from cache
            let warm = RowEvalShared::with_cache(cache.clone());
            assert_eq!(eval_all(&warm, &cq), plain, "warm cached run ({q:?})");
            assert_eq!(warm.cache_misses(), 0, "warm run must not miss ({q:?})");
            assert_eq!(
                warm.cache_hits(),
                cold.cache_misses(),
                "warm hits = artifacts the cold run inserted ({q:?})"
            );
            // a recompiled (structurally identical) query shares entries
            let warm2 = RowEvalShared::with_cache(cache.clone());
            assert_eq!(eval_all(&warm2, &q.compile()), plain);
            assert_eq!(warm2.cache_misses(), 0, "recompiled query hits ({q:?})");
        }
        // different queries sharing a subexpression share cache entries:
        // `(a b)=` stores the tail factor `b`, which `(b b)!=` then reuses
        // for its own tail on a cold run
        let cache = unbounded();
        let q1: DataQuery = parse_ree("(a b)=", g.alphabet_mut()).unwrap().into();
        let q2: DataQuery = parse_ree("(b b)!=", g.alphabet_mut()).unwrap().into();
        let s1 = RowEvalShared::with_cache(cache.clone());
        eval_all(&s1, &q1.compile());
        assert!(s1.cache_misses() > 0);
        let s2 = RowEvalShared::with_cache(cache);
        eval_all(&s2, &q2.compile());
        assert!(
            s2.cache_hits() > 0,
            "shared subexpression must hit across distinct queries"
        );
    }

    #[test]
    fn build_phase1_fills_exactly_the_shared_state() {
        let mut g = sample_graph();
        let queries = all_query_classes(&mut g);
        let snap = g.snapshot();
        for q in &queries {
            let cq = q.compile();
            let shared = RowEvalShared::new();
            assert!(!shared.memo_ready());
            cq.build_phase1(&snap, &shared);
            let needs_phase1 = matches!(
                q,
                DataQuery::Ree(_) | DataQuery::PathTest(_) | DataQuery::Conjunctive(_)
            );
            assert_eq!(
                shared.memo_ready(),
                needs_phase1,
                "phase 1 builds exactly the classes with shared state ({q:?})"
            );
            // a built phase 1 serves the same answers as a lazy one
            assert_eq!(
                cq.eval_relation_with(&snap, &shared),
                cq.eval_relation_with(&snap, &RowEvalShared::new()),
            );
        }
    }

    #[test]
    fn phase1_built_by_one_task_serves_the_next_from_the_cache() {
        let mut g = sample_graph();
        let mut queries = all_query_classes(&mut g);
        queries.push(parse_ree("(a+)= b", g.alphabet_mut()).unwrap().into());
        let snap = g.snapshot();
        for q in &queries {
            let cq = q.compile();
            let cache = Arc::new(LruSubRelCache::new(Arc::default()));
            let first = RowEvalShared::with_cache(cache.clone());
            cq.build_phase1(&snap, &first);
            assert_eq!(first.cache_hits(), 0, "{q:?}");
            if matches!(q, DataQuery::Ree(_) | DataQuery::Conjunctive(_)) {
                assert!(first.cache_misses() > 0, "{q:?} has phase-1 artifacts");
            }
            // a later miss of the same query (its own task, its own
            // shared state) reads every phase-1 artifact back
            let next = RowEvalShared::with_cache(cache.clone());
            cq.build_phase1(&snap, &next);
            assert_eq!(next.cache_misses(), 0, "{q:?}");
            assert_eq!(next.cache_hits(), first.cache_misses(), "{q:?}");
            assert_eq!(
                *cq.eval_relation_with(&snap, &next),
                cq.eval_relation(&snap),
                "{q:?}"
            );
        }
    }

    #[test]
    fn a_fired_control_builds_and_caches_nothing() {
        use std::sync::atomic::AtomicBool;

        let mut g = sample_graph();
        let queries = all_query_classes(&mut g);
        let snap = g.snapshot();
        let cancelled = Arc::new(EvalControl::new(
            None,
            Some(Arc::new(AtomicBool::new(true))),
        ));
        for q in &queries {
            let cq = q.compile();
            let full = cq.eval_relation(&snap);
            assert!(full.any(), "{q:?} has answers on the sample graph");
            let cache = Arc::new(LruSubRelCache::new(Arc::default()));
            let stopped = RowEvalShared::with_cache(cache.clone()).with_control(cancelled.clone());
            cq.build_phase1(&snap, &stopped);
            assert!(cq.eval_relation_with(&snap, &stopped).is_empty(), "{q:?}");
            assert!(!cq.holds_with(&snap, &stopped), "{q:?}");
            assert_eq!(cache.bytes(), 0, "a stopped phase 1 inserted ({q:?})");
            // nothing truncated was left behind for a live serve to read
            let live = RowEvalShared::with_cache(cache);
            assert_eq!(*cq.eval_relation_with(&snap, &live), full, "{q:?}");
            assert!(cq.holds_with(&snap, &live), "{q:?}");
        }
    }
}
