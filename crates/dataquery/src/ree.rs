//! Regular expressions with equality (REE) — equality RPQs (§3).
//!
//! Grammar: `e := ε | a | e+e | e·e | e⁺ | e= | e≠` (we also keep `e*` as
//! first-class sugar for `ε + e⁺`, since the paper uses `Σ*` pervasively).
//!
//! **Evaluation is relation algebra.** The key observation (which is what
//! makes REE PTime, in contrast to REM): every test relates only the *first
//! and last* data value of its subexpression, so the set
//! `R(e) = {(u,v) | ∃π: u →π v, δ(π) ∈ L(e)}` composes exactly like `e`:
//!
//! * `R(ε) = id`, `R(a) = E_a`,
//! * `R(e·e') = R(e) ∘ R(e')`, `R(e+e') = R(e) ∪ R(e')`,
//! * `R(e⁺) = R(e)⁺` (transitive closure),
//! * `R(e=) = {(u,v) ∈ R(e) | δ(u) = δ(v)}` and dually for `≠`
//!   (comparisons with null are false, per §7).
//!
//! Membership `w ∈ L(e)` reuses the same algebra over the *positions* of the
//! data path — both are instances of one internal evaluation context.

use crate::cache::{subplan_hash, CacheHandle, SubRelKey};
use gde_datagraph::{
    DataGraph, DataPath, FxHashMap, GraphSnapshot, Label, Relation, RelationBuilder, Value,
};
use std::borrow::Cow;
use std::sync::Arc;

/// Domain separator for REE subexpression keys in the sub-relation cache
/// (see [`crate::cache::subplan_hash`]).
const REE_DOMAIN: &str = "ree";

/// A regular expression with equality.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Ree {
    /// The empty word: matches single-value data paths `d`.
    Epsilon,
    /// One letter: matches `d a d'`.
    Atom(Label),
    /// Concatenation (n-ary; empty = ε).
    Concat(Vec<Ree>),
    /// Union (n-ary; must be non-empty to denote a non-trivial language).
    Union(Vec<Ree>),
    /// One-or-more iteration `e⁺`.
    Plus(Box<Ree>),
    /// Zero-or-more iteration `e*` (sugar for `ε + e⁺`).
    Star(Box<Ree>),
    /// Equality test `e=`: first and last data value are equal.
    Eq(Box<Ree>),
    /// Inequality test `e≠`: first and last data value differ.
    Neq(Box<Ree>),
}

/// The two realizable endpoint relations of a data path, as bitflags.
/// Used by the PTime nonemptiness check.
pub const EP_EQ: u8 = 1;
/// See [`EP_EQ`].
pub const EP_NEQ: u8 = 2;

impl Ree {
    /// The word `a₁…aₙ` as an REE (ε when empty).
    pub fn word(w: &[Label]) -> Ree {
        match w.len() {
            0 => Ree::Epsilon,
            1 => Ree::Atom(w[0]),
            _ => Ree::Concat(w.iter().map(|&l| Ree::Atom(l)).collect()),
        }
    }

    /// `Σ*` over the labels of an alphabet-like label list.
    pub fn sigma_star(labels: impl IntoIterator<Item = Label>) -> Ree {
        Ree::Star(Box::new(Ree::any_of(labels)))
    }

    /// `Σ⁺` over the given labels.
    pub fn sigma_plus(labels: impl IntoIterator<Item = Label>) -> Ree {
        Ree::Plus(Box::new(Ree::any_of(labels)))
    }

    /// The union of single letters.
    pub fn any_of(labels: impl IntoIterator<Item = Label>) -> Ree {
        let atoms: Vec<Ree> = labels.into_iter().map(Ree::Atom).collect();
        match atoms.len() {
            1 => atoms
                .into_iter()
                .next()
                .expect("invariant: singleton union"),
            _ => Ree::Union(atoms),
        }
    }

    /// Concatenation builder flattening nested concats.
    pub fn concat(parts: impl IntoIterator<Item = Ree>) -> Ree {
        let mut out = Vec::new();
        for p in parts {
            match p {
                Ree::Concat(mut inner) => out.append(&mut inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Ree::Epsilon,
            1 => out.pop().expect("invariant: singleton concat"),
            _ => Ree::Concat(out),
        }
    }

    /// Union builder.
    pub fn union(parts: impl IntoIterator<Item = Ree>) -> Ree {
        let out: Vec<Ree> = parts.into_iter().collect();
        match out.len() {
            1 => out.into_iter().next().expect("invariant: singleton union"),
            _ => Ree::Union(out),
        }
    }

    /// Wrap in an equality test.
    pub fn eq(self) -> Ree {
        Ree::Eq(Box::new(self))
    }

    /// Wrap in an inequality test.
    pub fn neq(self) -> Ree {
        Ree::Neq(Box::new(self))
    }

    /// One-or-more.
    pub fn plus(self) -> Ree {
        Ree::Plus(Box::new(self))
    }

    /// Zero-or-more.
    pub fn star(self) -> Ree {
        Ree::Star(Box::new(self))
    }

    /// Does the expression avoid `≠` tests everywhere? (The REE= fragment
    /// of §8.)
    pub fn is_equality_only(&self) -> bool {
        match self {
            Ree::Epsilon | Ree::Atom(_) => true,
            Ree::Concat(es) | Ree::Union(es) => es.iter().all(Ree::is_equality_only),
            Ree::Plus(e) | Ree::Star(e) | Ree::Eq(e) => e.is_equality_only(),
            Ree::Neq(_) => false,
        }
    }

    /// Number of `≠` tests (Proposition 4 cares about queries with at most
    /// one).
    pub fn inequality_count(&self) -> usize {
        match self {
            Ree::Epsilon | Ree::Atom(_) => 0,
            Ree::Concat(es) | Ree::Union(es) => es.iter().map(Ree::inequality_count).sum(),
            Ree::Plus(e) | Ree::Star(e) | Ree::Eq(e) => e.inequality_count(),
            Ree::Neq(e) => 1 + e.inequality_count(),
        }
    }

    /// Is the expression iteration-free (no `⁺`/`*`)? Paths with tests are
    /// the iteration- and union-free expressions.
    pub fn is_iteration_free(&self) -> bool {
        match self {
            Ree::Epsilon | Ree::Atom(_) => true,
            Ree::Concat(es) | Ree::Union(es) => es.iter().all(Ree::is_iteration_free),
            Ree::Plus(_) | Ree::Star(_) => false,
            Ree::Eq(e) | Ree::Neq(e) => e.is_iteration_free(),
        }
    }

    // ---------- evaluation ----------

    /// Evaluate on a data graph: `R(e)` as a [`Relation`] over dense node
    /// indices. PTime in both the graph and the expression. The graph is
    /// frozen once into a [`GraphSnapshot`]; reuse a snapshot across calls
    /// via [`Ree::eval_snapshot`] when serving many queries.
    pub fn eval(&self, g: &DataGraph) -> Relation {
        self.eval_snapshot(&g.snapshot())
    }

    /// Evaluate against a frozen snapshot: letter atoms come from the
    /// snapshot's cached per-label relations and `=`/`≠` tests compare
    /// interned value ids instead of data values.
    pub fn eval_snapshot(&self, s: &GraphSnapshot) -> Relation {
        self.eval_ctx(&SnapshotCtx { s })
    }

    /// Evaluate as sorted `(NodeId, NodeId)` pairs.
    pub fn eval_pairs(&self, g: &DataGraph) -> Vec<(gde_datagraph::NodeId, gde_datagraph::NodeId)> {
        self.eval_pairs_snapshot(&g.snapshot())
    }

    /// [`Ree::eval_pairs`] against a prebuilt snapshot.
    pub fn eval_pairs_snapshot(
        &self,
        s: &GraphSnapshot,
    ) -> Vec<(gde_datagraph::NodeId, gde_datagraph::NodeId)> {
        let mut out: Vec<_> = self
            .eval_snapshot(s)
            .iter_pairs()
            .map(|(i, j)| (s.id_at(i as u32), s.id_at(j as u32)))
            .collect();
        out.sort();
        out
    }

    /// Data-path membership `w ∈ L(e)`: the same algebra over positions
    /// `0..=n` of the path (PTime, \[31\]).
    pub fn matches_path(&self, w: &DataPath) -> bool {
        let ctx = PathCtx { w };
        let r = self.eval_ctx(&ctx);
        r.contains(0, w.len())
    }

    /// Number of AST nodes in this expression (used for the stable
    /// pre-order numbering shared by [`ReeRowMemo::build`] and
    /// [`Ree::eval_rows_snapshot`]).
    fn subtree_size(&self) -> usize {
        1 + match self {
            Ree::Epsilon | Ree::Atom(_) => 0,
            Ree::Concat(es) | Ree::Union(es) => es.iter().map(Ree::subtree_size).sum(),
            Ree::Plus(e) | Ree::Star(e) | Ree::Eq(e) | Ree::Neq(e) => e.subtree_size(),
        }
    }

    /// Phase 2 of the two-phase REE evaluation: `R(e)`, exactly
    /// `eval_snapshot(s)`, but with every closure and non-head
    /// concatenation factor read from the `memo` phase 1 built
    /// ([`ReeRowMemo::build`]), so artifacts the sub-relation cache holds
    /// are not recomputed. A test over a closure reads the closure's memo
    /// entry in place, row by row, with no copy of the closure.
    pub fn eval_rows_snapshot(&self, s: &GraphSnapshot, memo: &ReeRowMemo) -> Relation {
        self.eval_rows(s, memo).into_owned()
    }

    /// [`Ree::eval_rows_snapshot`] without the final copy: an expression
    /// that is a label or a memoised closure is handed out as the
    /// snapshot's or the memo's own relation.
    pub(crate) fn eval_rows<'a>(
        &self,
        s: &'a GraphSnapshot,
        memo: &'a ReeRowMemo,
    ) -> Cow<'a, Relation> {
        let mut id = 0usize;
        self.eval_rows_rec(s, memo, &mut id)
    }

    /// One node of [`Ree::eval_rows`]: a label's relation and a
    /// closure's memo entry are borrowed, not copied, so an operator
    /// reads its operands where they live.
    fn eval_rows_rec<'a>(
        &self,
        s: &'a GraphSnapshot,
        memo: &'a ReeRowMemo,
        id: &mut usize,
    ) -> Cow<'a, Relation> {
        let my_id = *id;
        *id += 1;
        let n = s.n();
        match self {
            Ree::Epsilon => Cow::Owned(Relation::identity(n)),
            Ree::Atom(l) => s
                .label_relation(*l)
                .map_or_else(|| Cow::Owned(Relation::empty(n)), Cow::Borrowed),
            Ree::Concat(es) => {
                let mut it = es.iter();
                let Some(head) = it.next() else {
                    return Cow::Owned(Relation::identity(n));
                };
                let mut acc = head.eval_rows_rec(s, memo, id);
                for child in it {
                    let child_id = *id;
                    *id += child.subtree_size();
                    if acc.is_empty() {
                        continue; // result stays empty; keep ids advancing
                    }
                    acc = Cow::Owned(acc.compose(memo.get(child_id)));
                }
                acc
            }
            Ree::Union(es) => {
                // k-ary union of the operands where they live: sorted CSR
                // rows merge in one pass
                let parts: Vec<Cow<'a, Relation>> = es
                    .iter()
                    .map(|child| child.eval_rows_rec(s, memo, id))
                    .collect();
                let parts: Vec<&Relation> = parts.iter().map(|p| &**p).collect();
                Cow::Owned(Relation::union_many(n, &parts))
            }
            Ree::Plus(b) | Ree::Star(b) => {
                *id += b.subtree_size();
                Cow::Borrowed(memo.get(my_id))
            }
            Ree::Eq(b) | Ree::Neq(b) => {
                let eq = matches!(self, Ree::Eq(_));
                Cow::Owned(match spine_closure(b, memo, id) {
                    Some(closure) => {
                        let mut out = RelationBuilder::new(n);
                        for i in 0..n {
                            for j in test_witnesses(s, closure, i, eq) {
                                out.push(i, j);
                            }
                        }
                        out.build()
                    }
                    None => b
                        .eval_rows_rec(s, memo, id)
                        .filter(|i, j| sql_test(s, eq, i, j)),
                })
            }
        }
    }

    /// Boolean projection of [`Ree::eval_rows_snapshot`]: does any row
    /// have an answer? An `=`/`≠` test at the root stops at the first row
    /// with a passing pair: over a closure it reads the memo entry in
    /// place, over any other operand it scans the operand's rows without
    /// building the filtered relation. Any other root evaluates in full
    /// and asks whether a pair is left.
    pub fn holds_rows_snapshot(&self, s: &GraphSnapshot, memo: &ReeRowMemo) -> bool {
        let (Ree::Eq(b) | Ree::Neq(b)) = self else {
            return self.eval_rows(s, memo).any();
        };
        let eq = matches!(self, Ree::Eq(_));
        // the operand's pre-order id: the root test is node 0
        let mut id = 1usize;
        let mut rows = 0..s.n();
        match spine_closure(b, memo, &mut id) {
            Some(closure) => rows.any(|i| test_witnesses(s, closure, i, eq).next().is_some()),
            None => {
                let inner = b.eval_rows_rec(s, memo, &mut id);
                rows.any(|i| inner.row_iter(i).any(|j| sql_test(s, eq, i, j)))
            }
        }
    }

    fn eval_ctx<C: ReeContext>(&self, ctx: &C) -> Relation {
        let n = ctx.dim();
        match self {
            Ree::Epsilon => Relation::identity(n),
            Ree::Atom(l) => ctx.atom(*l),
            Ree::Concat(es) => {
                let mut acc = Relation::identity(n);
                for e in es {
                    acc = acc.compose(&e.eval_ctx(ctx));
                    if acc.is_empty() {
                        break;
                    }
                }
                acc
            }
            Ree::Union(es) => Relation::union_many_iter(n, es.iter().map(|e| e.eval_ctx(ctx))),
            Ree::Plus(e) => e.eval_ctx(ctx).transitive_closure(),
            Ree::Star(e) => e.eval_ctx(ctx).reflexive_transitive_closure(),
            Ree::Eq(e) => e.eval_ctx(ctx).filter(|i, j| ctx.sql_eq(i, j)),
            Ree::Neq(e) => e.eval_ctx(ctx).filter(|i, j| ctx.sql_ne(i, j)),
        }
    }

    // ---------- language operations ----------

    /// The set of realizable endpoint relations of `L(e)` as
    /// [`EP_EQ`]`|`[`EP_NEQ`] flags. `0` means the language is empty.
    ///
    /// The abstraction is exact because tests only constrain subexpression
    /// endpoints and the value domain is infinite, so interior values can
    /// always be chosen fresh.
    pub fn endpoint_relations(&self) -> u8 {
        match self {
            Ree::Epsilon => EP_EQ,
            Ree::Atom(_) => EP_EQ | EP_NEQ,
            Ree::Concat(es) => {
                let mut acc = EP_EQ; // ε prefix
                for e in es {
                    acc = compose_ep(acc, e.endpoint_relations());
                    if acc == 0 {
                        return 0;
                    }
                }
                acc
            }
            Ree::Union(es) => es.iter().fold(0, |acc, e| acc | e.endpoint_relations()),
            Ree::Plus(e) => {
                let base = e.endpoint_relations();
                let mut acc = base;
                loop {
                    let next = acc | compose_ep(acc, base);
                    if next == acc {
                        break acc;
                    }
                    acc = next;
                }
            }
            Ree::Star(e) => {
                let plus = Ree::Plus(Box::new((**e).clone())).endpoint_relations();
                plus | EP_EQ
            }
            Ree::Eq(e) => e.endpoint_relations() & EP_EQ,
            Ree::Neq(e) => e.endpoint_relations() & EP_NEQ,
        }
    }

    /// Is `L(e)` nonempty? PTime (contrast with PSPACE for REM).
    pub fn is_nonempty(&self) -> bool {
        self.endpoint_relations() != 0
    }

    /// Produce some data path in `L(e)`, or `None` if the language is empty.
    /// Witness values are fresh integers realizing the equality pattern.
    pub fn sample_witness(&self) -> Option<DataPath> {
        let eps = self.endpoint_relations();
        let rel = if eps & EP_EQ != 0 {
            EP_EQ
        } else if eps & EP_NEQ != 0 {
            EP_NEQ
        } else {
            return None;
        };
        let mut gen = WitnessGen { next: 0 };
        let first = gen.fresh();
        let w = gen.generate(self, rel, first.clone(), None)?;
        debug_assert!(self.matches_path(&w));
        Some(w)
    }
}

/// How endpoint relations compose across concatenation: given `f r₁ m` and
/// `m r₂ l`, which relations `f ? l` are realizable (over an infinite
/// domain)?
fn compose_ep(r1: u8, r2: u8) -> u8 {
    let mut out = 0u8;
    for a in [EP_EQ, EP_NEQ] {
        if r1 & a == 0 {
            continue;
        }
        for b in [EP_EQ, EP_NEQ] {
            if r2 & b == 0 {
                continue;
            }
            out |= match (a, b) {
                (EP_EQ, EP_EQ) => EP_EQ,
                (EP_EQ, EP_NEQ) | (EP_NEQ, EP_EQ) => EP_NEQ,
                _ => EP_EQ | EP_NEQ, // f≠m, m≠l: f=l or f≠l both realizable
            };
        }
    }
    out
}

/// The memoised relation of a spine closure `b` (`e⁺`/`e*`, which phase 1
/// stores under its pre-order id, `*id` here), advancing `id` past `b`.
/// Any other node yields `None` and leaves `id` alone.
fn spine_closure<'m>(b: &Ree, memo: &'m ReeRowMemo, id: &mut usize) -> Option<&'m Relation> {
    if !matches!(b, Ree::Plus(_) | Ree::Star(_)) {
        return None;
    }
    let closure = memo.get(*id);
    *id += b.subtree_size();
    Some(closure)
}

/// SQL-null `=` (`eq`) or `≠` between two nodes' values.
fn sql_test(s: &GraphSnapshot, eq: bool, i: usize, j: usize) -> bool {
    if eq {
        s.sql_eq(i as u32, j as u32)
    } else {
        s.sql_ne(i as u32, j as u32)
    }
}

/// The columns `j` of row `i` of a memoised closure whose pair passes the
/// test, `=` (`eq`) or `≠`, read in place. A null row has none. `=` walks
/// the smaller side: row `i`'s value group, probing the closure, or the
/// closure row, comparing value ids. `≠` walks the closure row.
fn test_witnesses<'a>(
    s: &'a GraphSnapshot,
    closure: &'a Relation,
    i: usize,
    eq: bool,
) -> impl Iterator<Item = usize> + 'a {
    let u = i as u32;
    let (group, row) = if s.is_null(u) {
        (&[][..], None)
    } else if eq && s.group(s.vid(u)).len() <= closure.row_len(i) {
        (s.group(s.vid(u)), None)
    } else {
        (&[][..], Some(closure.row_iter(i)))
    };
    let probed = group
        .iter()
        .map(|&j| j as usize)
        .filter(move |&j| closure.contains(i, j));
    let walked = row
        .into_iter()
        .flatten()
        .filter(move |&j| sql_test(s, eq, i, j));
    probed.chain(walked)
}

/// Phase 1 of the two-phase REE evaluation: the relations of exactly
/// the subexpressions worth sharing through the sub-relation cache,
/// computed **once** (or read from the cache) before phase 2 walks the
/// expression:
///
/// * closure bodies (`e⁺`/`e*`): materialised over the row-block-parallel
///   relation algebra; phase 2 copies one, or under an `=`/`≠` test reads
///   its rows in place;
/// * non-head concatenation factors (`A·B` composes the head's relation
///   with every tail factor in full), which queries with a common suffix
///   share.
///
/// Entries are keyed by the expression's stable pre-order node numbering,
/// which [`Ree::eval_rows_snapshot`] reproduces during its walk. Values
/// are `Arc`s so a memo entry served from the sub-relation cache
/// ([`crate::cache`]) shares the cached relation instead of copying it.
#[derive(Debug, Default)]
pub struct ReeRowMemo {
    rels: FxHashMap<usize, Arc<Relation>>,
}

impl ReeRowMemo {
    /// Build the memo for an expression against a snapshot, computing
    /// every artifact from scratch.
    pub fn build(e: &Ree, s: &GraphSnapshot) -> ReeRowMemo {
        ReeRowMemo::build_cached(e, s, None)
    }

    /// Build the memo, looking each artifact up in `cache` (under its
    /// structural subplan key) before computing it, and inserting what
    /// was computed. With `None` this is [`ReeRowMemo::build`]. On a
    /// cache hit the subexpression is not traversed at all — the memo
    /// borrows the cached `Arc<Relation>` directly — so a warm cache makes
    /// memo construction O(subexpression count) lookups.
    pub fn build_cached(e: &Ree, s: &GraphSnapshot, cache: Option<&CacheHandle>) -> ReeRowMemo {
        ReeRowMemo::build_controlled(e, s, cache, &crate::control::EvalControl::unbounded())
    }

    /// [`ReeRowMemo::build_cached`] with a cooperative stop control,
    /// checked **between phase-1 nodes** (each memoised artifact — a
    /// closure or tail factor — is all-or-nothing). Once `ctrl` fires,
    /// remaining artifacts are filled with empty placeholder relations so
    /// phase 2 stays total, and **nothing** fabricated reaches the cache;
    /// the caller must discard the serve when `ctrl.fired()` is set.
    pub fn build_controlled(
        e: &Ree,
        s: &GraphSnapshot,
        cache: Option<&CacheHandle>,
        ctrl: &crate::control::EvalControl,
    ) -> ReeRowMemo {
        let mut memo = ReeRowMemo::default();
        let mut id = 0usize;
        build_memo(e, s, MemoMode::Spine, &mut id, &mut memo.rels, cache, ctrl);
        memo
    }

    /// Number of globally materialised sub-relations.
    pub fn len(&self) -> usize {
        self.rels.len()
    }

    /// Is the memo empty (the expression decomposes completely)?
    pub fn is_empty(&self) -> bool {
        self.rels.is_empty()
    }

    fn get(&self, id: usize) -> &Relation {
        self.rels
            .get(&id)
            .expect("invariant: memo holds every closure and tail factor")
            .as_ref()
    }
}

/// How a subexpression participates in the two-phase evaluation.
#[derive(Copy, Clone, PartialEq, Eq)]
enum MemoMode {
    /// On the row-decomposed spine: no full relation needed, but closures
    /// along it memoise their own result.
    Spine,
    /// A non-head concatenation factor: compute the full relation and
    /// store it under this node's id.
    Stored,
    /// Interior of a stored/closure computation: compute and return the
    /// full relation bottom-up, storing nothing.
    Inner,
}

/// One traversal serving all three modes, advancing the pre-order counter
/// identically in each so memo keys line up with the phase-2 walk.
///
/// With a `cache` handle, every node that would insert a memo entry —
/// closures on the spine, stored tail factors — first looks its
/// structural key up; a hit skips the whole subtree (the counter jumps by
/// [`Ree::subtree_size`], keeping phase-2 ids aligned) and borrows the
/// cached relation. Subtrees of inserted nodes run in [`MemoMode::Inner`]
/// and never insert, so a hit can never shadow a deeper entry phase 2
/// would need.
fn build_memo(
    e: &Ree,
    s: &GraphSnapshot,
    mode: MemoMode,
    id: &mut usize,
    out: &mut FxHashMap<usize, Arc<Relation>>,
    cache: Option<&CacheHandle>,
    ctrl: &crate::control::EvalControl,
) -> Option<Relation> {
    let my_id = *id;
    // exactly the nodes the (mode, full) match below inserts into `out`
    let memoises = mode == MemoMode::Stored
        || (mode == MemoMode::Spine && matches!(e, Ree::Plus(_) | Ree::Star(_)));
    if memoises && ctrl.should_stop() {
        // deadline/cancel between phase-1 nodes: skip the whole subtree,
        // leave an empty placeholder so phase 2 stays total, and touch
        // neither the cache nor the clock again (the control latches)
        *id = my_id + e.subtree_size();
        out.insert(my_id, Arc::new(Relation::empty(s.n())));
        return None;
    }
    let key = match (memoises, cache) {
        (true, Some(_)) => Some(SubRelKey::artifact(subplan_hash(REE_DOMAIN, e))),
        _ => None,
    };
    if let (Some(h), Some(k)) = (cache, key) {
        if let Some(rel) = h.lookup(&k) {
            *id = my_id + e.subtree_size();
            out.insert(my_id, rel);
            return None;
        }
    }
    *id += 1;
    let n = s.n();
    let full = match e {
        Ree::Epsilon => match mode {
            MemoMode::Spine => None,
            _ => Some(Relation::identity(n)),
        },
        Ree::Atom(l) => match mode {
            MemoMode::Spine => None,
            _ => Some(s.label_relation_or_empty(*l)),
        },
        Ree::Concat(es) => match mode {
            MemoMode::Spine => {
                let mut it = es.iter();
                if let Some(head) = it.next() {
                    build_memo(head, s, MemoMode::Spine, id, out, cache, ctrl);
                }
                for child in it {
                    build_memo(child, s, MemoMode::Stored, id, out, cache, ctrl);
                }
                None
            }
            _ => {
                let mut acc: Option<Relation> = None;
                for child in es {
                    let f = build_memo(child, s, MemoMode::Inner, id, out, cache, ctrl)
                        .expect("invariant: inner mode returns the full relation");
                    acc = Some(match acc {
                        None => f,
                        Some(a) => a.compose(&f),
                    });
                }
                Some(acc.unwrap_or_else(|| Relation::identity(n)))
            }
        },
        Ree::Union(es) => match mode {
            MemoMode::Spine => {
                for child in es {
                    build_memo(child, s, MemoMode::Spine, id, out, cache, ctrl);
                }
                None
            }
            _ => Some(Relation::union_many_iter(
                n,
                es.iter().map(|child| {
                    build_memo(child, s, MemoMode::Inner, id, out, cache, ctrl)
                        .expect("invariant: inner mode returns the full relation")
                }),
            )),
        },
        Ree::Plus(b) => Some(
            build_memo(b, s, MemoMode::Inner, id, out, cache, ctrl)
                .expect("invariant: inner mode returns the full relation")
                .transitive_closure(),
        ),
        Ree::Star(b) => Some(
            build_memo(b, s, MemoMode::Inner, id, out, cache, ctrl)
                .expect("invariant: inner mode returns the full relation")
                .reflexive_transitive_closure(),
        ),
        Ree::Eq(b) => match mode {
            MemoMode::Spine => {
                build_memo(b, s, MemoMode::Spine, id, out, cache, ctrl);
                None
            }
            _ => Some(
                build_memo(b, s, MemoMode::Inner, id, out, cache, ctrl)
                    .expect("invariant: inner mode returns the full relation")
                    .filter(|i, j| s.sql_eq(i as u32, j as u32)),
            ),
        },
        Ree::Neq(b) => match mode {
            MemoMode::Spine => {
                build_memo(b, s, MemoMode::Spine, id, out, cache, ctrl);
                None
            }
            _ => Some(
                build_memo(b, s, MemoMode::Inner, id, out, cache, ctrl)
                    .expect("invariant: inner mode returns the full relation")
                    .filter(|i, j| s.sql_ne(i as u32, j as u32)),
            ),
        },
    };
    match (mode, full) {
        // closures memoise themselves even on the spine; stored factors
        // always do
        (MemoMode::Spine | MemoMode::Stored, Some(f)) => {
            let f = Arc::new(f);
            if let (Some(h), Some(k)) = (cache, key) {
                h.insert(k, f.clone());
            }
            out.insert(my_id, f);
            None
        }
        (MemoMode::Spine, None) => None,
        (MemoMode::Inner, f) => f,
        (MemoMode::Stored, None) => unreachable!("stored factors always compute a relation"),
    }
}

/// The common shape of REE evaluation: a domain of points, a relation per
/// letter, and SQL-null value comparisons between points.
trait ReeContext {
    fn dim(&self) -> usize;
    fn atom(&self, l: Label) -> Relation;
    fn value(&self, i: usize) -> &Value;
    /// SQL-null equality of two points' values (overridable with a cheaper
    /// comparison when values are interned).
    fn sql_eq(&self, i: usize, j: usize) -> bool {
        self.value(i).sql_eq(self.value(j))
    }
    /// SQL-null inequality of two points' values.
    fn sql_ne(&self, i: usize, j: usize) -> bool {
        self.value(i).sql_ne(self.value(j))
    }
}

struct SnapshotCtx<'a> {
    s: &'a GraphSnapshot,
}

impl ReeContext for SnapshotCtx<'_> {
    fn dim(&self) -> usize {
        self.s.n()
    }
    fn atom(&self, l: Label) -> Relation {
        self.s.label_relation_or_empty(l)
    }
    fn value(&self, i: usize) -> &Value {
        self.s.value_at(i as u32)
    }
    fn sql_eq(&self, i: usize, j: usize) -> bool {
        self.s.sql_eq(i as u32, j as u32)
    }
    fn sql_ne(&self, i: usize, j: usize) -> bool {
        self.s.sql_ne(i as u32, j as u32)
    }
}

struct PathCtx<'a> {
    w: &'a DataPath,
}

impl ReeContext for PathCtx<'_> {
    fn dim(&self) -> usize {
        self.w.len() + 1
    }
    fn atom(&self, l: Label) -> Relation {
        let mut b = RelationBuilder::new(self.w.len() + 1);
        for (i, &wl) in self.w.labels().iter().enumerate() {
            if wl == l {
                b.push(i, i + 1);
            }
        }
        b.build()
    }
    fn value(&self, i: usize) -> &Value {
        &self.w.values()[i]
    }
}

struct WitnessGen {
    next: i64,
}

impl WitnessGen {
    fn fresh(&mut self) -> Value {
        self.next += 1;
        Value::int(1_000_000 + self.next)
    }

    /// Generate a member of `L(e)` whose endpoint relation is `rel`
    /// (`EP_EQ`/`EP_NEQ`), whose first value is `first`, and whose last
    /// value is `last_hint` if given (the caller guarantees the hint is
    /// consistent with `rel` w.r.t. `first`).
    fn generate(
        &mut self,
        e: &Ree,
        rel: u8,
        first: Value,
        last_hint: Option<Value>,
    ) -> Option<DataPath> {
        debug_assert!(rel == EP_EQ || rel == EP_NEQ);
        if e.endpoint_relations() & rel == 0 {
            return None;
        }
        let last = match (&last_hint, rel) {
            (Some(v), _) => v.clone(),
            (None, EP_EQ) => first.clone(),
            (None, _) => self.fresh(),
        };
        debug_assert!(if rel == EP_EQ {
            first == last
        } else {
            first != last
        });
        match e {
            Ree::Epsilon => Some(DataPath::single(first)),
            Ree::Atom(l) => {
                let mut p = DataPath::single(first);
                p.push(*l, last);
                Some(p)
            }
            Ree::Concat(es) => {
                if es.is_empty() {
                    return (rel == EP_EQ).then(|| DataPath::single(first));
                }
                // Choose a realizable relation per part via DP over prefixes:
                // prefix_rel[i] = realizable relation of e₀…eᵢ₋₁.
                self.gen_concat(es, rel, first, last)
            }
            Ree::Union(es) => es
                .iter()
                .find(|sub| sub.endpoint_relations() & rel != 0)
                .and_then(|sub| self.generate(sub, rel, first, Some(last))),
            Ree::Plus(sub) => {
                // unroll: find k ≤ 3 with composable relations; over an
                // infinite domain k ∈ {1,2,3} always suffices when rel is
                // realizable (neq∘neq covers eq; eq∘eq covers eq; etc.)
                let base = sub.endpoint_relations();
                if base & rel != 0 {
                    return self.generate(sub, rel, first, Some(last));
                }
                // need two copies: pick r1, r2 with compose allowing rel
                for r1 in [EP_EQ, EP_NEQ] {
                    if base & r1 == 0 {
                        continue;
                    }
                    for r2 in [EP_EQ, EP_NEQ] {
                        if base & r2 == 0 {
                            continue;
                        }
                        if compose_ep(r1, r2) & rel == 0 {
                            continue;
                        }
                        let mid = match r1 {
                            EP_EQ => first.clone(),
                            _ => {
                                // middle must also satisfy r2 vs last
                                if r2 == EP_EQ {
                                    last.clone()
                                } else {
                                    self.fresh()
                                }
                            }
                        };
                        if (r1 == EP_EQ) != (first == mid) || (r2 == EP_EQ) != (mid == last) {
                            continue;
                        }
                        let w1 = self.generate(sub, r1, first.clone(), Some(mid.clone()))?;
                        let w2 = self.generate(sub, r2, mid, Some(last.clone()))?;
                        return w1.concat(&w2);
                    }
                }
                None
            }
            Ree::Star(sub) => {
                if rel == EP_EQ && last_hint.is_none_or(|v| v == first) {
                    // ε iterate — but careful: caller may have pinned last
                    Some(DataPath::single(first))
                } else {
                    self.generate(&Ree::Plus(sub.clone()), rel, first, Some(last))
                }
            }
            Ree::Eq(sub) => {
                if rel != EP_EQ {
                    return None;
                }
                self.generate(sub, EP_EQ, first, Some(last))
            }
            Ree::Neq(sub) => {
                if rel != EP_NEQ {
                    return None;
                }
                self.generate(sub, EP_NEQ, first, Some(last))
            }
        }
    }

    fn gen_concat(&mut self, es: &[Ree], rel: u8, first: Value, last: Value) -> Option<DataPath> {
        // DP over prefixes: which endpoint relations are realizable for
        // e₀…eᵢ; then walk back choosing concrete junction values.
        let n = es.len();
        let mut prefix = vec![0u8; n + 1];
        prefix[0] = EP_EQ;
        for i in 0..n {
            prefix[i + 1] = compose_ep(prefix[i], es[i].endpoint_relations());
        }
        if prefix[n] & rel == 0 {
            return None;
        }
        // choose per-part relations backwards: need prefix[i] ∘ part(i) ∋ target(i+1)
        // walk forward greedily instead: maintain the value at junction i and
        // the relation of that junction to `first`; ensure final equals `last`.
        // We do a backtracking search over per-part relation choices (≤ 2ⁿ in
        // the worst case but parts are few and pruned by prefix feasibility).
        #[allow(clippy::too_many_arguments)]
        fn assign(
            gen: &mut WitnessGen,
            es: &[Ree],
            i: usize,
            cur: Value,
            _cur_rel_to_first: u8, // relation of cur to first (informational)
            first: &Value,
            last: &Value,
            target: u8,
            acc: &mut Vec<DataPath>,
        ) -> bool {
            if i == es.len() {
                return cur == *last;
            }
            let part = &es[i];
            let feasible = part.endpoint_relations();
            let remaining = &es[i + 1..];
            // realizable relations of the remaining suffix
            let mut suffix = EP_EQ;
            for e in remaining {
                suffix = compose_ep(suffix, e.endpoint_relations());
            }
            for r in [EP_EQ, EP_NEQ] {
                if feasible & r == 0 {
                    continue;
                }
                // If this is the final part, the endpoints cur → last must
                // realize a relation feasible for the part.
                if i == es.len() - 1 {
                    let need = if cur == *last { EP_EQ } else { EP_NEQ };
                    if feasible & need == 0 {
                        continue;
                    }
                    if let Some(w) = gen.generate(part, need, cur.clone(), Some(last.clone())) {
                        acc.push(w);
                        return true;
                    }
                    continue;
                }
                // candidate next-junction values: EQ forces cur; NEQ may
                // land on `last` (often necessary when the remaining parts
                // force equality) or on a fresh value
                let candidates: Vec<Value> = if r == EP_EQ {
                    vec![cur.clone()]
                } else {
                    let mut c = Vec::new();
                    if *last != cur {
                        c.push(last.clone());
                    }
                    c.push(gen.fresh());
                    c
                };
                for next in candidates {
                    let next_rel_to_first = if next == *first { EP_EQ } else { EP_NEQ };
                    // prune: can the suffix still reach `target` from next?
                    let reach = compose_ep(next_rel_to_first, suffix);
                    if *first == *last && reach & target == 0 {
                        continue;
                    }
                    if let Some(w) = gen.generate(part, r, cur.clone(), Some(next.clone())) {
                        acc.push(w);
                        if assign(
                            gen,
                            es,
                            i + 1,
                            next,
                            next_rel_to_first,
                            first,
                            last,
                            target,
                            acc,
                        ) {
                            return true;
                        }
                        acc.pop();
                    }
                }
            }
            false
        }
        let mut parts: Vec<DataPath> = Vec::new();
        let ok = assign(
            self,
            es,
            0,
            first.clone(),
            EP_EQ,
            &first,
            &last,
            rel,
            &mut parts,
        );
        if !ok {
            return None;
        }
        let mut it = parts.into_iter();
        let mut acc = it.next()?;
        for p in it {
            acc = acc.concat(&p)?;
        }
        Some(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gde_datagraph::{DataGraph, NodeId};

    fn l(i: u16) -> Label {
        Label(i)
    }

    /// graph: 0(v1) -a-> 1(v2) -a-> 2(v1) -b-> 3(v3), 3 -a-> 0
    fn g() -> DataGraph {
        let mut g = DataGraph::new();
        let vals = [1, 2, 1, 3];
        for (i, v) in vals.iter().enumerate() {
            g.add_node(NodeId(i as u32), Value::int(*v)).unwrap();
        }
        g.add_edge_str(NodeId(0), "a", NodeId(1)).unwrap();
        g.add_edge_str(NodeId(1), "a", NodeId(2)).unwrap();
        g.add_edge_str(NodeId(2), "b", NodeId(3)).unwrap();
        g.add_edge_str(NodeId(3), "a", NodeId(0)).unwrap();
        g
    }

    #[test]
    fn atoms_and_words() {
        let g = g();
        let a = g.alphabet().label("a").unwrap();
        let e = Ree::word(&[a, a]);
        assert_eq!(
            e.eval_pairs(&g),
            vec![(NodeId(0), NodeId(2)), (NodeId(3), NodeId(1))]
        );
    }

    #[test]
    fn equality_test() {
        let g = g();
        let a = g.alphabet().label("a").unwrap();
        // (a a)= : 0 -> 2 with equal values (1 == 1) ✓; 3 -> 1 (3 vs 2) ✗
        let e = Ree::word(&[a, a]).eq();
        assert_eq!(e.eval_pairs(&g), vec![(NodeId(0), NodeId(2))]);
        let e = Ree::word(&[a, a]).neq();
        assert_eq!(e.eval_pairs(&g), vec![(NodeId(3), NodeId(1))]);
    }

    #[test]
    fn same_value_occurs_twice() {
        // Σ* (Σ+)= Σ* — paper's example
        let g = g();
        let labels: Vec<Label> = g.alphabet().labels().collect();
        let e = Ree::concat([
            Ree::sigma_star(labels.iter().copied()),
            Ree::sigma_plus(labels.iter().copied()).eq(),
            Ree::sigma_star(labels.iter().copied()),
        ]);
        let pairs = e.eval_pairs(&g);
        // cycle ⇒ value 1 repeats (nodes 0 and 2): every pair on the cycle
        assert!(pairs.contains(&(NodeId(0), NodeId(2))));
        assert!(pairs.contains(&(NodeId(0), NodeId(3)))); // 0..2 repeat then b
        assert!(pairs.contains(&(NodeId(1), NodeId(0)))); // wraps: 2..2? 1->2->3->0: values 2,1,3,1: 1 repeats
    }

    #[test]
    fn plus_is_transitive_closure() {
        let g = g();
        let a = g.alphabet().label("a").unwrap();
        let e = Ree::Atom(a).plus();
        let pairs = e.eval_pairs(&g);
        assert!(pairs.contains(&(NodeId(0), NodeId(1))));
        assert!(pairs.contains(&(NodeId(0), NodeId(2))));
        assert!(!pairs.contains(&(NodeId(0), NodeId(3)))); // b edge needed
        assert!(pairs.contains(&(NodeId(3), NodeId(2))));
    }

    #[test]
    fn star_includes_identity() {
        let g = g();
        let a = g.alphabet().label("a").unwrap();
        let e = Ree::Atom(a).star();
        let r = e.eval(&g);
        for i in 0..g.n() {
            assert!(r.contains(i, i));
        }
    }

    #[test]
    fn nulls_never_compare() {
        let mut g = g();
        let a = g.alphabet().label("a").unwrap();
        // add null -a-> null
        let n1 = g.fresh_node(Value::Null);
        let n2 = g.fresh_node(Value::Null);
        g.add_edge(n1, a, n2).unwrap();
        let eq = Ree::Atom(a).eq();
        let neq = Ree::Atom(a).neq();
        let eq_pairs = eq.eval_pairs(&g);
        let neq_pairs = neq.eval_pairs(&g);
        assert!(!eq_pairs.contains(&(n1, n2)));
        assert!(!neq_pairs.contains(&(n1, n2)));
    }

    #[test]
    fn membership_dp() {
        let a = l(0);
        let b = l(1);
        let mk = |vals: &[i64], labels: &[Label]| {
            let mut p = DataPath::single(Value::int(vals[0]));
            for (i, &lab) in labels.iter().enumerate() {
                p.push(lab, Value::int(vals[i + 1]));
            }
            p
        };
        // (a(bc)=)≠ from the paper: matches d1 a d2 b d3 c d2 with d1≠d2
        let c = l(2);
        let e = Ree::concat([Ree::Atom(a), Ree::concat([Ree::Atom(b), Ree::Atom(c)]).eq()]).neq();
        assert!(e.matches_path(&mk(&[1, 2, 3, 2], &[a, b, c])));
        assert!(!e.matches_path(&mk(&[2, 2, 3, 2], &[a, b, c]))); // d1 = d2
        assert!(!e.matches_path(&mk(&[1, 2, 3, 4], &[a, b, c]))); // inner ≠
        assert!(!e.matches_path(&mk(&[1, 2, 3, 2], &[a, b, b]))); // wrong label
                                                                  // ε matches single values only
        assert!(Ree::Epsilon.matches_path(&DataPath::single(Value::int(1))));
        assert!(!Ree::Epsilon.matches_path(&mk(&[1, 2], &[b])));
    }

    #[test]
    fn membership_with_iteration() {
        let a = l(0);
        // ↓x.(a[x≠])+ cannot be expressed in REE, but (a)≠⁺-style chains can:
        // ((a)≠)+ : consecutive values differ
        let e = Ree::Atom(a).neq().plus();
        let mut p = DataPath::single(Value::int(1));
        p.push(a, Value::int(2));
        p.push(a, Value::int(1));
        assert!(e.matches_path(&p));
        let mut q = DataPath::single(Value::int(1));
        q.push(a, Value::int(1));
        assert!(!e.matches_path(&q));
    }

    #[test]
    fn endpoint_relations_basic() {
        let a = l(0);
        assert_eq!(Ree::Epsilon.endpoint_relations(), EP_EQ);
        assert_eq!(Ree::Atom(a).endpoint_relations(), EP_EQ | EP_NEQ);
        assert_eq!(Ree::Atom(a).eq().endpoint_relations(), EP_EQ);
        assert_eq!(Ree::Atom(a).neq().endpoint_relations(), EP_NEQ);
        // ((a)≠)= is empty
        let contradictory = Ree::Atom(a).neq().eq();
        assert_eq!(contradictory.endpoint_relations(), 0);
        assert!(!contradictory.is_nonempty());
        // (a)= (a)= : eq∘eq = eq
        let ee = Ree::concat([Ree::Atom(a).eq(), Ree::Atom(a).eq()]);
        assert_eq!(ee.endpoint_relations(), EP_EQ);
        // (a)≠ (a)≠ : both relations realizable
        let nn = Ree::concat([Ree::Atom(a).neq(), Ree::Atom(a).neq()]);
        assert_eq!(nn.endpoint_relations(), EP_EQ | EP_NEQ);
        // ((a)≠(a)≠)= nonempty (d e d with e≠d)
        assert!(nn.clone().eq().is_nonempty());
        // ((a)=(a)=)≠ empty
        assert!(!ee.neq().is_nonempty());
    }

    #[test]
    fn witnesses_match() {
        let a = l(0);
        let b = l(1);
        let exprs = vec![
            Ree::Atom(a),
            Ree::word(&[a, b, a]).eq(),
            Ree::concat([Ree::Atom(a).neq(), Ree::Atom(a).neq()]).eq(),
            Ree::Atom(a).neq().plus(),
            Ree::union([Ree::Atom(a).eq(), Ree::Atom(b).neq()]),
            Ree::concat([
                Ree::sigma_star([a, b]),
                Ree::sigma_plus([a, b]).eq(),
                Ree::sigma_star([a, b]),
            ]),
            Ree::Star(Box::new(Ree::Atom(a))).eq(),
        ];
        for e in exprs {
            let w = e.sample_witness().expect("nonempty language");
            assert!(e.matches_path(&w), "witness failed for {e:?}: {w}");
        }
    }

    #[test]
    fn empty_language_no_witness() {
        let a = l(0);
        assert!(Ree::Atom(a).neq().eq().sample_witness().is_none());
        // (ε)≠ is empty
        assert!(Ree::Epsilon.neq().sample_witness().is_none());
    }

    #[test]
    fn witness_through_trailing_epsilon() {
        // regression (found by proptest): ((a · ε)≠)≠ is nonempty, but the
        // junction before the final ε must be chosen equal to the target
        // endpoint, not fresh.
        let a = l(0);
        let e = Ree::Concat(vec![Ree::Atom(a), Ree::Epsilon]).neq().neq();
        assert!(e.is_nonempty());
        let w = e.sample_witness().expect("witness exists");
        assert!(e.matches_path(&w));
        // same shape with an interior part whose endpoints must hit `last`
        let e2 = Ree::concat([Ree::Atom(a).neq(), Ree::Epsilon, Ree::Epsilon]).eq();
        assert_eq!(e2.endpoint_relations(), 0, "(a≠·ε·ε)= is empty");
        let e3 = Ree::concat([Ree::Atom(a), Ree::Epsilon, Ree::Epsilon]).eq();
        let w3 = e3.sample_witness().expect("nonempty");
        assert!(e3.matches_path(&w3));
    }

    #[test]
    fn classification() {
        let a = l(0);
        let eq_only = Ree::concat([Ree::Atom(a).eq(), Ree::Atom(a).plus()]);
        assert!(eq_only.is_equality_only());
        assert_eq!(eq_only.inequality_count(), 0);
        let one_neq = Ree::concat([Ree::Atom(a).neq(), Ree::Atom(a).eq()]);
        assert!(!one_neq.is_equality_only());
        assert_eq!(one_neq.inequality_count(), 1);
        assert!(one_neq.is_iteration_free());
        assert!(!Ree::Atom(a).plus().is_iteration_free());
    }
}
