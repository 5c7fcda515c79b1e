//! Canonical query skeletons, bind-time parameters, and shared plan
//! templates.
//!
//! Serving traffic is dominated by *parameter-differing variants* of a
//! small family of query shapes: the same REM with a fresh variable name
//! per request, the same REE over a different label, a conjunctive query
//! with renumbered variables. Structural hashing ([`crate::subplan_hash`])
//! treats every variant as a distinct plan — `↓x.a[x=]` and `↓y.a[y=]`
//! compile, hash and cache as two unrelated queries. This module factors
//! a [`DataQuery`] into the part worth caching and the part that varies:
//!
//! * [`canonicalize`] normalises a query into a [`PlanSkeleton`] plus
//!   [`Bindings`] — alpha-renaming REM variables (`$0`, `$1`, … in
//!   first-mention order), renumbering conjunctive-query variables,
//!   flattening and sorting where associativity/commutativity allows,
//!   and lifting every `Label` occurrence out of the AST into an ordered
//!   binding vector. The skeleton's 128-bit hash covers the skeleton
//!   only, so alpha-equivalent queries and label-differing variants of
//!   one shape collide onto one skeleton.
//! * [`QueryTemplate`] compiles a skeleton **once** (Thompson/NFA
//!   construction, register-automaton lowering, plan analysis) and
//!   [`QueryTemplate::bind`] stamps out bound [`CompiledQuery`] instances
//!   by rewriting transition labels — never re-running the construction.
//! * Bound instances carry `(skeleton hash, binding hash)` as their cache
//!   identity, so the sub-relation cache shares answers and verdicts
//!   across repeat bindings while never aliasing different bindings (see
//!   [`crate::SubRelKey`]).
//!
//! ## Canonicalisation rules
//!
//! The normal form is a *sound under-approximation* of query equivalence:
//! two queries that normalise identically are equivalent, never the
//! reverse. The rules, applied bottom-up:
//!
//! 1. **Flatten** nested n-ary `Concat`/`Union` nodes and unwrap
//!    singletons; drop `ε` units from concatenations and `∅` branches
//!    from RPQ unions (`∅` annihilates an RPQ concatenation).
//! 2. **Sort** union branches by a *name-blind* structural hash (variable
//!    names erased, labels kept) and deduplicate equal branches — union
//!    is commutative and idempotent; concatenation and conjunctive atom
//!    order are preserved.
//! 3. **Alpha-normalise**: REM variables are renamed to `$0`, `$1`, … in
//!    first-mention order; conjunctive-query variables are renumbered in
//!    first-mention order over the atom sequence.
//! 4. **Lift labels**: every `Label` occurrence is replaced, in
//!    depth-first left-to-right order, by a *slot label* `Label(i)`, and
//!    the concrete label is pushed into the binding vector. Occurrences
//!    are not deduplicated — `(a a)=` and `(a b)=` share one skeleton
//!    with two slots.
//!
//! Binding-independent analysis facts (trivial-path matching, star
//! depth, equality-onlyness) attach to the skeleton; binding-sensitive
//! ones (the label footprint driving emptiness verdicts) are recomputed
//! at bind time from the binding vector alone.

use crate::cache::subplan_hash;
use crate::compiled::CompiledQuery;
use crate::crpq::{CdAtom, ConjunctiveDataRpq};
use crate::pathtest::PathTest;
use crate::query::DataQuery;
use crate::ree::Ree;
use crate::rem::{Rem, VarCond};
use gde_automata::Regex;
use gde_datagraph::par::lock_recover;
use gde_datagraph::{FxHashMap, Label};
use std::sync::{Arc, Mutex};

/// Domain separator for skeleton hashes: a skeleton can never alias a
/// concrete query hashed under the `"query"` domain.
const SKELETON_DOMAIN: &str = "skeleton";

/// Domain separator for the union-branch ordering key.
const ORDER_DOMAIN: &str = "canon-ord";

/// Domain separator for binding-vector hashes.
const BINDING_DOMAIN: &str = "binding";

/// The 64-bit discriminant of a binding vector, mixed into cache keys so
/// two bindings of one skeleton never alias. Never returns `0`: zero is
/// reserved as the "directly compiled, not template-bound" sentinel on
/// [`CompiledQuery::binding_hash`].
pub fn binding_hash(bindings: &[Label]) -> u64 {
    let h = subplan_hash(BINDING_DOMAIN, bindings);
    let folded = (h as u64) ^ ((h >> 64) as u64);
    if folded == 0 {
        1
    } else {
        folded
    }
}

/// A query with its label parameters lifted out: the canonical shape
/// traffic is grouped by. Produced by [`canonicalize`]; compiled once
/// into a [`QueryTemplate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanSkeleton {
    query: DataQuery,
    slots: usize,
    hash: u128,
}

impl PlanSkeleton {
    /// The canonical query, with slot labels `Label(0..slots)` in place
    /// of concrete labels.
    pub fn query(&self) -> &DataQuery {
        &self.query
    }

    /// Number of label slots a binding vector must fill.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// 128-bit structural hash of the skeleton (labels excluded — they
    /// live in the bindings). The interning key for templates and the
    /// `plan_hash` of every query bound from this skeleton.
    pub fn hash(&self) -> u128 {
        self.hash
    }

    /// Substitute a binding vector back into the skeleton, recovering a
    /// concrete (alpha-normalised) [`DataQuery`].
    pub fn bind_source(&self, bindings: &[Label]) -> Result<DataQuery, BindError> {
        if bindings.len() != self.slots {
            return Err(BindError::Arity {
                expected: self.slots,
                got: bindings.len(),
            });
        }
        Ok(map_query_labels(&self.query, &mut |l| bindings[l.index()]))
    }
}

/// The ordered label parameters lifted out of a query by
/// [`canonicalize`]: `bindings.labels()[i]` fills slot `i` of the
/// skeleton.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bindings {
    labels: Vec<Label>,
}

impl Bindings {
    /// The labels, in slot order.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Number of bound slots.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Is the binding vector empty (a fully-constant skeleton)?
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The 64-bit cache discriminant of this binding vector
    /// ([`binding_hash`]).
    pub fn hash(&self) -> u64 {
        binding_hash(&self.labels)
    }
}

/// Why a binding vector was rejected by a skeleton or template.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BindError {
    /// The binding vector's length does not match the skeleton's slot
    /// count.
    Arity {
        /// Slots the skeleton expects.
        expected: usize,
        /// Labels the caller supplied.
        got: usize,
    },
}

impl std::fmt::Display for BindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindError::Arity { expected, got } => {
                write!(
                    f,
                    "binding arity mismatch: skeleton has {expected} slot(s), got {got}"
                )
            }
        }
    }
}

impl std::error::Error for BindError {}

/// Normalise a query into its canonical skeleton and binding vector.
/// Alpha-equivalent queries (and label-differing variants of one shape)
/// produce skeletons with identical [`PlanSkeleton::hash`]; the round
/// trip `canonicalize(skeleton.bind_source(bindings))` reproduces the
/// same skeleton and bindings exactly.
pub fn canonicalize(q: &DataQuery) -> (PlanSkeleton, Bindings) {
    let normal = normalize_query(q);
    let mut labels: Vec<Label> = Vec::new();
    let skeleton_query = map_query_labels(&normal, &mut |l| {
        let slot = labels.len();
        assert!(
            slot < u16::MAX as usize,
            "query exceeds {} label occurrences",
            u16::MAX
        );
        labels.push(l);
        Label(slot as u16)
    });
    let hash = subplan_hash(SKELETON_DOMAIN, &skeleton_query);
    (
        PlanSkeleton {
            query: skeleton_query,
            slots: labels.len(),
            hash,
        },
        Bindings { labels },
    )
}

/// A skeleton compiled once, stamping out bound [`CompiledQuery`]
/// instances without re-compilation. Bound instances are memoised per
/// binding vector (bounded by the label alphabet, not the traffic), so a
/// repeat binding is an `Arc` clone.
#[derive(Debug)]
pub struct QueryTemplate {
    skeleton: PlanSkeleton,
    compiled: CompiledQuery,
    compile_ns: u64,
    bound: Mutex<FxHashMap<u64, Arc<CompiledQuery>>>,
}

impl QueryTemplate {
    /// Compile `skeleton` once — Thompson/NFA construction,
    /// register-automaton lowering and plan analysis all happen here,
    /// and never again for any binding.
    pub fn new(skeleton: PlanSkeleton) -> QueryTemplate {
        let start = std::time::Instant::now();
        let compiled = CompiledQuery::compile(&skeleton.query);
        let compile_ns = start.elapsed().as_nanos() as u64;
        QueryTemplate {
            skeleton,
            compiled,
            compile_ns,
            bound: Mutex::new(FxHashMap::default()),
        }
    }

    /// The skeleton this template compiles.
    pub fn skeleton(&self) -> &PlanSkeleton {
        &self.skeleton
    }

    /// Nanoseconds the one-time compilation took — the cost every bound
    /// serve skips (credited to `ServingStats::compile_skipped_ns` by
    /// the serving engine).
    pub fn compile_ns(&self) -> u64 {
        self.compile_ns
    }

    /// Stamp out a bound instance: transition labels of the precompiled
    /// automaton are rewritten through the binding vector (a linear copy
    /// of the transition tables), the source AST is substituted, and the
    /// instance carries `(skeleton hash, binding hash)` as its cache
    /// identity.
    pub fn bind(&self, bindings: &[Label]) -> Result<CompiledQuery, BindError> {
        if bindings.len() != self.skeleton.slots {
            return Err(BindError::Arity {
                expected: self.skeleton.slots,
                got: bindings.len(),
            });
        }
        Ok(self.compiled.bind_template(bindings, self.skeleton.hash))
    }

    /// [`QueryTemplate::bind`], memoised per binding vector: a repeat
    /// binding returns the shared `Arc` without rebuilding anything.
    pub fn bind_shared(&self, bindings: &[Label]) -> Result<Arc<CompiledQuery>, BindError> {
        if bindings.len() != self.skeleton.slots {
            return Err(BindError::Arity {
                expected: self.skeleton.slots,
                got: bindings.len(),
            });
        }
        let key = binding_hash(bindings);
        if let Some(hit) = lock_recover(&self.bound).get(&key) {
            return Ok(Arc::clone(hit));
        }
        // build outside the lock; concurrent builders of the same binding
        // produce identical instances, first insert wins
        let built = Arc::new(self.compiled.bind_template(bindings, self.skeleton.hash));
        let mut bound = lock_recover(&self.bound);
        Ok(Arc::clone(bound.entry(key).or_insert(built)))
    }
}

// ---------------------------------------------------------------------
// Label traversal: one mapper per AST, shared by slot-lifting (stateful
// counter) and bind-time substitution (slot → concrete label). Traversal
// order — depth-first, left-to-right — defines slot numbering.
// ---------------------------------------------------------------------

/// Rewrite every label occurrence of `q` through `f`, preserving
/// structure. Pre-order, left-to-right: the visit order is the slot
/// order of [`canonicalize`].
pub(crate) fn map_query_labels(q: &DataQuery, f: &mut impl FnMut(Label) -> Label) -> DataQuery {
    match q {
        DataQuery::Rpq(e) => DataQuery::Rpq(map_regex(e, f)),
        DataQuery::Ree(e) => DataQuery::Ree(map_ree(e, f)),
        DataQuery::Rem(e) => DataQuery::Rem(map_rem(e, f)),
        DataQuery::PathTest(e) => DataQuery::PathTest(map_pathtest(e, f)),
        DataQuery::Conjunctive(c) => DataQuery::Conjunctive(Box::new(ConjunctiveDataRpq {
            head: c.head,
            atoms: c
                .atoms
                .iter()
                .map(|a| CdAtom {
                    from: a.from,
                    query: map_query_labels(&a.query, f),
                    to: a.to,
                })
                .collect(),
        })),
    }
}

fn map_regex(e: &Regex, f: &mut impl FnMut(Label) -> Label) -> Regex {
    match e {
        Regex::Empty => Regex::Empty,
        Regex::Epsilon => Regex::Epsilon,
        Regex::Atom(l) => Regex::Atom(f(*l)),
        Regex::Concat(es) => Regex::Concat(es.iter().map(|e| map_regex(e, f)).collect()),
        Regex::Union(es) => Regex::Union(es.iter().map(|e| map_regex(e, f)).collect()),
        Regex::Plus(e) => Regex::Plus(Box::new(map_regex(e, f))),
        Regex::Star(e) => Regex::Star(Box::new(map_regex(e, f))),
    }
}

pub(crate) fn map_ree(e: &Ree, f: &mut impl FnMut(Label) -> Label) -> Ree {
    match e {
        Ree::Epsilon => Ree::Epsilon,
        Ree::Atom(l) => Ree::Atom(f(*l)),
        Ree::Concat(es) => Ree::Concat(es.iter().map(|e| map_ree(e, f)).collect()),
        Ree::Union(es) => Ree::Union(es.iter().map(|e| map_ree(e, f)).collect()),
        Ree::Plus(e) => Ree::Plus(Box::new(map_ree(e, f))),
        Ree::Star(e) => Ree::Star(Box::new(map_ree(e, f))),
        Ree::Eq(e) => Ree::Eq(Box::new(map_ree(e, f))),
        Ree::Neq(e) => Ree::Neq(Box::new(map_ree(e, f))),
    }
}

fn map_rem(e: &Rem, f: &mut impl FnMut(Label) -> Label) -> Rem {
    match e {
        Rem::Epsilon => Rem::Epsilon,
        Rem::Atom(l) => Rem::Atom(f(*l)),
        Rem::Concat(es) => Rem::Concat(es.iter().map(|e| map_rem(e, f)).collect()),
        Rem::Union(es) => Rem::Union(es.iter().map(|e| map_rem(e, f)).collect()),
        Rem::Plus(e) => Rem::Plus(Box::new(map_rem(e, f))),
        Rem::Star(e) => Rem::Star(Box::new(map_rem(e, f))),
        Rem::Bind(vars, e) => Rem::Bind(vars.clone(), Box::new(map_rem(e, f))),
        Rem::Test(e, c) => Rem::Test(Box::new(map_rem(e, f)), c.clone()),
    }
}

fn map_pathtest(e: &PathTest, f: &mut impl FnMut(Label) -> Label) -> PathTest {
    match e {
        PathTest::Atom(l) => PathTest::Atom(f(*l)),
        PathTest::Concat(es) => PathTest::Concat(es.iter().map(|e| map_pathtest(e, f)).collect()),
        PathTest::Eq(e) => PathTest::Eq(Box::new(map_pathtest(e, f))),
        PathTest::Neq(e) => PathTest::Neq(Box::new(map_pathtest(e, f))),
    }
}

// ---------------------------------------------------------------------
// Normalisation: flatten / sort / alpha-rename. Pure AST → AST, no
// labels lifted yet.
// ---------------------------------------------------------------------

fn normalize_query(q: &DataQuery) -> DataQuery {
    match q {
        DataQuery::Rpq(e) => DataQuery::Rpq(norm_regex(e)),
        DataQuery::Ree(e) => DataQuery::Ree(norm_ree(e)),
        DataQuery::Rem(e) => {
            let structural = norm_rem(e);
            DataQuery::Rem(alpha_rename(&structural))
        }
        DataQuery::PathTest(e) => DataQuery::PathTest(norm_pathtest(e)),
        DataQuery::Conjunctive(c) => DataQuery::Conjunctive(Box::new(renumber_crpq(c))),
    }
}

fn norm_regex(e: &Regex) -> Regex {
    match e {
        Regex::Empty => Regex::Empty,
        Regex::Epsilon => Regex::Epsilon,
        Regex::Atom(l) => Regex::Atom(*l),
        Regex::Concat(es) => {
            let mut out: Vec<Regex> = Vec::with_capacity(es.len());
            for sub in es {
                match norm_regex(sub) {
                    // ∅ annihilates the whole concatenation
                    Regex::Empty => return Regex::Empty,
                    // ε is the unit
                    Regex::Epsilon => {}
                    Regex::Concat(inner) => out.extend(inner),
                    other => out.push(other),
                }
            }
            match out.len() {
                0 => Regex::Epsilon,
                1 => out.swap_remove(0),
                _ => Regex::Concat(out),
            }
        }
        Regex::Union(es) => {
            let mut out: Vec<Regex> = Vec::with_capacity(es.len());
            for sub in es {
                match norm_regex(sub) {
                    // ∅ is the unit of union
                    Regex::Empty => {}
                    Regex::Union(inner) => out.extend(inner),
                    other => out.push(other),
                }
            }
            out.sort_by_key(|e| subplan_hash(ORDER_DOMAIN, e));
            out.dedup();
            match out.len() {
                0 => Regex::Empty,
                1 => out.swap_remove(0),
                _ => Regex::Union(out),
            }
        }
        Regex::Plus(e) => Regex::Plus(Box::new(norm_regex(e))),
        Regex::Star(e) => Regex::Star(Box::new(norm_regex(e))),
    }
}

fn norm_ree(e: &Ree) -> Ree {
    match e {
        Ree::Epsilon => Ree::Epsilon,
        Ree::Atom(l) => Ree::Atom(*l),
        Ree::Concat(es) => {
            let mut out: Vec<Ree> = Vec::with_capacity(es.len());
            for sub in es {
                match norm_ree(sub) {
                    // a bare ε factor matches a single data value at the
                    // junction — the unit of path concatenation
                    Ree::Epsilon => {}
                    Ree::Concat(inner) => out.extend(inner),
                    other => out.push(other),
                }
            }
            match out.len() {
                0 => Ree::Epsilon,
                1 => out.swap_remove(0),
                _ => Ree::Concat(out),
            }
        }
        Ree::Union(es) => {
            let mut out: Vec<Ree> = es.iter().map(norm_ree).collect();
            let mut flat: Vec<Ree> = Vec::with_capacity(out.len());
            for sub in out.drain(..) {
                match sub {
                    Ree::Union(inner) => flat.extend(inner),
                    other => flat.push(other),
                }
            }
            flat.sort_by_key(|e| subplan_hash(ORDER_DOMAIN, e));
            flat.dedup();
            if flat.len() == 1 {
                flat.swap_remove(0)
            } else {
                Ree::Union(flat)
            }
        }
        Ree::Plus(e) => Ree::Plus(Box::new(norm_ree(e))),
        Ree::Star(e) => Ree::Star(Box::new(norm_ree(e))),
        Ree::Eq(e) => Ree::Eq(Box::new(norm_ree(e))),
        Ree::Neq(e) => Ree::Neq(Box::new(norm_ree(e))),
    }
}

fn norm_pathtest(e: &PathTest) -> PathTest {
    match e {
        PathTest::Atom(l) => PathTest::Atom(*l),
        PathTest::Concat(es) => {
            let mut out: Vec<PathTest> = Vec::with_capacity(es.len());
            for sub in es {
                match norm_pathtest(sub) {
                    PathTest::Concat(inner) => out.extend(inner),
                    other => out.push(other),
                }
            }
            if out.len() == 1 {
                out.swap_remove(0)
            } else {
                PathTest::Concat(out)
            }
        }
        PathTest::Eq(e) => PathTest::Eq(Box::new(norm_pathtest(e))),
        PathTest::Neq(e) => PathTest::Neq(Box::new(norm_pathtest(e))),
    }
}

/// Structural normalisation of a REM: flatten, sort unions by a
/// *name-blind* key (so alpha-variant branches order identically), dedup
/// equal branches. Renaming happens afterwards, over the whole query, so
/// first-mention order is taken on the sorted form — making the
/// normalisation idempotent (sort keys ignore names, so renaming never
/// reorders).
fn norm_rem(e: &Rem) -> Rem {
    match e {
        Rem::Epsilon => Rem::Epsilon,
        Rem::Atom(l) => Rem::Atom(*l),
        Rem::Concat(es) => {
            let mut out: Vec<Rem> = Vec::with_capacity(es.len());
            for sub in es {
                match norm_rem(sub) {
                    Rem::Epsilon => {}
                    Rem::Concat(inner) => out.extend(inner),
                    other => out.push(other),
                }
            }
            match out.len() {
                0 => Rem::Epsilon,
                1 => out.swap_remove(0),
                _ => Rem::Concat(out),
            }
        }
        Rem::Union(es) => {
            let mut flat: Vec<Rem> = Vec::with_capacity(es.len());
            for sub in es {
                match norm_rem(sub) {
                    Rem::Union(inner) => flat.extend(inner),
                    other => flat.push(other),
                }
            }
            flat.sort_by_key(|e| {
                subplan_hash(ORDER_DOMAIN, &rename_rem(e, &mut |_| String::new()))
            });
            flat.dedup();
            if flat.len() == 1 {
                flat.swap_remove(0)
            } else {
                Rem::Union(flat)
            }
        }
        Rem::Plus(e) => Rem::Plus(Box::new(norm_rem(e))),
        Rem::Star(e) => Rem::Star(Box::new(norm_rem(e))),
        Rem::Bind(vars, e) => Rem::Bind(vars.clone(), Box::new(norm_rem(e))),
        Rem::Test(e, c) => Rem::Test(Box::new(norm_rem(e)), c.clone()),
    }
}

/// Alpha-normalise: rename every variable to `$i` by first-mention order
/// (the order [`Rem::variables`] reports — binds before their bodies,
/// test expressions before their conditions). Injective, so distinct
/// variables stay distinct.
fn alpha_rename(e: &Rem) -> Rem {
    let order = e.variables();
    let map: FxHashMap<&str, String> = order
        .iter()
        .enumerate()
        .map(|(i, v)| (v.as_str(), format!("${i}")))
        .collect();
    rename_rem(e, &mut |x| {
        map.get(x)
            .cloned()
            .expect("invariant: every variable is collected by Rem::variables")
    })
}

fn rename_rem(e: &Rem, f: &mut impl FnMut(&str) -> String) -> Rem {
    match e {
        Rem::Epsilon => Rem::Epsilon,
        Rem::Atom(l) => Rem::Atom(*l),
        Rem::Concat(es) => Rem::Concat(es.iter().map(|e| rename_rem(e, f)).collect()),
        Rem::Union(es) => Rem::Union(es.iter().map(|e| rename_rem(e, f)).collect()),
        Rem::Plus(e) => Rem::Plus(Box::new(rename_rem(e, f))),
        Rem::Star(e) => Rem::Star(Box::new(rename_rem(e, f))),
        Rem::Bind(vars, e) => Rem::Bind(
            vars.iter().map(|v| f(v)).collect(),
            Box::new(rename_rem(e, f)),
        ),
        Rem::Test(e, c) => Rem::Test(Box::new(rename_rem(e, f)), rename_cond(c, f)),
    }
}

fn rename_cond(c: &VarCond, f: &mut impl FnMut(&str) -> String) -> VarCond {
    match c {
        VarCond::Eq(x) => VarCond::Eq(f(x)),
        VarCond::Neq(x) => VarCond::Neq(f(x)),
        VarCond::And(a, b) => {
            VarCond::And(Box::new(rename_cond(a, f)), Box::new(rename_cond(b, f)))
        }
        VarCond::Or(a, b) => VarCond::Or(Box::new(rename_cond(a, f)), Box::new(rename_cond(b, f))),
    }
}

/// Renumber conjunctive-query variables to `0, 1, …` in first-mention
/// order over the atom sequence (atom order is preserved — it is the
/// join plan). Atom queries normalise recursively.
fn renumber_crpq(c: &ConjunctiveDataRpq) -> ConjunctiveDataRpq {
    let mut map: FxHashMap<u32, u32> = FxHashMap::default();
    let mut next: u32 = 0;
    let mut intern = |v: u32, map: &mut FxHashMap<u32, u32>| -> u32 {
        *map.entry(v).or_insert_with(|| {
            let n = next;
            next += 1;
            n
        })
    };
    let atoms: Vec<CdAtom> = c
        .atoms
        .iter()
        .map(|a| CdAtom {
            from: intern(a.from, &mut map),
            query: normalize_query(&a.query),
            to: intern(a.to, &mut map),
        })
        .collect();
    // head variables occur in the body by construction; tolerate manual
    // ASTs that violate it by interning them last
    let head = (intern(c.head.0, &mut map), intern(c.head.1, &mut map));
    ConjunctiveDataRpq { head, atoms }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_ree, parse_rem};
    use gde_automata::parse_regex;
    use gde_datagraph::{Alphabet, DataGraph, Label, NodeId, Value};

    fn alphabet() -> Alphabet {
        Alphabet::from_labels(["a", "b", "c"])
    }

    fn rem(s: &str) -> DataQuery {
        let mut al = alphabet();
        parse_rem(s, &mut al).unwrap().into()
    }

    #[test]
    fn alpha_equivalent_rems_share_one_skeleton() {
        let (s1, b1) = canonicalize(&rem("@x.(a[x=])"));
        let (s2, b2) = canonicalize(&rem("@y.(a[y=])"));
        assert_eq!(s1.hash(), s2.hash(), "alpha-variants must collide");
        assert_eq!(s1, s2);
        assert_eq!(b1, b2);
        // a genuinely different query must not collide
        let (s3, _) = canonicalize(&rem("@x.(a[x!=])"));
        assert_ne!(s1.hash(), s3.hash());
    }

    #[test]
    fn renumbered_crpqs_share_one_skeleton() {
        let mut al = alphabet();
        let a: DataQuery = parse_regex("a", &mut al).unwrap().into();
        let b: DataQuery = parse_regex("b", &mut al).unwrap().into();
        let mk = |v0: u32, v1: u32, v2: u32| -> DataQuery {
            ConjunctiveDataRpq::new(
                (v0, v2),
                vec![
                    CdAtom {
                        from: v0,
                        query: a.clone(),
                        to: v1,
                    },
                    CdAtom {
                        from: v1,
                        query: b.clone(),
                        to: v2,
                    },
                ],
            )
            .into()
        };
        let (s1, _) = canonicalize(&mk(0, 1, 2));
        let (s2, _) = canonicalize(&mk(5, 9, 7));
        assert_eq!(s1.hash(), s2.hash(), "renumbered CRPQs must collide");
    }

    #[test]
    fn union_order_and_unit_noise_normalise_away() {
        let mut al = alphabet();
        let q1: DataQuery = parse_regex("a | b c", &mut al).unwrap().into();
        let q2: DataQuery = parse_regex("b c | a", &mut al).unwrap().into();
        let (s1, b1) = canonicalize(&q1);
        let (s2, b2) = canonicalize(&q2);
        assert_eq!(s1.hash(), s2.hash(), "union branches are commutative");
        assert_eq!(b1, b2, "bindings follow the sorted branch order");
        // ε units in a concatenation disappear
        let q3: DataQuery = parse_ree("a b", &mut al).unwrap().into();
        let noisy = DataQuery::Ree(Ree::Concat(vec![
            Ree::Epsilon,
            Ree::Atom(gde_datagraph::Label(0)),
            Ree::Epsilon,
            Ree::Atom(gde_datagraph::Label(1)),
        ]));
        assert_eq!(canonicalize(&q3).0.hash(), canonicalize(&noisy).0.hash());
    }

    #[test]
    fn labels_lift_into_slot_order_bindings() {
        let mut al = alphabet();
        let q: DataQuery = parse_ree("(a b)= c", &mut al).unwrap().into();
        let (skel, binds) = canonicalize(&q);
        assert_eq!(skel.slots(), 3);
        assert_eq!(binds.labels().len(), 3);
        // slot labels are 0..slots in visit order; bindings carry a, b, c
        let names: Vec<&str> = binds.labels().iter().map(|l| al.name(*l)).collect();
        assert_eq!(names, ["a", "b", "c"]);
        // repeated labels occupy distinct slots: (a a)= and (a b)= share a skeleton
        let qa: DataQuery = parse_ree("(a a)=", &mut al).unwrap().into();
        let qb: DataQuery = parse_ree("(a b)=", &mut al).unwrap().into();
        assert_eq!(canonicalize(&qa).0.hash(), canonicalize(&qb).0.hash());
        assert_ne!(canonicalize(&qa).1, canonicalize(&qb).1);
    }

    #[test]
    fn skeleton_hash_stable_across_canon_round_trip() {
        let mut al = alphabet();
        let queries: Vec<DataQuery> = vec![
            parse_regex("a (b | c)* a", &mut al).unwrap().into(),
            parse_ree("a* (a b)= + (c c)!=", &mut al).unwrap().into(),
            rem("@x.(a b[x=] + c[x!=])"),
            DataQuery::PathTest(PathTest::word(&[Label(0), Label(1)]).eq()),
            ConjunctiveDataRpq::new(
                (3, 4),
                vec![
                    CdAtom {
                        from: 3,
                        query: parse_regex("a", &mut al).unwrap().into(),
                        to: 4,
                    },
                    CdAtom {
                        from: 4,
                        query: rem("@z.(b[z=])"),
                        to: 3,
                    },
                ],
            )
            .into(),
        ];
        for q in &queries {
            let (skel, binds) = canonicalize(q);
            let rebound = skel.bind_source(binds.labels()).unwrap();
            let (skel2, binds2) = canonicalize(&rebound);
            assert_eq!(
                skel.hash(),
                skel2.hash(),
                "round trip must be stable ({q:?})"
            );
            assert_eq!(skel, skel2);
            assert_eq!(binds, binds2);
        }
    }

    #[test]
    fn bound_template_answers_match_direct_compilation() {
        let mut g = DataGraph::new();
        for i in 0..10u32 {
            g.add_node(NodeId(i), Value::int(i as i64 % 3)).unwrap();
        }
        for i in 0..10u32 {
            g.add_edge_str(NodeId(i), "a", NodeId((i + 1) % 10))
                .unwrap();
            if i % 2 == 0 {
                g.add_edge_str(NodeId(i), "b", NodeId((i + 3) % 10))
                    .unwrap();
            }
            g.add_edge_str(NodeId(i), "c", NodeId((i * 7) % 10))
                .unwrap();
        }
        let mut al = g.alphabet().clone();
        let queries: Vec<DataQuery> = vec![
            parse_regex("a (b + c)*", g.alphabet_mut()).unwrap().into(),
            parse_ree("a* (a b)= + (c a)!=", g.alphabet_mut())
                .unwrap()
                .into(),
            {
                let mut a2 = g.alphabet().clone();
                parse_rem("@x.(a b*[x=])", &mut a2).unwrap().into()
            },
            DataQuery::PathTest(PathTest::word(&[Label(0), Label(1)]).eq()),
            ConjunctiveDataRpq::new(
                (0, 1),
                vec![
                    CdAtom {
                        from: 0,
                        query: parse_regex("a b", &mut al).unwrap().into(),
                        to: 1,
                    },
                    CdAtom {
                        from: 1,
                        query: parse_regex("c", &mut al).unwrap().into(),
                        to: 0,
                    },
                ],
            )
            .into(),
        ];
        let snap = g.snapshot();
        for q in &queries {
            let (skel, binds) = canonicalize(q);
            let template = QueryTemplate::new(skel);
            let bound = template.bind(binds.labels()).unwrap();
            let direct = q.compile();
            assert_eq!(
                bound.eval_pairs(&snap),
                direct.eval_pairs(&snap),
                "bound instance must answer like a direct compile ({q:?})"
            );
            assert_eq!(bound.holds_somewhere(&snap), direct.holds_somewhere(&snap));
            assert_eq!(bound.is_equality_only(), direct.is_equality_only());
            // cache identity: skeleton hash + non-zero binding discriminant
            assert_eq!(bound.plan_hash(), template.skeleton().hash());
            assert_ne!(bound.binding_hash(), 0);
            assert_eq!(direct.binding_hash(), 0, "direct compiles are unbound");
            // shape: binding-sensitive labels recomputed, binding-independent
            // facts carried over from the skeleton
            assert_eq!(bound.shape().labels, direct.shape().labels);
            assert_eq!(
                bound.shape().may_match_isolated,
                direct.shape().may_match_isolated
            );
            assert_eq!(bound.shape().star_depth, direct.shape().star_depth);
            // memoised bind shares one Arc per binding
            let s1 = template.bind_shared(binds.labels()).unwrap();
            let s2 = template.bind_shared(binds.labels()).unwrap();
            assert!(Arc::ptr_eq(&s1, &s2));
        }
    }

    #[test]
    fn rebinding_changes_answers_and_discriminant_not_skeleton() {
        let mut g = DataGraph::new();
        for i in 0..6u32 {
            g.add_node(NodeId(i), Value::int(0)).unwrap();
        }
        g.add_edge_str(NodeId(0), "a", NodeId(1)).unwrap();
        g.add_edge_str(NodeId(2), "b", NodeId(3)).unwrap();
        let q: DataQuery = parse_regex("a", g.alphabet_mut()).unwrap().into();
        let (skel, binds) = canonicalize(&q);
        let template = QueryTemplate::new(skel);
        let b_label = g.alphabet().label("b").unwrap();
        let bound_a = template.bind(binds.labels()).unwrap();
        let bound_b = template.bind(&[b_label]).unwrap();
        let snap = g.snapshot();
        assert_eq!(bound_a.eval_pairs(&snap), vec![(NodeId(0), NodeId(1))]);
        assert_eq!(bound_b.eval_pairs(&snap), vec![(NodeId(2), NodeId(3))]);
        assert_eq!(bound_a.plan_hash(), bound_b.plan_hash());
        assert_ne!(bound_a.binding_hash(), bound_b.binding_hash());
        // arity is checked
        assert!(matches!(
            template.bind(&[]),
            Err(BindError::Arity {
                expected: 1,
                got: 0
            })
        ));
    }
}
