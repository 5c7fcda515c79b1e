//! The sub-relation cache: structural subplan keys and a byte-budgeted
//! store for evaluated sub-relations and served answer runs.
//!
//! Sharded serving evaluates the same *sub-plans* over and over: the
//! closure bodies and non-head concatenation factors of an REE memo
//! ([`crate::ReeRowMemo`]) are identical across every stripe, every call
//! and — when two queries in a batch share a factor — across queries; a
//! stripe's served answer (its sorted run of node-id pairs, an
//! [`AnswerRun`]) is identical across repeated calls on one snapshot.
//! This module gives those artifacts **canonical keys** and a cache to
//! live in:
//!
//! * [`subplan_hash`] — a 128-bit structural hash of any `Hash`-able
//!   query AST (REE subexpressions, register-automaton sources, whole
//!   [`crate::DataQuery`]s). Two structurally identical subexpressions
//!   hash identically no matter which query they appear in, so a closure
//!   body shared by two batch queries is computed once. 128 bits makes
//!   accidental collision negligible (the cache stores no collision
//!   payload; see the type docs).
//! * [`SubRelKey`] — `(stripe-or-global, subplan hash, binding)`. A key
//!   names an artifact of *one* snapshot: the serving engine owns one
//!   cache per prepared solution and drops it with the solution, so a
//!   delta that changes the graph never meets an entry evaluated before
//!   it.
//! * [`LruSubRelCache`] — the byte-budgeted LRU store the serving engine
//!   owns per prepared solution, sharable across stripe workers. Global
//!   keys hold relations, stripe keys hold answer runs; both kinds share
//!   one LRU order and one byte budget.
//! * [`CacheHandle`] — a per-query view pairing a cache with hit/miss
//!   counters, carried by [`crate::RowEvalShared`].

use gde_datagraph::par::lock_recover;
use gde_datagraph::{FxHashMap, NodeId, Relation};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// 128-bit FNV-1a over the `Hash` feed of a query AST, with a domain
/// separator so different AST types (an REE subexpression vs a whole
/// `DataQuery`) can never alias. Stable within a process — which is all a
/// cache key needs — and structural: clones and re-parses of the same
/// expression hash identically.
pub fn subplan_hash<T: Hash + ?Sized>(domain: &str, t: &T) -> u128 {
    let mut h = Fnv128::new();
    domain.hash(&mut h);
    t.hash(&mut h);
    h.state
}

/// FNV-1a with the 128-bit prime/offset, fed through `std::hash::Hasher`
/// so `#[derive(Hash)]` ASTs (enum discriminants, labels, variable names)
/// serialize themselves.
struct Fnv128 {
    state: u128,
}

impl Fnv128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013B;

    fn new() -> Fnv128 {
        Fnv128 {
            state: Fnv128::OFFSET,
        }
    }
}

impl Hasher for Fnv128 {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u128;
            self.state = self.state.wrapping_mul(Fnv128::PRIME);
        }
    }
    fn finish(&self) -> u64 {
        self.state as u64
    }
}

/// Marker stripe index for artifacts that are global to the snapshot
/// (closures, tail factors, full conjunctive answers) rather than owned
/// by one stripe.
const GLOBAL_STRIPE: u32 = u32::MAX;

/// The cache key of one evaluated sub-relation:
/// `(stripe-or-global, subplan hash, binding)`, within one cache that
/// serves one snapshot.
///
/// * `stripe` is [`u32::MAX`] for global artifacts, else the stripe
///   index (only meaningful alongside a fixed shard plan — the engine
///   guarantees a plan change always comes with a fresh cache).
/// * `hash` is [`subplan_hash`] of the sub-plan. There is no stored
///   collision payload: at 128 bits the collision probability is far
///   below hardware error rates.
/// * `binding` is the bind-time parameter discriminant. For directly
///   compiled queries and binding-independent artifacts (REE memo
///   entries are keyed by their *bound* sub-ASTs, so identical
///   subexpressions of different bindings already collide) it is `0`;
///   for template-bound queries whose `hash` is the label-free
///   *skeleton* hash it is the binding-vector hash
///   (`gde-dataquery`'s `canon::binding_hash`), so two bindings of one
///   skeleton never alias while repeat bindings share entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SubRelKey {
    /// Stripe index, or [`u32::MAX`] for snapshot-global artifacts.
    pub stripe: u32,
    /// Structural hash of the sub-plan ([`subplan_hash`]).
    pub hash: u128,
    /// Binding discriminant: `0` for unparameterised artifacts, else the
    /// binding-vector hash of a template-bound query.
    pub binding: u64,
}

impl SubRelKey {
    /// Key for a snapshot-global artifact (closure, tail factor, full
    /// answer of a non-decomposing query).
    pub fn global(hash: u128) -> SubRelKey {
        SubRelKey {
            stripe: GLOBAL_STRIPE,
            hash,
            binding: 0,
        }
    }

    /// Key for one stripe's served [`AnswerRun`].
    pub fn stripe(stripe: usize, hash: u128) -> SubRelKey {
        let stripe = u32::try_from(stripe).unwrap_or(GLOBAL_STRIPE - 1);
        SubRelKey {
            stripe,
            hash,
            binding: 0,
        }
    }

    /// The same key under a binding discriminant (`0` leaves the key
    /// unchanged — the unparameterised form).
    pub fn with_binding(mut self, binding: u64) -> SubRelKey {
        self.binding = binding;
        self
    }

    /// Is this a snapshot-global artifact key?
    pub fn is_global(&self) -> bool {
        self.stripe == GLOBAL_STRIPE
    }
}

/// One stripe's served answer: its pairs over `dom(M, G_s)` as node ids,
/// sorted ascending and duplicate-free — the run the serving engine lays
/// end to end with its sibling stripes' runs to assemble the answer.
/// Shared, so a cache hit is an `Arc` clone.
pub type AnswerRun = Arc<[(NodeId, NodeId)]>;

/// What one cache entry holds.
enum Cached {
    /// A snapshot-global sub-relation (closure, tail factor, full
    /// conjunctive answer).
    Relation(Arc<Relation>),
    /// A stripe's served answer run.
    Run(AnswerRun),
}

struct LruEntry {
    value: Cached,
    bytes: usize,
    last_used: u64,
}

struct LruInner {
    map: FxHashMap<SubRelKey, LruEntry>,
    bytes: usize,
    tick: u64,
}

/// The byte-budgeted LRU sub-relation cache the serving engine owns per
/// prepared solution. Lookup and insert are sharable across threads
/// (stripe workers hit the cache concurrently). An entry is an immutable
/// `Arc<Relation>` or [`AnswerRun`], so a hit is an `Arc` clone, never a
/// copy; a lookup of one kind never returns the other. A relation is
/// charged its [`Relation::heap_bytes`], a run its pairs' bytes. Both
/// kinds share one LRU order and one budget: inserting past the budget
/// evicts least-recently-used entries first, of either kind (the entry
/// being inserted is dropped last — an artifact bigger than the whole
/// budget is simply not retained).
pub struct LruSubRelCache {
    inner: Mutex<LruInner>,
    budget: usize,
}

impl std::fmt::Debug for LruSubRelCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = lock_recover(&self.inner);
        f.debug_struct("LruSubRelCache")
            .field("entries", &inner.map.len())
            .field("bytes", &inner.bytes)
            .field("budget", &self.budget)
            .finish()
    }
}

impl LruSubRelCache {
    /// An empty cache bounded to approximately `budget` bytes
    /// (`0` = unlimited).
    pub fn new(budget: usize) -> LruSubRelCache {
        LruSubRelCache {
            inner: Mutex::new(LruInner {
                map: FxHashMap::default(),
                bytes: 0,
                tick: 0,
            }),
            budget,
        }
    }

    /// The configured byte budget (0 = unlimited).
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.lock().map.is_empty()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LruInner> {
        // shared poison recovery: a contained worker panic can never wedge
        // the cache (byte accounting is settled before any unlock)
        lock_recover(&self.inner)
    }

    /// The cached relation under `key`, if resident.
    pub fn lookup(&self, key: &SubRelKey) -> Option<Arc<Relation>> {
        self.get(key, |c| match c {
            Cached::Relation(rel) => Some(rel.clone()),
            Cached::Run(_) => None,
        })
    }

    /// The cached answer run under `key`, if resident.
    pub fn lookup_run(&self, key: &SubRelKey) -> Option<AnswerRun> {
        self.get(key, |c| match c {
            Cached::Run(run) => Some(run.clone()),
            Cached::Relation(_) => None,
        })
    }

    /// The entry under `key` if `pick` accepts its kind, refreshing its
    /// LRU tick.
    fn get<T>(&self, key: &SubRelKey, pick: impl FnOnce(&Cached) -> Option<T>) -> Option<T> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let e = inner.map.get_mut(key)?;
        let got = pick(&e.value)?;
        e.last_used = tick;
        Some(got)
    }

    /// Insert (or refresh) `rel` under `key`.
    pub fn insert(&self, key: SubRelKey, rel: Arc<Relation>) {
        let bytes = rel.heap_bytes();
        self.put(key, Cached::Relation(rel), bytes);
    }

    /// Insert (or refresh) `run` under `key`, charged
    /// `len × size_of::<(NodeId, NodeId)>()` bytes.
    pub fn insert_run(&self, key: SubRelKey, run: AnswerRun) {
        let bytes = run.len() * std::mem::size_of::<(NodeId, NodeId)>();
        self.put(key, Cached::Run(run), bytes);
    }

    fn put(&self, key: SubRelKey, value: Cached, bytes: usize) {
        // fault site sits before the lock: an injected panic models a
        // worker dying at admission, never a torn byte ledger
        gde_datagraph::faults::point(gde_datagraph::faults::FaultSite::CacheInsert);
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.map.insert(
            key,
            LruEntry {
                value,
                bytes,
                last_used: tick,
            },
        ) {
            inner.bytes -= old.bytes;
        }
        inner.bytes += bytes;
        if self.budget == 0 {
            return;
        }
        while inner.bytes > self.budget {
            let Some((&victim, _)) = inner.map.iter().min_by_key(|(_, e)| e.last_used) else {
                break;
            };
            let e = inner
                .map
                .remove(&victim)
                .expect("invariant: victim resident");
            inner.bytes -= e.bytes;
        }
    }

    /// Approximate heap bytes currently resident.
    pub fn bytes(&self) -> usize {
        self.lock().bytes
    }
}

/// A per-query view of an [`LruSubRelCache`]: the cache and hit/miss
/// counters the serving engine folds into its `ServingStats`. Carried by
/// [`crate::RowEvalShared`]; all lookups/inserts of one query go through
/// its handle so attribution is per query even when many queries share
/// one cache.
#[derive(Debug)]
pub struct CacheHandle {
    cache: Arc<LruSubRelCache>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CacheHandle {
    /// A handle over `cache`.
    pub fn new(cache: Arc<LruSubRelCache>) -> CacheHandle {
        CacheHandle {
            cache,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Counted lookup.
    pub fn lookup(&self, key: &SubRelKey) -> Option<Arc<Relation>> {
        self.count(self.cache.lookup(key))
    }

    /// Counted lookup of a stripe's answer run.
    pub fn lookup_run(&self, key: &SubRelKey) -> Option<AnswerRun> {
        self.count(self.cache.lookup_run(key))
    }

    fn count<T>(&self, got: Option<T>) -> Option<T> {
        let counter = if got.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        got
    }

    /// Insert without counting (the miss was already counted by the
    /// paired [`CacheHandle::lookup`]).
    pub fn insert(&self, key: SubRelKey, rel: Arc<Relation>) {
        self.cache.insert(key, rel);
    }

    /// Insert a stripe's answer run without counting (the miss was
    /// already counted by the paired [`CacheHandle::lookup_run`]).
    pub fn insert_run(&self, key: SubRelKey, run: AnswerRun) {
        self.cache.insert_run(key, run);
    }

    /// Counted lookup-or-compute: on a miss, `build` runs **outside**
    /// any cache lock (concurrent builders may duplicate work; the last
    /// insert wins and both results are identical by construction).
    pub fn get_or_insert(&self, key: SubRelKey, build: impl FnOnce() -> Relation) -> Arc<Relation> {
        if let Some(rel) = self.lookup(&key) {
            return rel;
        }
        let rel = Arc::new(build());
        self.insert(key, rel.clone());
        rel
    }

    /// Cache hits recorded through this handle.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses recorded through this handle.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_ree;
    use gde_datagraph::Alphabet;

    #[test]
    fn structural_hash_is_structural() {
        let mut al = Alphabet::new();
        let a = parse_ree("(contact authored)=", &mut al).unwrap();
        let b = parse_ree("(contact authored)=", &mut al).unwrap();
        let c = parse_ree("(authored contact)=", &mut al).unwrap();
        assert_eq!(subplan_hash("ree", &a), subplan_hash("ree", &b));
        assert_eq!(subplan_hash("ree", &a), subplan_hash("ree", &a.clone()));
        assert_ne!(subplan_hash("ree", &a), subplan_hash("ree", &c));
        // domain separation: the same AST under a different domain
        assert_ne!(subplan_hash("ree", &a), subplan_hash("query", &a));
    }

    #[test]
    fn shared_subexpressions_hash_identically_across_queries() {
        let mut al = Alphabet::new();
        // the closure body `contact+` inside two different queries
        let q1 = parse_ree("(contact+)=", &mut al).unwrap();
        let q2 = parse_ree("contact+ authored", &mut al).unwrap();
        let sub1 = match &q1 {
            crate::Ree::Eq(inner) => (**inner).clone(),
            _ => panic!("shape"),
        };
        let sub2 = match &q2 {
            crate::Ree::Concat(es) => es[0].clone(),
            _ => panic!("shape"),
        };
        assert_eq!(sub1, sub2);
        assert_eq!(subplan_hash("ree", &sub1), subplan_hash("ree", &sub2));
        assert_ne!(subplan_hash("ree", &q1), subplan_hash("ree", &q2));
    }

    #[test]
    fn lru_cache_roundtrip() {
        let cache = LruSubRelCache::new(0);
        let k0 = SubRelKey::global(42);
        let k1 = SubRelKey::global(43);
        assert!(cache.lookup(&k0).is_none());
        cache.insert(k0, Arc::new(Relation::identity(8)));
        cache.insert(k1, Arc::new(Relation::identity(8)));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&k0).is_some());
        assert!(cache.bytes() > 0);
        // a different subplan hash is a different key entirely
        assert!(cache.lookup(&SubRelKey::global(44)).is_none());
    }

    #[test]
    fn lru_cache_enforces_byte_budget() {
        let one = Arc::new(Relation::identity(64));
        let per = one.heap_bytes();
        assert!(per > 0);
        // room for about three entries
        let cache = LruSubRelCache::new(3 * per + per / 2);
        for i in 0..8u64 {
            cache.insert(SubRelKey::global(i as u128), one.clone());
            // touch the first entry so it stays hot
            cache.lookup(&SubRelKey::global(0));
        }
        assert!(cache.bytes() <= cache.budget(), "stays within budget");
        assert!(cache.len() < 8, "something was evicted");
        assert!(
            cache.lookup(&SubRelKey::global(0)).is_some(),
            "hot entry survives LRU pressure"
        );
        assert!(
            cache.lookup(&SubRelKey::global(1)).is_none(),
            "cold entry evicted"
        );
    }

    #[test]
    fn stripe_and_global_keys_do_not_alias() {
        let g = SubRelKey::global(7);
        let s = SubRelKey::stripe(0, 7);
        assert_ne!(g, s);
        assert!(g.is_global());
        assert!(!s.is_global());
        let cache = LruSubRelCache::new(0);
        cache.insert(g, Arc::new(Relation::identity(4)));
        assert!(cache.lookup(&s).is_none());
    }

    fn run(len: u32) -> AnswerRun {
        (0..len).map(|i| (NodeId(i), NodeId(i + 1))).collect()
    }

    #[test]
    fn a_run_is_charged_eight_bytes_a_pair() {
        let cache = LruSubRelCache::new(0);
        cache.insert_run(SubRelKey::stripe(0, 1), run(100));
        assert_eq!(cache.bytes(), 800);
        cache.insert_run(SubRelKey::stripe(1, 1), run(0));
        assert_eq!(cache.bytes(), 800, "an empty run weighs nothing");
        // a refresh replaces the charge rather than adding to it
        cache.insert_run(SubRelKey::stripe(0, 1), run(10));
        assert_eq!(cache.bytes(), 80);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn runs_and_relations_share_one_lru_budget() {
        let rel = Arc::new(Relation::identity(64));
        let per = rel.heap_bytes();
        // a run of the same weight as the relation
        let pairs = (per / 8) as u32;
        assert_eq!(run(pairs).len() * 8, per);
        let cache = LruSubRelCache::new(2 * per);
        let (g, s) = (SubRelKey::global(1), SubRelKey::stripe(0, 2));
        cache.insert(g, rel.clone());
        cache.insert_run(s, run(pairs));
        assert_eq!(cache.bytes(), 2 * per);
        // a run past the budget evicts the least recently used relation
        cache.insert_run(SubRelKey::stripe(1, 2), run(pairs));
        assert!(cache.lookup(&g).is_none(), "the cold relation went first");
        // reading the older run leaves the newer one least recently used,
        // so a relation past the budget evicts that run
        assert!(cache.lookup_run(&s).is_some());
        cache.insert(g, rel);
        assert!(cache.lookup_run(&SubRelKey::stripe(1, 2)).is_none());
        assert!(cache.lookup_run(&s).is_some());
        assert!(cache.lookup(&g).is_some());
        assert_eq!(cache.bytes(), 2 * per);
    }

    #[test]
    fn lookups_never_return_the_other_kind() {
        let cache = LruSubRelCache::new(0);
        let (rk, sk) = (SubRelKey::global(5), SubRelKey::stripe(0, 5));
        cache.insert(rk, Arc::new(Relation::identity(4)));
        cache.insert_run(sk, run(3));
        assert!(cache.lookup_run(&rk).is_none());
        assert!(cache.lookup(&sk).is_none());
        assert_eq!(cache.lookup(&rk).map(|r| r.len()), Some(4));
        assert_eq!(cache.lookup_run(&sk).map(|r| r.len()), Some(3));
        // the counted view agrees, and counts a wrong-kind probe as a miss
        let h = CacheHandle::new(Arc::new(cache));
        assert!(h.lookup_run(&rk).is_none());
        assert!(h.lookup_run(&sk).is_some());
        assert_eq!((h.hits(), h.misses()), (1, 1));
    }

    #[test]
    fn bytes_return_to_zero_once_everything_is_evicted() {
        let rel = Arc::new(Relation::identity(64));
        let per = rel.heap_bytes();
        let cache = LruSubRelCache::new(per);
        cache.insert(SubRelKey::global(1), rel.clone());
        cache.insert_run(SubRelKey::stripe(0, 1), run(8));
        assert!(cache.bytes() <= per);
        // an artifact bigger than the whole budget evicts every resident
        // entry and is not retained itself
        cache.insert_run(SubRelKey::stripe(1, 1), run(per as u32));
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.bytes(), 0);
        cache.insert_run(SubRelKey::stripe(2, 1), run(4));
        cache.insert(SubRelKey::global(2), Arc::new(Relation::identity(4096)));
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn handle_counts_hits_and_misses() {
        let cache = Arc::new(LruSubRelCache::new(0));
        let h = CacheHandle::new(cache.clone());
        let key = SubRelKey::global(99);
        let built = h.get_or_insert(key, || Relation::identity(4));
        assert_eq!(built.len(), 4);
        assert_eq!((h.hits(), h.misses()), (0, 1));
        let again = h.get_or_insert(key, || panic!("must hit"));
        assert_eq!(again.len(), 4);
        assert_eq!((h.hits(), h.misses()), (1, 1));
        // a second handle over the same cache shares entries, not counters
        let h2 = CacheHandle::new(cache);
        assert!(h2.lookup(&key).is_some());
        assert_eq!((h2.hits(), h2.misses()), (1, 0));
        assert_eq!((h.hits(), h.misses()), (1, 1));
    }
}
