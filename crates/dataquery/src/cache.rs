//! The sub-relation cache: structural subplan keys, and a store for
//! evaluated sub-relations and served answer runs bounded by a shared
//! byte ledger.
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
//! * [`ByteLedger`] — the one byte budget a serving engine shares with
//!   every cache it owns: each insert reserves its bytes there first.
//! * [`LruSubRelCache`] — the LRU store the serving engine owns per
//!   prepared solution, sharable across stripe workers. Global keys hold
//!   relations, stripe keys hold answer runs; both kinds share one LRU
//!   order, and the ledger is the cache's only bound.
//! * [`CacheHandle`] — a per-query view pairing a cache with hit, miss
//!   and shortfall counters, carried by [`crate::RowEvalShared`].

use gde_datagraph::par::lock_recover;
use gde_datagraph::{FxHashMap, NodeId, Relation};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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

/// The byte budget a serving engine and all its caches share: `used`
/// counts every charged byte, `budget` bounds it (`0` = unlimited, the
/// default).
///
/// Cache inserts reserve through [`ByteLedger::try_reserve`], which never
/// takes `used` past the budget. The engine charges each prepared
/// solution's base bytes through [`ByteLedger::charge`], which always
/// succeeds: the solution serving the current answer must be resident, so
/// the engine evicts colder solutions afterwards instead. Every charge is
/// given back through [`ByteLedger::release`] with the amount charged.
#[derive(Debug, Default)]
pub struct ByteLedger {
    used: AtomicUsize,
    budget: AtomicUsize,
}

impl ByteLedger {
    /// The byte budget (`0` = unlimited).
    pub fn budget(&self) -> usize {
        self.budget.load(Ordering::Relaxed)
    }

    /// Set the byte budget (`0` = unlimited). Bytes already charged stay
    /// charged; lowering the budget below them only makes later
    /// reservations fail until enough is released.
    pub fn set_budget(&self, bytes: usize) {
        self.budget.store(bytes, Ordering::Relaxed);
    }

    /// Bytes currently charged.
    pub fn used(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    /// Charge `bytes` if they fit the budget. Returns whether they were
    /// charged; a failed reservation charges nothing.
    pub fn try_reserve(&self, bytes: usize) -> bool {
        let budget = self.budget();
        let fits = |used: usize| {
            used.checked_add(bytes)
                .filter(|&u| budget == 0 || u <= budget)
        };
        self.used
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, fits)
            .is_ok()
    }

    /// Charge `bytes` whether or not they fit the budget.
    pub fn charge(&self, bytes: usize) {
        self.used.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Give back `bytes` charged earlier.
    pub fn release(&self, bytes: usize) {
        self.used.fetch_sub(bytes, Ordering::Relaxed);
    }
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
    /// Set by [`LruSubRelCache::close`]: every later insert is declined.
    closed: bool,
}

/// The LRU sub-relation cache the serving engine owns per prepared
/// solution. Lookup and insert are sharable across threads (stripe
/// workers hit the cache concurrently). An entry is an immutable
/// `Arc<Relation>` or [`AnswerRun`], so a hit is an `Arc` clone, never a
/// copy; a lookup of one kind never returns the other. A relation is
/// charged its [`Relation::heap_bytes`], a run its pairs' bytes.
///
/// Both kinds share one LRU order, and the cache's only bound is its
/// [`ByteLedger`]. An insert reserves its bytes there under the cache
/// lock, so the cache's bytes and the ledger move together. While the
/// ledger is full, the insert evicts this cache's own least recently used
/// entries, of either kind. When even that cannot make room, the insert is
/// declined: the caller still has its artifact, it is just not kept. An
/// artifact that would not fit with every entry of this cache gone is
/// declined at once, evicting nothing. Each insert reports its
/// *shortfall*: the bytes it evicted, plus its own bytes when declined.
pub struct LruSubRelCache {
    inner: Mutex<LruInner>,
    ledger: Arc<ByteLedger>,
}

impl std::fmt::Debug for LruSubRelCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = lock_recover(&self.inner);
        f.debug_struct("LruSubRelCache")
            .field("entries", &inner.map.len())
            .field("bytes", &inner.bytes)
            .field("closed", &inner.closed)
            .finish()
    }
}

impl LruSubRelCache {
    /// An empty cache whose entries are charged to `ledger`.
    pub fn new(ledger: Arc<ByteLedger>) -> LruSubRelCache {
        LruSubRelCache {
            inner: Mutex::new(LruInner {
                map: FxHashMap::default(),
                bytes: 0,
                tick: 0,
                closed: false,
            }),
            ledger,
        }
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

    /// Insert (or replace) `rel` under `key`; returns the shortfall.
    pub fn insert(&self, key: SubRelKey, rel: Arc<Relation>) -> usize {
        let bytes = rel.heap_bytes();
        self.put(key, Cached::Relation(rel), bytes)
    }

    /// Insert (or replace) `run` under `key`, charged
    /// `len × size_of::<(NodeId, NodeId)>()` bytes; returns the shortfall.
    pub fn insert_run(&self, key: SubRelKey, run: AnswerRun) -> usize {
        let bytes = run.len() * std::mem::size_of::<(NodeId, NodeId)>();
        self.put(key, Cached::Run(run), bytes)
    }

    fn put(&self, key: SubRelKey, value: Cached, bytes: usize) -> usize {
        // the fault site sits before the lock and the reservation inside
        // it: an injected panic models a worker dying at admission, never
        // a reservation without its entry
        gde_datagraph::faults::point(gde_datagraph::faults::FaultSite::CacheInsert);
        let mut inner = self.lock();
        if let Some(old) = inner.map.remove(&key) {
            inner.bytes -= old.bytes;
            self.ledger.release(old.bytes);
        }
        let budget = self.ledger.budget();
        let futile = budget != 0 && inner.bytes + budget.saturating_sub(self.ledger.used()) < bytes;
        if inner.closed || futile {
            return bytes;
        }
        let mut evicted = 0;
        while !self.ledger.try_reserve(bytes) {
            let Some((&victim, _)) = inner.map.iter().min_by_key(|(_, e)| e.last_used) else {
                return evicted + bytes;
            };
            let e = inner
                .map
                .remove(&victim)
                .expect("invariant: victim resident");
            inner.bytes -= e.bytes;
            self.ledger.release(e.bytes);
            evicted += e.bytes;
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(
            key,
            LruEntry {
                value,
                bytes,
                last_used: tick,
            },
        );
        inner.bytes += bytes;
        evicted
    }

    /// Drop every entry, give its bytes back to the ledger at once, and
    /// decline every later insert. The engine closes a prepared
    /// solution's cache when it releases the solution, so a serve still
    /// holding the solution can no longer charge anything.
    pub fn close(&self) {
        let mut inner = self.lock();
        inner.closed = true;
        inner.map.clear();
        self.ledger.release(std::mem::take(&mut inner.bytes));
    }

    /// Approximate heap bytes currently resident.
    pub fn bytes(&self) -> usize {
        self.lock().bytes
    }
}

/// A per-query view of an [`LruSubRelCache`]: the cache and the hit,
/// miss and shortfall counters the serving engine folds into its
/// `ServingStats`. Carried by [`crate::RowEvalShared`]; all
/// lookups/inserts of one query go through its handle so attribution is
/// per query even when many queries share one cache.
#[derive(Debug)]
pub struct CacheHandle {
    cache: Arc<LruSubRelCache>,
    hits: AtomicU64,
    misses: AtomicU64,
    shortfall: AtomicU64,
}

impl CacheHandle {
    /// A handle over `cache`.
    pub fn new(cache: Arc<LruSubRelCache>) -> CacheHandle {
        CacheHandle {
            cache,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            shortfall: AtomicU64::new(0),
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

    /// Insert, adding the insert's shortfall to this handle (the miss
    /// was already counted by the paired [`CacheHandle::lookup`]).
    pub fn insert(&self, key: SubRelKey, rel: Arc<Relation>) {
        let shortfall = self.cache.insert(key, rel) as u64;
        self.shortfall.fetch_add(shortfall, Ordering::Relaxed);
    }

    /// Insert a stripe's answer run, adding the insert's shortfall to
    /// this handle (the miss was already counted by the paired
    /// [`CacheHandle::lookup_run`]).
    pub fn insert_run(&self, key: SubRelKey, run: AnswerRun) {
        let shortfall = self.cache.insert_run(key, run) as u64;
        self.shortfall.fetch_add(shortfall, Ordering::Relaxed);
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

    /// Bytes this handle's inserts found no room for: what they evicted,
    /// plus what was declined (see [`LruSubRelCache`]).
    pub fn shortfall(&self) -> u64 {
        self.shortfall.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_ree;
    use gde_datagraph::Alphabet;
    use proptest::prelude::*;

    /// A ledger with this budget (`0` = unlimited).
    fn ledger(budget: usize) -> Arc<ByteLedger> {
        let ledger = ByteLedger::default();
        ledger.set_budget(budget);
        Arc::new(ledger)
    }

    /// A cache charged to a ledger of its own with this budget.
    fn cache(budget: usize) -> LruSubRelCache {
        LruSubRelCache::new(ledger(budget))
    }

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
        let cache = cache(0);
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
        let budget = 3 * per + per / 2;
        let ledger = ledger(budget);
        let cache = LruSubRelCache::new(ledger.clone());
        for i in 0..8u64 {
            cache.insert(SubRelKey::global(i as u128), one.clone());
            // touch the first entry so it stays hot
            cache.lookup(&SubRelKey::global(0));
        }
        assert!(cache.bytes() <= budget, "stays within budget");
        assert_eq!(ledger.used(), cache.bytes());
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
        let cache = cache(0);
        cache.insert(g, Arc::new(Relation::identity(4)));
        assert!(cache.lookup(&s).is_none());
    }

    fn run(len: u32) -> AnswerRun {
        (0..len).map(|i| (NodeId(i), NodeId(i + 1))).collect()
    }

    #[test]
    fn a_run_is_charged_eight_bytes_a_pair() {
        let cache = cache(0);
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
        let cache = cache(2 * per);
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
        let cache = cache(0);
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
        let ledger = ledger(per);
        let cache = LruSubRelCache::new(ledger.clone());
        assert_eq!(cache.insert(SubRelKey::global(1), rel.clone()), 0);
        // the run needs room: the relation is evicted for it
        assert_eq!(cache.insert_run(SubRelKey::stripe(0, 1), run(8)), per);
        assert_eq!((cache.len(), cache.bytes()), (1, 64));
        // an artifact bigger than the whole budget is declined at once:
        // evicting the resident run could not have made room for it
        let big = 8 * per;
        assert_eq!(
            cache.insert_run(SubRelKey::stripe(1, 1), run(per as u32)),
            big
        );
        assert_eq!((cache.len(), cache.bytes()), (1, 64));
        // closing drops every entry and gives its bytes back at once ...
        cache.close();
        assert!(cache.is_empty());
        assert_eq!((cache.bytes(), ledger.used()), (0, 0));
        // ... and declines every later insert, whatever room is left
        assert_eq!(cache.insert_run(SubRelKey::stripe(2, 1), run(4)), 32);
        assert!(cache.lookup_run(&SubRelKey::stripe(2, 1)).is_none());
        assert_eq!((cache.bytes(), ledger.used()), (0, 0));
    }

    #[test]
    fn caches_sharing_a_ledger_make_room_only_from_their_own_entries() {
        let rel = Arc::new(Relation::identity(64));
        let per = rel.heap_bytes();
        let ledger = ledger(2 * per);
        let (a, b) = (
            LruSubRelCache::new(ledger.clone()),
            LruSubRelCache::new(ledger.clone()),
        );
        assert_eq!(a.insert(SubRelKey::global(1), rel.clone()), 0);
        assert_eq!(b.insert(SubRelKey::global(1), rel.clone()), 0);
        assert_eq!(ledger.used(), 2 * per);
        // the ledger is full: `a` makes room by evicting its own entry,
        // never `b`'s
        assert_eq!(a.insert(SubRelKey::global(2), rel.clone()), per);
        assert!(a.lookup(&SubRelKey::global(1)).is_none());
        assert!(b.lookup(&SubRelKey::global(1)).is_some());
        // `b` closes: its bytes return, and `a` finds room without evicting
        b.close();
        assert_eq!(a.insert(SubRelKey::global(3), rel), 0);
        assert_eq!((a.len(), ledger.used()), (2, 2 * per));
        // a base charge may pass the budget; reservations then fail until
        // it is released
        ledger.charge(per);
        assert!(!ledger.try_reserve(1));
        ledger.release(per);
        assert!(ledger.try_reserve(0));
        assert_eq!(ledger.used(), 2 * per);
    }

    /// One random cache operation of the ledger property test.
    #[derive(Clone, Debug)]
    enum Op {
        /// Insert a relation of this many nodes under a global key.
        Insert(usize, u8, usize),
        /// Insert a run of this many pairs under a stripe key.
        InsertRun(usize, u8, u32),
        Lookup(usize, u8),
        Close(usize),
    }

    /// Inserts are drawn most often; a close ends a cache's life, so it
    /// is drawn least.
    fn op() -> impl Strategy<Value = Op> {
        let insert = || (0usize..3, 0u8..6, 1usize..48).prop_map(|(c, k, n)| Op::Insert(c, k, n));
        let run = || (0usize..3, 0u8..6, 0u32..400).prop_map(|(c, k, n)| Op::InsertRun(c, k, n));
        prop_oneof![
            insert(),
            insert(),
            insert(),
            run(),
            run(),
            run(),
            (0usize..3, 0u8..6).prop_map(|(c, k)| Op::Lookup(c, k)),
            (0usize..3, 0u8..6).prop_map(|(c, k)| Op::Lookup(c, k)),
            (0usize..3).prop_map(Op::Close),
        ]
    }

    /// The resident bytes under `key` in `cache`, of either kind.
    fn resident(cache: &LruSubRelCache, key: &SubRelKey) -> usize {
        let rel = cache.lookup(key).map_or(0, |r| r.heap_bytes());
        rel + cache.lookup_run(key).map_or(0, |r| r.len() * 8)
    }

    /// Run one insert of a `bytes`-byte artifact under `key` and check
    /// its reported shortfall: the bytes it evicted, plus its own bytes
    /// when it was declined. (Probing `key` first only refreshes the
    /// entry the insert replaces, so eviction order is unchanged.)
    fn checked_insert(
        cache: &LruSubRelCache,
        key: SubRelKey,
        bytes: usize,
        insert: impl FnOnce() -> usize,
    ) {
        let (before, old) = (cache.bytes(), resident(cache, &key));
        let shortfall = insert();
        let kept = cache.lookup(&key).is_some() || cache.lookup_run(&key).is_some();
        let kept_bytes = if kept { bytes } else { 0 };
        let evicted = before - old + kept_bytes - cache.bytes();
        assert_eq!(shortfall, evicted + bytes - kept_bytes, "{key:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Three caches share one budgeted ledger. After every operation
        /// the ledger holds exactly the caches' bytes and never more than
        /// its budget, and a closed cache stays empty.
        #[test]
        fn three_caches_share_one_ledger(
            budget in 1usize..6000,
            ops in prop::collection::vec(op(), 1..80),
        ) {
            let ledger = ledger(budget);
            let caches: Vec<LruSubRelCache> =
                (0..3).map(|_| LruSubRelCache::new(ledger.clone())).collect();
            let mut closed = [false; 3];
            for op in ops {
                match op {
                    Op::Insert(c, k, n) => {
                        let key = SubRelKey::global(k.into());
                        let rel = Arc::new(Relation::identity(n));
                        let bytes = rel.heap_bytes();
                        checked_insert(&caches[c], key, bytes, || caches[c].insert(key, rel));
                    }
                    Op::InsertRun(c, k, n) => {
                        let key = SubRelKey::stripe(0, k.into());
                        let bytes = 8 * n as usize;
                        checked_insert(&caches[c], key, bytes, || caches[c].insert_run(key, run(n)));
                    }
                    Op::Lookup(c, k) => {
                        caches[c].lookup(&SubRelKey::global(k.into()));
                        caches[c].lookup_run(&SubRelKey::stripe(0, k.into()));
                    }
                    Op::Close(c) => {
                        caches[c].close();
                        closed[c] = true;
                    }
                }
                let total: usize = caches.iter().map(LruSubRelCache::bytes).sum();
                prop_assert_eq!(ledger.used(), total);
                prop_assert!(ledger.used() <= budget);
                for (cache, &shut) in caches.iter().zip(&closed) {
                    if shut {
                        prop_assert_eq!((cache.len(), cache.bytes()), (0, 0));
                    }
                }
            }
        }
    }

    #[test]
    fn handle_counts_hits_and_misses() {
        let cache = Arc::new(cache(0));
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
