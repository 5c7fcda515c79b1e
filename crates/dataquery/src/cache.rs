//! The sub-relation cache: structural subplan keys, and a store for
//! evaluated sub-relations, served answers and Boolean verdicts bounded
//! by a shared byte ledger.
//!
//! Serving evaluates the same *sub-plans* over and over: the closure
//! bodies and non-head concatenation factors of an REE memo
//! ([`crate::ReeRowMemo`]) are identical across every call and — when
//! two queries in a batch share a factor — across queries; a
//! query's served answer (its sorted pairs, an [`AnswerRun`]) and its
//! Boolean verdict are identical across repeated calls on one snapshot.
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
//! * [`SubRelKey`] — `(kind, subplan hash, binding)`. The [`EntryKind`]
//!   keeps a phase-1 artifact, a whole tuple answer and a Boolean verdict
//!   of one query apart, so none of them replaces another. A key names an
//!   entry of *one* snapshot: the serving engine owns one cache per
//!   prepared solution and drops it with the solution, so a delta that
//!   changes the graph never meets an entry evaluated before it.
//! * [`ByteLedger`] — the one byte budget a serving engine shares with
//!   every cache it owns: each insert reserves its bytes there first.
//! * [`LruSubRelCache`] — the LRU store the serving engine owns per
//!   prepared solution, sharable across a batch's workers. Artifact keys hold
//!   relations, answer keys whole answers, verdict keys Booleans; all
//!   share one LRU order, every entry is charged [`ENTRY_OVERHEAD`] on top
//!   of its payload, and the ledger is the cache's only bound. A cached
//!   answer keeps the first text a server renders for it, charged to its
//!   entry ([`AnswerRun::text`]).
//! * [`CacheHandle`] — a per-query view pairing a cache with hit, miss
//!   and shortfall counters, carried by [`crate::RowEvalShared`].

use gde_datagraph::par::lock_recover;
use gde_datagraph::{FxHashMap, NodeId, Relation};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

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

/// What a [`SubRelKey`] names. One query can have an entry of each kind
/// under the same plan hash and binding — a conjunctive query's full
/// relation is its phase-1 artifact, and its tuple answer and verdict are
/// two more entries — so the kind is part of the key, and an insert of
/// one kind never replaces another.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EntryKind {
    /// A phase-1 artifact global to the snapshot: a closure, a tail
    /// factor, or the full relation of a conjunctive query.
    Artifact,
    /// A tuple serve's whole sorted answer, an [`AnswerRun`].
    Answer,
    /// A Boolean serve's verdict.
    Verdict,
}

/// The cache key of one entry: `(kind, subplan hash, binding)`, within
/// one cache that serves one snapshot.
///
/// * `kind` says which [`EntryKind`] the entry is.
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
    /// What the entry is.
    pub kind: EntryKind,
    /// Structural hash of the sub-plan ([`subplan_hash`]).
    pub hash: u128,
    /// Binding discriminant: `0` for unparameterised artifacts, else the
    /// binding-vector hash of a template-bound query.
    pub binding: u64,
}

impl SubRelKey {
    /// Key for a phase-1 artifact (closure, tail factor, full relation of
    /// a non-decomposing query).
    pub fn artifact(hash: u128) -> SubRelKey {
        SubRelKey::of(EntryKind::Artifact, hash)
    }

    /// Key for a query's whole tuple answer.
    pub fn answer(hash: u128) -> SubRelKey {
        SubRelKey::of(EntryKind::Answer, hash)
    }

    /// Key for a query's Boolean verdict.
    pub fn verdict(hash: u128) -> SubRelKey {
        SubRelKey::of(EntryKind::Verdict, hash)
    }

    fn of(kind: EntryKind, hash: u128) -> SubRelKey {
        SubRelKey {
            kind,
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
}

/// A query's served tuple answer: its pairs over `dom(M, G_s)` as node
/// ids, sorted ascending and duplicate-free, and one slot for the text a
/// server sends for them. Shared, so a cache hit is an `Arc` clone, the
/// serving engine hands the cached answer out as is, and every clone sees
/// the text once it is kept. It dereferences to its pairs; equality
/// compares the pairs alone.
///
/// An answer built from pairs in process ([`AnswerRun::from`]) belongs to
/// no cache entry and keeps no text. An answer the serving engine caches
/// is built with its entry ([`CacheHandle::insert_answer`]), and
/// [`AnswerRun::text`] keeps the first text rendered for it, charged to
/// that entry.
#[derive(Clone)]
pub struct AnswerRun(Arc<Run>);

struct Run {
    pairs: Box<[(NodeId, NodeId)]>,
    /// The cache and key of the entry this answer was built for; `None`
    /// for an answer built in process.
    entry: Option<(Weak<LruSubRelCache>, SubRelKey)>,
    /// The kept text, set at most once, under the entry's cache lock.
    text: OnceLock<Arc<String>>,
}

impl AnswerRun {
    fn new(
        pairs: Vec<(NodeId, NodeId)>,
        entry: Option<(Weak<LruSubRelCache>, SubRelKey)>,
    ) -> AnswerRun {
        AnswerRun(Arc::new(Run {
            pairs: pairs.into_boxed_slice(),
            entry,
            text: OnceLock::new(),
        }))
    }

    /// The text of this answer: the kept text, or else `render(pairs)`.
    ///
    /// An answer built with its cache entry keeps the first text it
    /// renders, charged to that entry on the cache's ledger, if the entry
    /// still holds this answer and the ledger has room for the text
    /// without evicting anything. Every later call, on any clone, returns
    /// the kept text without rendering, and the text is given back with
    /// its entry (eviction, replacement, or the cache's close). Two
    /// threads rendering at once keep one text, charged once. Any other
    /// answer keeps nothing, and every call renders.
    pub fn text(&self, render: impl FnOnce(&[(NodeId, NodeId)]) -> String) -> Arc<String> {
        if let Some(kept) = self.0.text.get() {
            return kept.clone();
        }
        let text = Arc::new(render(&self.0.pairs));
        match &self.0.entry {
            Some((cache, key)) => match cache.upgrade() {
                Some(cache) => cache.keep_text(key, self, text),
                None => text,
            },
            None => text,
        }
    }
}

impl std::ops::Deref for AnswerRun {
    type Target = [(NodeId, NodeId)];

    fn deref(&self) -> &[(NodeId, NodeId)] {
        &self.0.pairs
    }
}

impl PartialEq for AnswerRun {
    fn eq(&self, other: &AnswerRun) -> bool {
        self.0.pairs == other.0.pairs
    }
}

impl Eq for AnswerRun {}

impl std::fmt::Debug for AnswerRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.pairs.fmt(f)
    }
}

impl From<Vec<(NodeId, NodeId)>> for AnswerRun {
    /// An answer of `pairs` that belongs to no cache entry.
    fn from(pairs: Vec<(NodeId, NodeId)>) -> AnswerRun {
        AnswerRun::new(pairs, None)
    }
}

/// What one cache entry holds.
enum Cached {
    /// A phase-1 artifact (closure, tail factor, full conjunctive
    /// relation).
    Relation(Arc<Relation>),
    /// A query's whole tuple answer.
    Answer(AnswerRun),
    /// A query's Boolean verdict.
    Verdict(bool),
}

/// The bytes every entry is charged on top of its payload: its key and
/// its slot in the LRU map, and the header of the `Arc` a payload sits
/// behind. Without it an empty answer or a verdict would weigh nothing,
/// and distinct ones would pile up entries the ledger never sees.
pub const ENTRY_OVERHEAD: usize = std::mem::size_of::<SubRelKey>()
    + std::mem::size_of::<LruEntry>()
    + 2 * std::mem::size_of::<AtomicUsize>();

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
/// solution. Lookup and insert are sharable across threads (the workers
/// of one batch hit the cache concurrently). An entry is an immutable
/// `Arc<Relation>`, [`AnswerRun`] or verdict, so a hit is an `Arc` clone
/// (or a copied `bool`), never a copy of the data; a lookup of one kind
/// never returns another. Every entry is charged [`ENTRY_OVERHEAD`] plus
/// its payload: a relation its [`Relation::heap_bytes`], an answer its
/// pairs' bytes, a verdict nothing more. An answer's text, once
/// [`AnswerRun::text`] keeps it, is charged to the answer's entry on top:
/// only while the entry holds that answer, only if the ledger has room
/// without evicting, and given back with the entry.
///
/// All kinds share one LRU order, and the cache's only bound is its
/// [`ByteLedger`]. An insert reserves its bytes there under the cache
/// lock, so the cache's bytes and the ledger move together. While the
/// ledger is full, the insert evicts this cache's own least recently used
/// entries, of any kind. When even that cannot make room, the insert is
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
            _ => None,
        })
    }

    /// The cached tuple answer under `key`, if resident.
    pub fn lookup_answer(&self, key: &SubRelKey) -> Option<AnswerRun> {
        self.get(key, |c| match c {
            Cached::Answer(answer) => Some(answer.clone()),
            _ => None,
        })
    }

    /// The cached Boolean verdict under `key`, if resident.
    pub fn lookup_verdict(&self, key: &SubRelKey) -> Option<bool> {
        self.get(key, |c| match c {
            Cached::Verdict(holds) => Some(*holds),
            _ => None,
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

    /// Insert (or replace) `rel` under `key`, charged
    /// [`ENTRY_OVERHEAD`] plus its heap bytes; returns the shortfall.
    pub fn insert(&self, key: SubRelKey, rel: Arc<Relation>) -> usize {
        let bytes = rel.heap_bytes();
        self.put(key, Cached::Relation(rel), bytes)
    }

    /// Insert (or replace) the tuple answer of `pairs` under `key`,
    /// charged [`ENTRY_OVERHEAD`] plus `len × size_of::<(NodeId,
    /// NodeId)>()` bytes. Returns the answer, built with this entry so
    /// that it can keep its text here ([`AnswerRun::text`]), and the
    /// shortfall.
    pub fn insert_answer(
        self: &Arc<Self>,
        key: SubRelKey,
        pairs: Vec<(NodeId, NodeId)>,
    ) -> (AnswerRun, usize) {
        let answer = AnswerRun::new(pairs, Some((Arc::downgrade(self), key)));
        let bytes = std::mem::size_of_val(&*answer);
        let shortfall = self.put(key, Cached::Answer(answer.clone()), bytes);
        (answer, shortfall)
    }

    /// Keep `text` as `answer`'s text, charged to the entry under `key`,
    /// if that entry still holds `answer` and the ledger has room for the
    /// text without evicting anything. Returns the text `answer` keeps,
    /// or `text` when nothing is kept. The check, the charge and the keep
    /// all happen under the cache lock, so the entry's bytes, the cache's
    /// and the ledger's move together, and a text racing another
    /// thread's for the same answer finds that one kept.
    fn keep_text(&self, key: &SubRelKey, answer: &AnswerRun, text: Arc<String>) -> Arc<String> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        if let Some(kept) = answer.0.text.get() {
            return kept.clone();
        }
        let Some(e) = inner.map.get_mut(key) else {
            return text;
        };
        let holds = matches!(&e.value, Cached::Answer(held) if Arc::ptr_eq(&held.0, &answer.0));
        if !holds || !self.ledger.try_reserve(text.len()) {
            return text;
        }
        e.bytes += text.len();
        inner.bytes += text.len();
        answer.0.text.get_or_init(|| text).clone()
    }

    /// Insert (or replace) a Boolean verdict under `key`, charged
    /// [`ENTRY_OVERHEAD`]; returns the shortfall.
    pub fn insert_verdict(&self, key: SubRelKey, holds: bool) -> usize {
        self.put(key, Cached::Verdict(holds), 0)
    }

    /// Insert `value`, whose payload weighs `payload` bytes, charging it
    /// that plus [`ENTRY_OVERHEAD`].
    fn put(&self, key: SubRelKey, value: Cached, payload: usize) -> usize {
        let bytes = payload + ENTRY_OVERHEAD;
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

    /// Counted lookup of a query's tuple answer.
    pub fn lookup_answer(&self, key: &SubRelKey) -> Option<AnswerRun> {
        self.count(self.cache.lookup_answer(key))
    }

    /// Counted lookup of a query's Boolean verdict.
    pub fn lookup_verdict(&self, key: &SubRelKey) -> Option<bool> {
        self.count(self.cache.lookup_verdict(key))
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
        self.add_shortfall(self.cache.insert(key, rel));
    }

    /// Insert the tuple answer of `pairs`, adding the insert's shortfall
    /// to this handle. Returns the answer, built with its entry (see
    /// [`LruSubRelCache::insert_answer`]).
    pub fn insert_answer(&self, key: SubRelKey, pairs: Vec<(NodeId, NodeId)>) -> AnswerRun {
        let (answer, shortfall) = self.cache.insert_answer(key, pairs);
        self.add_shortfall(shortfall);
        answer
    }

    /// Insert a query's Boolean verdict, adding the insert's shortfall to
    /// this handle.
    pub fn insert_verdict(&self, key: SubRelKey, holds: bool) {
        self.add_shortfall(self.cache.insert_verdict(key, holds));
    }

    fn add_shortfall(&self, bytes: usize) {
        self.shortfall.fetch_add(bytes as u64, Ordering::Relaxed);
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
    fn cache(budget: usize) -> Arc<LruSubRelCache> {
        Arc::new(LruSubRelCache::new(ledger(budget)))
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
        let k0 = SubRelKey::artifact(42);
        let k1 = SubRelKey::artifact(43);
        assert!(cache.lookup(&k0).is_none());
        cache.insert(k0, Arc::new(Relation::identity(8)));
        cache.insert(k1, Arc::new(Relation::identity(8)));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&k0).is_some());
        assert!(cache.bytes() > 0);
        // a different subplan hash is a different key entirely
        assert!(cache.lookup(&SubRelKey::artifact(44)).is_none());
    }

    #[test]
    fn lru_cache_enforces_byte_budget() {
        let one = Arc::new(Relation::identity(64));
        let per = one.heap_bytes() + ENTRY_OVERHEAD;
        assert!(per > ENTRY_OVERHEAD);
        // room for about three entries
        let budget = 3 * per + per / 2;
        let ledger = ledger(budget);
        let cache = LruSubRelCache::new(ledger.clone());
        for i in 0..8u64 {
            cache.insert(SubRelKey::artifact(i as u128), one.clone());
            // touch the first entry so it stays hot
            cache.lookup(&SubRelKey::artifact(0));
        }
        assert!(cache.bytes() <= budget, "stays within budget");
        assert_eq!(ledger.used(), cache.bytes());
        assert!(cache.len() < 8, "something was evicted");
        assert!(
            cache.lookup(&SubRelKey::artifact(0)).is_some(),
            "hot entry survives LRU pressure"
        );
        assert!(
            cache.lookup(&SubRelKey::artifact(1)).is_none(),
            "cold entry evicted"
        );
    }

    /// A conjunctive query's full relation, its tuple answer and its
    /// verdict share one plan hash and binding: each kind is its own
    /// entry, and inserting one never replaces another.
    #[test]
    fn artifact_answer_and_verdict_keys_do_not_alias() {
        let (a, t, v) = (
            SubRelKey::artifact(7).with_binding(3),
            SubRelKey::answer(7).with_binding(3),
            SubRelKey::verdict(7).with_binding(3),
        );
        assert!(a != t && t != v && a != v);
        let cache = cache(0);
        cache.insert(a, Arc::new(Relation::identity(4)));
        cache.insert_answer(t, run(0));
        cache.insert_verdict(v, true);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.lookup(&a).map(|r| r.len()), Some(4));
        assert_eq!(cache.lookup_answer(&t).map(|r| r.len()), Some(0));
        assert_eq!(cache.lookup_verdict(&v), Some(true));
        // an empty answer and a `true` verdict are different facts
        assert!(cache.lookup_verdict(&t).is_none());
        assert!(cache.lookup_answer(&v).is_none());
    }

    fn run(len: u32) -> Vec<(NodeId, NodeId)> {
        (0..len).map(|i| (NodeId(i), NodeId(i + 1))).collect()
    }

    #[test]
    fn an_answer_is_charged_eight_bytes_a_pair_plus_the_entry() {
        let cache = cache(0);
        cache.insert_answer(SubRelKey::answer(1), run(100));
        assert_eq!(cache.bytes(), 800 + ENTRY_OVERHEAD);
        cache.insert_answer(SubRelKey::answer(2), run(0));
        assert_eq!(
            cache.bytes(),
            800 + 2 * ENTRY_OVERHEAD,
            "an empty answer weighs its entry"
        );
        cache.insert_verdict(SubRelKey::verdict(1), false);
        assert_eq!(cache.bytes(), 800 + 3 * ENTRY_OVERHEAD, "so does a verdict");
        // a refresh replaces the charge rather than adding to it
        cache.insert_answer(SubRelKey::answer(1), run(10));
        assert_eq!(cache.bytes(), 80 + 3 * ENTRY_OVERHEAD);
        assert_eq!(cache.len(), 3);
    }

    /// Distinct empty answers are what a wire client can send without
    /// limit: at a budget of `n` entries, `2n` of them leave at most `n`
    /// resident and the ledger within its budget.
    #[test]
    fn distinct_empty_answers_cannot_outgrow_the_budget() {
        let n = 16;
        let budget = n * ENTRY_OVERHEAD;
        let ledger = ledger(budget);
        let cache = Arc::new(LruSubRelCache::new(ledger.clone()));
        for i in 0..2 * n {
            cache.insert_answer(SubRelKey::answer(i as u128), run(0));
            assert!(ledger.used() <= budget, "insert {i}");
        }
        assert!(cache.len() <= n, "{} entries", cache.len());
        assert_eq!(ledger.used(), cache.bytes());
        // the same holds for verdicts
        for i in 0..2 * n {
            cache.insert_verdict(SubRelKey::verdict(i as u128), i % 2 == 0);
        }
        assert!(cache.len() <= n && ledger.used() <= budget);
    }

    #[test]
    fn answers_and_relations_share_one_lru_budget() {
        let rel = Arc::new(Relation::identity(64));
        let per = rel.heap_bytes();
        // an answer of the same weight as the relation
        let pairs = (per / 8) as u32;
        assert_eq!(run(pairs).len() * 8, per);
        let cache = cache(2 * (per + ENTRY_OVERHEAD));
        let (g, s) = (SubRelKey::artifact(1), SubRelKey::answer(2));
        cache.insert(g, rel.clone());
        cache.insert_answer(s, run(pairs));
        assert_eq!(cache.bytes(), 2 * (per + ENTRY_OVERHEAD));
        // an answer past the budget evicts the least recently used relation
        cache.insert_answer(SubRelKey::answer(3), run(pairs));
        assert!(cache.lookup(&g).is_none(), "the cold relation went first");
        // reading the older answer leaves the newer one least recently
        // used, so a relation past the budget evicts that answer
        assert!(cache.lookup_answer(&s).is_some());
        cache.insert(g, rel);
        assert!(cache.lookup_answer(&SubRelKey::answer(3)).is_none());
        assert!(cache.lookup_answer(&s).is_some());
        assert!(cache.lookup(&g).is_some());
        assert_eq!(cache.bytes(), 2 * (per + ENTRY_OVERHEAD));
    }

    #[test]
    fn lookups_never_return_the_other_kind() {
        let cache = cache(0);
        let (rk, sk) = (SubRelKey::artifact(5), SubRelKey::answer(5));
        cache.insert(rk, Arc::new(Relation::identity(4)));
        cache.insert_answer(sk, run(3));
        assert!(cache.lookup_answer(&rk).is_none());
        assert!(cache.lookup(&sk).is_none());
        assert_eq!(cache.lookup(&rk).map(|r| r.len()), Some(4));
        assert_eq!(cache.lookup_answer(&sk).map(|r| r.len()), Some(3));
        // the counted view agrees, and counts a wrong-kind probe as a miss
        let h = CacheHandle::new(cache);
        assert!(h.lookup_answer(&rk).is_none());
        assert!(h.lookup_answer(&sk).is_some());
        assert_eq!((h.hits(), h.misses()), (1, 1));
    }

    #[test]
    fn bytes_return_to_zero_once_everything_is_evicted() {
        let rel = Arc::new(Relation::identity(64));
        let per = rel.heap_bytes() + ENTRY_OVERHEAD;
        let ledger = ledger(per);
        let cache = Arc::new(LruSubRelCache::new(ledger.clone()));
        assert_eq!(cache.insert(SubRelKey::artifact(1), rel.clone()), 0);
        // the answer needs room: the relation is evicted for it
        assert_eq!(cache.insert_answer(SubRelKey::answer(1), run(8)).1, per);
        let small = 64 + ENTRY_OVERHEAD;
        assert_eq!((cache.len(), cache.bytes()), (1, small));
        // an artifact bigger than the whole budget is declined at once:
        // evicting the resident answer could not have made room for it
        let big = 8 * per + ENTRY_OVERHEAD;
        assert_eq!(
            cache.insert_answer(SubRelKey::answer(2), run(per as u32)).1,
            big
        );
        assert_eq!((cache.len(), cache.bytes()), (1, small));
        // closing drops every entry and gives its bytes back at once ...
        cache.close();
        assert!(cache.is_empty());
        assert_eq!((cache.bytes(), ledger.used()), (0, 0));
        // ... and declines every later insert, whatever room is left
        assert_eq!(
            cache.insert_answer(SubRelKey::answer(3), run(4)).1,
            32 + ENTRY_OVERHEAD
        );
        assert!(cache.lookup_answer(&SubRelKey::answer(3)).is_none());
        assert_eq!((cache.bytes(), ledger.used()), (0, 0));
    }

    #[test]
    fn caches_sharing_a_ledger_make_room_only_from_their_own_entries() {
        let rel = Arc::new(Relation::identity(64));
        let per = rel.heap_bytes() + ENTRY_OVERHEAD;
        let ledger = ledger(2 * per);
        let (a, b) = (
            LruSubRelCache::new(ledger.clone()),
            LruSubRelCache::new(ledger.clone()),
        );
        assert_eq!(a.insert(SubRelKey::artifact(1), rel.clone()), 0);
        assert_eq!(b.insert(SubRelKey::artifact(1), rel.clone()), 0);
        assert_eq!(ledger.used(), 2 * per);
        // the ledger is full: `a` makes room by evicting its own entry,
        // never `b`'s
        assert_eq!(a.insert(SubRelKey::artifact(2), rel.clone()), per);
        assert!(a.lookup(&SubRelKey::artifact(1)).is_none());
        assert!(b.lookup(&SubRelKey::artifact(1)).is_some());
        // `b` closes: its bytes return, and `a` finds room without evicting
        b.close();
        assert_eq!(a.insert(SubRelKey::artifact(3), rel), 0);
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
        /// Insert a relation of this many nodes under an artifact key.
        Insert(usize, u8, usize),
        /// Insert an answer of this many pairs under an answer key.
        InsertAnswer(usize, u8, u32),
        /// Insert a verdict under a verdict key.
        InsertVerdict(usize, u8, bool),
        /// Render a text of this many bytes for one of the answers
        /// inserted so far, resident, replaced or evicted.
        Text(usize, usize),
        Lookup(usize, u8),
        Close(usize),
    }

    /// Inserts are drawn most often; a close ends a cache's life, so it
    /// is drawn least.
    fn op() -> impl Strategy<Value = Op> {
        let insert = || (0usize..3, 0u8..6, 1usize..48).prop_map(|(c, k, n)| Op::Insert(c, k, n));
        let answer =
            || (0usize..3, 0u8..6, 0u32..400).prop_map(|(c, k, n)| Op::InsertAnswer(c, k, n));
        let verdict =
            (0usize..3, 0u8..6, any::<bool>()).prop_map(|(c, k, b)| Op::InsertVerdict(c, k, b));
        prop_oneof![
            insert(),
            insert(),
            insert(),
            answer(),
            answer(),
            answer(),
            verdict,
            (0usize..64, 0usize..600).prop_map(|(i, len)| Op::Text(i, len)),
            (0usize..64, 0usize..600).prop_map(|(i, len)| Op::Text(i, len)),
            (0usize..3, 0u8..6).prop_map(|(c, k)| Op::Lookup(c, k)),
            (0usize..3, 0u8..6).prop_map(|(c, k)| Op::Lookup(c, k)),
            (0usize..3).prop_map(Op::Close),
        ]
    }

    /// The bytes of `answer`'s kept text (0 when none is kept).
    fn kept(answer: &AnswerRun) -> usize {
        answer.0.text.get().map_or(0, |t| t.len())
    }

    /// The resident bytes under `key` in `cache`, of any kind.
    fn resident(cache: &LruSubRelCache, key: &SubRelKey) -> usize {
        let rel = cache.lookup(key).map(|r| r.heap_bytes());
        let answer = cache.lookup_answer(key).map(|r| r.len() * 8 + kept(&r));
        let verdict = cache.lookup_verdict(key).map(|_| 0);
        rel.or(answer)
            .or(verdict)
            .map_or(0, |payload| payload + ENTRY_OVERHEAD)
    }

    /// Run one insert of a `payload`-byte artifact under `key` and check
    /// its reported shortfall: the bytes it evicted, plus its own bytes
    /// when it was declined. (Probing `key` first only refreshes the
    /// entry the insert replaces, so eviction order is unchanged.)
    fn checked_insert(
        cache: &LruSubRelCache,
        key: SubRelKey,
        payload: usize,
        insert: impl FnOnce() -> usize,
    ) {
        let bytes = payload + ENTRY_OVERHEAD;
        let (before, old) = (cache.bytes(), resident(cache, &key));
        let shortfall = insert();
        let kept_bytes = resident(cache, &key);
        assert!(kept_bytes == 0 || kept_bytes == bytes, "{key:?}");
        let evicted = before - old + kept_bytes - cache.bytes();
        assert_eq!(shortfall, evicted + bytes - kept_bytes, "{key:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Three caches share one budgeted ledger. After every operation
        /// the ledger holds exactly the caches' bytes, kept texts
        /// included, and never more than its budget, and a closed cache
        /// stays empty.
        #[test]
        fn three_caches_share_one_ledger(
            budget in 1usize..6000,
            ops in prop::collection::vec(op(), 1..80),
        ) {
            let ledger = ledger(budget);
            let caches: Vec<Arc<LruSubRelCache>> =
                (0..3).map(|_| Arc::new(LruSubRelCache::new(ledger.clone()))).collect();
            let mut closed = [false; 3];
            let mut answers: Vec<AnswerRun> = Vec::new();
            for op in ops {
                match op {
                    Op::Insert(c, k, n) => {
                        let key = SubRelKey::artifact(k.into());
                        let rel = Arc::new(Relation::identity(n));
                        let bytes = rel.heap_bytes();
                        checked_insert(&caches[c], key, bytes, || caches[c].insert(key, rel));
                    }
                    Op::InsertAnswer(c, k, n) => {
                        let key = SubRelKey::answer(k.into());
                        let bytes = 8 * n as usize;
                        checked_insert(&caches[c], key, bytes, || {
                            let (answer, shortfall) = caches[c].insert_answer(key, run(n));
                            answers.push(answer);
                            shortfall
                        });
                    }
                    Op::Text(i, len) if !answers.is_empty() => {
                        let answer = &answers[i % answers.len()];
                        let before = kept(answer);
                        let text = answer.text(|_| "x".repeat(len));
                        prop_assert!(before == 0 || before == text.len());
                        prop_assert!(kept(answer) == 0 || kept(answer) == text.len());
                    }
                    Op::Text(..) => {}
                    Op::InsertVerdict(c, k, holds) => {
                        let key = SubRelKey::verdict(k.into());
                        checked_insert(&caches[c], key, 0, || {
                            caches[c].insert_verdict(key, holds)
                        });
                    }
                    Op::Lookup(c, k) => {
                        caches[c].lookup(&SubRelKey::artifact(k.into()));
                        caches[c].lookup_answer(&SubRelKey::answer(k.into()));
                        caches[c].lookup_verdict(&SubRelKey::verdict(k.into()));
                    }
                    Op::Close(c) => {
                        caches[c].close();
                        closed[c] = true;
                    }
                }
                let total: usize = caches.iter().map(|c| c.bytes()).sum();
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

    /// The text a renderer writes for `pairs`, counting its calls.
    fn render<'a>(calls: &'a AtomicUsize) -> impl Fn(&[(NodeId, NodeId)]) -> String + 'a {
        move |pairs| {
            calls.fetch_add(1, Ordering::Relaxed);
            format!("{pairs:?}")
        }
    }

    #[test]
    fn keeping_a_text_charges_its_entry_by_exactly_its_length() {
        let ledger = ledger(0);
        let cache = Arc::new(LruSubRelCache::new(ledger.clone()));
        let key = SubRelKey::answer(1);
        let (answer, _) = cache.insert_answer(key, run(5));
        let before = cache.bytes();
        assert_eq!(before, 40 + ENTRY_OVERHEAD);
        let calls = AtomicUsize::new(0);
        let text = answer.text(render(&calls));
        assert_eq!(text.as_str(), format!("{:?}", run(5)));
        assert_eq!(cache.bytes(), before + text.len());
        assert_eq!(ledger.used(), cache.bytes());
        assert_eq!(resident(&cache, &key), cache.bytes());
        // every later call, on any clone, hands out the kept text: the
        // hit the engine serves is the same answer
        let hit = cache.lookup_answer(&key).expect("resident");
        for kept in [answer.text(render(&calls)), hit.text(render(&calls))] {
            assert!(Arc::ptr_eq(&kept, &text));
        }
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(cache.bytes(), before + text.len());
    }

    #[test]
    fn a_kept_text_goes_back_with_its_entry() {
        let other = SubRelKey::artifact(9);
        let rel = Arc::new(Relation::identity(8));
        let per = rel.heap_bytes() + ENTRY_OVERHEAD;
        let calls = AtomicUsize::new(0);
        let keep = |cache: &Arc<LruSubRelCache>, key| {
            let (answer, _) = cache.insert_answer(key, run(4));
            answer.text(render(&calls)).len()
        };
        // replaced: a new answer under the key takes the old one's place
        // and charge, text included
        let ledger = ledger(0);
        let cache = Arc::new(LruSubRelCache::new(ledger.clone()));
        cache.insert(other, rel.clone());
        let key = SubRelKey::answer(1);
        assert!(keep(&cache, key) > 0);
        cache.insert_answer(key, run(4));
        assert_eq!(ledger.used(), per + 32 + ENTRY_OVERHEAD);
        // closed: every byte returns
        assert!(keep(&cache, SubRelKey::answer(2)) > 0);
        cache.close();
        assert_eq!(ledger.used(), 0);
        // evicted: a relation that needs the room takes it, text and all,
        // and the ledger is back where it stood before the answer came
        let text = format!("{:?}", run(4)).len();
        let ledger = self::ledger(per + 32 + ENTRY_OVERHEAD + text);
        let cache = Arc::new(LruSubRelCache::new(ledger.clone()));
        cache.insert(other, rel.clone());
        assert_eq!(keep(&cache, key), text);
        assert_eq!(ledger.used(), ledger.budget());
        // reading the relation leaves the answer least recently used
        assert!(cache.lookup(&other).is_some());
        assert_eq!(
            cache.insert(SubRelKey::artifact(10), rel),
            32 + ENTRY_OVERHEAD + text
        );
        assert!(cache.lookup_answer(&key).is_none());
        assert_eq!(ledger.used(), 2 * per);
    }

    #[test]
    fn an_answer_outside_its_entry_keeps_nothing() {
        let calls = AtomicUsize::new(0);
        let check = |answer: &AnswerRun, cache: &LruSubRelCache| {
            let before = (cache.bytes(), calls.load(Ordering::Relaxed));
            let (first, second) = (answer.text(render(&calls)), answer.text(render(&calls)));
            assert_eq!(first, second);
            assert!(!Arc::ptr_eq(&first, &second), "nothing is kept");
            assert_eq!(cache.bytes(), before.0, "nothing is charged");
            assert_eq!(calls.load(Ordering::Relaxed), before.1 + 2);
        };
        let cache = cache(0);
        let key = SubRelKey::answer(1);
        // replaced before its first encode
        let (replaced, _) = cache.insert_answer(key, run(3));
        let (current, _) = cache.insert_answer(key, run(3));
        check(&replaced, &cache);
        // evicted before its first encode
        let (evicted, _) = cache.insert_answer(SubRelKey::answer(2), run(3));
        cache.insert(SubRelKey::answer(2), Arc::new(Relation::identity(2)));
        check(&evicted, &cache);
        // built in process
        check(&AnswerRun::from(run(3)), &cache);
        // the cache is gone
        let orphan = {
            let gone = self::cache(0);
            gone.insert_answer(key, run(3)).0
        };
        check(&orphan, &cache);
        // declined at insert: its cache was closed
        current.text(render(&calls));
        cache.close();
        let (declined, shortfall) = cache.insert_answer(key, run(3));
        assert_eq!(shortfall, 24 + ENTRY_OVERHEAD);
        check(&declined, &cache);
    }

    #[test]
    fn a_text_without_ledger_room_keeps_nothing_and_evicts_nothing() {
        let rel = Arc::new(Relation::identity(8));
        let per = rel.heap_bytes() + ENTRY_OVERHEAD;
        let text = format!("{:?}", run(4)).len();
        // room for the relation and the answer's pairs, one byte short of
        // its text
        let ledger = ledger(per + 32 + ENTRY_OVERHEAD + text - 1);
        let cache = Arc::new(LruSubRelCache::new(ledger.clone()));
        cache.insert(SubRelKey::artifact(1), rel);
        let (answer, shortfall) = cache.insert_answer(SubRelKey::answer(1), run(4));
        assert_eq!(shortfall, 0);
        let used = ledger.used();
        let calls = AtomicUsize::new(0);
        for _ in 0..3 {
            assert_eq!(answer.text(render(&calls)).len(), text);
            assert_eq!(ledger.used(), used);
            assert!(ledger.used() <= ledger.budget());
        }
        assert_eq!(calls.load(Ordering::Relaxed), 3, "rendered on every call");
        assert_eq!(cache.len(), 2, "nothing was evicted");
    }

    #[test]
    fn two_threads_rendering_one_answer_keep_one_text_charged_once() {
        let cache = cache(0);
        let (answer, _) = cache.insert_answer(SubRelKey::answer(1), run(50));
        let before = cache.bytes();
        // both threads render before either keeps
        let both_rendering = std::sync::Barrier::new(2);
        let texts: Vec<Arc<String>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        answer.text(|pairs| {
                            both_rendering.wait();
                            format!("{pairs:?}")
                        })
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("renderer"))
                .collect()
        });
        assert!(Arc::ptr_eq(&texts[0], &texts[1]), "one text is kept");
        assert_eq!(cache.bytes(), before + texts[0].len(), "charged once");
    }

    #[test]
    fn handle_counts_hits_and_misses() {
        let cache = cache(0);
        let h = CacheHandle::new(cache.clone());
        let key = SubRelKey::artifact(99);
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
