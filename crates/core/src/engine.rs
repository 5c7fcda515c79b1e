//! The owned serving engine: [`MappingService`].
//!
//! The paper's tractability results (Theorems 3–5) share one shape: build a
//! canonical solution for `(M, G_s)` **once**, then answer every
//! (hom-closed) query by direct evaluation on it. The service packages that
//! recipe as a long-lived, multi-tenant engine. Its lifecycle:
//!
//! ```text
//! register ─► prepare ─► answer ─► apply_delta ─► (evict) ─► answer …
//! ```
//!
//! * **register** — [`MappingService::register`] takes ownership of a
//!   mapping and its source graph as `Arc<Gsm>` + `Arc<DataGraph>` and
//!   returns a [`MappingId`]. Registration does no work; graphs are shared,
//!   not copied.
//! * **prepare** — on first use per `(mapping, flavour)`, the canonical
//!   solution ([`universal_solution`] for the `2ⁿ`/exact engines,
//!   [`least_informative_solution`] for the `2` REM=/REE= engine) is built
//!   and frozen into a [`PreparedSolution`] (solution + [`GraphSnapshot`],
//!   whose rows are the dom nodes in id order followed by the invented
//!   ones). [`MappingService::prepare`] warms it eagerly;
//!   [`MappingService::answer`] warms it lazily.
//! * **answer** — [`MappingService::answer`]`(id, q, sem)`: [`Semantics`]
//!   picks the engine (`Nulls`, `LeastInformative`, `Exact`), [`Mode`]
//!   picks tuple vs Boolean answers, and [`Answer`] carries the result.
//!   The service is `Send + Sync`; scoped threads can call `answer`
//!   concurrently, and [`MappingService::answer_batch`] fans a query batch
//!   out over [`gde_datagraph::par`] workers itself.
//! * **one serve path** — `answer`, `answer_bound` and `answer_batch` (and
//!   their `_with` forms) all enter one private function: a single answer
//!   is a batch of one. Each query passes the same door (template and
//!   arity, fragment, an already-fired control, canonicalisation routing,
//!   the statically-empty verdict), the admitted queries are evaluated
//!   inside one panic → quarantine → retry-once loop. Each query's whole
//!   answer (or Boolean verdict) is looked up in the solution's cache on
//!   the calling thread first, and only the misses reach the one
//!   `(query, stripe)` scheduler; the exact enumeration enters the same
//!   door and loop, is never cached, and runs as one task per query.
//! * **shard** — every prepared solution splits evaluation into
//!   node-range stripes under an out-degree-balanced [`ShardPlan`]. A
//!   stripe is a row range of the solution's one snapshot, not a copy:
//!   preparing at any K builds nothing per stripe, and a mapping without
//!   sharding is a one-stripe plan that caches like any other K.
//!   [`MappingService::set_shard_count`] takes a fixed count or
//!   [`ShardSpec::Auto`], which picks K from the graph size, the thread
//!   budget, and the observed [`ServingStats`]. A missed tuple answer
//!   evaluates per stripe on [`gde_datagraph::par`] workers into sorted
//!   runs; the runs are disjoint and ascend with the stripes, so the
//!   answer is their concatenation, which the solution's sub-relation
//!   cache keeps whole for repeat serves. A missed Boolean ORs across
//!   stripes with a short-circuit, and its verdict is kept the same way.
//!   Answers are byte-identical at every K, `Auto` included.
//! * **apply_delta** — [`MappingService::apply_delta`] mutates the owned
//!   source graph (copy-on-write behind the shared `Arc`) and bumps the
//!   mapping's generation stamp. A delta whose net effect no rule can see
//!   keeps the cached solutions; any other delta drops them, and the next
//!   answer rebuilds from the new source through the one build path.
//! * **evict** — prepared solutions and their sub-relation caches share
//!   one byte budget ([`MappingService::set_cache_budget`]) kept by one
//!   [`ByteLedger`]: a build charges its solution and snapshot, and each
//!   cache insert reserves its own bytes, evicting its cache's own LRU
//!   entries while the ledger is full or else served without being kept.
//!   Least-recently-served solutions are dropped (and rebuilt on demand)
//!   to make room for a build, or for a serve whose inserts found no
//!   room when its whole footprint fits, so a service can hold many
//!   registered mappings with only the hot ones resident.
//!
//! One-shot callers can use [`answer_once`], which serves one query
//! through a private service and throws it away.

use crate::analyze::{self, MappingFacts, MappingReport, WorkloadProfile};
use crate::certain::{CertainAnswers, SolveError};
use crate::exact::{exact_answers_from, exact_boolean_from, ExactError, ExactOptions};
use crate::faults::{self, FaultSite};
use crate::gsm::Gsm;
use crate::solution::{
    least_informative_solution, universal_solution, CanonicalSolution, SolutionError,
};
use gde_datagraph::{
    par, DataGraph, FxHashMap, FxHashSet, GraphDelta, GraphError, GraphSnapshot, Label, NodeId,
    ShardPlan, WorkerPanic,
};
use gde_dataquery::{
    canonicalize, AnswerRun, BindError, ByteLedger, CacheHandle, CompiledQuery, EvalControl,
    LruSubRelCache, PlanSkeleton, QueryTemplate, RowEvalShared, StopCause, SubRelKey,
};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

// Poisoning recovery: a panicking worker must not wedge the whole service,
// so every lock acquisition falls back to the inner value (the shared
// helpers from `gde_datagraph::par`, kept under local names so every call
// site in this module stays short).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    par::lock_recover(m)
}
fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    par::read_recover(l)
}
fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    par::write_recover(l)
}

/// Handle to a mapping registered in a [`MappingService`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MappingId(u64);

impl MappingId {
    /// The raw numeric id (stable for the life of the service).
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for MappingId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mapping#{}", self.0)
    }
}

/// Handle to a query template interned in a mapping via
/// [`MappingService::register_template`]. The id is the skeleton's
/// structural hash, so it is stable across re-registration (and across
/// services) for one canonical query shape.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct TemplateId(u128);

impl TemplateId {
    /// The skeleton hash backing this id ([`PlanSkeleton::hash`]).
    pub fn skeleton_hash(self) -> u128 {
        self.0
    }
}

impl std::fmt::Display for TemplateId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "template#{:032x}", self.0)
    }
}

/// Tuple vs Boolean certain answers.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    /// All certain pairs, as [`Answer::Tuples`].
    Tuples,
    /// Just "does `Q` certainly hold somewhere?", as [`Answer::Boolean`].
    Boolean,
}

/// Which certain-answer engine serves the query — the unified form of the
/// former `certain_*` method family.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Semantics {
    /// `2ⁿ_M(Q, G_s)` (Theorems 3/4): certain answers over targets with
    /// SQL nulls, from the cached universal solution. Sound and complete
    /// for every query closed under null-absorbing homomorphisms — all
    /// [`gde_dataquery::DataQuery`] classes; underapproximates plain `2`.
    Nulls(Mode),
    /// `2_M(Q, G_s)` for equality-only queries (Theorem 5): **exact**
    /// plain certain answers for REM=/REE=/RPQs, from the cached least
    /// informative solution. Rejects queries with inequalities.
    LeastInformative(Mode),
    /// Exact plain certain answers (Theorem 2's coNP procedure), reusing
    /// the cached universal solution as the enumeration skeleton.
    /// Exponential in the number of invented nodes; bounded by the
    /// [`ExactOptions`].
    Exact(Mode, ExactOptions),
}

impl Semantics {
    /// `2ⁿ` tuple answers.
    pub fn nulls() -> Semantics {
        Semantics::Nulls(Mode::Tuples)
    }

    /// `2ⁿ` Boolean answers.
    pub fn nulls_boolean() -> Semantics {
        Semantics::Nulls(Mode::Boolean)
    }

    /// `2` tuple answers via least informative solutions.
    pub fn least_informative() -> Semantics {
        Semantics::LeastInformative(Mode::Tuples)
    }

    /// `2` Boolean answers via least informative solutions.
    pub fn least_informative_boolean() -> Semantics {
        Semantics::LeastInformative(Mode::Boolean)
    }

    /// Exact tuple answers with default search bounds.
    pub fn exact() -> Semantics {
        Semantics::Exact(Mode::Tuples, ExactOptions::default())
    }

    /// Exact Boolean answers with default search bounds.
    pub fn exact_boolean() -> Semantics {
        Semantics::Exact(Mode::Boolean, ExactOptions::default())
    }

    /// The serving default for a query: exact `2` when the query allows it
    /// (equality-only, Theorem 5), the `2ⁿ` under-approximation otherwise
    /// (Theorem 4). Tuple mode.
    pub fn preferred_for(q: &CompiledQuery) -> Semantics {
        if q.is_equality_only() {
            Semantics::least_informative()
        } else {
            Semantics::nulls()
        }
    }

    /// The answer mode.
    pub fn mode(&self) -> Mode {
        match *self {
            Semantics::Nulls(m) | Semantics::LeastInformative(m) | Semantics::Exact(m, _) => m,
        }
    }

    /// The canonical-solution flavour this engine evaluates on.
    fn flavour(&self) -> Flavour {
        match self {
            Semantics::Nulls(_) | Semantics::Exact(..) => Flavour::Universal,
            Semantics::LeastInformative(_) => Flavour::LeastInformative,
        }
    }
}

/// How many node-range stripes a mapping serves from — the argument of
/// [`MappingService::set_shard_count`]. A plain `usize` converts into
/// [`ShardSpec::Fixed`], so existing `set_shard_count(id, 4)` call sites
/// keep working; [`ShardSpec::Auto`] lets the engine pick K itself.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ShardSpec {
    /// Exactly this many stripes (`0` and `1` both mean one stripe: the
    /// unsharded plan; counts above 64 are clamped to 64).
    Fixed(usize),
    /// Let the engine choose K per mapping, from the source-graph size,
    /// the worker-thread budget ([`par::max_threads`] /
    /// `GDE_MAX_THREADS`), and the observed serving statistics
    /// ([`MappingService::serving_stats`]): small graphs stay unsharded
    /// and heavy evaluations oversubscribe stripes so the dynamic
    /// scheduler can balance them. The pick is re-resolved on
    /// every (re)preparation, so it tracks the workload as stats accrue.
    Auto,
}

/// The `entry.shards` encoding of [`ShardSpec::Auto`] (a fixed stripe
/// count this large is not meaningful — plans cap far below it).
const AUTO_SHARDS: usize = usize::MAX;

/// The most stripes a mapping serves from, fixed or picked by
/// [`ShardSpec::Auto`]. Every stripe costs a task and a run per query on
/// every cache miss, and a fixed count arrives unchecked from the wire,
/// so a larger request is clamped to this.
const MAX_SHARDS: usize = 64;

impl ShardSpec {
    fn encode(self) -> usize {
        match self {
            ShardSpec::Fixed(k) => k.clamp(1, MAX_SHARDS),
            ShardSpec::Auto => AUTO_SHARDS,
        }
    }

    fn decode(raw: usize) -> ShardSpec {
        if raw == AUTO_SHARDS {
            ShardSpec::Auto
        } else {
            ShardSpec::Fixed(raw.max(1))
        }
    }
}

impl From<usize> for ShardSpec {
    fn from(k: usize) -> ShardSpec {
        ShardSpec::Fixed(k)
    }
}

/// Cumulative per-mapping serving statistics, collected by
/// [`MappingService::answer`] / [`MappingService::answer_batch`] on every
/// per-(query, stripe) evaluation of a query the cache missed: wall-clock
/// evaluation time and result cardinality, summed over every stripe. A
/// cache hit evaluates nothing and records only its hit. [`ShardSpec::Auto`] feeds its
/// shard-count picks from these; [`MappingService::serving_stats`] exposes
/// them to operators. The accumulator survives shard-count changes and
/// cache evictions (it belongs to the mapping, not to a prepared
/// solution). The exact-enumeration engine ([`Semantics::Exact`]) does
/// not decompose into stripes; each of its serves is recorded as one
/// evaluation, so hit-rate and template numbers cover every semantics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServingStats {
    /// The tenant namespace this mapping serves under (empty when the
    /// mapping is unlabelled). Set by
    /// [`MappingService::set_tenant_label`]; multi-tenant front-ends
    /// label every mapping so cross-mapping aggregation
    /// ([`ServingStats::absorb`]) can refuse to mix tenants.
    pub tenant: String,
    /// Tuple-mode per-(query, stripe) evaluations, of cache misses only.
    pub tuple_evals: u64,
    /// Boolean-mode per-(query, stripe) evaluations, of cache misses
    /// only.
    pub boolean_evals: u64,
    /// Total evaluation wall-clock nanoseconds across both modes (stripe
    /// evaluation of cache misses only; the shared phase-1 and merge work
    /// is accounted separately below).
    pub eval_ns: u64,
    /// Total tuples produced by tuple-mode evaluations.
    pub tuples: u64,
    /// Nanoseconds spent building shared phase-1 state (REE memos, full
    /// conjunctive answers) ahead of the stripe fan-out of cache misses —
    /// the serial work that does not shrink with the stripe count.
    pub memo_build_ns: u64,
    /// Nanoseconds spent assembling missed tuple answers from their
    /// per-stripe sorted runs (laying the runs end to end, once).
    pub merge_ns: u64,
    /// Sub-relation cache hits across serving calls: one per query whose
    /// whole answer or verdict was cached, plus the phase-1 artifact hits
    /// of the misses.
    pub cache_hits: u64,
    /// Sub-relation cache misses across serving calls, counted the same
    /// way.
    pub cache_misses: u64,
    /// Resident bytes in the mapping's sub-relation caches — a gauge
    /// (last observed value), unlike the cumulative counters above.
    pub cache_bytes: u64,
    /// Serves rejected at admission: the deadline or cancel flag had
    /// already fired before any evaluation started, so the serve was
    /// refused at the door without charging anything.
    pub rejected: u64,
    /// Queries whose sub-relation cache inserts found no room under the
    /// service budget: an insert evicted this solution's own entries, or
    /// was declined and served without being kept.
    pub degraded: u64,
    /// Serves answered from the static analyzer's empty verdict — the
    /// query's labels are disjoint from every label the mapping can
    /// produce and it cannot match an isolated node, so its certain
    /// answer is empty on every source graph. These serves touch no
    /// stripe, no prepared solution, and no cache, and record no
    /// evaluations.
    pub static_empty: u64,
    /// Serves that returned [`ServeError::DeadlineExceeded`] after
    /// evaluation had started.
    pub deadline_exceeded: u64,
    /// Serves that returned [`ServeError::Cancelled`] after evaluation
    /// had started.
    pub cancelled: u64,
    /// Worker panics contained by the stripe fan-out (injected faults
    /// and real bugs alike) — each panicking worker counts once.
    pub worker_panics: u64,
    /// Serves retried after a quarantine (panic containment rebuilds the
    /// prepared solution once and re-runs the serve).
    pub retries: u64,
    /// Serves answered through an already-interned query template —
    /// explicitly via `answer_bound`, or transparently when
    /// canonicalisation routed an ad-hoc query onto an existing
    /// skeleton. The first serve of a new skeleton interns (and
    /// compiles) its template and does not count.
    pub template_hits: u64,
    /// Nanoseconds of query compilation skipped by template reuse: each
    /// template hit credits the template's one-time compile cost here,
    /// so the gauge reads as "compilation work traffic would have done
    /// without parameterized plans".
    pub compile_skipped_ns: u64,
}

impl ServingStats {
    /// Mean nanoseconds per recorded evaluation (0 when nothing has been
    /// recorded).
    pub fn mean_eval_ns(&self) -> u64 {
        self.eval_ns
            .checked_div(self.tuple_evals + self.boolean_evals)
            .unwrap_or(0)
    }

    /// Mean tuples per tuple-mode evaluation (0 before the first one).
    pub fn mean_tuples(&self) -> u64 {
        self.tuples.checked_div(self.tuple_evals).unwrap_or(0)
    }

    /// Fraction of serving time spent on shared phase-1 builds
    /// (memo/cache construction) rather than stripe evaluation, in
    /// `[0, 1]`. High values mean the serial prefix dominates and extra
    /// stripes cannot pay off.
    pub fn memo_share(&self) -> f64 {
        let total = self.memo_build_ns + self.eval_ns;
        if total == 0 {
            return 0.0;
        }
        self.memo_build_ns as f64 / total as f64
    }

    /// Sub-relation cache hit rate in `[0, 1]` (0 before any lookup).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / total as f64
    }

    /// Fold another mapping's cumulative stats into this accumulator —
    /// the aggregation step a multi-tenant front-end runs per tenant.
    /// Returns `false` (and absorbs **nothing**) when the two sides
    /// carry different tenant labels: cumulative counters from one
    /// tenant must never bleed into another tenant's aggregate. An
    /// unlabelled accumulator (`tenant.is_empty()`) with no recorded
    /// work adopts the other side's label, so
    /// `stats.absorb(&svc.serving_stats(id)?)` folds a tenant's mappings
    /// starting from `ServingStats::default()`.
    ///
    /// Cumulative counters add; the `cache_bytes` gauge adds too
    /// (resident bytes across a tenant's mappings are disjoint).
    pub fn absorb(&mut self, other: &ServingStats) -> bool {
        if self.tenant != other.tenant {
            let fresh = self.tuple_evals == 0 && self.boolean_evals == 0 && self.eval_ns == 0;
            if !(self.tenant.is_empty() && fresh) {
                return false;
            }
            self.tenant = other.tenant.clone();
        }
        self.tuple_evals += other.tuple_evals;
        self.boolean_evals += other.boolean_evals;
        self.eval_ns += other.eval_ns;
        self.tuples += other.tuples;
        self.memo_build_ns += other.memo_build_ns;
        self.merge_ns += other.merge_ns;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_bytes += other.cache_bytes;
        self.rejected += other.rejected;
        self.degraded += other.degraded;
        self.static_empty += other.static_empty;
        self.deadline_exceeded += other.deadline_exceeded;
        self.cancelled += other.cancelled;
        self.worker_panics += other.worker_panics;
        self.retries += other.retries;
        self.template_hits += other.template_hits;
        self.compile_skipped_ns += other.compile_skipped_ns;
        true
    }

    /// Fold one serve's shared-phase accounting in: phase-1 build
    /// and merge nanoseconds, this call's cache hit/miss counts and
    /// degraded queries, and the current cache-bytes gauge.
    fn record_serve(&mut self, tally: &Tally, bytes: u64) {
        self.memo_build_ns += tally.memo_ns;
        self.merge_ns += tally.merge_ns;
        self.cache_hits += tally.hits;
        self.cache_misses += tally.misses;
        self.degraded += tally.degraded;
        self.cache_bytes = bytes;
    }

    fn record(&mut self, ns: u64, tuples: usize, boolean: bool) {
        if boolean {
            self.boolean_evals += 1;
        } else {
            self.tuple_evals += 1;
            self.tuples += tuples as u64;
        }
        self.eval_ns += ns;
    }
}

/// The [`ShardSpec::Auto`] policy: pick a stripe count from the graph
/// size, the thread budget, and the observed workload.
///
/// * Stripes below ~1k rows don't amortise their per-stripe overhead
///   (one task, one row-restricted atom copy per letter and one answer
///   run each): tiny graphs stay unsharded, and K never exceeds
///   `nodes / 1024`.
/// * The baseline is one stripe per worker thread, in either answer
///   mode. A Boolean that stops at its first witness inside a stripe
///   gains nothing from more stripes than workers: RPQ and REM stop at
///   the first satisfying row, and so does an REE rooted in an `=`/`≠`
///   test. BENCH_sharded's 1-thread Boolean batch, whose REEs are rooted
///   in `=`/`≠`, reads flat across K. Any other REE root (a
///   concatenation, union, closure, atom or ε) evaluates all of a
///   stripe's rows first, so for those shapes one stripe on one thread
///   can do up to K times the work of K stripes whose OR stops at the
///   first `true` one.
/// * When observed evaluations are heavy (≥ 10 ms mean), stripes are
///   oversubscribed 2× so the dynamic `(query, stripe)` scheduler can
///   balance uneven stripes across workers. Only cache misses record
///   evaluations, so warm hits, which evaluate nothing, no longer pull
///   the mean down.
/// * When the observed workload spends most of its sharded time in the
///   shared phase-1 build ([`ServingStats::memo_share`] > ½) — the
///   serial prefix stripes cannot shrink — oversubscription is pointless
///   and K is capped back to the thread count (Amdahl: extra stripes
///   only add per-stripe overhead to a memo-bound workload).
fn auto_shard_count(nodes: usize, threads: usize, stats: &ServingStats) -> usize {
    const MIN_STRIPE_ROWS: usize = 1024;
    const HEAVY_EVAL_NS: u64 = 10_000_000;
    let by_size = (nodes / MIN_STRIPE_ROWS).max(1);
    let mut k = threads.max(1).min(by_size);
    if stats.mean_eval_ns() >= HEAVY_EVAL_NS {
        k = (2 * k).min(by_size);
    }
    if stats.memo_share() > 0.5 {
        k = k.min(threads.max(1));
    }
    k.clamp(1, MAX_SHARDS)
}

/// A certain-answer result from [`MappingService::answer`]: tuples for
/// [`Mode::Tuples`], a Boolean for [`Mode::Boolean`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Answer {
    /// The certain pairs (or the vacuous "everything" marker).
    Tuples(CertainAnswers),
    /// The Boolean certain answer.
    Boolean(bool),
}

impl Answer {
    /// The tuple answers; panics on a Boolean answer.
    pub fn into_tuples(self) -> CertainAnswers {
        match self {
            Answer::Tuples(t) => t,
            Answer::Boolean(_) => panic!("Boolean answer where tuples were expected"),
        }
    }

    /// The certain pairs; panics on a Boolean or vacuous answer.
    pub fn into_pairs(self) -> Vec<(NodeId, NodeId)> {
        self.into_tuples().into_pairs()
    }

    /// The Boolean answer; panics on a tuple answer.
    pub fn boolean(&self) -> bool {
        match self {
            Answer::Boolean(b) => *b,
            Answer::Tuples(_) => panic!("tuple answer where a Boolean was expected"),
        }
    }
}

/// Per-call serving options for [`MappingService::answer_with`] /
/// [`MappingService::answer_batch_with`]: an optional wall-clock deadline
/// and a caller-owned cancel flag.
///
/// Both are **cooperative**: the engine checks between stripes of a
/// fan-out, between phase-1 memo nodes, and before merges — a unit of
/// work that has started runs to completion. An expired deadline returns
/// [`ServeError::DeadlineExceeded`] (with partial-work stats), a raised
/// cancel flag [`ServeError::Cancelled`]; in both cases nothing
/// incomplete is cached, so an immediate retry recomputes from
/// consistent state and returns byte-identical answers.
///
/// ```
/// # use gde_core::engine::ServeOptions;
/// # use std::time::{Duration, Instant};
/// let opts = ServeOptions::new().with_deadline(Instant::now() + Duration::from_millis(50));
/// let cancel = opts.cancel.clone(); // hand to another thread; store(true) to cancel
/// # let _ = cancel;
/// ```
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Serve must finish by this instant (checked cooperatively).
    pub deadline: Option<Instant>,
    /// Raised by the caller (from any thread) to cancel the serve.
    pub cancel: Arc<AtomicBool>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            deadline: None,
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }
}

impl ServeOptions {
    /// Unbounded options: no deadline, a fresh (never raised) cancel flag.
    pub fn new() -> ServeOptions {
        ServeOptions::default()
    }

    /// Set the deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> ServeOptions {
        self.deadline = Some(deadline);
        self
    }

    /// Use a caller-provided cancel flag (share clones across calls to
    /// cancel a whole group at once).
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> ServeOptions {
        self.cancel = cancel;
        self
    }

    /// The evaluation control one serve runs under (a fresh latch per
    /// call, sharing this options value's deadline and cancel flag).
    fn control(&self) -> EvalControl {
        EvalControl::new(self.deadline, Some(self.cancel.clone()))
    }
}

/// Map a fired stop cause to its serve error, carrying partial-work
/// stats.
fn stop_error(cause: StopCause, completed: usize, total: usize) -> ServeError {
    match cause {
        StopCause::Deadline => ServeError::DeadlineExceeded {
            completed_stripes: completed,
            total_stripes: total,
        },
        StopCause::Cancelled => ServeError::Cancelled {
            completed_stripes: completed,
            total_stripes: total,
        },
    }
}

/// Map a contained fan-out panic to its serve error.
fn panic_error(p: WorkerPanic) -> ServeError {
    ServeError::StripePanicked {
        message: p.message,
        stripes: p.indices,
    }
}

/// Errors from the serving engine. `NoSolution` only surfaces from the
/// solution accessor [`MappingService::solution`];
/// [`MappingService::answer`] converts it into the vacuous answer (every
/// tuple certain) instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// No mapping is registered under this id (never was, or unregistered).
    UnknownMapping(MappingId),
    /// The mapping is not relational; canonical-solution engines require
    /// word targets.
    NotRelational,
    /// No solution exists at all (an ε-rule conflict).
    NoSolution {
        /// The offending source pair.
        pair: (NodeId, NodeId),
    },
    /// The canonical solution's invented nodes do not fit into the node
    /// ids above every source id ([`SolutionError::IdSpaceExhausted`]).
    IdSpaceExhausted,
    /// The query is outside the fragment the chosen semantics supports.
    UnsupportedQuery(&'static str),
    /// No template is interned under this id for the mapping (never
    /// registered, or registered on a different mapping).
    UnknownTemplate(TemplateId),
    /// The binding vector's length does not match the template
    /// skeleton's slot count.
    BindingArity {
        /// Slots the skeleton expects.
        expected: usize,
        /// Labels the caller supplied.
        got: usize,
    },
    /// The exact engine's search bounds were exceeded.
    TooComplex {
        /// Number of invented nodes in the skeleton.
        invented: usize,
        /// The configured cap that was exceeded.
        cap: String,
    },
    /// A delta failed validation against the source graph.
    InvalidDelta(GraphError),
    /// A stripe worker (or the shared phase-1/merge work) panicked and
    /// the panic was contained. The first occurrence quarantines the
    /// prepared solution and retries once; this error means the retry
    /// panicked too.
    StripePanicked {
        /// The panic payload message of the first failed worker.
        message: String,
        /// Stripe (or task) indices whose workers panicked, sorted.
        /// Empty when the panic happened outside the fan-out (phase-1
        /// build, answer assembly or hand-out, solution freeze).
        stripes: Vec<usize>,
    },
    /// The [`ServeOptions`] deadline expired before the serve finished.
    /// Nothing incomplete was cached: a retry recomputes from consistent
    /// state and returns byte-identical answers.
    DeadlineExceeded {
        /// Stripes whose evaluation had completed when the serve stopped.
        completed_stripes: usize,
        /// Total stripes the serve was scheduled over (0 when the serve
        /// was rejected before any plan was consulted).
        total_stripes: usize,
    },
    /// The [`ServeOptions`] cancel flag was raised before the serve
    /// finished. Same consistency guarantee as
    /// [`ServeError::DeadlineExceeded`].
    Cancelled {
        /// Stripes whose evaluation had completed when the serve stopped.
        completed_stripes: usize,
        /// Total stripes the serve was scheduled over.
        total_stripes: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownMapping(id) => write!(f, "unknown {id}"),
            ServeError::NotRelational => write!(f, "mapping is not relational"),
            ServeError::NoSolution { pair } => write!(
                f,
                "no solution exists: ε-rule forces distinct nodes {} = {}",
                pair.0, pair.1
            ),
            ServeError::IdSpaceExhausted => SolutionError::IdSpaceExhausted.fmt(f),
            ServeError::UnsupportedQuery(what) => write!(f, "unsupported query: {what}"),
            ServeError::UnknownTemplate(id) => write!(f, "unknown {id}"),
            ServeError::BindingArity { expected, got } => write!(
                f,
                "binding arity mismatch: template has {expected} slot(s), got {got}"
            ),
            ServeError::TooComplex { invented, cap } => write!(
                f,
                "instance too large for exhaustive search ({invented} invented nodes; cap: {cap})"
            ),
            ServeError::InvalidDelta(e) => write!(f, "invalid delta: {e}"),
            ServeError::StripePanicked { message, stripes } => {
                if stripes.is_empty() {
                    write!(f, "serving worker panicked: {message}")
                } else {
                    write!(f, "stripe worker(s) {stripes:?} panicked: {message}")
                }
            }
            ServeError::DeadlineExceeded {
                completed_stripes,
                total_stripes,
            } => write!(
                f,
                "deadline exceeded ({completed_stripes}/{total_stripes} stripes completed)"
            ),
            ServeError::Cancelled {
                completed_stripes,
                total_stripes,
            } => write!(
                f,
                "cancelled ({completed_stripes}/{total_stripes} stripes completed)"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SolutionError> for ServeError {
    fn from(e: SolutionError) -> ServeError {
        match e {
            SolutionError::NotRelational => ServeError::NotRelational,
            SolutionError::NoSolution { pair } => ServeError::NoSolution { pair },
            SolutionError::IdSpaceExhausted => ServeError::IdSpaceExhausted,
        }
    }
}

impl From<ExactError> for ServeError {
    fn from(e: ExactError) -> ServeError {
        match e {
            ExactError::NotRelational => ServeError::NotRelational,
            ExactError::IdSpaceExhausted => ServeError::IdSpaceExhausted,
            ExactError::TooComplex { invented, cap } => ServeError::TooComplex { invented, cap },
        }
    }
}

/// Convert a serving error into the `SolveError` of the one-shot
/// canonical-engine APIs built on [`answer_once`] (such as
/// [`crate::integration::Integration::certain_answers`]). `answer_once`
/// serves with unbounded options, so the deadline/cancel arms cannot fire;
/// a contained worker panic, however, *can* reach it, and `SolveError`
/// has no panic variant — re-raise it, as a propagating panic.
pub(crate) fn solve_error(e: ServeError) -> SolveError {
    match e {
        ServeError::NotRelational => SolveError::NotRelational,
        ServeError::IdSpaceExhausted => SolveError::IdSpaceExhausted,
        ServeError::UnsupportedQuery(what) => SolveError::UnsupportedQuery(what),
        ServeError::StripePanicked { message, .. } => {
            panic!("serving worker panicked (one-shot re-raise): {message}")
        }
        other => unreachable!("canonical serving cannot fail with {other:?}"),
    }
}

/// Convert a serving error into the `ExactError` of the one-shot exact
/// APIs ([`crate::exact::certain_answers_exact`] and its Boolean
/// variant; same re-raise contract as [`solve_error`]).
pub(crate) fn exact_error(e: ServeError) -> ExactError {
    match e {
        ServeError::NotRelational => ExactError::NotRelational,
        ServeError::IdSpaceExhausted => ExactError::IdSpaceExhausted,
        ServeError::TooComplex { invented, cap } => ExactError::TooComplex { invented, cap },
        ServeError::StripePanicked { message, .. } => {
            panic!("exact serving worker panicked (one-shot re-raise): {message}")
        }
        other => unreachable!("exact serving cannot fail with {other:?}"),
    }
}

/// What [`MappingService::apply_delta`] did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaReport {
    /// The mapping's generation stamp after the delta.
    pub generation: u64,
    /// `true` when no cached solution was invalidated: the net delta
    /// changed nothing any rule reads (or nothing was cached), so the
    /// resident solutions stay current. `false` when the delta dropped
    /// them and the next answer rebuilds from the new source.
    pub patched: bool,
    /// Nodes added.
    pub added_nodes: usize,
    /// Edges actually added (already-present edges don't count).
    pub added_edges: usize,
    /// Edges actually removed.
    pub removed_edges: usize,
}

/// A point-in-time snapshot of service-wide counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Registered mappings.
    pub mappings: usize,
    /// Resident cached solutions, across flavours.
    pub cached_solutions: usize,
    /// Approximate bytes held by resident solutions.
    pub cached_bytes: usize,
    /// Solutions evicted under the byte budget so far.
    pub evictions: u64,
    /// Deltas after which no cached solution was invalidated (see
    /// [`DeltaReport::patched`]).
    pub patched_deltas: u64,
    /// Deltas that invalidated at least one cached solution.
    pub invalidating_deltas: u64,
}

/// A canonical solution frozen for serving: the solution itself, its
/// snapshot, and the stripe plan that splits evaluation by source row (a
/// mapping without sharding serves from a one-stripe plan). Every stripe
/// evaluates on the one snapshot; a stripe is a row range, not a copy.
///
/// The snapshot's rows follow the canonical build: rows `0..dom_len` are
/// `dom(M, G_s)` in ascending id order and every later row is invented,
/// in creation order. Construction checks that layout, and the tuple
/// serve path relies on it: a row or column is invented iff it is
/// `≥ dom_len`, each stripe's run comes out sorted, and the stripes' runs
/// laid end to end are the answer.
#[derive(Debug)]
pub struct PreparedSolution {
    solution: CanonicalSolution,
    snapshot: Arc<GraphSnapshot>,
    /// Rows below this are `dom(M, G_s)`; the rest are invented.
    dom_len: usize,
    /// The stripes of every serve: row ranges of `snapshot`.
    plan: ShardPlan,
    /// Phase-1 artifacts (closures, tail factors, full conjunctive
    /// relations) and each served query's whole answer or verdict, keyed
    /// `(kind, subplan hash, binding)`, each charged to the service's
    /// ledger as it is inserted. Owned per prepared
    /// solution and closed when the service releases it — the two
    /// flavours of one mapping serve different solutions and never share
    /// entries, and a delta that changes a solution drops the solution,
    /// cache included.
    sub_cache: Arc<LruSubRelCache>,
    /// The owning mapping's serving-stats accumulator.
    serving: Arc<Mutex<ServingStats>>,
}

impl PreparedSolution {
    fn new(
        solution: CanonicalSolution,
        shards: usize,
        serving: Arc<Mutex<ServingStats>>,
        ledger: &Arc<ByteLedger>,
    ) -> PreparedSolution {
        // an injected panic here models a crash mid-freeze: the caller's
        // slot stays Empty with zero bytes charged, so containment leaves
        // the service consistent
        faults::point(FaultSite::Refreeze);
        let snapshot = Arc::new(solution.graph.snapshot());
        // `solution::build` adds the dom nodes in ascending id order, then
        // appends every invented node; snapshot rows keep insertion order
        let dom_len = snapshot.n() - solution.invented.len();
        let ids = (0..snapshot.n() as u32).map(|row| snapshot.id_at(row));
        assert!(
            ids.clone().take(dom_len).is_sorted_by(|a, b| a < b)
                && ids.skip(dom_len).eq(solution.invented.iter().copied()),
            "invariant: dom rows ascend by id, then the invented nodes follow in creation order"
        );
        let plan = ShardPlan::by_out_degree(&snapshot, shards);
        PreparedSolution {
            solution,
            snapshot,
            dom_len,
            plan,
            sub_cache: Arc::new(LruSubRelCache::new(ledger.clone())),
            serving,
        }
    }

    /// The canonical solution.
    pub fn solution(&self) -> &CanonicalSolution {
        &self.solution
    }

    /// The frozen snapshot of the solution's target graph.
    pub fn snapshot(&self) -> &GraphSnapshot {
        &self.snapshot
    }

    /// The stripe plan every serve splits its evaluation by (one stripe
    /// when the mapping is not sharded).
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of stripes this solution serves from.
    pub fn shard_count(&self) -> usize {
        self.plan.shard_count()
    }

    /// Approximate heap footprint now: solution, snapshot and the
    /// sub-relation cache's resident entries. Stripes add nothing: they
    /// are row ranges of the one snapshot. The service charges the first
    /// two once, as they weigh when the build finishes, and each cache
    /// entry as it is inserted. Label relations the snapshot materialises
    /// later while serving grow this figure but are never charged.
    pub fn approx_bytes(&self) -> usize {
        self.solution.approx_bytes() + self.snapshot.approx_bytes() + self.sub_cache.bytes()
    }

    /// The sub-relation cache this solution serves through.
    pub fn sub_cache(&self) -> &Arc<LruSubRelCache> {
        &self.sub_cache
    }

    /// Fold one per-(query, stripe) evaluation of a cache miss into the
    /// mapping's serving stats (see [`ServingStats`]). One mutex
    /// acquisition per evaluation:
    /// the lock is held for a handful of adds, so at the µs-to-ms
    /// granularity of stripe evaluations the serialization is noise;
    /// revisit with per-worker accumulators if evaluations ever get micro
    /// enough to contend.
    fn record(&self, elapsed: std::time::Duration, tuples: usize, boolean: bool) {
        lock(&self.serving).record(elapsed.as_nanos() as u64, tuples, boolean);
    }

    /// Keep the pairs of a stripe's evaluated relation over `dom(M, G_s)`
    /// (drop tuples touching invented nodes), translated to node ids.
    /// Walks only the stripe's own dom rows, and each row only up to its
    /// first invented column (a row's columns ascend), so only surviving
    /// pairs pay the translation. Dom rows and columns ascend by id too,
    /// so the pairs come out sorted.
    fn dom_pairs(
        &self,
        rel: &gde_datagraph::Relation,
        rows: std::ops::Range<usize>,
    ) -> Vec<(NodeId, NodeId)> {
        let (dom, snap) = (self.dom_len, self.snapshot());
        let mut pairs = Vec::new();
        for i in rows.start..rows.end.min(dom) {
            let src = snap.id_at(i as u32);
            pairs.extend(
                rel.row_iter(i)
                    .take_while(|&j| j < dom)
                    .map(|j| (src, snap.id_at(j as u32))),
            );
        }
        pairs
    }

    /// One stripe's dom-filtered pairs as a **sorted run** — the unit
    /// the `(query, stripe)` scheduler runs for a query the cache missed.
    /// Stripes are ascending row ranges, so the runs of a query laid end
    /// to end in stripe order are its answer. Also records the stripe's
    /// evaluation time and result cardinality into the serving stats.
    /// Nothing here touches the cache: the serve inserts the whole answer
    /// once, after laying the runs end to end.
    fn shard_pairs(
        &self,
        q: &CompiledQuery,
        shard: usize,
        shared: &RowEvalShared,
    ) -> Vec<(NodeId, NodeId)> {
        // an injected panic here models a stripe worker dying at the top
        // of its evaluation, before any shared state is touched
        faults::point(FaultSite::StripeEval);
        let started = Instant::now();
        let rows = self.plan.range(shard);
        let rel = q.eval_relation_rows(&self.snapshot, rows.clone(), shared);
        // a control that fired mid-evaluation may have truncated
        // sub-factors: the run is garbage by design, and the caller
        // discards it via `fired()`
        if shared.control().should_stop() {
            return Vec::new();
        }
        let pairs = self.dom_pairs(&rel, rows);
        self.record(started.elapsed(), pairs.len(), false);
        pairs
    }

    /// One stripe's Boolean evaluation, with stats recording (the Boolean
    /// counterpart of [`PreparedSolution::shard_pairs`]).
    fn shard_holds(&self, q: &CompiledQuery, shard: usize, shared: &RowEvalShared) -> bool {
        faults::point(FaultSite::StripeEval);
        let started = Instant::now();
        let holds = q.holds_in_rows(&self.snapshot, self.plan.range(shard), shared);
        self.record(started.elapsed(), 0, true);
        holds
    }

    /// Evaluate the queries the cache missed. Phase 1 — REE memos and
    /// the full answers of non-decomposing queries — is factored out
    /// before the fan-out, queries in parallel: because every build goes
    /// through the shared cache, a closure or tail factor two queries
    /// have in common is computed once and reused (up to a benign race
    /// when structurally identical artifacts build concurrently — both
    /// compute, either result serves). Workers then claim
    /// `(query, stripe)` tasks dynamically; a query's tuple runs are
    /// disjoint and ascend with the stripes, so its answer is their
    /// concatenation in stripe order, made once and inserted whole.
    /// Boolean stripes OR with a cross-stripe short-circuit, and the
    /// verdict is inserted as one more entry. The exact
    /// enumeration runs as one task per query and inserts nothing, and
    /// neither does a serve whose control fired: a truncated evaluation
    /// must never be served later.
    ///
    /// Adds the misses' phase-1 and assembly time, their cache traffic
    /// and their shortfall to `tally`, whatever the outcome. `Err` is a
    /// contained worker panic.
    fn evaluate_misses(
        &self,
        queries: &[&CompiledQuery],
        sem: Semantics,
        ctrl: &Arc<EvalControl>,
        tally: &mut Tally,
    ) -> Result<Vec<Outcome>, WorkerPanic> {
        let nq = queries.len();
        let exact = matches!(sem, Semantics::Exact(..));
        let k = if exact { 1 } else { self.shard_count() };
        let shareds: Vec<RowEvalShared> = queries
            .iter()
            .map(|_| RowEvalShared::with_cache(self.sub_cache.clone()).with_control(ctrl.clone()))
            .collect();
        let prewarm = Instant::now();
        let warmed = par::try_map_blocks(nq, 1, |range| {
            for qi in range {
                if !exact && !ctrl.should_stop() {
                    queries[qi].prewarm_rows(&self.snapshot, &shareds[qi]);
                }
            }
        });
        tally.memo_ns = prewarm.elapsed().as_nanos() as u64;
        let found: Vec<AtomicBool> = queries.iter().map(|_| AtomicBool::new(false)).collect();
        let completed = AtomicUsize::new(0);
        let fanned = warmed.and_then(|_| {
            par::try_map_tasks(nq * k, |t| {
                // stripe-major order: task t → (query t % nq, stripe t / nq)
                let (qi, shard) = (t % nq, t / nq);
                if ctrl.should_stop() {
                    return None;
                }
                let (q, shared) = (queries[qi], &shareds[qi]);
                let part = match sem {
                    Semantics::Exact(mode, opts) => Some(Part::Exact(self.exact(q, mode, opts))),
                    Semantics::Nulls(Mode::Tuples) | Semantics::LeastInformative(Mode::Tuples) => {
                        let run = self.shard_pairs(q, shard, shared);
                        // a fired control truncates runs: drop them here
                        // so the assembly below can never see one
                        if ctrl.should_stop() {
                            return None;
                        }
                        Some(Part::Run(run))
                    }
                    Semantics::Nulls(Mode::Boolean)
                    | Semantics::LeastInformative(Mode::Boolean) => {
                        if !found[qi].load(Ordering::Relaxed) && self.shard_holds(q, shard, shared)
                        {
                            found[qi].store(true, Ordering::Relaxed);
                        }
                        None
                    }
                };
                completed.fetch_add(1, Ordering::Relaxed);
                part
            })
        });
        let settle = |tally: &mut Tally| {
            for s in &shareds {
                tally.hits += s.cache_hits();
                tally.misses += s.cache_misses();
                tally.shortfall += s.cache_shortfall() as usize;
                tally.degraded += u64::from(s.cache_shortfall() > 0);
            }
        };
        let mut parts = match fanned {
            Ok(parts) => parts,
            Err(panic) => {
                settle(tally);
                return Err(panic);
            }
        };
        let stopped = ctrl
            .fired()
            .map(|cause| stop_error(cause, completed.load(Ordering::Relaxed), nq * k));
        let merge = Instant::now();
        let outcomes = (0..nq)
            .map(|qi| {
                let holds = found[qi].load(Ordering::Relaxed);
                match &stopped {
                    // a Boolean hit found before the control fired is
                    // definitive, but a stopped serve inserts nothing
                    Some(_) if holds => return Ok(Answer::Boolean(true)),
                    Some(e) => return Err(e.clone()),
                    None => {}
                }
                let mut own = (0..k).map(|shard| parts[shard * nq + qi].take());
                let cache = || {
                    shareds[qi]
                        .cache()
                        .expect("invariant: every miss evaluates through the cache")
                };
                match sem {
                    Semantics::Exact(..) => match own.next() {
                        Some(Some(Part::Exact(outcome))) => outcome,
                        _ => unreachable!("invariant: an unstopped exact task ran"),
                    },
                    _ if sem.mode() == Mode::Boolean => {
                        cache().insert_verdict(served_key(queries[qi], Mode::Boolean), holds);
                        Ok(Answer::Boolean(holds))
                    }
                    _ => {
                        let runs: Vec<Vec<(NodeId, NodeId)>> = own
                            .map(|part| match part {
                                Some(Part::Run(run)) => run,
                                _ => unreachable!("invariant: an unstopped tuple task ran"),
                            })
                            .collect();
                        let answer = AnswerRun::from(runs.concat());
                        cache()
                            .insert_answer(served_key(queries[qi], Mode::Tuples), answer.clone());
                        Ok(Answer::Tuples(CertainAnswers::Pairs(answer)))
                    }
                }
            })
            .collect();
        if !exact && sem.mode() == Mode::Tuples {
            tally.merge_ns = merge.elapsed().as_nanos() as u64;
        }
        settle(tally);
        Ok(outcomes)
    }

    /// The exact enumeration (Theorem 2's coNP procedure) over the whole
    /// solution. It does not decompose into stripes or cooperative stop
    /// points, but its serves are recorded all the same (as one
    /// evaluation) so hit-rate and template numbers cover every semantics.
    fn exact(&self, q: &CompiledQuery, mode: Mode, opts: ExactOptions) -> Outcome {
        let started = Instant::now();
        let (answer, tuples) = match mode {
            Mode::Tuples => {
                let answers = exact_answers_from(&self.solution, q.source(), opts)?;
                let tuples = match &answers {
                    CertainAnswers::Pairs(pairs) => pairs.len(),
                    CertainAnswers::AllVacuously => 0,
                };
                (Answer::Tuples(answers), tuples)
            }
            Mode::Boolean => (
                Answer::Boolean(exact_boolean_from(&self.solution, q.source(), opts)?),
                0,
            ),
        };
        self.record(started.elapsed(), tuples, mode == Mode::Boolean);
        Ok(answer)
    }
}

/// One request's result.
type Outcome = Result<Answer, ServeError>;

/// The cache key of a query's whole served answer in `mode`: its tuple
/// answer, or its Boolean verdict. A verdict is its own entry: it cannot
/// be read off the tuple answer, which keeps only pairs over
/// `dom(M, G_s)` while a Boolean also sees the invented nodes.
fn served_key(q: &CompiledQuery, mode: Mode) -> SubRelKey {
    let key = match mode {
        Mode::Tuples => SubRelKey::answer(q.plan_hash()),
        Mode::Boolean => SubRelKey::verdict(q.plan_hash()),
    };
    key.with_binding(q.binding_hash())
}

/// One serve's accounting, folded into the mapping's [`ServingStats`]
/// under one lock.
#[derive(Default)]
struct Tally {
    /// Phase-1 build nanoseconds of the misses.
    memo_ns: u64,
    /// Nanoseconds assembling the missed tuple answers.
    merge_ns: u64,
    /// Cache hits: answer lookups and the misses' phase-1 lookups.
    hits: u64,
    /// Cache misses, counted the same way.
    misses: u64,
    /// Bytes the misses' inserts found no room for.
    shortfall: usize,
    /// Missed queries with a shortfall.
    degraded: u64,
}

/// One query as it arrives at the serve door.
#[derive(Copy, Clone)]
enum Request<'a> {
    /// An ad-hoc compiled query (routed onto its template at the door).
    Query(&'a CompiledQuery),
    /// A binding of an interned template.
    Bound(TemplateId, &'a [Label]),
}

/// A query past the serve door: the caller's own, or a bound template
/// instance shared with the template's binding memo.
enum Routed<'a> {
    Borrowed(&'a CompiledQuery),
    Shared(Arc<CompiledQuery>),
}

impl std::ops::Deref for Routed<'_> {
    type Target = CompiledQuery;

    fn deref(&self) -> &CompiledQuery {
        match self {
            Routed::Borrowed(q) => q,
            Routed::Shared(q) => q,
        }
    }
}

/// What one `(query, stripe)` task hands the answer assembly. Boolean
/// stripes hand nothing: their hits land in the scheduler's per-query
/// flags.
enum Part {
    /// A stripe's dom-filtered pairs as a sorted run.
    Run(Vec<(NodeId, NodeId)>),
    /// A whole exact enumeration.
    Exact(Outcome),
}

/// The two canonical-solution flavours a mapping can be served from.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Flavour {
    Universal = 0,
    LeastInformative = 1,
}

/// Cache slot state for one `(mapping, flavour)`.
#[derive(Debug, Default)]
enum SlotState {
    /// Nothing cached; the next answer builds from the source graph.
    #[default]
    Empty,
    /// Fully frozen and servable.
    Ready(Arc<PreparedSolution>),
    /// Building failed; the error is replayed (NoSolution ⇒ vacuous
    /// answers, NotRelational and IdSpaceExhausted ⇒ errors).
    Failed(SolutionError),
}

#[derive(Debug, Default)]
struct Slot {
    state: SlotState,
    /// LRU tick of the last serve from this slot.
    last_used: u64,
    /// Solution and snapshot bytes the build charged to the ledger (0
    /// unless resident), given back exactly on release. The cache's
    /// entries are charged by the cache itself.
    bytes: usize,
}

/// One registered mapping: shared graphs, generation stamp, shard
/// configuration, and the per-flavour solution cache.
struct MappingEntry {
    id: MappingId,
    gsm: Arc<Gsm>,
    /// The mapping actually served from: `gsm` minus statically dead and
    /// subsumed rules once a workload is registered (recomputed whenever
    /// the workload grows; answer-equivalent to `gsm` for every covered
    /// query). Lock order: `cache` before `serve_gsm`.
    serve_gsm: RwLock<Arc<Gsm>>,
    /// The accumulated query workload: labels read and nullability, from
    /// [`MappingService::register_queries`] plus every query served while
    /// a workload is active. Lock order: `workload` before `cache`.
    workload: Mutex<WorkloadProfile>,
    /// Graph-independent facts about the **full** mapping (producible
    /// labels, always-solvable), computed once at registration — the
    /// substrate of the statically-empty short-circuit.
    facts: MappingFacts,
    source: RwLock<Arc<DataGraph>>,
    generation: AtomicU64,
    /// Encoded [`ShardSpec`]: the stripe count the mapping's prepared
    /// solutions are partitioned into (1 = one stripe, [`AUTO_SHARDS`] =
    /// engine-picked).
    shards: AtomicUsize,
    cache: Mutex<[Slot; 2]>,
    /// Serving statistics, shared with every
    /// [`PreparedSolution`] built for this mapping so recording needs no
    /// registry access. Survives evictions and shard-count changes.
    serving: Arc<Mutex<ServingStats>>,
    /// Interned query templates, keyed by skeleton hash: one compiled
    /// artifact per canonical query shape, shared by `answer_bound` and
    /// by canonicalisation-routed ad-hoc serves. Survives evictions,
    /// deltas and shard-count changes (templates are graph-independent).
    templates: Mutex<FxHashMap<u128, Arc<QueryTemplate>>>,
}

/// The owned, concurrent serving engine. See the module docs for the
/// lifecycle; see [`MappingService::answer`] for the unified entry point.
#[derive(Default)]
pub struct MappingService {
    registry: RwLock<FxHashMap<MappingId, Arc<MappingEntry>>>,
    next_id: AtomicU64,
    /// Monotonic LRU clock; bumped on every serve/build.
    clock: AtomicU64,
    /// The cache budget and the bytes charged against it: every resident
    /// solution's base bytes and every entry of its sub-relation cache.
    ledger: Arc<ByteLedger>,
    /// Whether ad-hoc `answer`/`answer_batch` queries are routed through
    /// canonicalisation onto shared templates (default true; see
    /// [`MappingService::set_canonicalisation`]).
    canon_off: AtomicBool,
    evictions: AtomicU64,
    patched_deltas: AtomicU64,
    invalidating_deltas: AtomicU64,
}

// The whole point of the owned engine: one service instance, many serving
// threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MappingService>();
};

impl MappingService {
    /// An empty service with an unlimited cache budget.
    pub fn new() -> MappingService {
        MappingService::default()
    }

    /// An empty service with a cache budget (approximate bytes; see
    /// [`MappingService::set_cache_budget`]).
    pub fn with_cache_budget(bytes: usize) -> MappingService {
        let s = MappingService::new();
        s.set_cache_budget(bytes);
        s
    }

    /// Bound the resident solutions and their sub-relation caches to
    /// `bytes` (`0` = unlimited), evicting least-recently-served solutions
    /// until they fit. Each solution is charged its solution and snapshot
    /// bytes when it is built, and each cache entry when it is inserted.
    /// A cache insert never passes the budget: it evicts its own cache's
    /// LRU entries, or is declined and served without being kept (see
    /// [`ServingStats::degraded`]). The base charge is soft: the solution
    /// serving the current answer is never evicted, so one resident
    /// solution can exceed a tiny budget.
    pub fn set_cache_budget(&self, bytes: usize) {
        self.ledger.set_budget(bytes);
        self.enforce_budget(0, None);
    }

    /// The configured cache budget (0 = unlimited).
    pub fn cache_budget(&self) -> usize {
        self.ledger.budget()
    }

    /// Bytes currently charged: resident solutions with their snapshots,
    /// plus every resident sub-relation cache entry.
    pub fn cached_bytes(&self) -> usize {
        self.ledger.used()
    }

    /// Register a mapping with its source graph. Accepts owned values or
    /// `Arc`s (graphs are shared, never copied). Registration is free; the
    /// first answer per flavour builds the canonical solution.
    pub fn register(
        &self,
        gsm: impl Into<Arc<Gsm>>,
        source: impl Into<Arc<DataGraph>>,
    ) -> MappingId {
        let id = MappingId(self.next_id.fetch_add(1, Ordering::Relaxed) + 1);
        let gsm: Arc<Gsm> = gsm.into();
        let facts = MappingFacts::of(&gsm);
        let entry = Arc::new(MappingEntry {
            id,
            serve_gsm: RwLock::new(gsm.clone()),
            workload: Mutex::new(WorkloadProfile::new()),
            facts,
            gsm,
            source: RwLock::new(source.into()),
            generation: AtomicU64::new(0),
            shards: AtomicUsize::new(1),
            cache: Mutex::new(Default::default()),
            serving: Arc::new(Mutex::new(ServingStats::default())),
            templates: Mutex::new(FxHashMap::default()),
        });
        write(&self.registry).insert(id, entry);
        id
    }

    /// Partition this mapping's prepared solutions into node-range
    /// stripes. Accepts a plain count (`0`/`1` = one stripe) or
    /// [`ShardSpec::Auto`], which picks K per mapping from the graph
    /// size, the thread budget, and the observed serving stats. A query the
    /// cache misses evaluates per stripe on [`gde_datagraph::par`] workers
    /// and combines — the stripes' runs laid end to end for tuple mode,
    /// OR-short-circuit for Boolean. Changing the spec drops resident
    /// frozen solutions (they
    /// re-prepare under the new stripe layout on the next answer); answers
    /// are byte-identical at every `k`, `Auto` included.
    pub fn set_shard_count(
        &self,
        id: MappingId,
        k: impl Into<ShardSpec>,
    ) -> Result<(), ServeError> {
        let entry = self.entry(id)?;
        let enc = k.into().encode();
        if entry.shards.swap(enc, Ordering::Relaxed) != enc {
            let mut slots = lock(&entry.cache);
            for slot in slots.iter_mut() {
                self.release(slot);
            }
        }
        Ok(())
    }

    /// The stripe count a mapping currently serves from.
    /// Under [`ShardSpec::Auto`] this is the pick the next preparation
    /// would use; it can drift as serving statistics accrue.
    pub fn shard_count(&self, id: MappingId) -> Option<usize> {
        let entry = read(&self.registry).get(&id).cloned()?;
        Some(self.resolve_shards(&entry))
    }

    /// The configured [`ShardSpec`] for a mapping.
    pub fn shard_spec(&self, id: MappingId) -> Option<ShardSpec> {
        read(&self.registry)
            .get(&id)
            .map(|e| ShardSpec::decode(e.shards.load(Ordering::Relaxed)))
    }

    /// The cumulative serving statistics recorded for a mapping: cache
    /// hits and misses, and one entry per (query, stripe) evaluation of a
    /// miss, aggregated. See [`ServingStats`].
    pub fn serving_stats(&self, id: MappingId) -> Option<ServingStats> {
        read(&self.registry)
            .get(&id)
            .map(|e| lock(&e.serving).clone())
    }

    /// Label a mapping's serving statistics with the tenant namespace it
    /// serves under. The label rides along on every
    /// [`MappingService::serving_stats`] clone, and
    /// [`ServingStats::absorb`] refuses to fold stats across different
    /// labels — so a multi-tenant front-end aggregating per tenant can
    /// never bleed one tenant's counters into another's report.
    pub fn set_tenant_label(&self, id: MappingId, tenant: &str) -> Result<(), ServeError> {
        let entry = self.entry(id)?;
        lock(&entry.serving).tenant = tenant.to_string();
        Ok(())
    }

    /// The tenant label set by [`MappingService::set_tenant_label`]
    /// (empty when the mapping is unlabelled).
    pub fn tenant_label(&self, id: MappingId) -> Option<String> {
        read(&self.registry)
            .get(&id)
            .map(|e| lock(&e.serving).tenant.clone())
    }

    /// Register the query workload a mapping will serve: folds every
    /// query's labels and nullability into the mapping's workload
    /// profile and recomputes the served mapping — statically dead and
    /// subsumed rules are dropped, so the next preparation builds a
    /// smaller canonical solution. Sound for every registered query; a
    /// later *uncovered* query (new labels, or the first nullable one)
    /// auto-extends the workload and rebuilds, so answers are always
    /// byte-identical to serving the full mapping. A mapping that never
    /// registers a workload serves its full rule set.
    pub fn register_queries(
        &self,
        id: MappingId,
        queries: &[CompiledQuery],
    ) -> Result<(), ServeError> {
        let entry = self.entry(id)?;
        let mut changed = false;
        {
            let mut w = lock(&entry.workload);
            for q in queries {
                changed |= w.extend_with(q.shape());
            }
            // first registration activates pruning even when the queries
            // add no new labels (e.g. an empty slice after a non-empty one)
            changed |= !queries.is_empty();
        }
        if changed {
            self.reprune(&entry);
        }
        Ok(())
    }

    /// Run the static analyzer on a mapping: rule dependency graph, dead
    /// and subsumed rules (against the registered workload plus
    /// `queries`), per-query statically-empty verdicts, and — when a
    /// universal prepared solution is resident — cardinality estimates
    /// and closure hazards from its snapshot's label densities. Pure
    /// inspection: nothing is built, pruned, or invalidated.
    pub fn analyze(
        &self,
        id: MappingId,
        queries: &[CompiledQuery],
    ) -> Result<MappingReport, ServeError> {
        let entry = self.entry(id)?;
        let base = lock(&entry.workload).clone();
        let snap = {
            let slots = lock(&entry.cache);
            match &slots[Flavour::Universal as usize].state {
                SlotState::Ready(p) => Some(p.snapshot.clone()),
                _ => None,
            }
        };
        let qrefs: Vec<&CompiledQuery> = queries.iter().collect();
        Ok(analyze::analyze_mapping_with(
            &entry.gsm,
            &qrefs,
            base,
            snap.as_deref(),
        ))
    }

    /// Enable/disable transparent canonicalisation of ad-hoc queries (on
    /// by default): whether [`MappingService::answer`] /
    /// [`MappingService::answer_batch`] normalise each query onto its
    /// canonical skeleton so alpha-equivalent variants share one interned
    /// template — one compilation, one set of cached stripe answers.
    /// Answers are byte-identical either way (canonicalisation preserves
    /// the query's language); only compilation work and cache identity
    /// change. Explicit [`MappingService::answer_bound`] serves are
    /// unaffected by the toggle.
    pub fn set_canonicalisation(&self, on: bool) {
        self.canon_off.store(!on, Ordering::Relaxed);
    }

    /// The mapping the service actually serves from: the registered one,
    /// minus statically dead / subsumed rules once a workload is
    /// registered (see [`MappingService::register_queries`]).
    pub fn serve_gsm(&self, id: MappingId) -> Option<Arc<Gsm>> {
        read(&self.registry)
            .get(&id)
            .map(|e| read(&e.serve_gsm).clone())
    }

    /// Recompute a mapping's served rule set from its workload profile;
    /// on change, drop resident solutions (their sub-relation caches die
    /// with them) so the next serve rebuilds from the new rules.
    fn reprune(&self, entry: &MappingEntry) {
        let profile = lock(&entry.workload).clone();
        let target: Arc<Gsm> = if profile.is_empty() {
            entry.gsm.clone()
        } else {
            analyze::pruned_gsm(&entry.gsm, &profile)
                .map(Arc::new)
                .unwrap_or_else(|| entry.gsm.clone())
        };
        // lock order: cache, then serve_gsm (prepared()/apply_delta read
        // serve_gsm while holding the cache lock)
        let mut slots = lock(&entry.cache);
        let mut cur = write(&entry.serve_gsm);
        if cur.rules() == target.rules() {
            return;
        }
        *cur = target;
        for slot in slots.iter_mut() {
            self.release(slot);
        }
    }

    /// Guarantee the workload profile covers these queries before they
    /// are served from a (possibly pruned) mapping: uncovered queries
    /// extend the profile and trigger a reprune, so dead-rule pruning can
    /// never drop a rule some served query actually needs. No-op until a
    /// workload is registered (the full mapping covers everything).
    fn ensure_covered<'q>(
        &self,
        entry: &MappingEntry,
        queries: impl IntoIterator<Item = &'q CompiledQuery>,
    ) {
        let mut grew = false;
        {
            let mut w = lock(&entry.workload);
            if w.is_empty() {
                return;
            }
            for q in queries {
                if !w.covers(q.shape()) {
                    grew |= w.extend_with(q.shape());
                }
            }
        }
        if grew {
            self.reprune(entry);
        }
    }

    /// Resolve a mapping's encoded [`ShardSpec`] to a concrete stripe
    /// count (the [`auto_shard_count`] policy for `Auto`).
    fn resolve_shards(&self, entry: &MappingEntry) -> usize {
        match entry.shards.load(Ordering::Relaxed) {
            AUTO_SHARDS => {
                let nodes = read(&entry.source).node_count();
                let stats = lock(&entry.serving).clone();
                auto_shard_count(nodes, par::max_threads(), &stats)
            }
            k => k,
        }
    }

    /// Drop a mapping and its cached solutions. Returns `false` for
    /// unknown ids.
    pub fn unregister(&self, id: MappingId) -> bool {
        let entry = write(&self.registry).remove(&id);
        match entry {
            Some(e) => {
                let mut slots = lock(&e.cache);
                for slot in slots.iter_mut() {
                    self.release(slot);
                }
                true
            }
            None => false,
        }
    }

    /// Number of registered mappings.
    pub fn mapping_count(&self) -> usize {
        read(&self.registry).len()
    }

    /// The mapping behind an id.
    pub fn gsm(&self, id: MappingId) -> Option<Arc<Gsm>> {
        read(&self.registry).get(&id).map(|e| e.gsm.clone())
    }

    /// The current source graph behind an id (a point-in-time `Arc`;
    /// later deltas copy-on-write and do not affect it).
    pub fn source(&self, id: MappingId) -> Option<Arc<DataGraph>> {
        read(&self.registry)
            .get(&id)
            .map(|e| read(&e.source).clone())
    }

    /// The mapping's generation stamp: 0 at registration, +1 per
    /// state-changing delta. Answers are always served from a solution of
    /// the current source: a delta that changes what a cached solution
    /// may serve releases it.
    pub fn generation(&self, id: MappingId) -> Option<u64> {
        read(&self.registry)
            .get(&id)
            .map(|e| e.generation.load(Ordering::Acquire))
    }

    /// Is a fully frozen solution resident for this semantics' flavour
    /// right now?
    pub fn is_cached(&self, id: MappingId, sem: Semantics) -> bool {
        match self.entry(id) {
            Ok(e) => matches!(
                lock(&e.cache)[sem.flavour() as usize].state,
                SlotState::Ready(_)
            ),
            Err(_) => false,
        }
    }

    /// Service-wide counters.
    pub fn stats(&self) -> ServiceStats {
        let entries: Vec<Arc<MappingEntry>> = read(&self.registry).values().cloned().collect();
        let mut cached_solutions = 0;
        for e in &entries {
            let slots = lock(&e.cache);
            cached_solutions += slots.iter().filter(|s| s.bytes > 0).count();
        }
        ServiceStats {
            mappings: entries.len(),
            cached_solutions,
            cached_bytes: self.cached_bytes(),
            evictions: self.evictions.load(Ordering::Relaxed),
            patched_deltas: self.patched_deltas.load(Ordering::Relaxed),
            invalidating_deltas: self.invalidating_deltas.load(Ordering::Relaxed),
        }
    }

    /// Drop every cached solution (registrations stay).
    pub fn evict_all(&self) {
        let entries: Vec<Arc<MappingEntry>> = read(&self.registry).values().cloned().collect();
        for e in entries {
            let mut slots = lock(&e.cache);
            for slot in slots.iter_mut() {
                self.release(slot);
            }
        }
    }

    /// The unified serving entry point: answer `q` on mapping `id` under
    /// the chosen [`Semantics`]. Solutions and snapshots are cached per
    /// `(mapping, flavour)` and reused across calls, flavours and threads.
    ///
    /// Mappings with no solution at all (ε-rule conflicts) make every
    /// answer vacuously certain: `Tuples(AllVacuously)` / `Boolean(true)`.
    ///
    /// Equivalent to [`MappingService::answer_with`] under unbounded
    /// [`ServeOptions`] (no deadline, never cancelled), and to a batch of
    /// one: every entry point serves through the same door, retry loop,
    /// cache lookup and `(query, stripe)` scheduler.
    pub fn answer(
        &self,
        id: MappingId,
        q: &CompiledQuery,
        sem: Semantics,
    ) -> Result<Answer, ServeError> {
        self.answer_with(id, q, sem, &ServeOptions::default())
    }

    /// [`MappingService::answer`] under per-call [`ServeOptions`]: an
    /// optional cooperative deadline and a caller-owned cancel flag.
    ///
    /// Fault isolation applies on every path: a panicking stripe worker
    /// is contained, the flavour's prepared solution is quarantined
    /// (slot dropped with its cache, so no poisoned cache entry can ever
    /// serve again), and the serve retries once against a fresh
    /// rebuild — a second panic surfaces as
    /// [`ServeError::StripePanicked`]. Deadline/cancel expiry returns
    /// [`ServeError::DeadlineExceeded`] / [`ServeError::Cancelled`]
    /// without quarantining anything; a retry recomputes from consistent
    /// caches and returns byte-identical answers.
    pub fn answer_with(
        &self,
        id: MappingId,
        q: &CompiledQuery,
        sem: Semantics,
        opts: &ServeOptions,
    ) -> Result<Answer, ServeError> {
        let mut outcomes = self.serve(id, &[Request::Query(q)], sem, opts);
        outcomes.pop().expect("invariant: one request, one outcome")
    }

    /// Intern a prepared-statement template for this mapping: the
    /// skeleton compiles **once** (Thompson/NFA construction,
    /// register-automaton lowering, plan analysis) and every subsequent
    /// [`MappingService::answer_bound`] serves from the shared artifact.
    /// Idempotent — re-registering an identical skeleton returns the
    /// same [`TemplateId`] without recompiling. Templates are
    /// graph-independent: they survive deltas, evictions and shard-count
    /// changes.
    pub fn register_template(
        &self,
        id: MappingId,
        skeleton: &PlanSkeleton,
    ) -> Result<TemplateId, ServeError> {
        let entry = self.entry(id)?;
        let hash = skeleton.hash();
        if lock(&entry.templates).contains_key(&hash) {
            return Ok(TemplateId(hash));
        }
        // compile outside the lock; racing registrations build identical
        // templates and the first insert wins
        let built = Arc::new(QueryTemplate::new(skeleton.clone()));
        lock(&entry.templates).entry(hash).or_insert(built);
        Ok(TemplateId(hash))
    }

    /// Serve a bound instance of an interned template: no query
    /// compilation happens on this path — the template's precompiled
    /// artifact is label-rewritten through `bindings` (memoised per
    /// binding vector, so a repeat binding is an `Arc` clone) and served
    /// like any compiled query. The bound instance's cache identity is
    /// `(skeleton hash, binding hash)`, so a repeat binding reads back the
    /// whole answer or verdict its earlier serve cached, with one lookup
    /// on the calling thread.
    pub fn answer_bound(
        &self,
        id: MappingId,
        template: TemplateId,
        bindings: &[Label],
        sem: Semantics,
    ) -> Result<Answer, ServeError> {
        self.answer_bound_with(id, template, bindings, sem, &ServeOptions::default())
    }

    /// [`MappingService::answer_bound`] under per-call [`ServeOptions`]
    /// (deadline/cancel), with the same fault isolation as
    /// [`MappingService::answer_with`].
    pub fn answer_bound_with(
        &self,
        id: MappingId,
        template: TemplateId,
        bindings: &[Label],
        sem: Semantics,
        opts: &ServeOptions,
    ) -> Result<Answer, ServeError> {
        let mut outcomes = self.serve(id, &[Request::Bound(template, bindings)], sem, opts);
        outcomes.pop().expect("invariant: one request, one outcome")
    }

    /// Answer a whole batch under one semantics. Results come back in
    /// input order; per-query errors don't abort the batch. Every query
    /// is looked up in the cache on the calling thread first, so a batch
    /// whose queries all hit spawns no worker. For the misses the
    /// scheduling unit is a `(query, stripe)` task: workers (bounded by
    /// `par::set_max_threads` / `GDE_MAX_THREADS`) claim tasks
    /// dynamically, stripe-major so one query's stripes land on different
    /// workers, partial answers merge per query — union for tuples, OR
    /// with cross-stripe short-circuit for Booleans — and heavy queries
    /// don't pin a whole worker for their full duration.
    pub fn answer_batch(
        &self,
        id: MappingId,
        queries: &[CompiledQuery],
        sem: Semantics,
    ) -> Vec<Result<Answer, ServeError>> {
        self.answer_batch_with(id, queries, sem, &ServeOptions::default())
    }

    /// [`MappingService::answer_batch`] under per-call [`ServeOptions`]:
    /// one deadline/cancel control governs the whole batch. A control that
    /// fired before the call refuses every in-fragment query at the door;
    /// one that fires mid-flight stops the scheduler cooperatively, and
    /// every query still being evaluated returns the stop error (queries
    /// resolved at the door keep their outcome). Nothing incomplete is
    /// cached or half-recorded, so retrying the batch returns
    /// byte-identical answers. A panicking worker quarantines the flavour
    /// and the whole batch retries once against the rebuilt solution.
    pub fn answer_batch_with(
        &self,
        id: MappingId,
        queries: &[CompiledQuery],
        sem: Semantics,
        opts: &ServeOptions,
    ) -> Vec<Result<Answer, ServeError>> {
        let requests: Vec<Request<'_>> = queries.iter().map(Request::Query).collect();
        self.serve(id, &requests, sem, opts)
    }

    /// The one serve path behind every `answer*` entry point. Each
    /// request passes the same door ([`MappingService::door`]); the
    /// queries it admits are covered by the workload in one step, so one
    /// reprune-and-rebuild serves the whole call, and then evaluate
    /// together inside the one retry loop ([`MappingService::evaluate`]).
    /// Outcomes come back in request order.
    fn serve(
        &self,
        id: MappingId,
        requests: &[Request<'_>],
        sem: Semantics,
        opts: &ServeOptions,
    ) -> Vec<Outcome> {
        let entry = match self.entry(id) {
            Ok(e) => e,
            Err(e) => return vec![Err(e); requests.len()],
        };
        let ctrl = Arc::new(opts.control());
        let mut outcomes: Vec<Option<Outcome>> = Vec::with_capacity(requests.len());
        let mut admitted: Vec<Routed<'_>> = Vec::new();
        for &request in requests {
            match self.door(&entry, request, sem, &ctrl) {
                ControlFlow::Continue(q) => {
                    admitted.push(q);
                    outcomes.push(None);
                }
                ControlFlow::Break(outcome) => outcomes.push(Some(outcome)),
            }
        }
        self.ensure_covered(&entry, admitted.iter().map(|q| &**q));
        let mut evaluated = self.evaluate(&entry, &admitted, sem, &ctrl).into_iter();
        outcomes
            .into_iter()
            .map(|o| {
                o.unwrap_or_else(|| {
                    evaluated
                        .next()
                        .expect("invariant: one outcome per admitted query")
                })
            })
            .collect()
    }

    /// The serve door for one request. Every request takes the same steps
    /// in the same order, whichever entry point it came from:
    ///
    /// 1. an unknown template or a binding of the wrong arity;
    /// 2. a query outside the fragment the semantics supports;
    /// 3. a control that had already fired: the request is refused and
    ///    counted as `rejected`, before it charges anything — no routing,
    ///    no template hit, no solution;
    /// 4. canonicalisation routing and template-hit accounting;
    /// 5. the analyzer's statically-empty verdict.
    ///
    /// `Break` carries the request's outcome; `Continue` the query to
    /// evaluate, borrowed or shared with its template — never a copy.
    fn door<'a>(
        &self,
        entry: &MappingEntry,
        request: Request<'a>,
        sem: Semantics,
        ctrl: &EvalControl,
    ) -> ControlFlow<Outcome, Routed<'a>> {
        let (q, template) = match request {
            Request::Query(q) => (Routed::Borrowed(q), None),
            Request::Bound(id, bindings) => {
                let Some(template) = lock(&entry.templates).get(&id.0).cloned() else {
                    return ControlFlow::Break(Err(ServeError::UnknownTemplate(id)));
                };
                match template.bind_shared(bindings) {
                    Ok(bound) => (Routed::Shared(bound), Some(template)),
                    Err(BindError::Arity { expected, got }) => {
                        return ControlFlow::Break(Err(ServeError::BindingArity { expected, got }))
                    }
                }
            }
        };
        if let Err(e) = check_fragment(&q, sem) {
            return ControlFlow::Break(Err(e));
        }
        if ctrl.should_stop() {
            let cause = ctrl
                .fired()
                .expect("invariant: should_stop latched a cause");
            Self::note(entry, |s| s.rejected += 1);
            return ControlFlow::Break(Err(stop_error(cause, 0, 0)));
        }
        let q = match template {
            Some(template) => {
                Self::note_template_hit(entry, &template);
                q
            }
            None => self.route_template(entry, &q).map_or(q, Routed::Shared),
        };
        // the analyzer's statically-empty verdict: the query's labels are
        // disjoint from everything the mapping can produce and it cannot
        // match an isolated node — its certain answer is empty on every
        // source graph, under every semantics. O(1), no solution, no
        // stripes, no cache. (Such a query also never constrains pruning,
        // so it is deliberately not folded into the workload.)
        if analyze::statically_empty(q.shape(), &entry.facts) {
            Self::note(entry, |s| s.static_empty += 1);
            return ControlFlow::Break(Ok(empty_answer(sem.mode())));
        }
        ControlFlow::Continue(q)
    }

    /// Route an ad-hoc query onto its interned template: canonicalise
    /// the source, intern the skeleton's template (compiling it on first
    /// encounter), bind the lifted labels back in. Returns `None` when
    /// canonicalisation is off or the query is already template-bound
    /// (binding discriminant ≠ 0) — re-routing a bound instance would
    /// only rediscover its own skeleton. Template *hits* (and the
    /// compile work they skipped) are recorded only when the skeleton
    /// was already interned — the first encounter pays the compile.
    fn route_template(
        &self,
        entry: &MappingEntry,
        q: &CompiledQuery,
    ) -> Option<Arc<CompiledQuery>> {
        if self.canon_off.load(Ordering::Relaxed) || q.binding_hash() != 0 {
            return None;
        }
        let (skeleton, bindings) = canonicalize(q.source());
        let hash = skeleton.hash();
        let existing = lock(&entry.templates).get(&hash).cloned();
        let template = match existing {
            Some(t) => {
                Self::note_template_hit(entry, &t);
                t
            }
            None => {
                let built = Arc::new(QueryTemplate::new(skeleton));
                let mut templates = lock(&entry.templates);
                Arc::clone(templates.entry(hash).or_insert(built))
            }
        };
        let bound = template
            .bind_shared(bindings.labels())
            .expect("invariant: canonical bindings match their skeleton's arity");
        Some(bound)
    }

    /// Step 7 of a serve: evaluate the queries the door admitted inside
    /// the one retry loop. Every panic on the serve path is contained —
    /// fan-out workers by the `try_` fan-outs; (re)freezes, phase-1 builds
    /// and merges on this thread by `catch_unwind` here. A contained panic
    /// quarantines the flavour and the call retries once against a fresh
    /// rebuild; a second one fails every query with
    /// [`ServeError::StripePanicked`]. A stop is not a fault: stop errors
    /// are counted and returned with nothing quarantined and no retry —
    /// the caches are consistent as they are.
    fn evaluate(
        &self,
        entry: &MappingEntry,
        queries: &[Routed<'_>],
        sem: Semantics,
        ctrl: &Arc<EvalControl>,
    ) -> Vec<Outcome> {
        let n = queries.len();
        if n == 0 {
            return Vec::new();
        }
        for attempt in 0..2 {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                match self.prepared(entry, sem.flavour()) {
                    Ok(prep) => self.fan_out(entry, &prep, queries, sem, ctrl),
                    Err(e @ (SolutionError::NotRelational | SolutionError::IdSpaceExhausted)) => {
                        Ok(vec![Err(ServeError::from(e)); n])
                    }
                    Err(SolutionError::NoSolution { .. }) => {
                        Ok(vec![Ok(vacuous_answer(sem.mode())); n])
                    }
                }
            }));
            let err = match outcome {
                Ok(Ok(outcomes)) => {
                    for e in outcomes.iter().filter_map(|o| o.as_ref().err()) {
                        Self::note_stop(entry, e);
                    }
                    return outcomes;
                }
                Ok(Err(e)) => e,
                Err(payload) => ServeError::StripePanicked {
                    message: par::panic_message(&*payload),
                    stripes: Vec::new(),
                },
            };
            let panics = match &err {
                ServeError::StripePanicked { stripes, .. } => stripes.len().max(1) as u64,
                _ => 1,
            };
            Self::note(entry, |s| s.worker_panics += panics);
            self.quarantine(entry, sem.flavour());
            if attempt == 1 {
                return vec![Err(err); n];
            }
            Self::note(entry, |s| s.retries += 1);
        }
        unreachable!("the retry loop always returns")
    }

    /// The one scheduler behind every serve. Each query's whole answer
    /// is looked up first, on this thread, under its plan hash and
    /// binding: a serve whose queries all hit spawns no thread, builds no
    /// phase-1 state, and records its hits under one stats lock. Only the
    /// misses are evaluated ([`PreparedSolution::evaluate_misses`]), and
    /// each inserts its whole answer once. The exact enumeration is never
    /// cached: every exact query is a miss, run as one task over the whole
    /// solution. Every answer handed out, hit or miss, passes the
    /// [`FaultSite::Answer`] point on this thread. Once answered, a serve
    /// whose cache inserts found no room may evict colder solutions to
    /// make room for them.
    ///
    /// Returns `Err` only for a contained worker panic (the caller
    /// quarantines and retries). A control that fires mid-flight gives
    /// every missed query the stop error, except a Boolean hit found
    /// before it fired: certain answers are monotone across stripes, so
    /// the hit is a definitive `true`.
    fn fan_out(
        &self,
        entry: &MappingEntry,
        prep: &PreparedSolution,
        queries: &[Routed<'_>],
        sem: Semantics,
        ctrl: &Arc<EvalControl>,
    ) -> Result<Vec<Outcome>, ServeError> {
        let lookups = CacheHandle::new(prep.sub_cache.clone());
        // a hit is the verdict, or an `Arc` clone of the tuple answer
        let mut outcomes: Vec<Option<Outcome>> = queries
            .iter()
            .map(|q| {
                let hit = match sem {
                    Semantics::Exact(..) => None,
                    _ if sem.mode() == Mode::Boolean => lookups
                        .lookup_verdict(&served_key(q, Mode::Boolean))
                        .map(Answer::Boolean),
                    _ => lookups
                        .lookup_answer(&served_key(q, Mode::Tuples))
                        .map(|answer| Answer::Tuples(CertainAnswers::Pairs(answer))),
                };
                hit.map(Ok)
            })
            .collect();
        let misses: Vec<usize> = (0..queries.len())
            .filter(|&qi| outcomes[qi].is_none())
            .collect();
        let mut tally = Tally {
            hits: lookups.hits(),
            misses: lookups.misses(),
            ..Tally::default()
        };
        let evaluated = if misses.is_empty() {
            Ok(Vec::new())
        } else {
            let missed: Vec<&CompiledQuery> = misses.iter().map(|&qi| &*queries[qi]).collect();
            prep.evaluate_misses(&missed, sem, ctrl, &mut tally)
        };
        // one lock for the serve's accounting, whatever the misses'
        // outcome, so stats stay consistent across faulted and cancelled
        // serves
        let bytes = prep.sub_cache.bytes() as u64;
        lock(&prep.serving).record_serve(&tally, bytes);
        for (qi, outcome) in misses.into_iter().zip(evaluated.map_err(panic_error)?) {
            outcomes[qi] = Some(outcome);
        }
        let outcomes = outcomes
            .into_iter()
            .map(|o| {
                let o = o.expect("invariant: every query hit or was evaluated");
                // the one fault point every served answer passes on this
                // thread, hit or miss: a panic here quarantines like any
                // other
                if o.is_ok() {
                    faults::point(FaultSite::Answer);
                }
                o
            })
            .collect();
        // inserts found no room: evict colder solutions for them, but only
        // when this solution's own footprint plus the shortfall fits the
        // budget. Two solutions that cannot both fit would otherwise evict
        // each other on every serve; without the eviction, one that does
        // fit would never win room from a colder one.
        if tally.shortfall > 0 && prep.approx_bytes() + tally.shortfall <= self.ledger.budget() {
            self.enforce_budget(tally.shortfall, Some((entry.id, sem.flavour() as usize)));
        }
        Ok(outcomes)
    }

    /// Eagerly build the solution this semantics serves from. `Ok(true)`
    /// when a solution is resident afterwards, `Ok(false)` when the
    /// mapping has no solution at all (answers are vacuous).
    pub fn prepare(&self, id: MappingId, sem: Semantics) -> Result<bool, ServeError> {
        match self.solution(id, sem) {
            Ok(_) => Ok(true),
            Err(ServeError::NoSolution { .. }) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// The frozen canonical solution this semantics serves from (building
    /// it if needed). Unlike [`MappingService::answer`], a mapping without
    /// solutions surfaces as [`ServeError::NoSolution`] here.
    pub fn solution(
        &self,
        id: MappingId,
        sem: Semantics,
    ) -> Result<Arc<PreparedSolution>, ServeError> {
        let entry = self.entry(id)?;
        self.prepared(&entry, sem.flavour())
            .map_err(ServeError::from)
    }

    /// Apply a batch of source-graph mutations. The owned graph is updated
    /// copy-on-write (previously handed-out `Arc`s keep the old state) and
    /// the generation stamp is bumped. Cached solutions then stay or go:
    ///
    /// * they stay when no rule can see the delta's net effect (an edge
    ///   added and removed by the same delta cancels out): the net delta
    ///   changes nothing, or the mapping is LAV and relational — its rule
    ///   answers are exactly the per-label edge sets — and the delta
    ///   touches no rule's source label;
    /// * otherwise every cached solution is dropped, and the next answer
    ///   rebuilds from the new source.
    ///
    /// No-op deltas (nothing actually changed) bump nothing.
    pub fn apply_delta(
        &self,
        id: MappingId,
        delta: &GraphDelta,
    ) -> Result<DeltaReport, ServeError> {
        let entry = self.entry(id)?;
        // lock order everywhere: cache, then source
        let mut slots = lock(&entry.cache);
        let applied = {
            let mut src = write(&entry.source);
            Arc::make_mut(&mut src)
                .apply_delta(delta)
                .map_err(ServeError::InvalidDelta)?
        };
        let mut report = DeltaReport {
            generation: entry.generation.load(Ordering::Acquire),
            patched: true,
            added_nodes: applied.added_nodes,
            added_edges: applied.added_edges.len(),
            removed_edges: applied.removed_edges.len(),
        };
        if !applied.changed() {
            return Ok(report);
        }
        report.generation = entry.generation.fetch_add(1, Ordering::AcqRel) + 1;
        // adds apply before removals, so an edge in both sets is net absent
        // exactly as before the delta
        let added: FxHashSet<_> = applied.added_edges.iter().copied().collect();
        let removed: FxHashSet<_> = applied.removed_edges.iter().copied().collect();
        let mut net = added.symmetric_difference(&removed);
        // cached solutions were built from the *served* (possibly pruned)
        // mapping; pruning is data-independent, so a delta never changes it
        let serve = read(&entry.serve_gsm).clone();
        let class = serve.classify();
        let inert = if class.lav && class.relational {
            !net.any(|&(_, l, _)| serve.rules().iter().any(|r| r.source.as_atom() == Some(l)))
        } else {
            applied.added_nodes == 0 && net.next().is_none()
        };
        for slot in slots.iter_mut() {
            match slot.state {
                // the mapping's class doesn't change with data
                SlotState::Empty | SlotState::Failed(SolutionError::NotRelational) => {}
                _ if inert => {}
                _ => {
                    self.release(slot);
                    report.patched = false;
                }
            }
        }
        drop(slots);
        if report.patched {
            self.patched_deltas.fetch_add(1, Ordering::Relaxed);
        } else {
            self.invalidating_deltas.fetch_add(1, Ordering::Relaxed);
        }
        Ok(report)
    }

    // ----- internals -----

    fn entry(&self, id: MappingId) -> Result<Arc<MappingEntry>, ServeError> {
        read(&self.registry)
            .get(&id)
            .cloned()
            .ok_or(ServeError::UnknownMapping(id))
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Clear a slot and give its bytes back to the budget: the base bytes
    /// exactly as the build charged them, and every cache entry by
    /// closing the cache, which also declines the inserts of serves still
    /// holding the solution.
    fn release(&self, slot: &mut Slot) {
        if let SlotState::Ready(prep) = &slot.state {
            prep.sub_cache.close();
        }
        self.ledger.release(slot.bytes);
        *slot = Slot::default();
    }

    /// Record into a mapping's serving-stats accumulator.
    fn note(entry: &MappingEntry, f: impl FnOnce(&mut ServingStats)) {
        f(&mut lock(&entry.serving));
    }

    /// Count a serve answered through an already-interned template, with
    /// the compile work the template saved it.
    fn note_template_hit(entry: &MappingEntry, template: &QueryTemplate) {
        Self::note(entry, |s| {
            s.template_hits += 1;
            s.compile_skipped_ns += template.compile_ns();
        });
    }

    /// Count a stop-error outcome against the mapping's serving stats.
    fn note_stop(entry: &MappingEntry, e: &ServeError) {
        match e {
            ServeError::DeadlineExceeded { .. } => {
                Self::note(entry, |s| s.deadline_exceeded += 1);
            }
            ServeError::Cancelled { .. } => Self::note(entry, |s| s.cancelled += 1),
            _ => {}
        }
    }

    /// Quarantine one flavour after a contained worker panic: the panic
    /// may have left the prepared solution's shared artifacts (sub-
    /// relation cache, half-built memo state) in an arbitrary state, so
    /// the slot is released — its cache is closed, so nothing a
    /// concurrent serve holding the old `Arc` still writes is kept — and
    /// the next serve of that flavour rebuilds from the source. The other
    /// flavour's slot is untouched.
    fn quarantine(&self, entry: &MappingEntry, flavour: Flavour) {
        self.release(&mut lock(&entry.cache)[flavour as usize]);
    }

    /// Get (building if necessary) the cached prepared solution for a
    /// flavour. Builds happen under the entry's cache lock — concurrent
    /// first answers to one mapping serialize, different mappings don't.
    fn prepared(
        &self,
        entry: &MappingEntry,
        flavour: Flavour,
    ) -> Result<Arc<PreparedSolution>, SolutionError> {
        let out;
        {
            let mut slots = lock(&entry.cache);
            let slot = &mut slots[flavour as usize];
            match &slot.state {
                SlotState::Ready(p) => {
                    slot.last_used = self.tick();
                    return Ok(p.clone());
                }
                SlotState::Failed(e) => return Err(e.clone()),
                SlotState::Empty => {}
            }
            // an Empty slot charges nothing, so a contained panic mid-build
            // leaves it Empty with zero bytes — consistent, just cold
            let shards = self.resolve_shards(entry);
            let source = read(&entry.source).clone();
            // build from the served (possibly pruned) mapping —
            // answer-equivalent for every covered query, smaller when the
            // analyzer dropped dead/subsumed rules
            let gsm = read(&entry.serve_gsm).clone();
            let built = match flavour {
                Flavour::Universal => universal_solution(&gsm, &source),
                Flavour::LeastInformative => least_informative_solution(&gsm, &source),
            }
            // every solution built for this mapping records into the
            // mapping's own accumulator, and its cache charges the
            // service's ledger
            .map(|sol| PreparedSolution::new(sol, shards, entry.serving.clone(), &self.ledger));
            match built {
                Ok(prep) => {
                    let prep = Arc::new(prep);
                    // the cache is still empty: solution and snapshot
                    slot.bytes = prep.approx_bytes();
                    self.ledger.charge(slot.bytes);
                    slot.last_used = self.tick();
                    slot.state = SlotState::Ready(prep.clone());
                    out = Ok(prep);
                }
                Err(e) => {
                    slot.state = SlotState::Failed(e.clone());
                    out = Err(e);
                }
            }
        }
        if out.is_ok() {
            self.enforce_budget(0, Some((entry.id, flavour as usize)));
            self.release_if_unregistered(entry);
        }
        out
    }

    /// A racing `unregister` can drop an entry from the registry while a
    /// build still holds its `Arc` and is about to charge bytes for it;
    /// anything charged to such an orphan would be unreachable to both
    /// eviction and `unregister` forever. Called after every build's
    /// charge; the orphan's cache needs no such check, since releasing
    /// the slot closes it. (`release` zeroes `bytes`, so double releases
    /// are no-ops.)
    fn release_if_unregistered(&self, entry: &MappingEntry) {
        if !read(&self.registry).contains_key(&entry.id) {
            let mut slots = lock(&entry.cache);
            for slot in slots.iter_mut() {
                self.release(slot);
            }
        }
    }

    /// Evict least-recently-served solutions until the charged bytes plus
    /// `reserve` fit the budget. `protect` shields the `(mapping, flavour
    /// index)` slot serving the current answer. Locks at most one entry
    /// cache at a time (and is only ever called with no cache lock held),
    /// so builders in different entries cannot deadlock.
    fn enforce_budget(&self, reserve: usize, protect: Option<(MappingId, usize)>) {
        let budget = self.ledger.budget();
        if budget == 0 {
            return;
        }
        // bounded sweeps: a concurrent toucher can invalidate one pick, not
        // starve the loop
        for _ in 0..64 {
            if self.ledger.used().saturating_add(reserve) <= budget {
                return;
            }
            let entries: Vec<Arc<MappingEntry>> = read(&self.registry).values().cloned().collect();
            let mut victim: Option<(u64, Arc<MappingEntry>, usize)> = None;
            for e in &entries {
                let slots = lock(&e.cache);
                for (fi, slot) in slots.iter().enumerate() {
                    if slot.bytes == 0 || protect == Some((e.id, fi)) {
                        continue;
                    }
                    if victim
                        .as_ref()
                        .is_none_or(|(lu, _, _)| slot.last_used < *lu)
                    {
                        victim = Some((slot.last_used, e.clone(), fi));
                    }
                }
            }
            let Some((last_used, e, fi)) = victim else {
                return; // nothing evictable (only the protected slot is resident)
            };
            let mut slots = lock(&e.cache);
            let slot = &mut slots[fi];
            if slot.bytes > 0 && slot.last_used == last_used {
                self.release(slot);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// The §8 engine only supports the inequality-free fragment.
fn check_fragment(q: &CompiledQuery, sem: Semantics) -> Result<(), ServeError> {
    if matches!(sem, Semantics::LeastInformative(_)) && !q.is_equality_only() {
        return Err(ServeError::UnsupportedQuery(
            "least-informative engine requires an inequality-free query (REM=/REE=)",
        ));
    }
    Ok(())
}

/// When no solution exists, every tuple is vacuously certain.
fn vacuous_answer(mode: Mode) -> Answer {
    match mode {
        Mode::Tuples => Answer::Tuples(CertainAnswers::AllVacuously),
        Mode::Boolean => Answer::Boolean(true),
    }
}

/// The statically-empty answer: no pair is certain, nothing holds.
fn empty_answer(mode: Mode) -> Answer {
    match mode {
        Mode::Tuples => Answer::Tuples(CertainAnswers::Pairs(AnswerRun::from([]))),
        Mode::Boolean => Answer::Boolean(false),
    }
}

/// One-shot serving: register `(gsm, source)` on a private service and
/// answer `q` under `sem` through the same door as every other serve, then
/// throw the artifacts away. Hold a [`MappingService`] instead when
/// answering more than once.
pub fn answer_once(
    gsm: &Gsm,
    source: &DataGraph,
    q: &CompiledQuery,
    sem: Semantics,
) -> Result<Answer, ServeError> {
    let svc = MappingService::new();
    // one query has no alpha-equivalent sibling to share a template with
    svc.set_canonicalisation(false);
    let id = svc.register(gsm.clone(), source.clone());
    svc.answer(id, q, sem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gde_automata::parse_regex;
    use gde_datagraph::{Alphabet, Value};
    use gde_dataquery::{parse_ree, DataQuery};

    /// The same scenario as `certain.rs`: 0(v5) -a-> 1(v5) -a-> 2(v7),
    /// mapping (a, x y).
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
        gs.add_node(NodeId(2), Value::int(7)).unwrap();
        gs.add_edge_str(NodeId(0), "a", NodeId(1)).unwrap();
        gs.add_edge_str(NodeId(1), "a", NodeId(2)).unwrap();
        (m, gs)
    }

    #[test]
    fn service_serves_all_semantics() {
        let (m, gs) = scenario();
        let svc = MappingService::new();
        let id = svc.register(m.clone(), gs);
        let mut ta = m.target_alphabet().clone();
        let q = gde_dataquery::DataQuery::from(parse_ree("(x y)=", &mut ta).unwrap()).compile();
        let nulls = svc.answer(id, &q, Semantics::nulls()).unwrap().into_pairs();
        assert_eq!(nulls, vec![(NodeId(0), NodeId(1))]);
        let li = svc
            .answer(id, &q, Semantics::least_informative())
            .unwrap()
            .into_pairs();
        assert_eq!(li, nulls);
        let exact = svc.answer(id, &q, Semantics::exact()).unwrap().into_pairs();
        assert_eq!(exact, nulls);
        assert!(svc
            .answer(id, &q, Semantics::nulls_boolean())
            .unwrap()
            .boolean());
        assert!(svc
            .answer(id, &q, Semantics::least_informative_boolean())
            .unwrap()
            .boolean());
        assert!(svc
            .answer(id, &q, Semantics::exact_boolean())
            .unwrap()
            .boolean());
        // dispatch helper routes by fragment
        let neq = gde_dataquery::DataQuery::from(parse_ree("(x y)!=", &mut ta).unwrap()).compile();
        assert_eq!(Semantics::preferred_for(&q), Semantics::least_informative());
        assert_eq!(Semantics::preferred_for(&neq), Semantics::nulls());
        assert!(matches!(
            svc.answer(id, &neq, Semantics::least_informative()),
            Err(ServeError::UnsupportedQuery(_))
        ));
        // caches are resident and accounted
        assert!(svc.is_cached(id, Semantics::nulls()));
        assert!(svc.is_cached(id, Semantics::least_informative()));
        assert!(svc.cached_bytes() > 0);
        assert_eq!(svc.stats().cached_solutions, 2);
    }

    #[test]
    fn sharded_serving_matches_unsharded() {
        let (m, gs) = scenario();
        let reference = MappingService::new();
        let rid = reference.register(m.clone(), gs.clone());
        let mut ta = m.target_alphabet().clone();
        let queries: Vec<CompiledQuery> = ["x y", "(x y)=", "x+", "y x"]
            .iter()
            .map(|s| gde_dataquery::DataQuery::from(parse_ree(s, &mut ta).unwrap()).compile())
            .collect();
        for k in [2, 3, 8] {
            let svc = MappingService::new();
            let id = svc.register(m.clone(), gs.clone());
            svc.set_shard_count(id, k).unwrap();
            assert_eq!(svc.shard_count(id), Some(k));
            for sem in [
                Semantics::nulls(),
                Semantics::nulls_boolean(),
                Semantics::least_informative(),
                Semantics::least_informative_boolean(),
                Semantics::exact(),
                Semantics::exact_boolean(),
            ] {
                for q in &queries {
                    assert_eq!(
                        svc.answer(id, q, sem),
                        reference.answer(rid, q, sem),
                        "k={k} {sem:?}"
                    );
                }
                let batch = svc.answer_batch(id, &queries, sem);
                for (q, got) in queries.iter().zip(batch) {
                    assert_eq!(got, reference.answer(rid, q, sem), "batch k={k} {sem:?}");
                }
            }
            let prep = svc.solution(id, Semantics::nulls()).unwrap();
            assert_eq!(prep.shard_count(), k);
            assert_eq!(prep.plan().shard_count(), k);
        }
        // resizing (including back to 1) re-prepares and keeps answers
        let svc = MappingService::new();
        let id = svc.register(m.clone(), gs.clone());
        svc.set_shard_count(id, 4).unwrap();
        let a4 = svc.answer(id, &queries[0], Semantics::nulls());
        svc.set_shard_count(id, 1).unwrap();
        assert_eq!(svc.answer(id, &queries[0], Semantics::nulls()), a4);
        // a stripe is a row range of the one snapshot, not a copy: a
        // freshly prepared solution weighs the same at every K
        let fresh_bytes: Vec<usize> = [1, 2, 4]
            .into_iter()
            .map(|k| {
                let svc = MappingService::new();
                let id = svc.register(m.clone(), gs.clone());
                svc.set_shard_count(id, k).unwrap();
                svc.prepare(id, Semantics::nulls()).unwrap();
                let prep = svc.solution(id, Semantics::nulls()).unwrap();
                assert_eq!(prep.shard_count(), k);
                prep.approx_bytes()
            })
            .collect();
        assert!(
            fresh_bytes.iter().all(|&b| b == fresh_bytes[0]),
            "{fresh_bytes:?}"
        );
    }

    #[test]
    fn auto_shard_spec_resolves_and_serves_identically() {
        let (m, gs) = scenario();
        let reference = MappingService::new();
        let rid = reference.register(m.clone(), gs.clone());
        let svc = MappingService::new();
        let id = svc.register(m.clone(), gs.clone());
        svc.set_shard_count(id, ShardSpec::Auto).unwrap();
        assert_eq!(svc.shard_spec(id), Some(ShardSpec::Auto));
        // tiny graph: the policy keeps it unsharded, and the resolved
        // count is what shard_count reports
        let k = svc.shard_count(id).unwrap();
        assert_eq!(k, 1, "3-node graphs must not shard");
        let mut ta = m.target_alphabet().clone();
        let q = gde_dataquery::DataQuery::from(parse_ree("x y", &mut ta).unwrap()).compile();
        assert_eq!(
            svc.answer(id, &q, Semantics::nulls()),
            reference.answer(rid, &q, Semantics::nulls())
        );
        assert_eq!(
            svc.solution(id, Semantics::nulls()).unwrap().shard_count(),
            k
        );
        // switching back to a fixed spec round-trips
        svc.set_shard_count(id, 3).unwrap();
        assert_eq!(svc.shard_spec(id), Some(ShardSpec::Fixed(3)));
        assert_eq!(svc.shard_count(id), Some(3));
    }

    #[test]
    fn auto_policy_scales_with_size_threads_and_stats() {
        let idle = ServingStats::default();
        // tiny graphs never shard, whatever the thread budget
        assert_eq!(auto_shard_count(100, 8, &idle), 1);
        // big graph: one stripe per worker thread
        assert_eq!(auto_shard_count(100_000, 4, &idle), 4);
        // ... but never stripes below ~1k rows
        assert_eq!(auto_shard_count(3000, 8, &idle), 2);
        // Boolean-leaning workloads get no stripes beyond the thread budget
        let boolish = ServingStats {
            boolean_evals: 10,
            tuple_evals: 2,
            ..Default::default()
        };
        assert_eq!(auto_shard_count(100_000, 1, &boolish), 1);
        // heavy evaluations oversubscribe the thread budget 2x
        let heavy = ServingStats {
            tuple_evals: 4,
            eval_ns: 4 * 50_000_000,
            ..Default::default()
        };
        assert_eq!(auto_shard_count(100_000, 4, &heavy), 8);
        assert_eq!(heavy.mean_eval_ns(), 50_000_000);
        // ... unless phase-1 memo construction dominates: the serial
        // prefix caps the useful stripe count at the thread budget
        let memo_bound = ServingStats {
            tuple_evals: 4,
            eval_ns: 4 * 50_000_000,
            memo_build_ns: 5 * 4 * 50_000_000,
            ..Default::default()
        };
        assert!(memo_bound.memo_share() > 0.5);
        assert_eq!(auto_shard_count(100_000, 4, &memo_bound), 4);
    }

    #[test]
    fn serving_stats_accumulate_per_stripe() {
        let (m, gs) = scenario();
        let svc = MappingService::new();
        let id = svc.register(m.clone(), gs);
        assert_eq!(svc.serving_stats(id), Some(ServingStats::default()));
        let mut ta = m.target_alphabet().clone();
        let q = gde_dataquery::DataQuery::from(parse_ree("x y", &mut ta).unwrap()).compile();
        svc.answer(id, &q, Semantics::nulls()).unwrap();
        svc.answer(id, &q, Semantics::nulls_boolean()).unwrap();
        let stats = svc.serving_stats(id).unwrap();
        assert_eq!(stats.tuple_evals, 1);
        assert_eq!(stats.boolean_evals, 1);
        assert_eq!(stats.tuples, 2, "x y has two dom answers");
        assert_eq!(stats.mean_tuples(), 2);
        // a one-stripe plan caches like any other: the repeat hits, and a
        // hit evaluates nothing
        let misses = stats.cache_misses;
        assert!(misses > 0, "the cold K=1 serve fills the cache");
        svc.answer(id, &q, Semantics::nulls()).unwrap();
        let stats = svc.serving_stats(id).unwrap();
        assert!(
            stats.cache_hits > 0,
            "the repeated K=1 serve hits the cache"
        );
        assert_eq!(stats.cache_misses, misses);
        assert_eq!(stats.tuple_evals, 1);
        // a sharded miss records one eval per (query, stripe)
        svc.set_shard_count(id, 2).unwrap();
        svc.answer(id, &q, Semantics::nulls()).unwrap();
        let stats = svc.serving_stats(id).unwrap();
        assert_eq!(stats.tuple_evals, 3);
        // the accumulator belongs to the mapping: eviction keeps it
        svc.evict_all();
        assert_eq!(svc.serving_stats(id).unwrap().tuple_evals, 3);
    }

    #[test]
    fn warm_tuple_serve_reads_one_cached_answer() {
        let (m, gs) = scenario();
        let mut ta = m.target_alphabet().clone();
        // an RPQ builds nothing in phase 1: its one lookup is its answer's
        let q = DataQuery::Rpq(parse_regex("x y", &mut ta).unwrap()).compile();
        for k in [1usize, 2, 4] {
            let svc = MappingService::new();
            let id = svc.register(m.clone(), gs.clone());
            svc.set_shard_count(id, k).unwrap();
            let cold = svc.answer(id, &q, Semantics::nulls()).unwrap();
            assert_eq!(
                cold.clone().into_pairs(),
                vec![(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))]
            );
            let before = svc.serving_stats(id).unwrap();
            assert_eq!((before.cache_hits, before.cache_misses), (0, 1), "k={k}");
            let prep = svc.solution(id, Semantics::nulls()).unwrap();
            let bytes = prep.sub_cache().bytes();
            assert_eq!(
                bytes,
                2 * 8 + gde_dataquery::ENTRY_OVERHEAD,
                "k={k}: one entry of 8 bytes a pair"
            );
            let warm = svc.answer(id, &q, Semantics::nulls()).unwrap();
            let after = svc.serving_stats(id).unwrap();
            assert_eq!(warm, cold, "k={k}");
            assert_eq!(after.cache_hits - before.cache_hits, 1, "k={k}");
            assert_eq!(after.cache_misses, before.cache_misses, "k={k}");
            assert_eq!(
                prep.sub_cache().bytes(),
                bytes,
                "k={k}: a hit inserts nothing"
            );
        }
    }

    #[test]
    fn prepared_rows_are_sorted_dom_then_invented() {
        // a source inserted out of id order, with a node no rule reads
        let (m, _) = scenario();
        let mut gs = DataGraph::new();
        for (id, v) in [(9, 7), (4, 5), (30, 1), (2, 5)] {
            gs.add_node(NodeId(id), Value::int(v)).unwrap();
        }
        gs.add_edge_str(NodeId(9), "a", NodeId(2)).unwrap();
        gs.add_edge_str(NodeId(4), "a", NodeId(9)).unwrap();
        let svc = MappingService::new();
        let id = svc.register(m, gs);
        for sem in [Semantics::nulls(), Semantics::least_informative()] {
            let prep = svc.solution(id, sem).unwrap();
            let snap = prep.snapshot();
            let rows: Vec<NodeId> = (0..snap.n() as u32).map(|d| snap.id_at(d)).collect();
            let (dom, invented) = rows.split_at(3);
            assert_eq!(dom, [NodeId(2), NodeId(4), NodeId(9)], "{sem:?}");
            assert_eq!(invented, prep.solution().invented.as_slice(), "{sem:?}");
            assert_eq!(invented.len(), 2, "{sem:?}: one middle node per a-edge");
        }
    }

    #[test]
    fn sharded_serving_records_memo_and_cache_stats() {
        let (m, gs) = scenario();
        let svc = MappingService::new();
        let id = svc.register(m.clone(), gs);
        svc.set_shard_count(id, 2).unwrap();
        let mut ta = m.target_alphabet().clone();
        let q = gde_dataquery::DataQuery::from(parse_ree("(x y)+", &mut ta).unwrap()).compile();
        // cold call: the closure memo is built once, before the stripe
        // fan-out, and charged to memo_build_ns — not to stripe eval time
        let cold = svc.answer(id, &q, Semantics::nulls()).unwrap();
        let stats = svc.serving_stats(id).unwrap();
        assert!(stats.memo_build_ns > 0, "phase-1 memo build must be timed");
        assert!(stats.cache_misses > 0, "cold run populates the cache");
        assert_eq!(stats.cache_hits, 0, "nothing to hit on a cold cache");
        assert!(stats.cache_bytes > 0, "resident entries are accounted");
        // warm call: stripe results and shared artifacts come from the
        // cache, byte-identical to the cold answer
        let warm = svc.answer(id, &q, Semantics::nulls()).unwrap();
        assert_eq!(warm, cold);
        let stats = svc.serving_stats(id).unwrap();
        assert!(stats.cache_hits > 0, "repeat serving must hit");
        assert!(stats.cache_hit_rate() > 0.0);
        // a delta bumps the generation: stale entries never serve, the
        // next call misses again and still matches an unsharded reference
        let misses_before = stats.cache_misses;
        let delta = GraphDelta::new().with_edge(NodeId(2), "a", NodeId(0));
        svc.apply_delta(id, &delta).unwrap();
        let (m2, gs2) = scenario();
        let reference = MappingService::new();
        let rid = reference.register(m2, gs2);
        reference.apply_delta(rid, &delta).unwrap();
        let fresh = svc.answer(id, &q, Semantics::nulls()).unwrap();
        assert_eq!(
            fresh,
            reference.answer(rid, &q, Semantics::nulls()).unwrap()
        );
        let stats = svc.serving_stats(id).unwrap();
        assert!(
            stats.cache_misses > misses_before,
            "post-delta serving must rebuild, not reuse stale generations"
        );
    }

    #[test]
    fn unknown_and_unregistered_mappings_error() {
        let (m, gs) = scenario();
        let svc = MappingService::new();
        let id = svc.register(m.clone(), gs);
        let bogus = MappingId(999);
        let mut ta = m.target_alphabet().clone();
        let q = gde_dataquery::DataQuery::from(parse_ree("x", &mut ta).unwrap()).compile();
        assert_eq!(
            svc.answer(bogus, &q, Semantics::nulls()).err(),
            Some(ServeError::UnknownMapping(bogus))
        );
        assert!(svc.answer(id, &q, Semantics::nulls()).is_ok());
        assert!(svc.unregister(id));
        assert!(!svc.unregister(id));
        assert_eq!(svc.mapping_count(), 0);
        assert_eq!(svc.cached_bytes(), 0, "unregister releases cache bytes");
        assert_eq!(
            svc.answer(id, &q, Semantics::nulls()).err(),
            Some(ServeError::UnknownMapping(id))
        );
    }

    #[test]
    fn answer_once_and_batch_agree_with_service() {
        let (m, gs) = scenario();
        let svc = MappingService::new();
        let id = svc.register(m.clone(), gs.clone());
        let mut ta = m.target_alphabet().clone();
        let queries: Vec<CompiledQuery> = ["x y", "(x y)=", "y x"]
            .iter()
            .map(|s| gde_dataquery::DataQuery::from(parse_ree(s, &mut ta).unwrap()).compile())
            .collect();
        for sem in [
            Semantics::nulls(),
            Semantics::nulls_boolean(),
            Semantics::exact(),
        ] {
            let batch = svc.answer_batch(id, &queries, sem);
            for (q, got) in queries.iter().zip(batch) {
                assert_eq!(got, svc.answer(id, q, sem));
                assert_eq!(got, answer_once(&m, &gs, q, sem));
            }
        }
    }

    #[test]
    fn serves_repeated_queries_from_one_solution() {
        let (m, gs) = scenario();
        let svc = MappingService::new();
        let id = svc.register(m.clone(), gs);
        let mut ta = m.target_alphabet().clone();
        let q1 = DataQuery::from(parse_regex("x y", &mut ta).unwrap()).compile();
        let q2 = DataQuery::from(parse_ree("(x y)=", &mut ta).unwrap()).compile();
        let a1 = svc
            .answer(id, &q1, Semantics::nulls())
            .unwrap()
            .into_pairs();
        assert_eq!(a1, vec![(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))]);
        let a2 = svc
            .answer(id, &q2, Semantics::nulls())
            .unwrap()
            .into_pairs();
        assert_eq!(a2, vec![(NodeId(0), NodeId(1))]);
        // the universal solution was built exactly once
        let p1 = svc.solution(id, Semantics::nulls()).unwrap();
        svc.answer(id, &q1, Semantics::nulls()).unwrap();
        let p2 = svc.solution(id, Semantics::nulls()).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2));
    }

    #[test]
    fn preferred_semantics_dispatch_answers() {
        let (m, gs) = scenario();
        let svc = MappingService::new();
        let id = svc.register(m.clone(), gs);
        let mut ta = m.target_alphabet().clone();
        let eq = DataQuery::from(parse_ree("(x y)=", &mut ta).unwrap()).compile();
        let neq = DataQuery::from(parse_ree("(x y)!=", &mut ta).unwrap()).compile();
        // serving default: = dispatches to 2, ≠ to 2ⁿ
        let serve = |q: &CompiledQuery| {
            svc.answer(id, q, Semantics::preferred_for(q))
                .unwrap()
                .into_pairs()
        };
        assert_eq!(serve(&eq), vec![(NodeId(0), NodeId(1))]);
        assert_eq!(serve(&neq), vec![(NodeId(1), NodeId(2))]);
    }

    #[test]
    fn boolean_engines_answer_false_too() {
        let (m, gs) = scenario();
        let svc = MappingService::new();
        let id = svc.register(m.clone(), gs);
        let mut ta = m.target_alphabet().clone();
        // "y y" can never appear in any minimal solution
        let q = DataQuery::from(parse_ree("y y", &mut ta).unwrap()).compile();
        for sem in [
            Semantics::nulls_boolean(),
            Semantics::least_informative_boolean(),
            Semantics::exact_boolean(),
        ] {
            assert!(!svc.answer(id, &q, sem).unwrap().boolean(), "{sem:?}");
        }
    }

    #[test]
    fn vacuous_and_non_relational_cases() {
        // ε-rule conflict: no solution exists
        let mut sa = Alphabet::from_labels(["a"]);
        let ta = Alphabet::from_labels(["x"]);
        let mut m = Gsm::new(sa.clone(), ta.clone());
        m.add_rule(
            parse_regex("a", &mut sa).unwrap(),
            gde_automata::Regex::Epsilon,
        );
        let mut gs = DataGraph::new();
        gs.add_node(NodeId(0), Value::int(1)).unwrap();
        gs.add_node(NodeId(1), Value::int(2)).unwrap();
        gs.add_edge_str(NodeId(0), "a", NodeId(1)).unwrap();
        let svc = MappingService::new();
        let id = svc.register(m, gs);
        let mut ta2 = ta.clone();
        let q = DataQuery::from(parse_ree("x", &mut ta2).unwrap()).compile();
        assert_eq!(
            svc.answer(id, &q, Semantics::nulls()),
            Ok(Answer::Tuples(CertainAnswers::AllVacuously))
        );
        assert_eq!(
            svc.answer(id, &q, Semantics::nulls_boolean()),
            Ok(Answer::Boolean(true))
        );
        // ... and through the service accessor it surfaces as an error
        assert!(matches!(
            svc.solution(id, Semantics::nulls()),
            Err(ServeError::NoSolution { .. })
        ));
        assert_eq!(svc.prepare(id, Semantics::nulls()), Ok(false));

        // non-relational mapping rejected by every engine
        let (m2, gs2) = scenario();
        let mut m3 = m2.clone();
        let reach = gde_automata::Regex::reachability(m3.target_alphabet());
        m3.add_rule(
            gde_automata::Regex::Atom(m3.source_alphabet().label("a").unwrap()),
            reach,
        );
        let svc = MappingService::new();
        let id = svc.register(m3, gs2);
        assert_eq!(
            svc.answer(id, &q, Semantics::nulls()).err(),
            Some(ServeError::NotRelational)
        );
        assert_eq!(
            svc.answer(id, &q, Semantics::exact()).err(),
            Some(ServeError::NotRelational)
        );
    }

    // ----- deltas: a write either keeps every slot or drops them all, and
    // the next serve rebuilds what a fresh build of the new source would -----

    /// `gs` with `delta` applied: the source a service that took the delta
    /// must serve exactly as if it had been registered with it.
    fn mutated(gs: &DataGraph, delta: &GraphDelta) -> DataGraph {
        let mut g = gs.clone();
        g.apply_delta(delta).unwrap();
        g
    }

    fn compile(src: &str, ta: &mut Alphabet) -> CompiledQuery {
        DataQuery::from(parse_ree(src, ta).unwrap()).compile()
    }

    #[test]
    fn rule_delta_rebuilds_what_a_fresh_build_would() {
        // a new a-edge 2 -a-> 0 between existing nodes: both flavours drop
        // and rebuild shaped like a fresh build of the new source
        let (m, gs) = scenario();
        let svc = MappingService::new();
        let id = svc.register(m.clone(), gs.clone());
        for sem in [Semantics::nulls(), Semantics::least_informative()] {
            svc.prepare(id, sem).unwrap();
        }
        let delta = GraphDelta::new().with_edge(NodeId(2), "a", NodeId(0));
        let report = svc.apply_delta(id, &delta).unwrap();
        assert!(!report.patched);
        assert_eq!((report.generation, report.added_edges), (1, 1));
        let gs2 = mutated(&gs, &delta);
        for (sem, fresh) in [
            (Semantics::nulls(), universal_solution(&m, &gs2).unwrap()),
            (
                Semantics::least_informative(),
                least_informative_solution(&m, &gs2).unwrap(),
            ),
        ] {
            let prep = svc.solution(id, sem).unwrap();
            let sol = prep.solution();
            assert!(m.is_solution(&gs2, &sol.graph), "{sem:?}");
            assert_eq!(sol.dom_nodes(), fresh.dom_nodes(), "{sem:?}");
            assert_eq!(sol.invented.len(), 3, "one middle per a-edge");
            assert_eq!(sol.invented.len(), fresh.invented.len());
            assert_eq!(sol.graph.edge_count(), fresh.graph.edge_count());
            assert!(sol.invented.iter().all(|n| sol.invented.contains(n)));
        }
    }

    #[test]
    fn least_informative_values_stay_distinct_across_deltas() {
        // add a chain, drop the original one, re-add it: every rebuild
        // hands out pairwise distinct, non-null values no source node has
        let (m, gs) = scenario();
        let svc = MappingService::new();
        let id = svc.register(m.clone(), gs);
        let sem = Semantics::least_informative();
        for (delta, chains) in [
            (GraphDelta::new().with_edge(NodeId(2), "a", NodeId(0)), 3),
            (GraphDelta::new().without_edge(NodeId(0), "a", NodeId(1)), 2),
            (GraphDelta::new().with_edge(NodeId(0), "a", NodeId(1)), 3),
        ] {
            svc.prepare(id, sem).unwrap();
            assert!(!svc.apply_delta(id, &delta).unwrap().patched);
            let src = svc.source(id).unwrap();
            let prep = svc.solution(id, sem).unwrap();
            let sol = prep.solution();
            assert!(m.is_solution(&src, &sol.graph));
            assert_eq!(sol.invented.len(), chains);
            let vals: FxHashSet<&Value> = sol
                .invented
                .iter()
                .map(|&n| sol.graph.value(n).unwrap())
                .collect();
            assert_eq!(vals.len(), chains, "fresh values stay distinct");
            let source_vals = src.value_set();
            assert!(vals
                .iter()
                .all(|v| !v.is_null() && !source_vals.contains(v)));
        }
    }

    #[test]
    fn delta_added_source_node_serves_as_a_dom_node() {
        // the delta adds a source node under the id the old solution gave
        // an invented node, plus an edge into it: the rebuild serves it
        // with its source value, and its own nulls clear every source id
        let (m, gs) = scenario();
        let svc = MappingService::new();
        let id = svc.register(m.clone(), gs.clone());
        let before = svc.solution(id, Semantics::nulls()).unwrap();
        let f = *before.solution().invented.last().unwrap();
        assert!(!gs.has_node(f));
        let delta = GraphDelta::new()
            .with_node(f, Value::int(40))
            .with_edge(NodeId(2), "a", f);
        let report = svc.apply_delta(id, &delta).unwrap();
        assert_eq!((report.added_nodes, report.patched), (1, false));
        let gs2 = mutated(&gs, &delta);
        let prep = svc.solution(id, Semantics::nulls()).unwrap();
        let sol = prep.solution();
        assert!(!sol.invented.contains(&f));
        assert_eq!(sol.graph.value(f), Some(&Value::int(40)));
        assert!(sol.invented.iter().all(|&n| !gs2.has_node(n)));
        assert_eq!(
            sol.dom_nodes(),
            vec![NodeId(0), NodeId(1), NodeId(2), f],
            "f is a dom node like any source node"
        );
        assert!(m.is_solution(&gs2, &sol.graph));
        // the solution handed out before the delta is untouched
        assert!(before.solution().invented.contains(&f));
    }

    #[test]
    fn epsilon_rule_delta_extends_dom_and_can_kill_solutions() {
        // rules: a => x y, b => ε. A new b-self-loop at a node outside dom
        // adds no target edge but pulls the node into dom; a b-edge
        // between distinct nodes leaves the mapping without solutions
        let mut sa = Alphabet::from_labels(["a", "b"]);
        let mut ta = Alphabet::from_labels(["x", "y"]);
        let mut m = Gsm::new(sa.clone(), ta.clone());
        m.add_rule(
            parse_regex("a", &mut sa).unwrap(),
            parse_regex("x y", &mut ta).unwrap(),
        );
        m.add_rule(
            parse_regex("b", &mut sa).unwrap(),
            gde_automata::Regex::Epsilon,
        );
        let mut gs = DataGraph::with_alphabet(sa);
        for i in 0..3u32 {
            gs.add_node(NodeId(i), Value::int(i64::from(i) + 1))
                .unwrap();
        }
        gs.add_edge_str(NodeId(0), "a", NodeId(1)).unwrap();
        let svc = MappingService::new();
        let id = svc.register(m.clone(), gs);
        let before = svc.solution(id, Semantics::nulls()).unwrap();
        assert_eq!(before.solution().dom_nodes(), vec![NodeId(0), NodeId(1)]);
        let self_loop = GraphDelta::new().with_edge(NodeId(2), "b", NodeId(2));
        assert!(!svc.apply_delta(id, &self_loop).unwrap().patched);
        let prep = svc.solution(id, Semantics::nulls()).unwrap();
        assert_eq!(
            prep.solution().dom_nodes(),
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
        assert_eq!(
            prep.solution().graph.edge_count(),
            before.solution().graph.edge_count()
        );
        let split = GraphDelta::new().with_edge(NodeId(2), "b", NodeId(0));
        assert!(!svc.apply_delta(id, &split).unwrap().patched);
        assert_eq!(
            svc.solution(id, Semantics::nulls()).err(),
            Some(ServeError::NoSolution {
                pair: (NodeId(2), NodeId(0))
            })
        );
        let q = compile("x y", &mut ta);
        assert_eq!(
            svc.answer(id, &q, Semantics::nulls()),
            Ok(Answer::Tuples(CertainAnswers::AllVacuously))
        );
    }

    #[test]
    fn removal_delta_drops_chains_and_dom_leavers() {
        // removing the a-edge 0 -a-> 1 takes its x·y chain and middle
        // node with it, and node 0 leaves dom: no other rule sees it
        let (m, gs) = scenario();
        let svc = MappingService::new();
        let id = svc.register(m.clone(), gs.clone());
        let mut ta = m.target_alphabet().clone();
        let q = compile("x y", &mut ta);
        assert_eq!(
            svc.answer(id, &q, Semantics::nulls()).unwrap().into_pairs(),
            vec![(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))]
        );
        assert_eq!(
            svc.solution(id, Semantics::nulls())
                .unwrap()
                .solution()
                .invented
                .len(),
            2
        );
        let delta = GraphDelta::new().without_edge(NodeId(0), "a", NodeId(1));
        let report = svc.apply_delta(id, &delta).unwrap();
        assert_eq!((report.removed_edges, report.patched), (1, false));
        let gs2 = mutated(&gs, &delta);
        let prep = svc.solution(id, Semantics::nulls()).unwrap();
        let sol = prep.solution();
        assert_eq!(sol.dom_nodes(), vec![NodeId(1), NodeId(2)]);
        assert_eq!(sol.invented.len(), 1);
        assert_eq!(sol.graph.edge_count(), 2);
        assert!(m.is_solution(&gs2, &sol.graph));
        assert_eq!(
            svc.answer(id, &q, Semantics::nulls()).unwrap().into_pairs(),
            vec![(NodeId(1), NodeId(2))]
        );
    }

    #[test]
    fn removal_delta_keeps_edges_other_rules_justify() {
        // a => x and c => x: dropping the a-edge keeps the x-edge the
        // c-edge still justifies; dropping both empties the solution
        let mut sa = Alphabet::from_labels(["a", "c"]);
        let mut ta = Alphabet::from_labels(["x"]);
        let mut m = Gsm::new(sa.clone(), ta.clone());
        for src in ["a", "c"] {
            m.add_rule(
                parse_regex(src, &mut sa).unwrap(),
                parse_regex("x", &mut ta).unwrap(),
            );
        }
        let mut gs = DataGraph::with_alphabet(sa);
        gs.add_node(NodeId(0), Value::int(1)).unwrap();
        gs.add_node(NodeId(1), Value::int(2)).unwrap();
        gs.add_edge_str(NodeId(0), "a", NodeId(1)).unwrap();
        gs.add_edge_str(NodeId(0), "c", NodeId(1)).unwrap();
        let svc = MappingService::new();
        let id = svc.register(m, gs);
        let q = compile("x", &mut ta);
        let x_pairs = || svc.answer(id, &q, Semantics::nulls()).unwrap().into_pairs();
        assert_eq!(x_pairs(), vec![(NodeId(0), NodeId(1))]);
        svc.apply_delta(
            id,
            &GraphDelta::new().without_edge(NodeId(0), "a", NodeId(1)),
        )
        .unwrap();
        assert_eq!(
            x_pairs(),
            vec![(NodeId(0), NodeId(1))],
            "the c-edge still justifies x"
        );
        svc.apply_delta(
            id,
            &GraphDelta::new().without_edge(NodeId(0), "c", NodeId(1)),
        )
        .unwrap();
        assert!(x_pairs().is_empty());
        let prep = svc.solution(id, Semantics::nulls()).unwrap();
        assert_eq!(prep.solution().graph.node_count(), 0);
    }

    #[test]
    fn no_op_deltas_bump_nothing_and_keep_solutions() {
        // re-adding a present edge and removing an absent one (or an
        // empty delta) change nothing: no generation, no counter, no drop
        let (m, gs) = scenario();
        let svc = MappingService::new();
        let id = svc.register(m, gs);
        let before = svc.solution(id, Semantics::nulls()).unwrap();
        let bytes = svc.cached_bytes();
        for delta in [
            GraphDelta::new(),
            GraphDelta::new().with_edge(NodeId(0), "a", NodeId(1)),
            GraphDelta::new().without_edge(NodeId(2), "a", NodeId(0)),
        ] {
            let report = svc.apply_delta(id, &delta).unwrap();
            assert!(report.patched);
            assert_eq!(report.generation, 0);
            assert_eq!((report.added_edges, report.removed_edges), (0, 0));
        }
        assert_eq!(svc.generation(id), Some(0));
        assert_eq!(svc.cached_bytes(), bytes);
        let stats = svc.stats();
        assert_eq!((stats.patched_deltas, stats.invalidating_deltas), (0, 0));
        let after = svc.solution(id, Semantics::nulls()).unwrap();
        assert!(Arc::ptr_eq(&before, &after));
    }

    #[test]
    fn lav_delta_no_rule_reads_keeps_solutions() {
        // LAV + relational: each rule's answers are its label's edge set,
        // so a delta on a label no rule reads (here a new one), or one
        // that adds and removes the same edge, keeps every solution
        // under the new generation
        let (m, gs) = scenario();
        let svc = MappingService::new();
        let id = svc.register(m.clone(), gs);
        let mut ta = m.target_alphabet().clone();
        let q = compile("x y", &mut ta);
        let want = svc.answer(id, &q, Semantics::nulls()).unwrap();
        let before = svc.solution(id, Semantics::nulls()).unwrap();
        let unread = GraphDelta::new()
            .with_edge(NodeId(2), "z", NodeId(0))
            .with_edge(NodeId(0), "z", NodeId(0));
        let report = svc.apply_delta(id, &unread).unwrap();
        assert!(report.patched);
        assert_eq!((report.generation, report.added_edges), (1, 2));
        let blip = GraphDelta::new()
            .with_edge(NodeId(1), "a", NodeId(0))
            .without_edge(NodeId(1), "a", NodeId(0));
        let report = svc.apply_delta(id, &blip).unwrap();
        assert!(report.patched);
        assert_eq!(
            (report.generation, report.added_edges, report.removed_edges),
            (2, 1, 1)
        );
        assert_eq!(svc.generation(id), Some(2));
        assert!(svc.is_cached(id, Semantics::nulls()));
        let after = svc.solution(id, Semantics::nulls()).unwrap();
        assert!(Arc::ptr_eq(&before, &after));
        let src = svc.source(id).unwrap();
        assert_eq!(src.edge_count(), 4);
        assert_eq!(svc.answer(id, &q, Semantics::nulls()).unwrap(), want);
        assert_eq!(answer_once(&m, &src, &q, Semantics::nulls()), Ok(want));
        let stats = svc.stats();
        assert_eq!((stats.patched_deltas, stats.invalidating_deltas), (2, 0));
    }

    #[test]
    fn non_lav_mappings_drop_solutions_on_any_real_change() {
        // a non-LAV rule (a a => x) joins edges, so no single label
        // decides what it sees: any real change drops its solutions, even
        // one on a label no rule reads or a bare new node; only a
        // net-empty delta keeps them
        let mut sa = Alphabet::from_labels(["a"]);
        let mut ta = Alphabet::from_labels(["x"]);
        let mut m = Gsm::new(sa.clone(), ta.clone());
        m.add_rule(
            parse_regex("a a", &mut sa).unwrap(),
            parse_regex("x", &mut ta).unwrap(),
        );
        let (_, gs) = scenario();
        let svc = MappingService::new();
        let id = svc.register(m, gs);
        let q = compile("x", &mut ta);
        let want = vec![(NodeId(0), NodeId(2))];
        assert_eq!(
            svc.answer(id, &q, Semantics::nulls()).unwrap().into_pairs(),
            want
        );
        let before = svc.solution(id, Semantics::nulls()).unwrap();
        let blip = GraphDelta::new()
            .with_edge(NodeId(2), "a", NodeId(0))
            .without_edge(NodeId(2), "a", NodeId(0));
        assert!(svc.apply_delta(id, &blip).unwrap().patched);
        let after = svc.solution(id, Semantics::nulls()).unwrap();
        assert!(Arc::ptr_eq(&before, &after));
        for delta in [
            GraphDelta::new().with_edge(NodeId(2), "z", NodeId(0)),
            GraphDelta::new().with_node(NodeId(9), Value::int(1)),
        ] {
            svc.prepare(id, Semantics::nulls()).unwrap();
            assert!(!svc.apply_delta(id, &delta).unwrap().patched);
            assert!(!svc.is_cached(id, Semantics::nulls()));
            assert_eq!(
                svc.answer(id, &q, Semantics::nulls()).unwrap().into_pairs(),
                want
            );
        }
        let stats = svc.stats();
        assert_eq!((stats.patched_deltas, stats.invalidating_deltas), (1, 2));
    }

    #[test]
    fn invalidating_delta_releases_every_slot_and_its_bytes() {
        let (m, gs) = scenario();
        let svc = MappingService::new();
        let other = svc.register(m.clone(), gs.clone());
        svc.prepare(other, Semantics::nulls()).unwrap();
        let other_bytes = svc.cached_bytes();
        let id = svc.register(m, gs);
        for sem in [Semantics::nulls(), Semantics::least_informative()] {
            svc.prepare(id, sem).unwrap();
        }
        assert_eq!(svc.stats().cached_solutions, 3);
        assert!(svc.cached_bytes() > other_bytes);
        let delta = GraphDelta::new().with_edge(NodeId(2), "a", NodeId(0));
        assert!(!svc.apply_delta(id, &delta).unwrap().patched);
        // both flavours go, their bytes with them; the other mapping stays
        assert!(!svc.is_cached(id, Semantics::nulls()));
        assert!(!svc.is_cached(id, Semantics::least_informative()));
        assert!(svc.is_cached(other, Semantics::nulls()));
        assert_eq!(svc.cached_bytes(), other_bytes);
        let stats = svc.stats();
        assert_eq!(stats.cached_solutions, 1);
        assert_eq!((stats.patched_deltas, stats.invalidating_deltas), (0, 1));
        // the next serve rebuilds only the flavour it needs
        svc.prepare(id, Semantics::nulls()).unwrap();
        assert!(svc.is_cached(id, Semantics::nulls()));
        assert!(!svc.is_cached(id, Semantics::least_informative()));
        assert!(svc.cached_bytes() > other_bytes);
    }

    #[test]
    fn not_relational_failure_survives_deltas() {
        // the class is data-independent: the failed slot stays (nothing
        // is dropped, so the delta reports patched) and keeps answering
        let (m, gs) = scenario();
        let mut m3 = m.clone();
        let reach = gde_automata::Regex::reachability(m3.target_alphabet());
        m3.add_rule(
            gde_automata::Regex::Atom(m3.source_alphabet().label("a").unwrap()),
            reach,
        );
        let svc = MappingService::new();
        let id = svc.register(m3, gs);
        let mut ta = m.target_alphabet().clone();
        let q = compile("x", &mut ta);
        assert_eq!(
            svc.answer(id, &q, Semantics::nulls()).err(),
            Some(ServeError::NotRelational)
        );
        for delta in [
            GraphDelta::new().with_edge(NodeId(2), "a", NodeId(0)),
            GraphDelta::new().without_edge(NodeId(0), "a", NodeId(1)),
        ] {
            assert!(svc.apply_delta(id, &delta).unwrap().patched);
            assert_eq!(
                svc.answer(id, &q, Semantics::nulls()).err(),
                Some(ServeError::NotRelational)
            );
        }
        assert_eq!(svc.generation(id), Some(2));
        assert_eq!(svc.cached_bytes(), 0);
    }

    #[test]
    fn rejected_delta_leaves_source_and_solutions_untouched() {
        let (m, gs) = scenario();
        let svc = MappingService::new();
        let id = svc.register(m, gs);
        let before = svc.solution(id, Semantics::nulls()).unwrap();
        let src = svc.source(id).unwrap();
        // the valid parts come first; validation still refuses them all
        let dup = GraphDelta::new()
            .with_edge(NodeId(2), "a", NodeId(0))
            .with_node(NodeId(1), Value::int(9));
        assert_eq!(
            svc.apply_delta(id, &dup).err(),
            Some(ServeError::InvalidDelta(GraphError::DuplicateNode(NodeId(
                1
            ))))
        );
        let dangling = GraphDelta::new()
            .without_edge(NodeId(0), "a", NodeId(1))
            .with_edge(NodeId(0), "a", NodeId(42));
        assert_eq!(
            svc.apply_delta(id, &dangling).err(),
            Some(ServeError::InvalidDelta(GraphError::UnknownNode(NodeId(
                42
            ))))
        );
        assert_eq!(svc.generation(id), Some(0));
        let now = svc.source(id).unwrap();
        assert_eq!(now.edge_count(), src.edge_count());
        assert!(now.edges().all(|(u, l, v)| src.contains_edge(u, l, v)));
        let after = svc.solution(id, Semantics::nulls()).unwrap();
        assert!(Arc::ptr_eq(&before, &after));
        let stats = svc.stats();
        assert_eq!((stats.patched_deltas, stats.invalidating_deltas), (0, 0));
    }

    #[test]
    fn handed_out_arcs_keep_the_pre_delta_state() {
        // copy-on-write: a source or solution handed out before a delta
        // is a snapshot; the service moves on without touching it
        let (m, gs) = scenario();
        let svc = MappingService::new();
        let id = svc.register(m.clone(), gs);
        let src = svc.source(id).unwrap();
        let prep = svc.solution(id, Semantics::nulls()).unwrap();
        let delta = GraphDelta::new().without_edge(NodeId(0), "a", NodeId(1));
        svc.apply_delta(id, &delta).unwrap();
        assert_eq!(src.edge_count(), 2);
        assert_eq!(svc.source(id).unwrap().edge_count(), 1);
        assert!(m.is_solution(&src, &prep.solution().graph));
        assert_eq!(prep.solution().invented.len(), 2);
        let fresh = svc.solution(id, Semantics::nulls()).unwrap();
        assert!(!Arc::ptr_eq(&prep, &fresh));
        assert_eq!(fresh.solution().invented.len(), 1);
    }

    #[test]
    fn sharded_delta_rebuilds_every_stripe_at_the_same_count() {
        // one release drops every stripe at once; the rebuild keeps K and
        // answers like an unsharded service registered on the new source
        let (m, gs) = scenario();
        let mut ta = m.target_alphabet().clone();
        let queries: Vec<CompiledQuery> = ["x y", "(x y)=", "(x y)+", "x"]
            .iter()
            .map(|s| compile(s, &mut ta))
            .collect();
        let delta = GraphDelta::new()
            .with_node(NodeId(7), Value::int(5))
            .with_edge(NodeId(2), "a", NodeId(7))
            .without_edge(NodeId(0), "a", NodeId(1));
        let reference = MappingService::new();
        let rid = reference.register(m.clone(), mutated(&gs, &delta));
        for k in [2, 3] {
            let svc = MappingService::new();
            let id = svc.register(m.clone(), gs.clone());
            svc.set_shard_count(id, k).unwrap();
            for got in svc.answer_batch(id, &queries, Semantics::nulls()) {
                got.unwrap();
            }
            assert!(!svc.apply_delta(id, &delta).unwrap().patched);
            assert!(!svc.is_cached(id, Semantics::nulls()));
            for sem in [
                Semantics::nulls(),
                Semantics::nulls_boolean(),
                Semantics::least_informative(),
            ] {
                for q in &queries {
                    assert_eq!(
                        svc.answer(id, q, sem),
                        reference.answer(rid, q, sem),
                        "k={k} {sem:?}"
                    );
                }
            }
            let prep = svc.solution(id, Semantics::nulls()).unwrap();
            assert_eq!(prep.shard_count(), k);
        }
    }
}
