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
//!   the calling thread first, and only the misses are evaluated.
//! * **evaluate a miss** — a missed query is one task on a
//!   [`gde_datagraph::par`] worker, and a batch's misses run one task per
//!   query. The task builds the query's phase-1 state (REE closures and
//!   tail factors, a conjunctive query's full answer) through the
//!   solution's sub-relation cache, so artifacts the batch's queries share
//!   are computed once, then evaluates on the whole snapshot. A tuple
//!   answer is the dom rows' pairs, which come out sorted because the
//!   snapshot's dom rows ascend by id; a Boolean stops at its first
//!   witness where the query shape allows it. The cache keeps the whole
//!   answer (or verdict) for repeat serves. The exact enumeration enters
//!   the same door and loop, is never cached, and runs as one task per
//!   query too.
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
    WorkerPanic,
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

/// The argument of [`MappingService::set_shard_count`], which is
/// accepted and ignored: every query evaluates as one task over the whole
/// snapshot. The type, its `From<usize>`, `set_shard_count` and
/// [`MappingService::shard_count`] are kept only for callers that still
/// send a stripe count (the serving benchmark and wire clients' `shards`
/// field); they go once none does.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ShardSpec {
    /// A stripe count (ignored).
    Fixed(usize),
    /// An engine-picked stripe count (ignored).
    Auto,
}

impl From<usize> for ShardSpec {
    fn from(k: usize) -> ShardSpec {
        ShardSpec::Fixed(k)
    }
}

/// Cumulative per-mapping serving statistics, collected by
/// [`MappingService::answer`] / [`MappingService::answer_batch`] on every
/// evaluation of a query the cache missed: wall-clock evaluation time and
/// result cardinality. A cache hit evaluates nothing and records only its
/// hit. [`MappingService::serving_stats`] exposes them to operators. The
/// accumulator survives cache evictions (it belongs to the mapping, not
/// to a prepared solution). Each serve of the exact-enumeration engine
/// ([`Semantics::Exact`]) is recorded as one evaluation too, so hit-rate
/// and template numbers cover every semantics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServingStats {
    /// The tenant namespace this mapping serves under (empty when the
    /// mapping is unlabelled). Set by
    /// [`MappingService::set_tenant_label`]; multi-tenant front-ends
    /// label every mapping so cross-mapping aggregation
    /// ([`ServingStats::absorb`]) can refuse to mix tenants.
    pub tenant: String,
    /// Tuple-mode evaluations, one per missed query.
    pub tuple_evals: u64,
    /// Boolean-mode evaluations, one per missed query.
    pub boolean_evals: u64,
    /// Total evaluation wall-clock nanoseconds across both modes (cache
    /// misses only; their phase-1 and answer-building work is accounted
    /// separately below).
    pub eval_ns: u64,
    /// Total tuples produced by tuple-mode evaluations.
    pub tuples: u64,
    /// Nanoseconds the cache misses spent building their phase-1 state
    /// (REE memos, full conjunctive answers), summed over the misses.
    pub memo_build_ns: u64,
    /// Nanoseconds spent building missed tuple answers from their
    /// evaluated pairs (moved into the shared answer) and caching them.
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
    /// prepared solution and no cache, and record no evaluations.
    pub static_empty: u64,
    /// Serves that returned [`ServeError::DeadlineExceeded`] after
    /// evaluation had started.
    pub deadline_exceeded: u64,
    /// Serves that returned [`ServeError::Cancelled`] after evaluation
    /// had started.
    pub cancelled: u64,
    /// Worker panics contained by the serve (injected faults and real
    /// bugs alike) — each panicking task counts once.
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

    /// Fraction of the misses' serving time spent on phase-1 builds
    /// (memo/cache construction) rather than evaluation, in `[0, 1]`.
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
    /// tenant must never bleed into another tenant's aggregate. A fresh
    /// accumulator (equal to `ServingStats::default()`: unlabelled, every
    /// counter 0) adopts the other side's label, so
    /// `stats.absorb(&svc.serving_stats(id)?)` folds a tenant's mappings
    /// starting from `ServingStats::default()`. An unlabelled one that
    /// holds any count is refused like any other label.
    ///
    /// Cumulative counters add; the `cache_bytes` gauge adds too
    /// (resident bytes across a tenant's mappings are disjoint).
    pub fn absorb(&mut self, other: &ServingStats) -> bool {
        if self.tenant != other.tenant {
            if *self != ServingStats::default() {
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

    /// Fold one serve's accounting in: phase-1 build and answer-building
    /// nanoseconds, this call's cache hit/miss counts and degraded
    /// queries, and the current cache-bytes gauge.
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
/// Both are **cooperative**: the engine checks before each missed
/// query's task, between phase-1 memo nodes, and after each evaluation —
/// a unit of work that has started runs to completion. An expired deadline returns
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
    /// A serving worker (a missed query's task, or the answer building
    /// and hand-out on the calling thread) panicked and the panic was
    /// contained. The first occurrence quarantines the prepared solution
    /// and retries once; this error means the retry panicked too. (The
    /// name predates one task per query.)
    StripePanicked {
        /// The panic payload message of the first failed worker.
        message: String,
        /// Indices, among the serve's missed queries, of the tasks that
        /// panicked, sorted. Empty when the panic happened outside the
        /// fan-out (answer building or hand-out, solution freeze).
        stripes: Vec<usize>,
    },
    /// The [`ServeOptions`] deadline expired before the serve finished.
    /// Nothing incomplete was cached: a retry recomputes from consistent
    /// state and returns byte-identical answers.
    DeadlineExceeded {
        /// Missed queries whose task had completed when the serve stopped.
        completed_stripes: usize,
        /// Missed queries the serve ran tasks for (0 when the serve was
        /// rejected at the door).
        total_stripes: usize,
    },
    /// The [`ServeOptions`] cancel flag was raised before the serve
    /// finished. Same consistency guarantee as
    /// [`ServeError::DeadlineExceeded`].
    Cancelled {
        /// Missed queries whose task had completed when the serve stopped.
        completed_stripes: usize,
        /// Missed queries the serve ran tasks for.
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
                    write!(f, "serving task(s) {stripes:?} panicked: {message}")
                }
            }
            ServeError::DeadlineExceeded {
                completed_stripes,
                total_stripes,
            } => write!(
                f,
                "deadline exceeded ({completed_stripes}/{total_stripes} tasks completed)"
            ),
            ServeError::Cancelled {
                completed_stripes,
                total_stripes,
            } => write!(
                f,
                "cancelled ({completed_stripes}/{total_stripes} tasks completed)"
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

/// A canonical solution frozen for serving: the solution itself and its
/// snapshot. Every query evaluates on the whole snapshot.
///
/// The snapshot's rows follow the canonical build: rows `0..dom_len` are
/// `dom(M, G_s)` in ascending id order and every later row is invented,
/// in creation order. Construction checks that layout, and the tuple
/// serve path relies on it: a row or column is invented iff it is
/// `≥ dom_len`, so a tuple answer is the dom rows' pairs, read in row
/// order, and comes out sorted.
#[derive(Debug)]
pub struct PreparedSolution {
    solution: CanonicalSolution,
    snapshot: Arc<GraphSnapshot>,
    /// Rows below this are `dom(M, G_s)`; the rest are invented.
    dom_len: usize,
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
        PreparedSolution {
            solution,
            snapshot,
            dom_len,
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

    /// Approximate heap footprint now: solution, snapshot and the
    /// sub-relation cache's resident entries. The service charges the
    /// first two once, as they weigh when the build finishes, and each
    /// cache entry as it is inserted. Label relations the snapshot
    /// materialises later while serving grow this figure but are never
    /// charged.
    pub fn approx_bytes(&self) -> usize {
        self.solution.approx_bytes() + self.snapshot.approx_bytes() + self.sub_cache.bytes()
    }

    /// The sub-relation cache this solution serves through.
    pub fn sub_cache(&self) -> &Arc<LruSubRelCache> {
        &self.sub_cache
    }

    /// Fold one evaluation of a cache miss into the mapping's serving
    /// stats (see [`ServingStats`]). One mutex acquisition per
    /// evaluation: the lock is held for a handful of adds, so at the
    /// µs-to-ms granularity of evaluations the serialization is noise.
    fn record(&self, elapsed: std::time::Duration, tuples: usize, boolean: bool) {
        lock(&self.serving).record(elapsed.as_nanos() as u64, tuples, boolean);
    }

    /// Keep the pairs of an evaluated relation over `dom(M, G_s)` (drop
    /// tuples touching invented nodes), translated to node ids. Walks only
    /// the dom rows, and each row only up to its first invented column (a
    /// row's columns ascend), so only surviving pairs pay the translation.
    /// Dom rows and columns ascend by id too, so the pairs come out
    /// sorted.
    fn dom_pairs(&self, rel: &gde_datagraph::Relation) -> Vec<(NodeId, NodeId)> {
        let (dom, snap) = (self.dom_len, self.snapshot());
        let mut pairs = Vec::new();
        for i in 0..dom {
            let src = snap.id_at(i as u32);
            pairs.extend(
                rel.row_iter(i)
                    .take_while(|&j| j < dom)
                    .map(|j| (src, snap.id_at(j as u32))),
            );
        }
        pairs
    }

    /// Evaluate one query the cache missed — one task of the serve's
    /// fan-out. Phase 1 (the REE memo, a conjunctive query's full answer)
    /// builds through the solution's cache first, its time added to
    /// `memo_ns`; then the query evaluates on the whole snapshot, and the
    /// evaluation is recorded into the serving stats. Nothing here inserts
    /// a served answer: the serve does that once every task has run.
    /// `None` when the control fired before a tuple answer was complete.
    fn evaluate_miss(
        &self,
        q: &CompiledQuery,
        mode: Mode,
        shared: &RowEvalShared,
        memo_ns: &AtomicU64,
    ) -> Option<Part> {
        // an injected panic here models a worker dying at the top of its
        // task, before any shared state is touched
        faults::point(FaultSite::StripeEval);
        let phase1 = Instant::now();
        q.build_phase1(&self.snapshot, shared);
        memo_ns.fetch_add(phase1.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let started = Instant::now();
        match mode {
            Mode::Tuples => {
                let rel = q.eval_relation_with(&self.snapshot, shared);
                // a control that fired mid-evaluation may have truncated
                // sub-factors: the pairs would be garbage, so drop them
                if shared.control().should_stop() {
                    return None;
                }
                let pairs = self.dom_pairs(&rel);
                self.record(started.elapsed(), pairs.len(), false);
                Some(Part::Pairs(pairs))
            }
            Mode::Boolean => {
                let holds = q.holds_with(&self.snapshot, shared);
                self.record(started.elapsed(), 0, true);
                Some(Part::Holds(holds))
            }
        }
    }

    /// Evaluate the queries the cache missed, one task per query on
    /// [`par::try_map_tasks`] workers. Each task builds its query's
    /// phase-1 state through the shared cache, so a closure or tail factor
    /// two queries have in common is computed once and reused (up to a
    /// benign race when structurally identical artifacts build
    /// concurrently — both compute, either result serves). Once every task
    /// has run, each tuple answer's pairs move into a shared answer built
    /// with its cache entry, so that a server can keep the answer's text
    /// there, and each Boolean verdict is kept, both inserted into the
    /// cache. The exact enumeration inserts nothing, and neither does a
    /// serve whose control fired: a truncated evaluation must never be
    /// served later.
    ///
    /// Adds the misses' phase-1 and answer-building time, their cache
    /// traffic and their shortfall to `tally`, whatever the outcome.
    /// `Err` is a contained worker panic.
    fn evaluate_misses(
        &self,
        queries: &[&CompiledQuery],
        sem: Semantics,
        ctrl: &Arc<EvalControl>,
        tally: &mut Tally,
    ) -> Result<Vec<Outcome>, WorkerPanic> {
        let nq = queries.len();
        let shareds: Vec<RowEvalShared> = queries
            .iter()
            .map(|_| RowEvalShared::with_cache(self.sub_cache.clone()).with_control(ctrl.clone()))
            .collect();
        let memo_ns = AtomicU64::new(0);
        let completed = AtomicUsize::new(0);
        let fanned = par::try_map_tasks(nq, |qi| {
            if ctrl.should_stop() {
                return None;
            }
            let part = match sem {
                Semantics::Exact(mode, opts) => Part::Exact(self.exact(queries[qi], mode, opts)),
                _ => self.evaluate_miss(queries[qi], sem.mode(), &shareds[qi], &memo_ns)?,
            };
            completed.fetch_add(1, Ordering::Relaxed);
            Some(part)
        });
        tally.memo_ns = memo_ns.into_inner();
        let settle = |tally: &mut Tally| {
            for s in &shareds {
                tally.hits += s.cache_hits();
                tally.misses += s.cache_misses();
                tally.shortfall += s.cache_shortfall() as usize;
                tally.degraded += u64::from(s.cache_shortfall() > 0);
            }
        };
        let parts = match fanned {
            Ok(parts) => parts,
            Err(panic) => {
                settle(tally);
                return Err(panic);
            }
        };
        let stopped = ctrl
            .fired()
            .map(|cause| stop_error(cause, completed.load(Ordering::Relaxed), nq));
        let building = Instant::now();
        let outcomes = parts
            .into_iter()
            .zip(queries.iter().zip(&shareds))
            .map(|(part, (q, shared))| {
                let cache = || {
                    shared
                        .cache()
                        .expect("invariant: every miss evaluates through the cache")
                };
                match (part, &stopped) {
                    // a Boolean hit found before the control fired is
                    // definitive, but a stopped serve inserts nothing
                    (Some(Part::Holds(true)), Some(_)) => Ok(Answer::Boolean(true)),
                    (_, Some(e)) => Err(e.clone()),
                    (Some(Part::Exact(outcome)), None) => outcome,
                    (Some(Part::Holds(holds)), None) => {
                        cache().insert_verdict(served_key(q, Mode::Boolean), holds);
                        Ok(Answer::Boolean(holds))
                    }
                    (Some(Part::Pairs(pairs)), None) => {
                        let answer = cache().insert_answer(served_key(q, Mode::Tuples), pairs);
                        Ok(Answer::Tuples(CertainAnswers::Pairs(answer)))
                    }
                    (None, None) => unreachable!("invariant: an unstopped task ran"),
                }
            })
            .collect();
        if !matches!(sem, Semantics::Exact(..)) && sem.mode() == Mode::Tuples {
            tally.merge_ns = building.elapsed().as_nanos() as u64;
        }
        settle(tally);
        Ok(outcomes)
    }

    /// The exact enumeration (Theorem 2's coNP procedure) over the whole
    /// solution. It has no cooperative stop points, but its serves are
    /// recorded all the same (as one evaluation) so hit-rate and template
    /// numbers cover every semantics.
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
    /// Nanoseconds building the missed tuple answers.
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

/// What one missed query's task hands the answer building.
enum Part {
    /// A tuple answer's dom-filtered pairs, sorted.
    Pairs(Vec<(NodeId, NodeId)>),
    /// A Boolean verdict.
    Holds(bool),
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

/// One registered mapping: shared graphs, generation stamp, and the
/// per-flavour solution cache.
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
    cache: Mutex<[Slot; 2]>,
    /// Serving statistics, shared with every
    /// [`PreparedSolution`] built for this mapping so recording needs no
    /// registry access. Survives evictions.
    serving: Arc<Mutex<ServingStats>>,
    /// Interned query templates, keyed by skeleton hash: one compiled
    /// artifact per canonical query shape, shared by `answer_bound` and
    /// by canonicalisation-routed ad-hoc serves. Survives evictions and
    /// deltas (templates are graph-independent).
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
    /// plus every resident sub-relation cache entry. A cached tuple
    /// answer's entry includes the text a server keeps for it
    /// ([`AnswerRun::text`]) once kept, so encoding an answer the first
    /// time raises this figure by the text's length.
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
            cache: Mutex::new(Default::default()),
            serving: Arc::new(Mutex::new(ServingStats::default())),
            templates: Mutex::new(FxHashMap::default()),
        });
        write(&self.registry).insert(id, entry);
        id
    }

    /// Accepted and ignored (see [`ShardSpec`]): checks that `id` is
    /// registered and changes nothing. Kept only for callers that still
    /// send a stripe count.
    pub fn set_shard_count(
        &self,
        id: MappingId,
        _spec: impl Into<ShardSpec>,
    ) -> Result<(), ServeError> {
        self.entry(id).map(|_| ())
    }

    /// `Some(1)` for a registered mapping, `None` otherwise: every query
    /// evaluates as one task over the whole snapshot. Kept, like
    /// [`MappingService::set_shard_count`], only for callers that still
    /// ask (see [`ShardSpec`]).
    pub fn shard_count(&self, id: MappingId) -> Option<usize> {
        read(&self.registry).contains_key(&id).then_some(1)
    }

    /// The cumulative serving statistics recorded for a mapping: cache
    /// hits and misses, and one entry per evaluation of a miss,
    /// aggregated. See [`ServingStats`].
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
    /// template — one compilation, one cached answer.
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
    /// cache lookup and one-task-per-miss fan-out.
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
    /// Fault isolation applies on every path: a panicking serving worker
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
    /// graph-independent: they survive deltas and evictions.
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
    /// whose queries all hit spawns no worker. Each miss is one task:
    /// workers (bounded by `par::set_max_threads` / `GDE_MAX_THREADS`)
    /// claim the batch's missed queries dynamically, so one heavy query
    /// does not hold up the cheap ones behind it.
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
        // cache. (Such a query also never constrains pruning,
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
    /// fan-out workers by the `try_` fan-out; (re)freezes, answer building
    /// and hand-out on this thread by `catch_unwind` here. A contained panic
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
    /// misses are evaluated ([`PreparedSolution::evaluate_misses`]), one
    /// task each, and each inserts its whole answer once. The exact
    /// enumeration is never cached: every exact query is a miss. Every answer handed out, hit or miss, passes the
    /// [`FaultSite::Answer`] point on this thread. Once answered, a serve
    /// whose cache inserts found no room may evict colder solutions to
    /// make room for them.
    ///
    /// Returns `Err` only for a contained worker panic (the caller
    /// quarantines and retries). A control that fires mid-flight gives
    /// every missed query the stop error, except a Boolean hit found
    /// before it fired: a stop only truncates phase-1 artifacts to empty
    /// relations and every query is monotone in them, so the hit is a
    /// definitive `true`.
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
            .map(|sol| PreparedSolution::new(sol, entry.serving.clone(), &self.ledger));
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
        Mode::Tuples => Answer::Tuples(CertainAnswers::Pairs(AnswerRun::from(Vec::new()))),
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
    fn batch_serving_matches_single_answers() {
        let (m, gs) = scenario();
        let svc = MappingService::new();
        let id = svc.register(m.clone(), gs.clone());
        let mut ta = m.target_alphabet().clone();
        let queries: Vec<CompiledQuery> = ["x y", "(x y)=", "x+", "y x"]
            .iter()
            .map(|s| gde_dataquery::DataQuery::from(parse_ree(s, &mut ta).unwrap()).compile())
            .collect();
        for sem in [
            Semantics::nulls(),
            Semantics::nulls_boolean(),
            Semantics::least_informative(),
            Semantics::least_informative_boolean(),
            Semantics::exact(),
            Semantics::exact_boolean(),
        ] {
            // a cold batch evaluates every query as its own task; the
            // single serves after it read what the batch cached
            let batch = svc.answer_batch(id, &queries, sem);
            for (q, got) in queries.iter().zip(batch) {
                assert_eq!(got, svc.answer(id, q, sem), "{sem:?}");
                assert_eq!(got, answer_once(&m, &gs, q, sem), "one-shot {sem:?}");
            }
        }
    }

    #[test]
    fn an_unlabelled_aggregate_with_counts_refuses_a_tenant() {
        // counters other than the evaluation ones still make an
        // unlabelled aggregate non-fresh: it must not adopt a label
        let mut unlabelled = ServingStats {
            static_empty: 5,
            template_hits: 2,
            ..ServingStats::default()
        };
        let before = unlabelled.clone();
        let tenant = ServingStats {
            tenant: "a".to_string(),
            static_empty: 1,
            ..ServingStats::default()
        };
        assert!(!unlabelled.absorb(&tenant));
        assert_eq!(unlabelled, before, "a refused absorb changes nothing");
        // a default accumulator is fresh and adopts the label
        let mut fresh = ServingStats::default();
        assert!(fresh.absorb(&tenant));
        assert_eq!(fresh, tenant);
    }

    #[test]
    fn serving_stats_accumulate_per_evaluation() {
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
        // the repeat hits, and a hit evaluates nothing
        let misses = stats.cache_misses;
        assert!(misses > 0, "the cold serve fills the cache");
        svc.answer(id, &q, Semantics::nulls()).unwrap();
        let stats = svc.serving_stats(id).unwrap();
        assert!(stats.cache_hits > 0, "the repeated serve hits the cache");
        assert_eq!(stats.cache_misses, misses);
        assert_eq!(stats.tuple_evals, 1);
        // the accumulator belongs to the mapping: eviction keeps it, and
        // the rebuilt solution's miss records one more evaluation
        svc.evict_all();
        assert_eq!(svc.serving_stats(id).unwrap().tuple_evals, 1);
        svc.answer(id, &q, Semantics::nulls()).unwrap();
        assert_eq!(svc.serving_stats(id).unwrap().tuple_evals, 2);
    }

    #[test]
    fn warm_tuple_serve_reads_one_cached_answer() {
        let (m, gs) = scenario();
        let mut ta = m.target_alphabet().clone();
        // an RPQ builds nothing in phase 1: its one lookup is its answer's
        let q = DataQuery::Rpq(parse_regex("x y", &mut ta).unwrap()).compile();
        let svc = MappingService::new();
        let id = svc.register(m.clone(), gs.clone());
        let cold = svc.answer(id, &q, Semantics::nulls()).unwrap();
        assert_eq!(
            cold.clone().into_pairs(),
            vec![(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))]
        );
        let before = svc.serving_stats(id).unwrap();
        assert_eq!((before.cache_hits, before.cache_misses), (0, 1));
        let prep = svc.solution(id, Semantics::nulls()).unwrap();
        let bytes = prep.sub_cache().bytes();
        assert_eq!(
            bytes,
            2 * 8 + gde_dataquery::ENTRY_OVERHEAD,
            "one entry of 8 bytes a pair"
        );
        let warm = svc.answer(id, &q, Semantics::nulls()).unwrap();
        let after = svc.serving_stats(id).unwrap();
        assert_eq!(warm, cold);
        assert_eq!(after.cache_hits - before.cache_hits, 1);
        assert_eq!(after.cache_misses, before.cache_misses);
        assert_eq!(prep.sub_cache().bytes(), bytes, "a hit inserts nothing");
    }

    /// A stand-in for the server's encoder, which the engine does not
    /// know: a cached answer keeps whatever text it is handed first.
    fn text(a: &Answer) -> Arc<String> {
        match a {
            Answer::Tuples(CertainAnswers::Pairs(run)) => run.text(|pairs| format!("{pairs:?}")),
            other => panic!("a tuple answer, not {other:?}"),
        }
    }

    #[test]
    fn a_kept_text_is_charged_with_its_answer_and_leaves_with_it() {
        let (m, gs) = scenario();
        let mut ta = m.target_alphabet().clone();
        let q = DataQuery::Rpq(parse_regex("x y", &mut ta).unwrap()).compile();
        let q2 = DataQuery::Rpq(parse_regex("x y x y", &mut ta).unwrap()).compile();
        let svc = MappingService::new();
        let other = svc.register(m.clone(), gs.clone());
        text(&svc.answer(other, &q, Semantics::nulls()).unwrap());
        let other_bytes = svc.cached_bytes();
        let id = svc.register(m, gs);
        let a = svc.answer(id, &q, Semantics::nulls()).unwrap();
        let unencoded = svc.answer(id, &q2, Semantics::nulls()).unwrap();
        let prep = svc.solution(id, Semantics::nulls()).unwrap();
        let (charged, cache) = (svc.cached_bytes(), prep.sub_cache().bytes());
        assert_eq!(svc.serving_stats(id).unwrap().cache_bytes, cache as u64);
        // keeping the text raises the entry's charge, the cache's bytes
        // and the ledger by exactly its length ...
        let kept = text(&a);
        assert_eq!(svc.cached_bytes(), charged + kept.len());
        assert_eq!(prep.sub_cache().bytes(), cache + kept.len());
        // ... and the stats gauge, which reads the cache at the next
        // serve; that serve's answer hands out the kept text
        let hit = svc.answer(id, &q, Semantics::nulls()).unwrap();
        assert!(Arc::ptr_eq(&text(&hit), &kept));
        let stats = svc.serving_stats(id).unwrap();
        assert_eq!(stats.cache_bytes, (cache + kept.len()) as u64);
        assert_eq!(svc.cached_bytes(), charged + kept.len());
        // a delta drops the solution with its cache and the kept text, and
        // an answer whose entry went with it keeps nothing
        let delta = GraphDelta::new().with_edge(NodeId(2), "a", NodeId(0));
        assert!(!svc.apply_delta(id, &delta).unwrap().patched);
        assert_eq!(svc.cached_bytes(), other_bytes);
        text(&unencoded);
        assert_eq!(svc.cached_bytes(), other_bytes);
        // eviction gives it back too: the rebuilt solution keeps a text,
        // then is the least recently served when the budget tightens
        text(&svc.answer(id, &q, Semantics::nulls()).unwrap());
        svc.answer(other, &q, Semantics::nulls()).unwrap();
        svc.set_cache_budget(svc.cached_bytes() - 1);
        assert!(!svc.is_cached(id, Semantics::nulls()));
        assert_eq!(svc.cached_bytes(), other_bytes);
        // and so does unregister: the last one leaves nothing charged
        svc.set_cache_budget(0);
        text(&svc.answer(id, &q, Semantics::nulls()).unwrap());
        assert!(svc.cached_bytes() > other_bytes);
        assert!(svc.unregister(id));
        assert_eq!(svc.cached_bytes(), other_bytes);
        assert!(svc.unregister(other));
        assert_eq!(svc.cached_bytes(), 0);
    }

    #[test]
    fn a_boolean_miss_caches_its_verdict_and_builds_no_answer() {
        let (m, gs) = scenario();
        let mut ta = m.target_alphabet().clone();
        // RPQs build nothing in phase 1: a verdict is the only entry
        let holds = DataQuery::Rpq(parse_regex("x y", &mut ta).unwrap()).compile();
        let fails = DataQuery::Rpq(parse_regex("x x", &mut ta).unwrap()).compile();
        let svc = MappingService::new();
        let id = svc.register(m, gs);
        let sem = Semantics::nulls_boolean();
        assert!(svc.answer(id, &holds, sem).unwrap().boolean());
        assert!(!svc.answer(id, &fails, sem).unwrap().boolean());
        let cold = svc.serving_stats(id).unwrap();
        assert_eq!((cold.boolean_evals, cold.tuple_evals), (2, 0));
        assert_eq!(cold.merge_ns, 0, "a verdict builds no answer");
        let prep = svc.solution(id, Semantics::nulls()).unwrap();
        assert_eq!(
            prep.sub_cache().bytes(),
            2 * gde_dataquery::ENTRY_OVERHEAD,
            "two payload-free verdict entries"
        );
        // both verdicts, true and false alike, serve warm
        assert!(svc.answer(id, &holds, sem).unwrap().boolean());
        assert!(!svc.answer(id, &fails, sem).unwrap().boolean());
        let warm = svc.serving_stats(id).unwrap();
        assert_eq!(warm.boolean_evals, 2);
        assert_eq!(warm.cache_hits, cold.cache_hits + 2);
        // a verdict never answers the tuple query under the same plan
        let pairs = svc.answer(id, &holds, Semantics::nulls()).unwrap();
        assert_eq!(pairs.into_pairs().len(), 2);
        assert_eq!(svc.serving_stats(id).unwrap().tuple_evals, 1);
    }

    #[test]
    fn a_cold_batch_evaluates_each_missed_query_once() {
        let (m, gs) = scenario();
        let svc = MappingService::new();
        let id = svc.register(m.clone(), gs);
        let mut ta = m.target_alphabet().clone();
        let queries: Vec<CompiledQuery> = ["x y", "(x y)=", "x+", "(x y)+"]
            .iter()
            .map(|s| DataQuery::from(parse_ree(s, &mut ta).unwrap()).compile())
            .collect();
        // warm the first query: the batch evaluates the other three only
        let first = svc.answer(id, &queries[0], Semantics::nulls());
        let before = svc.serving_stats(id).unwrap();
        assert_eq!(before.tuple_evals, 1);
        let cold = svc.answer_batch(id, &queries, Semantics::nulls());
        assert_eq!(cold[0], first);
        let after = svc.serving_stats(id).unwrap();
        assert_eq!(after.tuple_evals - before.tuple_evals, 3);
        // every answer was kept: a warm batch evaluates and misses nothing
        let warm = svc.answer_batch(id, &queries, Semantics::nulls());
        assert_eq!(warm, cold);
        let again = svc.serving_stats(id).unwrap();
        assert_eq!(again.tuple_evals, after.tuple_evals);
        assert_eq!(again.cache_misses, after.cache_misses);
        assert_eq!(again.cache_hits - after.cache_hits, 4);
    }

    #[test]
    fn a_repeated_query_in_a_cold_batch_is_charged_once() {
        let (m, gs) = scenario();
        let mut ta = m.target_alphabet().clone();
        let q = DataQuery::Rpq(parse_regex("x y", &mut ta).unwrap()).compile();
        let single = MappingService::new();
        let sid = single.register(m.clone(), gs.clone());
        let want = single.answer(sid, &q, Semantics::nulls()).unwrap();
        let svc = MappingService::new();
        let id = svc.register(m, gs);
        // every copy misses (lookups precede evaluation) and inserts the
        // same key: the answers agree and the cache holds one entry
        let batch = svc.answer_batch(id, &[q.clone(), q.clone(), q], Semantics::nulls());
        for got in batch {
            assert_eq!(got.unwrap(), want);
        }
        let bytes = |svc: &MappingService, id| {
            let prep = svc.solution(id, Semantics::nulls()).unwrap();
            prep.sub_cache().bytes()
        };
        assert_eq!(bytes(&svc, id), bytes(&single, sid));
        assert_eq!(svc.cached_bytes(), single.cached_bytes());
    }

    #[test]
    fn served_pairs_keep_dom_nodes_in_id_order() {
        // a source inserted out of id order, so dense rows and ids differ:
        // 9 -a-> 2, 4 -a-> 9, and 30 isolated; each a-edge becomes x y
        // through one invented node
        let (m, _) = scenario();
        let mut gs = DataGraph::new();
        for (id, v) in [(9, 7), (4, 5), (30, 1), (2, 5)] {
            gs.add_node(NodeId(id), Value::int(v)).unwrap();
        }
        gs.add_edge_str(NodeId(9), "a", NodeId(2)).unwrap();
        gs.add_edge_str(NodeId(4), "a", NodeId(9)).unwrap();
        let svc = MappingService::new();
        let id = svc.register(m.clone(), gs.clone());
        let mut ta = m.target_alphabet().clone();
        let n = NodeId;
        for (src, want) in [
            ("(x y)+", vec![(n(4), n(2)), (n(4), n(9)), (n(9), n(2))]),
            ("(x y x y)=", vec![(n(4), n(2))]),
            // these end or start at invented nodes only
            ("x", vec![]),
            ("y", vec![]),
            ("x y x", vec![]),
        ] {
            let q = DataQuery::from(parse_ree(src, &mut ta).unwrap()).compile();
            for sem in [Semantics::nulls(), Semantics::least_informative()] {
                if sem == Semantics::least_informative() && !q.is_equality_only() {
                    continue;
                }
                let got = svc.answer(id, &q, sem).unwrap();
                assert_eq!(got, answer_once(&m, &gs, &q, sem).unwrap(), "{src} {sem:?}");
                assert_eq!(got.into_pairs(), want, "{src} {sem:?}");
            }
            // the Boolean reads the whole snapshot, invented rows too: the
            // queries with no dom pair still hold
            let holds = svc.answer(id, &q, Semantics::nulls_boolean()).unwrap();
            assert!(holds.boolean(), "{src}");
        }
    }

    #[test]
    fn auto_shard_spec_resolves_and_serves_identically() {
        // every stripe-count spec is accepted and ignored: the count reads
        // one, nothing is rebuilt, and the answers are a plain service's
        let (m, gs) = scenario();
        let reference = MappingService::new();
        let rid = reference.register(m.clone(), gs.clone());
        let svc = MappingService::new();
        let id = svc.register(m.clone(), gs);
        let mut ta = m.target_alphabet().clone();
        let q = DataQuery::from(parse_ree("(x y)=", &mut ta).unwrap()).compile();
        let prep = svc.solution(id, Semantics::nulls()).unwrap();
        for spec in [ShardSpec::Auto, ShardSpec::Fixed(3), ShardSpec::from(64)] {
            svc.set_shard_count(id, spec).unwrap();
            assert_eq!(svc.shard_count(id), Some(1), "{spec:?}");
            for sem in [Semantics::nulls(), Semantics::nulls_boolean()] {
                assert_eq!(
                    svc.answer(id, &q, sem),
                    reference.answer(rid, &q, sem),
                    "{spec:?} {sem:?}"
                );
            }
        }
        let after = svc.solution(id, Semantics::nulls()).unwrap();
        assert!(
            Arc::ptr_eq(&prep, &after),
            "a spec change rebuilt the solution"
        );
        assert_eq!(svc.generation(id), Some(0));
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
    fn serving_records_memo_and_cache_stats() {
        let (m, gs) = scenario();
        let svc = MappingService::new();
        let id = svc.register(m.clone(), gs);
        let mut ta = m.target_alphabet().clone();
        let q = gde_dataquery::DataQuery::from(parse_ree("(x y)+", &mut ta).unwrap()).compile();
        // cold call: the closure memo is built once, at the top of the
        // query's task, and charged to memo_build_ns — not to eval time
        let cold = svc.answer(id, &q, Semantics::nulls()).unwrap();
        let stats = svc.serving_stats(id).unwrap();
        assert!(stats.memo_build_ns > 0, "phase-1 memo build must be timed");
        assert!(stats.cache_misses > 0, "cold run populates the cache");
        assert_eq!(stats.cache_hits, 0, "nothing to hit on a cold cache");
        assert!(stats.cache_bytes > 0, "resident entries are accounted");
        // warm call: the answer comes from the cache, byte-identical to
        // the cold one
        let warm = svc.answer(id, &q, Semantics::nulls()).unwrap();
        assert_eq!(warm, cold);
        let stats = svc.serving_stats(id).unwrap();
        assert!(stats.cache_hits > 0, "repeat serving must hit");
        assert!(stats.cache_hit_rate() > 0.0);
        // a delta bumps the generation: stale entries never serve, the
        // next call misses again and still matches a fresh reference
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
    fn delta_after_a_batch_rebuilds_like_a_fresh_registration() {
        // one release drops the batch's cached answers at once; the
        // rebuild answers like a service registered on the new source
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
        let svc = MappingService::new();
        let id = svc.register(m.clone(), gs.clone());
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
                    "{sem:?}"
                );
            }
        }
    }
}
