//! # gde-core
//!
//! Graph schema mappings and certain-answer query answering — the primary
//! contribution of *Schema Mappings for Data Graphs* (Francis & Libkin,
//! PODS 2017), §4–§8.
//!
//! A graph schema mapping ([`Gsm`]) is a set of RPQ pairs `(q, q')`; a
//! target graph `G_t` is a *solution* for a source `G_s` when
//! `q(G_s) ⊆ q'(G_t)` for every rule. Query answering is by *certain
//! answers*: `certain(Q, G_s) = ⋂ {Q(G_t) | G_t solution}`.
//!
//! The paper's map of this problem, and where each result lives here:
//!
//! | Result | Statement | Module |
//! |--------|-----------|--------|
//! | Thm 1 | undecidable for LAV/GAV relational/reachability mappings + equality RPQs | gadget in `gde-reductions` |
//! | Thm 2 / Prop 2 | coNP for relational mappings, all data RPQs | [`exact`] (complete enumeration) |
//! | Prop 3 | coNP-hard already for data path queries (3 inequalities) | gadget in `gde-reductions` |
//! | Prop 5 | data path queries decidable for arbitrary GSMs | [`arbitrary`] |
//! | Thm 3/4 | PTime via universal solutions with SQL nulls | [`solution`], [`engine`] |
//! | Thm 5 / Cor 1 | PTime for REM=/REE= via least informative solutions | [`solution`], [`engine`] |
//! | Prop 1 | relational GSMs ≡ relational mappings over `D_G` | [`translate`] |
//!
//! [`integration`] exposes the LAV virtual-data-integration reading of §4.
//!
//! ## Serving: the owned `MappingService` engine
//!
//! The tractable engines all follow one recipe: build a canonical solution
//! once, then answer queries by direct evaluation on it. The primary way to
//! consume that recipe is the owned, concurrent serving engine
//! [`engine::MappingService`]:
//!
//! * **register** a mapping with its source graph (`Arc`-shared, never
//!   copied) and get a [`engine::MappingId`];
//! * **answer** precompiled [`gde_dataquery::CompiledQuery`]s through the
//!   single entry point [`engine::MappingService::answer`], picking the
//!   engine per call with [`engine::Semantics`] (`Nulls`,
//!   `LeastInformative`, `Exact` — each in tuple or Boolean [`engine::Mode`]);
//! * **apply deltas** to the owned source
//!   ([`engine::MappingService::apply_delta`]): a delta no rule can see
//!   keeps the cached solutions, any other drops them under a new
//!   generation stamp and the next answer rebuilds;
//! * **evaluate misses** as one task per query: each query's whole
//!   answer or verdict is cached for repeat serves, so a warm serve is
//!   one lookup per query; a query the cache misses builds its phase-1
//!   state through the solution's cache and evaluates on the whole
//!   snapshot, and a batch's misses run in parallel, one task each.
//!   Serving statistics ([`engine::ServingStats`], via
//!   [`engine::MappingService::serving_stats`]) time each layer;
//! * cached solutions live under a byte budget with least-recently-served
//!   **eviction**, and the service is `Send + Sync`, so scoped threads
//!   serve one instance concurrently;
//! * serving is **fault-isolated**: a panicking serving worker is
//!   contained and quarantines only its `(mapping, flavour)` slot
//!   (retried once against a rebuild), per-call [`engine::ServeOptions`] impose cooperative
//!   deadlines and cancellation with typed errors, every cache insert
//!   reserves its bytes against one byte ledger (an insert that finds no
//!   room is served without being kept), and the seeded
//!   [`faults`] harness replays any failure deterministically.
//!
//! Every serve — one query, a batch, or a template binding — takes one
//! path: the same per-query door, one retry loop and one task per missed
//! query. One-shot callers can use
//! [`engine::answer_once`], which serves through a private service and
//! throws it away (cold path: rebuild the solution per call). On the
//! social serving workload a prepared batch of ten queries answers
//! several times faster than the cold path (`prepared_vs_cold` bench,
//! `BENCH_prepared.json`); the `service_churn` bench
//! (`BENCH_service.json`) times deltas interleaved with re-answers.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod arbitrary;
pub mod certain;
pub mod engine;
pub mod exact;
pub mod faults;
pub mod gsm;
pub mod integration;
pub mod rel2graph;
pub mod solution;
pub mod translate;

pub use analyze::{
    analyze_mapping, analyze_mapping_with, pruned_gsm, statically_empty, Diagnostic, MappingFacts,
    MappingReport, QueryVerdict, WorkloadProfile,
};
pub use arbitrary::{certain_answers_arbitrary, ArbitraryOptions};
pub use certain::{CertainAnswers, SolveError};
pub use engine::{
    answer_once, Answer, DeltaReport, MappingId, MappingService, Mode, PreparedSolution, Semantics,
    ServeError, ServeOptions, ServiceStats, ServingStats, ShardSpec, TemplateId,
};
pub use exact::{certain_answers_exact, certain_boolean_exact, ExactOptions};
pub use gsm::{Gsm, MappingClass, Rule};
pub use rel2graph::{RelToGraphMapping, RelToGraphRule};
pub use solution::{least_informative_solution, universal_solution, CanonicalSolution};

/// Names used by virtually every program built on the library.
pub mod prelude {
    pub use crate::engine::{
        answer_once, Answer, MappingId, MappingService, Mode, Semantics, ServeError, ServeOptions,
        ShardSpec, TemplateId,
    };
    pub use crate::exact::{certain_answers_exact, ExactOptions};
    pub use crate::gsm::{Gsm, Rule};
    pub use crate::solution::universal_solution;
    pub use gde_datagraph::GraphDelta;
    pub use gde_dataquery::{canonicalize, CompiledQuery, DataQuery, PlanSkeleton, QueryTemplate};
}
