//! # graph-data-exchange
//!
//! Facade crate for the full reproduction of *Schema Mappings for Data
//! Graphs* (Francis & Libkin, PODS 2017). It re-exports every component
//! crate under a stable set of module names; see the README for a tour and
//! `examples/` for runnable entry points.
//!
//! * [`datagraph`] — data graphs, values, labels, paths, homomorphisms,
//!   property graphs, text I/O (§1–§2)
//! * [`automata`] — classical RPQs, NFAs, DFAs and register automata (§2–§3)
//! * [`dataquery`] — data RPQs: REE, REM, paths with tests, conjunctive
//!   data RPQs (§3, §5, §7, §8)
//! * [`gxpath`] — GXPath-core with data tests, plus the regular extension (§9)
//! * [`relational`] — relational data-exchange substrate: chase, tgds (§6)
//! * [`core`] — graph schema mappings, certain-answer algorithms and the
//!   owned `MappingService` serving engine (§4–§8)
//! * [`reductions`] — the paper's hardness gadgets, executable (§5, §6, §9)
//! * [`workload`] — scenario generators used by examples, tests and benches
//!
//! ## Serving many queries: the owned `MappingService`
//!
//! A one-shot [`core::answer_once`] rebuilds the canonical solution on
//! every call. When answering a *stream* of queries — the paper's own
//! access pattern, since one universal solution serves every hom-closed
//! query — register the mapping in a [`core::MappingService`] once and
//! serve repeatedly. The service owns its graphs (`Arc`-shared), is
//! `Send + Sync`, evicts cold solutions under a byte budget, and absorbs
//! source deltas (a delta no rule reads keeps its caches; any other drops
//! them and the next answer rebuilds from the new source):
//!
//! ```
//! use graph_data_exchange::prelude::*;
//! use graph_data_exchange::workload::{social_serving_scenario, SocialConfig};
//! use gde_datagraph::NodeId;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sv = social_serving_scenario(&SocialConfig::default());
//! let service = MappingService::new();
//! let id = service.register(sv.scenario.gsm, sv.scenario.source);
//! // lower each query once; the service caches solutions + snapshots
//! for (name, query) in &sv.queries {
//!     let compiled = query.compile();
//!     let answers = service.answer(id, &compiled, Semantics::preferred_for(&compiled))?;
//!     let _ = (name, answers);
//! }
//! // a source delta: answers reflect the new source
//! let delta = GraphDelta::new().with_edge(NodeId(0), "knows", NodeId(1));
//! service.apply_delta(id, &delta)?;
//! let (gsm, source) = (service.gsm(id).unwrap(), service.source(id).unwrap());
//! let q = sv.queries[0].1.compile();
//! assert_eq!(
//!     service.answer(id, &q, Semantics::nulls())?,
//!     answer_once(&gsm, &source, &q, Semantics::nulls())?
//! );
//! # Ok(())
//! # }
//! ```
//!
//! The `prepared_vs_cold` bench in `gde-bench` measures cold vs cached
//! serving (`BENCH_prepared.json`); the `service_churn` bench times
//! deltas interleaved with re-answers (`BENCH_service.json`).
//!
//! The sixty-second version of the whole story:
//!
//! ```
//! use graph_data_exchange::prelude::*;
//! use graph_data_exchange::dataquery::parse_ree;
//! use gde_automata::parse_regex;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // a source data graph: nodes are (id, value) pairs
//! let mut source = DataGraph::new();
//! source.add_node(NodeId(0), Value::str("ann"))?;
//! source.add_node(NodeId(1), Value::str("bob"))?;
//! source.add_node(NodeId(2), Value::str("ann"))?;
//! source.add_edge_str(NodeId(0), "follows", NodeId(1))?;
//! source.add_edge_str(NodeId(1), "follows", NodeId(2))?;
//!
//! // a schema mapping: each follows-edge must appear as a knows·trusts
//! // path on the target side
//! let mut sa = source.alphabet().clone();
//! let mut ta = Alphabet::from_labels(["knows", "trusts"]);
//! let mut m = Gsm::new(sa.clone(), ta.clone());
//! m.add_rule(
//!     parse_regex("follows", &mut sa)?,
//!     parse_regex("knows trusts", &mut ta)?,
//! );
//!
//! // certain answers to a data RPQ, true in EVERY possible target:
//! // same-name endpoints two exchange-hops apart
//! let q: DataQuery = parse_ree("(knows trusts knows trusts)=", &mut ta)?.into();
//! let answers = answer_once(&m, &source, &q.compile(), Semantics::nulls())?.into_pairs();
//! assert_eq!(answers, vec![(NodeId(0), NodeId(2))]); // ann …→ ann
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]

/// The end-to-end user guide, compiled straight from `docs/GUIDE.md` so
/// every code block in it is a doctest (`cargo test --doc`) and the guide
/// can never drift from the library. The same program as one runnable
/// file is `examples/guide.rs`.
#[doc = include_str!("../docs/GUIDE.md")]
pub mod guide {}

pub use gde_automata as automata;
pub use gde_core as core;
pub use gde_datagraph as datagraph;
pub use gde_dataquery as dataquery;
pub use gde_gxpath as gxpath;
pub use gde_reductions as reductions;
pub use gde_relational as relational;
pub use gde_workload as workload;

/// A convenience prelude pulling in the names used by virtually every
/// program built on this library.
pub mod prelude {
    pub use gde_core::prelude::*;
    pub use gde_datagraph::{Alphabet, DataGraph, Label, NodeId, PropertyGraph, Value};
}
