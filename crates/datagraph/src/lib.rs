//! # gde-datagraph
//!
//! The data-graph model of *Schema Mappings for Data Graphs* (Francis &
//! Libkin, PODS 2017), §2: a data graph is a finite set of nodes, each a pair
//! `(id, value)` of a node id and a data value, together with a set of
//! labelled directed edges.
//!
//! This crate provides:
//!
//! * [`Value`] — data values `D`, extended with the single SQL-style null
//!   `n` of §7 of the paper;
//! * [`Label`] and [`Alphabet`] — interned edge labels `Σ`;
//! * [`NodeId`] — globally meaningful node identities (the paper's `N`);
//!   node ids are shared between source and target graphs of a schema
//!   mapping, which is what makes containment `q(G_s) ⊆ q'(G_t)` meaningful;
//! * [`DataGraph`] — the graph itself, with dense internal indexing for the
//!   algorithms in the sibling crates;
//! * [`Path`] and [`DataPath`] — paths `v₁a₁v₂…` and their data projections
//!   `δ(π) = d₁a₁d₂…` (§2);
//! * [`Relation`] — adaptive binary relations over the nodes of a graph
//!   (dense bit matrix or sparse CSR, switching by density), the workhorse
//!   of REE and GXPath evaluation, with row-block-parallel algebra tuned by
//!   [`par::set_max_threads`] — or, deployment-side, by the
//!   `GDE_MAX_THREADS` environment variable (read once per process; see
//!   [`par`]);
//! * [`GraphDelta`] — batched graph mutations with an all-or-nothing
//!   [`DataGraph::apply_delta`], the change unit consumed by the
//!   delta-aware `MappingService` in `gde-core`;
//! * [`GraphSnapshot`] — a frozen, label-partitioned CSR view with interned
//!   values and cached per-label relations, the substrate of the
//!   prepared-mapping serving engine in `gde-core`;
//! * [`merge`] — streaming k-way unions of sorted runs (heap-of-cursors
//!   with galloping bulk copies), merging the per-row column lists of
//!   k-ary relation unions ([`Relation::union_many`]) without
//!   intermediate concatenation;
//! * homomorphisms between data graphs, both the exact form of §6 and the
//!   null-absorbing form of §7 ([`hom`]);
//! * fault-tolerance plumbing: the panic-containing task fan-out
//!   ([`par::try_map_tasks`]) reporting [`WorkerPanic`] instead of
//!   aborting, shared poisoned-lock recovery
//!   ([`par::lock_recover`]), and the seeded, inert-unless-armed
//!   fault-injection points of [`faults`] that the serving engine's
//!   recovery soak drives.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod fxhash;
pub mod graph;
pub mod hom;
pub mod io;
pub mod label;
pub mod merge;
pub mod node;
pub mod par;
pub mod path;
pub mod property;
pub mod relation;
pub mod snapshot;
pub mod value;

pub use fxhash::{FxHashMap, FxHashSet};
pub use graph::{DataGraph, DeltaApplied, GraphDelta, GraphError};
pub use hom::{apply_hom, check_hom, find_hom, HomMode};
pub use label::{Alphabet, Label};
pub use node::NodeId;
pub use par::{lock_recover, read_recover, write_recover, WorkerPanic};
pub use path::{DataPath, Path};
pub use property::{Properties, PropertyGraph};
pub use relation::{Relation, RelationBuilder, RowIter};
pub use snapshot::GraphSnapshot;
pub use value::Value;
