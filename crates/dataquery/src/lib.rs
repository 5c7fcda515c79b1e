//! # gde-dataquery
//!
//! Data RPQs over data graphs (§3 of *Schema Mappings for Data Graphs*,
//! PODS'17): queries that combine navigation and data-value tests.
//!
//! Three language classes, in decreasing expressiveness:
//!
//! * [`Rem`] — *regular expressions with memory* (memory RPQs): bind data
//!   values to variables with `↓x̄.e`, test them with `e[c]`. Equivalent to
//!   register automata; evaluated here by compiling to
//!   [`gde_automata::RegisterAutomaton`].
//! * [`Ree`] — *regular expressions with equality* (equality RPQs): test
//!   whether the first and last data value of a subexpression are equal
//!   (`e=`) or different (`e≠`). Evaluated in PTime by relation algebra.
//! * [`PathTest`] — *paths with tests* (data path queries): words where
//!   some subwords carry `=`/`≠` annotations; a checked subclass of REE.
//!
//! All evaluation uses SQL-null comparison semantics (§7): comparisons
//! involving the null value are never true. On null-free graphs this
//! coincides with the plain §3 semantics, so one implementation serves both.
//!
//! The [`DataQuery`] enum packages all classes (plus purely navigational
//! RPQs) behind one evaluation interface for the certain-answer engines in
//! `gde-core`. Concrete syntax is provided by [`parser`].
//!
//! For repeated evaluation — the prepared-mapping serving engine — lower a
//! query once with [`DataQuery::compile`] and evaluate the resulting
//! [`CompiledQuery`] against frozen `GraphSnapshot`s (see [`compiled`]).

#![deny(unsafe_code)]

pub mod analyze;
pub mod cache;
pub mod canon;
pub mod compiled;
pub mod control;
pub mod crpq;
pub mod parser;
pub mod pathtest;
pub mod query;
pub mod ree;
#[cfg(test)]
mod ree_props;
pub mod rem;

pub use analyze::{estimate_cardinality, CardinalityEstimate, QueryShape};
pub use cache::{
    subplan_hash, AnswerRun, ByteLedger, CacheHandle, EntryKind, LruSubRelCache, SubRelKey,
    ENTRY_OVERHEAD,
};
pub use canon::{binding_hash, canonicalize, BindError, Bindings, PlanSkeleton, QueryTemplate};
pub use compiled::{CompiledQuery, RowEvalShared};
pub use control::{EvalControl, StopCause};
pub use crpq::{CdAtom, ConjunctiveDataRpq};
pub use parser::{parse_ree, parse_rem};
pub use pathtest::PathTest;
pub use query::DataQuery;
pub use ree::{Ree, ReeRowMemo};
pub use rem::Rem;
