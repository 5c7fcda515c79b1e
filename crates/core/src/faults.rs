//! Seeded fault injection for the serving engine — a facade over
//! [`gde_datagraph::faults`], re-exported here so harnesses that exercise
//! the [`crate::engine::MappingService`] don't reach across crates.
//!
//! The engine compiles its injection points in **always**; they are a
//! single relaxed atomic load when no plan is armed, so production builds
//! pay nothing measurable. The points the serving paths expose:
//!
//! * [`FaultSite::StripeEval`] — top of every missed query's task, the
//!   unit the `try_` fan-out contains;
//! * [`FaultSite::Answer`] — the hand-out of every served answer, tuple
//!   or Boolean, hit or miss, on the serving thread;
//! * [`FaultSite::CacheInsert`] — before a sub-relation cache admission;
//! * [`FaultSite::Refreeze`] — top of every solution freeze (the
//!   snapshot), the first build and every rebuild after a delta alike.
//!
//! Arm a deterministic plan with [`arm`]`(`[`FaultPlan::seeded`]`(seed))`
//! and every decision — which hit of which site panics or stalls — is a
//! pure function of `(seed, site, hit ordinal)`, so a failing soak seed
//! replays exactly. The returned [`ArmedGuard`] disarms on drop.
//!
//! ```
//! use gde_core::faults;
//!
//! let guard = faults::arm(faults::FaultPlan::seeded(42).panic_one_in(3));
//! // ... drive a MappingService; injected panics carry
//! // faults::INJECTED_PANIC_MARKER and are contained by the engine ...
//! drop(guard);
//! assert!(!faults::is_armed());
//! ```

pub use gde_datagraph::faults::{
    arm, disarm, hits, is_armed, is_injected, ArmedGuard, FaultPlan, FaultSite,
    INJECTED_PANIC_MARKER,
};

pub(crate) use gde_datagraph::faults::point;
