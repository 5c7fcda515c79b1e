//! Seeded fault injection for the serving stack.
//!
//! A production serving tier has to survive worker panics, slow
//! evaluations and poisoned caches; this module makes those failures **reproducible**
//! so the recovery paths can be soaked in CI instead of discovered in
//! production. It is compiled unconditionally and completely inert until
//! armed: the only cost on the serving path is one relaxed atomic load
//! per [`point`] call.
//!
//! Injection points sit at the four spots where the engine's containment
//! story is interesting ([`FaultSite`]): a missed query's evaluation, the
//! hand-out of every served answer on the serving thread, sub-relation
//! cache inserts, and the solution freeze. A [`FaultPlan::seeded`] plan decides **deterministically**
//! per `(site, hit-ordinal)` whether a point panics, sleeps briefly, or
//! does nothing — so a failing soak seed replays exactly, regardless of
//! thread interleaving (the per-site hit counter is the only shared
//! state, and each hit's decision depends only on the seed, the site and
//! the ordinal it drew).
//!
//! Injected panics carry [`INJECTED_PANIC_MARKER`] in their message so
//! tests can tell deliberate faults from real bugs.
//!
//! The canonical user-facing entry is `gde_core::faults`, which
//! re-exports this module next to the engine whose recovery it drives.

use crate::par::lock_recover;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Marker substring present in every injected panic message.
pub const INJECTED_PANIC_MARKER: &str = "gde::faults injected panic";

/// The serving-stack locations where an armed [`FaultPlan`] may fire.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// The evaluation of one query the cache missed, at the top of its
    /// task on a fan-out worker. (The name predates the one-task-per-query
    /// serve; it keeps its counter index so seeded schedules replay.)
    StripeEval,
    /// Handing one served answer out on the serving thread, once per
    /// answer, whether the cache held it or the serve evaluated it.
    Answer,
    /// Sub-relation cache admission (`LruSubRelCache::insert`).
    CacheInsert,
    /// Freezing a built solution into its snapshot: the
    /// first build and every rebuild after a delta.
    Refreeze,
}

impl FaultSite {
    /// All sites, in counter order.
    pub const ALL: [FaultSite; 4] = [
        FaultSite::StripeEval,
        FaultSite::Answer,
        FaultSite::CacheInsert,
        FaultSite::Refreeze,
    ];

    fn index(self) -> usize {
        match self {
            FaultSite::StripeEval => 0,
            FaultSite::Answer => 1,
            FaultSite::CacheInsert => 2,
            FaultSite::Refreeze => 3,
        }
    }
}

/// What a fired injection point does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FaultAction {
    Nothing,
    Panic,
    Delay,
}

/// A deterministic schedule of panics and delays over the [`FaultSite`]s.
///
/// `seeded(s)` derives every decision from `s` alone; two runs that visit
/// the same sites in any thread order draw the same multiset of faults.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    panic_one_in: u64,
    delay_one_in: u64,
    delay: Duration,
}

impl FaultPlan {
    /// A plan firing panics roughly every 7th hit and short delays
    /// roughly every 5th, per site, derived deterministically from
    /// `seed`.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            panic_one_in: 7,
            delay_one_in: 5,
            delay: Duration::from_micros(200),
        }
    }

    /// Override the panic rate: fire a panic on ~1 in `n` hits
    /// (`0` disables panics).
    pub fn panic_one_in(mut self, n: u64) -> Self {
        self.panic_one_in = n;
        self
    }

    /// Override the delay rate: sleep on ~1 in `n` hits (`0` disables
    /// delays).
    pub fn delay_one_in(mut self, n: u64) -> Self {
        self.delay_one_in = n;
        self
    }

    /// Override the injected sleep duration.
    pub fn delay(mut self, d: Duration) -> Self {
        self.delay = d;
        self
    }

    /// The seed this plan was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn decide(&self, site: FaultSite, hit: u64) -> FaultAction {
        // splitmix64 finalizer over (seed, site, hit): cheap, and every
        // bit of the ordinal reaches every bit of the draw.
        let mut x = self
            .seed
            .wrapping_add((site.index() as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(hit.wrapping_mul(0xD1B5_4A32_D192_ED03));
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        if self.panic_one_in > 0 && x.is_multiple_of(self.panic_one_in) {
            FaultAction::Panic
        } else if self.delay_one_in > 0 && (x >> 33).is_multiple_of(self.delay_one_in) {
            FaultAction::Delay
        } else {
            FaultAction::Nothing
        }
    }
}

/// Fast-path switch: [`point`] is a single relaxed load while this is
/// `false`.
static ARMED: AtomicBool = AtomicBool::new(false);

/// The armed plan. A `Mutex` (not `RwLock`) because it is only read on
/// the already-slow fired path.
static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);

/// Per-site hit ordinals since the last [`arm`].
static HITS: [AtomicU64; 4] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

/// Arm the process-wide fault plan and reset all hit counters. Returns a
/// guard that disarms on drop, so a panicking test cannot leave the
/// process armed for its neighbours.
#[must_use = "dropping the guard disarms the plan immediately"]
pub fn arm(plan: FaultPlan) -> ArmedGuard {
    let mut slot = lock_recover(&PLAN);
    for h in &HITS {
        h.store(0, Ordering::Relaxed);
    }
    *slot = Some(plan);
    ARMED.store(true, Ordering::SeqCst);
    ArmedGuard { _priv: () }
}

/// Disarm fault injection (idempotent).
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
    *lock_recover(&PLAN) = None;
}

/// Whether a plan is currently armed.
pub fn is_armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Keeps a [`FaultPlan`] armed; disarms when dropped.
pub struct ArmedGuard {
    _priv: (),
}

impl Drop for ArmedGuard {
    fn drop(&mut self) {
        disarm();
    }
}

/// Total hits recorded at `site` since the last [`arm`] — soak tests use
/// this to assert the points are actually exercised.
pub fn hits(site: FaultSite) -> u64 {
    HITS[site.index()].load(Ordering::Relaxed)
}

/// An injection point. Inert (one relaxed load) unless a plan is armed;
/// armed, it draws this site's next hit ordinal and panics or sleeps as
/// the plan dictates.
#[inline]
pub fn point(site: FaultSite) {
    if ARMED.load(Ordering::Relaxed) {
        fire(site);
    }
}

#[cold]
fn fire(site: FaultSite) {
    let plan = lock_recover(&PLAN).clone();
    let Some(plan) = plan else { return };
    let hit = HITS[site.index()].fetch_add(1, Ordering::Relaxed);
    match plan.decide(site, hit) {
        FaultAction::Nothing => {}
        FaultAction::Delay => std::thread::sleep(plan.delay),
        FaultAction::Panic => {
            panic!(
                "{INJECTED_PANIC_MARKER}: {site:?} hit {hit} (seed {})",
                plan.seed()
            )
        }
    }
}

/// Whether a panic message came from an injected fault.
pub fn is_injected(message: &str) -> bool {
    message.contains(INJECTED_PANIC_MARKER)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises tests that arm the process-global plan.
    fn arm_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        lock_recover(&LOCK)
    }

    #[test]
    fn disarmed_points_do_nothing() {
        let _guard = arm_lock();
        disarm();
        for _ in 0..1000 {
            point(FaultSite::StripeEval);
            point(FaultSite::Answer);
        }
        assert!(!is_armed());
    }

    #[test]
    fn decisions_are_deterministic_in_seed_site_and_ordinal() {
        let a = FaultPlan::seeded(42);
        let b = FaultPlan::seeded(42);
        let c = FaultPlan::seeded(43);
        let mut differs = false;
        for site in FaultSite::ALL {
            for hit in 0..256 {
                assert_eq!(a.decide(site, hit), b.decide(site, hit));
                differs |= a.decide(site, hit) != c.decide(site, hit);
            }
        }
        assert!(differs, "different seeds should draw different schedules");
    }

    #[test]
    fn seeded_plans_fire_both_actions_somewhere() {
        let plan = FaultPlan::seeded(7);
        let mut saw = (false, false, false);
        for site in FaultSite::ALL {
            for hit in 0..512 {
                match plan.decide(site, hit) {
                    FaultAction::Nothing => saw.0 = true,
                    FaultAction::Panic => saw.1 = true,
                    FaultAction::Delay => saw.2 = true,
                }
            }
        }
        assert_eq!(saw, (true, true, true));
    }

    #[test]
    fn armed_guard_disarms_and_panics_carry_the_marker() {
        let _guard = arm_lock();
        {
            // panic on every hit, no delays
            let _armed = arm(FaultPlan::seeded(1).panic_one_in(1).delay_one_in(0));
            assert!(is_armed());
            let hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let err = std::panic::catch_unwind(|| point(FaultSite::Answer)).unwrap_err();
            std::panic::set_hook(hook);
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(is_injected(msg), "{msg}");
            assert!(hits(FaultSite::Answer) >= 1);
        }
        assert!(!is_armed(), "guard drop must disarm");
        point(FaultSite::Answer); // now inert
    }
}
