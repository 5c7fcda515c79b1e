//! Cooperative deadline and cancellation control for query evaluation.
//!
//! Relation algebra has no preemption points: once a closure
//! materialisation or a query's evaluation starts, it runs to completion.
//! What the serving engine *can* do is stop **between** units of work —
//! between the queries of a batch, between phase-1 memo nodes, before an
//! answer is assembled — and that is exactly what [`EvalControl`] provides: a
//! cheap, latching "stop now" decision shared by every worker of one
//! serve.
//!
//! The contract consumers rely on:
//!
//! * `should_stop` is **latching** — once it has returned `true`, it
//!   returns `true` forever and [`EvalControl::fired`] names the first
//!   cause. Workers that check at different times all agree the serve is
//!   dead.
//! * once fired, evaluation results are **garbage by design** (row
//!   evaluation returns empty relations rather than unwinding); the
//!   caller must check `fired()` and discard them. What is *never*
//!   garbage is shared state: fabricated artifacts are not inserted into
//!   the sub-relation cache, so a retry after a deadline or cancellation
//!   recomputes from a consistent cache and produces byte-identical
//!   answers.
//! * an unbounded control (no deadline, no cancel flag) never fires and
//!   costs two `Option` checks per call — the fault-free fast path.

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Why an [`EvalControl`] stopped the serve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopCause {
    /// The deadline passed.
    Deadline,
    /// The caller's cancel flag was raised.
    Cancelled,
}

/// Shared stop signal for one serve: an optional deadline, an optional
/// caller-owned cancel flag, and the latched first cause.
#[derive(Debug, Default)]
pub struct EvalControl {
    deadline: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,
    /// 0 = live, 1 = deadline fired, 2 = cancelled. Latched by the first
    /// worker that observes the condition.
    fired: AtomicU8,
}

impl EvalControl {
    /// A control that never fires (the default for plain `answer` calls).
    pub fn unbounded() -> EvalControl {
        EvalControl::default()
    }

    /// A control with an optional deadline and an optional cancel flag.
    pub fn new(deadline: Option<Instant>, cancel: Option<Arc<AtomicBool>>) -> EvalControl {
        EvalControl {
            deadline,
            cancel,
            fired: AtomicU8::new(0),
        }
    }

    /// Does this control carry any stop condition at all? `false` means
    /// `should_stop` is constant-`false` and checks can be elided.
    pub fn is_bounded(&self) -> bool {
        self.deadline.is_some() || self.cancel.is_some()
    }

    /// Should the current unit of work be the last? Latching: checks the
    /// latched cause first, then the cancel flag (an explicit cancel wins
    /// over a simultaneous deadline), then the clock.
    #[inline]
    pub fn should_stop(&self) -> bool {
        if self.fired.load(Ordering::Relaxed) != 0 {
            return true;
        }
        if let Some(c) = &self.cancel {
            if c.load(Ordering::Relaxed) {
                self.latch(2);
                return true;
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                self.latch(1);
                return true;
            }
        }
        false
    }

    fn latch(&self, cause: u8) {
        // only the first cause sticks
        let _ = self
            .fired
            .compare_exchange(0, cause, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// The latched stop cause, if [`EvalControl::should_stop`] has ever
    /// returned `true`.
    pub fn fired(&self) -> Option<StopCause> {
        match self.fired.load(Ordering::Relaxed) {
            1 => Some(StopCause::Deadline),
            2 => Some(StopCause::Cancelled),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unbounded_never_fires() {
        let c = EvalControl::unbounded();
        assert!(!c.is_bounded());
        for _ in 0..100 {
            assert!(!c.should_stop());
        }
        assert_eq!(c.fired(), None);
    }

    #[test]
    fn expired_deadline_latches() {
        let c = EvalControl::new(Some(Instant::now() - Duration::from_millis(1)), None);
        assert!(c.is_bounded());
        assert!(c.should_stop());
        assert_eq!(c.fired(), Some(StopCause::Deadline));
        // stays fired even if we never look at the clock again
        assert!(c.should_stop());
    }

    #[test]
    fn future_deadline_does_not_fire() {
        let c = EvalControl::new(Some(Instant::now() + Duration::from_secs(3600)), None);
        assert!(!c.should_stop());
        assert_eq!(c.fired(), None);
    }

    #[test]
    fn cancel_flag_latches_and_wins_over_deadline() {
        let flag = Arc::new(AtomicBool::new(false));
        let c = EvalControl::new(
            Some(Instant::now() - Duration::from_millis(1)),
            Some(flag.clone()),
        );
        flag.store(true, Ordering::Relaxed);
        assert!(c.should_stop());
        assert_eq!(c.fired(), Some(StopCause::Cancelled));
        // lowering the flag cannot un-fire a latched control
        flag.store(false, Ordering::Relaxed);
        assert!(c.should_stop());
        assert_eq!(c.fired(), Some(StopCause::Cancelled));
    }
}
