//! Cooperative cancellation of step loops.
//!
//! A [`CancelToken`] is a cheap, cloneable handle shared between a step
//! loop (the engine's [`Network::try_drain`](crate::Network::try_drain)
//! driver, or an external driver like `noc-sim`'s `Simulation`) and a
//! supervisor that wants the loop to stop: either explicitly
//! ([`CancelToken::cancel`]) or when a wall-clock deadline passes
//! ([`CancelToken::with_timeout`]).
//!
//! Cancellation is *cooperative*: the engine never unwinds mid-cycle.
//! Drivers poll [`CancelToken::expired_at`] once per cycle, which is one
//! relaxed atomic load; the wall clock is only read every
//! [`DEADLINE_CHECK_MASK`]` + 1` cycles, so a polled token costs nothing
//! measurable on the hot path. Once the deadline is observed to have
//! passed, the token latches cancelled — later polls are pure atomic
//! loads and every clone of the token agrees.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cycle mask gating wall-clock reads in [`CancelToken::expired_at`]: the
/// deadline is checked when `cycle & DEADLINE_CHECK_MASK == 0`, i.e.
/// every 256 cycles. At typical engine speeds (≥100 kcycles/s) that
/// bounds the cancellation latency well under wall-clock noise while
/// keeping `Instant::now()` off 255 of every 256 cycles.
pub const DEADLINE_CHECK_MASK: u64 = 255;

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    /// Absolute wall-clock deadline, fixed at construction. `None` for a
    /// purely explicit token.
    deadline: Option<Instant>,
    /// Parent token this one is linked to: once the parent cancels, this
    /// token observes it on its next poll and latches its own flag. One
    /// extra relaxed load per poll — still free on the hot path.
    parent: Option<Arc<Inner>>,
}

/// Shared cancellation flag with an optional wall-clock deadline. Clones
/// share state: cancelling any clone cancels them all.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token that only cancels explicitly via [`CancelToken::cancel`].
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
                parent: None,
            }),
        }
    }

    /// A token that additionally expires `timeout` from now. A timeout
    /// past the end of the clock's range never expires.
    pub fn with_timeout(timeout: Duration) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Instant::now().checked_add(timeout),
                parent: None,
            }),
        }
    }

    /// A child token linked to `parent`: it cancels when the parent does
    /// (observed on the child's next poll) or when its own
    /// [`CancelToken::cancel`] is called. Cancelling the child never
    /// affects the parent, so one root token can fan out to many
    /// independent workers — the shutdown-broadcast shape.
    pub fn linked(parent: &CancelToken) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
                parent: Some(Arc::clone(&parent.inner)),
            }),
        }
    }

    /// A child token linked to `parent` that additionally expires
    /// `timeout` from now — the per-attempt shape: a wall-clock budget
    /// under a batch-wide cancel. As with [`CancelToken::with_timeout`], a
    /// timeout past the end of the clock's range never expires.
    pub fn linked_with_timeout(parent: &CancelToken, timeout: Duration) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Instant::now().checked_add(timeout),
                parent: Some(Arc::clone(&parent.inner)),
            }),
        }
    }

    /// Request cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested on this token or an
    /// ancestor (or a passed deadline has already been observed by some
    /// poll). Never reads the clock.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        self.parent_cancelled()
    }

    /// Walk the parent chain; latch our own flag the first time an
    /// ancestor is seen cancelled so later polls are a single load.
    fn parent_cancelled(&self) -> bool {
        let mut up = &self.inner.parent;
        while let Some(p) = up {
            if p.cancelled.load(Ordering::Relaxed) {
                self.inner.cancelled.store(true, Ordering::Relaxed);
                return true;
            }
            up = &p.parent;
        }
        false
    }

    /// Per-cycle poll for step loops: true once the token is cancelled.
    /// The deadline (if any) is checked only on cycles where
    /// `cycle & `[`DEADLINE_CHECK_MASK`]` == 0`, and latches the flag so
    /// the answer is stable on every later cycle.
    pub fn expired_at(&self, cycle: u64) -> bool {
        if self.inner.cancelled.load(Ordering::Relaxed) || self.parent_cancelled() {
            return true;
        }
        if cycle & DEADLINE_CHECK_MASK == 0 {
            return self.expired_now();
        }
        false
    }

    /// Unconditional poll (always reads the clock when a deadline is
    /// set); latches. For loops not indexed by engine cycles.
    pub fn expired_now(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Relaxed) || self.parent_cancelled() {
            return true;
        }
        match self.inner.deadline {
            Some(d) if Instant::now() >= d => {
                self.inner.cancelled.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--point-timeout` accepts any finite `Duration`; one the clock
    /// cannot add must mean "never", not an overflow panic.
    #[test]
    fn timeout_beyond_the_clock_never_expires() {
        let root = CancelToken::new();
        for t in [
            CancelToken::with_timeout(Duration::MAX),
            CancelToken::linked_with_timeout(&root, Duration::MAX),
        ] {
            assert!(!t.expired_at(0));
            assert!(!t.is_cancelled());
        }
    }

    #[test]
    fn explicit_cancel_latches_and_is_shared() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!t.expired_at(1));
        assert!(!t.expired_at(0), "no deadline: the check-cycle is still false");
        u.cancel();
        assert!(t.is_cancelled());
        assert!(t.expired_at(7), "cancellation visible on every cycle");
    }

    #[test]
    fn deadline_expires_and_latches() {
        let t = CancelToken::with_timeout(Duration::from_millis(0));
        // Off-mask cycles never read the clock, so the flag is still unset.
        assert!(!t.expired_at(3));
        assert!(!t.is_cancelled());
        // A mask-aligned cycle observes the passed deadline and latches.
        assert!(t.expired_at(DEADLINE_CHECK_MASK + 1));
        assert!(t.is_cancelled());
        assert!(t.expired_at(3), "latched: off-mask cycles now see it too");
    }

    #[test]
    fn future_deadline_does_not_fire() {
        let t = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(!t.expired_at(0));
        assert!(!t.expired_now());
    }

    /// Cancellation from another thread is observed by a polling loop —
    /// the supervisor-cancels-a-worker shape.
    #[test]
    fn cancel_from_another_thread_is_observed() {
        let t = CancelToken::new();
        let u = t.clone();
        let poller = std::thread::spawn(move || {
            let mut cycles = 0u64;
            while !u.expired_at(cycles) {
                cycles += 1;
                std::thread::sleep(Duration::from_micros(50));
                assert!(cycles < 2_000_000, "cancel never observed");
            }
            cycles
        });
        std::thread::sleep(Duration::from_millis(5));
        t.cancel();
        let cycles = poller.join().expect("poller panicked");
        assert!(t.is_cancelled());
        assert!(cycles > 0, "poller must have run before the cancel landed");
    }

    /// A root token fanned out to many linked children cancels them all,
    /// each observing it from its own thread.
    #[test]
    fn linked_children_observe_root_cancel_across_threads() {
        let root = CancelToken::new();
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let child = CancelToken::linked(&root);
                std::thread::spawn(move || {
                    let mut spins = 0u64;
                    while !child.expired_now() {
                        spins += 1;
                        std::thread::sleep(Duration::from_micros(50));
                        assert!(spins < 2_000_000, "root cancel never reached the child");
                    }
                    child.is_cancelled()
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(2));
        root.cancel();
        for w in workers {
            assert!(w.join().expect("worker panicked"), "child must latch cancelled");
        }
    }

    /// Cancelling a linked child is local: the parent and its other
    /// children keep running.
    #[test]
    fn child_cancel_does_not_propagate_up_or_sideways() {
        let root = CancelToken::new();
        let a = CancelToken::linked(&root);
        let b = CancelToken::linked(&root);
        a.cancel();
        assert!(a.is_cancelled());
        assert!(!root.is_cancelled(), "cancel must not travel upward");
        assert!(!b.is_cancelled(), "cancel must not travel sideways");
        assert!(!b.expired_at(0));
    }

    /// A linked child with its own deadline fires on whichever comes
    /// first — here the deadline, with the parent never cancelled.
    #[test]
    fn linked_child_own_deadline_still_fires() {
        let root = CancelToken::new();
        let child = CancelToken::linked_with_timeout(&root, Duration::from_millis(0));
        assert!(child.expired_now());
        assert!(child.is_cancelled());
        assert!(!root.is_cancelled());
    }

    /// Grandchildren see a root cancel through the chain.
    #[test]
    fn cancel_crosses_two_links() {
        let root = CancelToken::new();
        let mid = CancelToken::linked(&root);
        let leaf = CancelToken::linked(&mid);
        root.cancel();
        assert!(leaf.is_cancelled());
        assert!(mid.is_cancelled());
    }
}
