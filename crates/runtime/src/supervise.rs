//! Stage supervision for the continuous-ingest loop: per-stage
//! timeouts, bounded retries with exponential backoff + deterministic
//! jitter, and escalation to **degraded mode** after N consecutive
//! failed cycles.
//!
//! The state machine (documented in DESIGN.md §10):
//!
//! ```text
//!            stage ok            cycle ok
//!   HEALTHY ────────▶ … ────────────────────▶ HEALTHY (consecutive = 0)
//!      │ stage fails (error | panic | timeout)
//!      ▼
//!   retry with backoff (≤ max_attempts)
//!      │ attempts exhausted
//!      ▼
//!   cycle FAILED (consecutive += 1)
//!      │ consecutive ≥ degrade_after
//!      ▼
//!   DEGRADED — last sealed generation keeps serving; /healthz reports
//!   "degraded"; the loop keeps cycling and the first fully successful
//!   cycle clears the flag.
//! ```
//!
//! Stages run on a freshly spawned thread per attempt so a *panicking*
//! stage is caught (`catch_unwind` at the thread boundary) and a *hung*
//! stage can be abandoned: on timeout the supervisor stops waiting and
//! retries, leaving the stuck thread to finish (or not) in the
//! background. That leak is deliberate — there is no safe way to kill a
//! thread, and the stages here (crawl, score, write) hold no locks the
//! supervisor needs. An attempt that does answer is joined before the
//! supervisor moves on: a stage thread still exiting when the next one
//! starts makes the allocator open another arena for the newcomer, and
//! over many cycles each of those arenas keeps a book-sized heap.
//!
//! Backoff jitter draws from the in-tree seeded [`Rng`], so a supervised
//! run under a fixed fault plan retries on an identical schedule every
//! replay.

use crate::rng::Rng;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Retry/backoff knobs for one supervised stage attempt sequence.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per stage (first try + retries). Min 1.
    pub max_attempts: u32,
    /// Backoff before retry #1; doubles per retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            jitter_seed: 0x5_0BE5,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `retry` (1-based), jittered by a
    /// factor in [0.5, 1.0] drawn from `rng`.
    fn backoff(&self, retry: u32, rng: &mut Rng) -> Duration {
        let exp = retry.saturating_sub(1).min(20);
        let raw = self
            .base_backoff
            .saturating_mul(1u32 << exp)
            .min(self.max_backoff);
        let factor = 0.5 + 0.5 * rng.gen_f64();
        raw.mul_f64(factor)
    }
}

/// Why a supervised stage gave up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageError {
    /// The stage returned an error on its final attempt.
    Failed(String),
    /// The stage panicked on its final attempt.
    Panicked(String),
    /// The stage exceeded its timeout on its final attempt.
    TimedOut,
}

impl fmt::Display for StageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Failed(msg) => write!(f, "failed: {msg}"),
            Self::Panicked(msg) => write!(f, "panicked: {msg}"),
            Self::TimedOut => write!(f, "timed out"),
        }
    }
}

/// Shared, atomically updated supervision counters — mirrored into the
/// server's `/metrics` by the watch loop.
#[derive(Debug, Default)]
pub struct SupervisorStats {
    /// Completed cycles (success or failure).
    pub cycles_total: AtomicU64,
    /// Cycles that exhausted retries on some stage.
    pub cycles_failed_total: AtomicU64,
    /// Stage retry attempts (beyond each stage's first try).
    pub retries_total: AtomicU64,
    /// Individual stage attempt failures (including retried ones).
    pub stage_failures_total: AtomicU64,
    /// Current run of consecutive failed cycles.
    pub consecutive_failures: AtomicU64,
    /// Degraded-mode flag.
    pub degraded: AtomicBool,
}

impl SupervisorStats {
    /// Whether the loop is currently degraded.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }
}

/// Runs cycle stages under timeout + retry and tracks cycle health.
pub struct Supervisor {
    policy: RetryPolicy,
    degrade_after: u64,
    stats: Arc<SupervisorStats>,
    jitter: Rng,
}

impl fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Supervisor")
            .field("policy", &self.policy)
            .field("degrade_after", &self.degrade_after)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Supervisor {
    /// New supervisor; degraded mode engages after `degrade_after`
    /// consecutive failed cycles (min 1).
    #[must_use]
    pub fn new(policy: RetryPolicy, degrade_after: u64) -> Self {
        let jitter = Rng::seed_from_u64(policy.jitter_seed);
        Self {
            policy,
            degrade_after: degrade_after.max(1),
            stats: Arc::new(SupervisorStats::default()),
            jitter,
        }
    }

    /// Shared handle to the supervision counters.
    #[must_use]
    pub fn stats(&self) -> Arc<SupervisorStats> {
        Arc::clone(&self.stats)
    }

    /// Run one stage under the policy: each attempt executes `f` on a
    /// fresh thread with `timeout`; error/panic/timeout attempts retry
    /// after jittered exponential backoff until `max_attempts`.
    ///
    /// # Errors
    /// The final attempt's [`StageError`] once retries are exhausted.
    pub fn stage<T, F>(&mut self, name: &str, timeout: Duration, f: F) -> Result<T, StageError>
    where
        T: Send + 'static,
        F: Fn() -> Result<T, String> + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let attempts = self.policy.max_attempts.max(1);
        let mut last = StageError::Failed("no attempts made".to_string());
        for attempt in 1..=attempts {
            if attempt > 1 {
                self.stats.retries_total.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(self.policy.backoff(attempt - 1, &mut self.jitter));
            }
            match run_attempt(name, timeout, Arc::clone(&f)) {
                Ok(value) => return Ok(value),
                Err(err) => {
                    self.stats
                        .stage_failures_total
                        .fetch_add(1, Ordering::Relaxed);
                    last = err;
                }
            }
        }
        Err(last)
    }

    /// Record the outcome of a full cycle. A success clears the
    /// consecutive-failure run and leaves degraded mode; a failure may
    /// enter it. Returns whether the loop is degraded *after* this
    /// cycle.
    pub fn complete_cycle(&self, ok: bool) -> bool {
        self.stats.cycles_total.fetch_add(1, Ordering::Relaxed);
        if ok {
            self.stats.consecutive_failures.store(0, Ordering::SeqCst);
            self.stats.degraded.store(false, Ordering::SeqCst);
            false
        } else {
            self.stats.cycles_failed_total.fetch_add(1, Ordering::Relaxed);
            let run = self
                .stats
                .consecutive_failures
                .fetch_add(1, Ordering::SeqCst)
                + 1;
            if run >= self.degrade_after {
                self.stats.degraded.store(true, Ordering::SeqCst);
            }
            self.stats.degraded.load(Ordering::SeqCst)
        }
    }
}

/// One attempt: spawn, catch panics at the thread boundary, wait with
/// timeout. A timed-out thread is abandoned (see module docs).
fn run_attempt<T, F>(name: &str, timeout: Duration, f: Arc<F>) -> Result<T, StageError>
where
    T: Send + 'static,
    F: Fn() -> Result<T, String> + Send + Sync + 'static,
{
    let (tx, rx) = mpsc::channel::<Result<T, StageError>>();
    let thread_name = format!("etap-stage-{name}");
    let spawned = std::thread::Builder::new().name(thread_name).spawn(move || {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f()));
        let result = match outcome {
            Ok(Ok(value)) => Ok(value),
            Ok(Err(msg)) => Err(StageError::Failed(msg)),
            Err(payload) => Err(StageError::Panicked(panic_message(payload.as_ref()))),
        };
        // Receiver gone = the supervisor timed us out; nothing to do.
        let _ = tx.send(result);
    });
    match spawned {
        Ok(handle) => match rx.recv_timeout(timeout) {
            Ok(result) => {
                // The thread exits right after sending; wait for that, so
                // the next stage's thread cannot start beside it.
                let _ = handle.join();
                result
            }
            Err(_) => Err(StageError::TimedOut),
        },
        Err(e) => Err(StageError::Failed(format!("spawn failed: {e}"))),
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            jitter_seed: 9,
        }
    }

    #[test]
    fn success_passes_through() {
        let mut sup = Supervisor::new(fast_policy(), 2);
        let got = sup
            .stage("ok", Duration::from_secs(1), || Ok::<_, String>(41 + 1))
            .expect("stage succeeds");
        assert_eq!(got, 42);
        let stats = sup.stats();
        assert_eq!(stats.retries_total.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn transient_failure_is_retried() {
        let mut sup = Supervisor::new(fast_policy(), 2);
        let calls = Arc::new(AtomicU32::new(0));
        let calls_in = Arc::clone(&calls);
        let got = sup.stage("flaky", Duration::from_secs(1), move || {
            if calls_in.fetch_add(1, Ordering::SeqCst) < 2 {
                Err("transient".to_string())
            } else {
                Ok("recovered")
            }
        });
        assert_eq!(got, Ok("recovered"));
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        let stats = sup.stats();
        assert_eq!(stats.retries_total.load(Ordering::Relaxed), 2);
        assert_eq!(stats.stage_failures_total.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn persistent_failure_exhausts_attempts() {
        let mut sup = Supervisor::new(fast_policy(), 2);
        let got: Result<(), _> = sup.stage("doomed", Duration::from_secs(1), || {
            Err("nope".to_string())
        });
        assert_eq!(got, Err(StageError::Failed("nope".to_string())));
        assert_eq!(sup.stats().stage_failures_total.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn panics_are_caught_and_reported() {
        let mut sup = Supervisor::new(
            RetryPolicy {
                max_attempts: 1,
                ..fast_policy()
            },
            2,
        );
        let got: Result<(), _> = sup.stage("bomb", Duration::from_secs(1), || {
            panic!("injected panic at retrain")
        });
        match got {
            Err(StageError::Panicked(msg)) => assert!(msg.contains("retrain"), "{msg}"),
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn hung_stage_times_out() {
        let mut sup = Supervisor::new(
            RetryPolicy {
                max_attempts: 1,
                ..fast_policy()
            },
            2,
        );
        let got: Result<(), _> = sup.stage("hang", Duration::from_millis(20), || {
            std::thread::sleep(Duration::from_secs(5));
            Ok(())
        });
        assert_eq!(got, Err(StageError::TimedOut));
    }

    #[test]
    fn degraded_mode_engages_and_clears() {
        let sup = Supervisor::new(fast_policy(), 3);
        assert!(!sup.complete_cycle(false));
        assert!(!sup.complete_cycle(false));
        assert!(sup.complete_cycle(false), "third consecutive failure degrades");
        assert!(sup.stats().is_degraded());
        assert!(!sup.complete_cycle(true), "one success recovers");
        assert!(!sup.stats().is_degraded());
        assert_eq!(sup.stats().cycles_total.load(Ordering::Relaxed), 4);
        assert_eq!(sup.stats().cycles_failed_total.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn backoff_schedule_is_deterministic() {
        let schedule = |seed: u64| {
            let policy = RetryPolicy {
                jitter_seed: seed,
                ..RetryPolicy::default()
            };
            let mut rng = Rng::seed_from_u64(policy.jitter_seed);
            (1..=4u32)
                .map(|r| policy.backoff(r, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(schedule(7), schedule(7));
        let s = schedule(7);
        // Exponential shape with jitter in [0.5, 1.0] of the raw value.
        let policy = RetryPolicy::default();
        for (i, d) in s.iter().enumerate() {
            let raw = policy
                .base_backoff
                .saturating_mul(1 << i)
                .min(policy.max_backoff);
            assert!(*d >= raw.mul_f64(0.5) && *d <= raw, "retry {i}: {d:?}");
        }
    }
}
