//! Resilience policies for the solver service: per-request deadlines,
//! failover from the message-passing kernel, and its circuit breaker.
//!
//! The service's job under faults is to turn backend failures from
//! request-killers into degraded-but-correct answers:
//!
//! * a **deadline** travels with the request through admission, queue
//!   wait, schedule build, and solve, and is enforced at each stage
//!   boundary — a request that can no longer make its budget fails fast
//!   with [`ServeError::DeadlineExceeded`](crate::ServeError) carrying
//!   where the budget went;
//! * a failed message-passing execution **fails over** to the
//!   block-parallel kernel, because every kernel produces a bit-identical
//!   factor. It is not retried: a run fails only when a planned crash
//!   fires, and a crash fires at the same point of the victim's program
//!   under every seed, while lost messages are already retransmitted
//!   inside the runtime. Block-parallel and sequential fail only on the
//!   matrix (a numeric error), which no other kernel could rescue;
//! * a **circuit breaker** on the message-passing kernel opens after a
//!   run of consecutive failures so a flapping runtime stops costing a
//!   run per request, lets a half-open probe through after a cooldown,
//!   and closes again on any run that reaches a verdict.

use crate::ServeError;
use spfactor::trace;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Locks a mutex, adopting the data if a previous holder panicked — the
/// serve crate forbids `unwrap`/`expect` outside tests, and a poisoned
/// latency window or breaker is still perfectly usable.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Which numeric kernel executes a request's factorizations — what a
/// request asks for, responses report and kernel errors name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// The message-passing runtime: one thread per virtual processor
    /// exchanging explicit messages under the default `NetworkModel`.
    MessagePassing,
    /// The schedule-driven shared-memory executor: one thread per
    /// scheduled processor running the cached dependency graph.
    BlockParallel,
    /// Left-looking sequential factorization — the reference kernel.
    Sequential,
}

impl KernelKind {
    /// Stable lowercase name used in metrics (`serve.breaker.mp.state`)
    /// and error messages.
    pub fn name(&self) -> &'static str {
        match self {
            KernelKind::MessagePassing => "mp",
            KernelKind::BlockParallel => "block",
            KernelKind::Sequential => "seq",
        }
    }
}

/// Which stage boundary a deadline was discovered to be blown at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeadlineStage {
    /// Admission or queue wait: the budget was gone before any work.
    Queue,
    /// The schedule build (cache miss, single-flight wait, or store
    /// load) consumed the rest of the budget.
    Build,
    /// The numeric solve consumed the rest of the budget.
    Solve,
}

impl DeadlineStage {
    /// Stable lowercase name (`serve.deadline.exceeded.<name>`).
    pub fn name(&self) -> &'static str {
        match self {
            DeadlineStage::Queue => "queue",
            DeadlineStage::Build => "build",
            DeadlineStage::Solve => "solve",
        }
    }
}

/// Where a request's time went, in milliseconds — attached to
/// [`ServeError::DeadlineExceeded`](crate::ServeError) so callers can
/// see which stage ate the budget.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BudgetBreakdown {
    /// Time between admission and a worker picking the request up.
    pub queue_ms: f64,
    /// Time resolving the schedule artifact (build, wait, or store).
    pub build_ms: f64,
    /// Time in the numeric kernels (including failover).
    pub solve_ms: f64,
}

/// Knobs for the whole resilience layer; lives on
/// [`ServeConfig`](crate::ServeConfig).
#[derive(Clone, Debug)]
pub struct ResilienceConfig {
    /// Deadline applied to requests that do not carry their own.
    /// `None` (the default) means no implicit deadline.
    pub default_deadline: Option<Duration>,
    /// Whether a failed or breaker-denied message-passing request fails
    /// over to the block-parallel kernel. With `false` the request fails
    /// with the `Kernel` or `BreakerOpen` error instead.
    pub failover: bool,
    /// Consecutive failures that open the message-passing breaker. 0
    /// disables circuit breaking.
    pub breaker_threshold: u32,
    /// How long an open breaker waits before letting a half-open probe
    /// request through.
    pub breaker_cooldown: Duration,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            default_deadline: None,
            failover: true,
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_secs(1),
        }
    }
}

/// The deadline clock of one in-flight request: admission instant plus
/// the (optional) budget. All stage checks measure from admission, so
/// queue wait counts against the budget exactly like build and solve
/// time do.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DeadlineClock {
    admitted: Instant,
    budget: Option<Duration>,
}

impl DeadlineClock {
    pub(crate) fn new(admitted: Instant, budget: Option<Duration>) -> Self {
        DeadlineClock { admitted, budget }
    }

    /// Milliseconds since admission.
    pub(crate) fn elapsed_ms(&self) -> f64 {
        self.admitted.elapsed().as_secs_f64() * 1e3
    }

    /// Fails with a typed [`ServeError::DeadlineExceeded`] if the budget
    /// is spent, attributing the failure to `stage`.
    pub(crate) fn check(
        &self,
        stage: DeadlineStage,
        spent: BudgetBreakdown,
    ) -> Result<(), ServeError> {
        match self.budget {
            Some(budget) if self.admitted.elapsed() >= budget => {
                Err(ServeError::DeadlineExceeded {
                    stage,
                    budget_ms: budget.as_secs_f64() * 1e3,
                    spent,
                })
            }
            _ => Ok(()),
        }
    }
}

/// Circuit breaker state of the message-passing kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests are denied until the cooldown elapses.
    Open,
    /// One probe request is in flight; its outcome decides.
    HalfOpen,
}

impl BreakerState {
    /// Gauge encoding: 0 closed, 1 open, 2 half-open.
    fn gauge(&self) -> f64 {
        match self {
            BreakerState::Closed => 0.0,
            BreakerState::Open => 1.0,
            BreakerState::HalfOpen => 2.0,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Breaker {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
}

/// The message-passing kernel's circuit breaker, with `serve.breaker.*`
/// telemetry. It is the only breaker: no other kernel fails for a
/// reason of its own.
pub(crate) struct MpBreaker {
    threshold: u32,
    cooldown: Duration,
    breaker: Mutex<Breaker>,
}

impl MpBreaker {
    pub(crate) fn new(config: &ResilienceConfig) -> Self {
        MpBreaker {
            threshold: config.breaker_threshold,
            cooldown: config.breaker_cooldown,
            breaker: Mutex::new(Breaker {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: None,
            }),
        }
    }

    fn publish(&self, state: BreakerState) {
        let rec = trace::current();
        if rec.is_recording() {
            rec.gauge("serve.breaker.mp.state", state.gauge());
        }
    }

    /// Current gauge encoding (0 closed, 1 open, 2 half-open) —
    /// inspection for tests and operators.
    pub(crate) fn state_gauge(&self) -> f64 {
        lock_unpoisoned(&self.breaker).state.gauge()
    }

    /// Whether a request may run on the message-passing kernel. An open
    /// breaker past its cooldown admits this one request as the
    /// half-open probe and denies every other until it reports.
    pub(crate) fn admit(&self) -> bool {
        if self.threshold == 0 {
            return true;
        }
        let mut b = lock_unpoisoned(&self.breaker);
        match b.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => false,
            BreakerState::Open => {
                let cooled = b
                    .opened_at
                    .map(|t| t.elapsed() >= self.cooldown)
                    .unwrap_or(true);
                if cooled {
                    b.state = BreakerState::HalfOpen;
                    self.publish(b.state);
                    trace::current().incr("serve.breaker.probe", 1);
                }
                cooled
            }
        }
    }

    /// Reports a run that reached a verdict (factors, or the matrix's
    /// numeric error): closes the breaker.
    pub(crate) fn on_success(&self) {
        let mut b = lock_unpoisoned(&self.breaker);
        b.consecutive_failures = 0;
        if b.state != BreakerState::Closed {
            b.state = BreakerState::Closed;
            b.opened_at = None;
            self.publish(b.state);
        }
    }

    /// Reports a failed run: a failed probe reopens immediately; a run
    /// of `threshold` consecutive failures opens a closed breaker.
    pub(crate) fn on_failure(&self) {
        if self.threshold == 0 {
            return;
        }
        let mut b = lock_unpoisoned(&self.breaker);
        b.consecutive_failures = b.consecutive_failures.saturating_add(1);
        let open = match b.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => b.consecutive_failures >= self.threshold,
            BreakerState::Open => false,
        };
        if open {
            b.state = BreakerState::Open;
            b.opened_at = Some(Instant::now());
            self.publish(b.state);
            trace::current().incr("serve.breaker.open", 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(threshold: u32, cooldown: Duration) -> ResilienceConfig {
        ResilienceConfig {
            breaker_threshold: threshold,
            breaker_cooldown: cooldown,
            ..ResilienceConfig::default()
        }
    }

    #[test]
    fn breaker_opens_after_threshold_and_probes_after_cooldown() {
        let b = MpBreaker::new(&config(2, Duration::ZERO));
        assert!(b.admit());
        b.on_failure();
        assert!(b.admit(), "below threshold stays closed");
        assert_eq!(b.state_gauge(), 0.0);
        b.on_failure();
        assert_eq!(b.state_gauge(), 1.0, "open");
        // Zero cooldown: the next admit is the half-open probe; a second
        // concurrent request is denied while the probe is in flight.
        assert!(b.admit());
        assert_eq!(b.state_gauge(), 2.0, "half-open");
        assert!(!b.admit());
        b.on_success();
        assert_eq!(b.state_gauge(), 0.0, "probe success closes");
        assert!(b.admit());
    }

    #[test]
    fn failed_probe_reopens() {
        let b = MpBreaker::new(&config(1, Duration::ZERO));
        b.on_failure();
        assert!(b.admit());
        assert_eq!(b.state_gauge(), 2.0, "half-open");
        b.on_failure();
        assert_eq!(b.state_gauge(), 1.0, "failed probe reopens");
    }

    #[test]
    fn open_breaker_denies_until_cooldown() {
        let b = MpBreaker::new(&config(1, Duration::from_secs(3600)));
        b.on_failure();
        assert!(!b.admit(), "cooldown not elapsed");
    }

    #[test]
    fn zero_threshold_disables_breaking() {
        let b = MpBreaker::new(&config(0, Duration::ZERO));
        for _ in 0..10 {
            b.on_failure();
        }
        assert!(b.admit());
        assert_eq!(b.state_gauge(), 0.0);
    }

    #[test]
    fn deadline_clock_checks_and_attributes() {
        let clock = DeadlineClock::new(Instant::now(), Some(Duration::ZERO));
        let spent = BudgetBreakdown {
            queue_ms: 1.5,
            ..BudgetBreakdown::default()
        };
        match clock.check(DeadlineStage::Queue, spent) {
            Err(ServeError::DeadlineExceeded {
                stage,
                budget_ms,
                spent,
            }) => {
                assert_eq!(stage, DeadlineStage::Queue);
                assert_eq!(budget_ms, 0.0);
                assert_eq!(spent.queue_ms, 1.5);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let unbounded = DeadlineClock::new(Instant::now(), None);
        assert!(unbounded
            .check(DeadlineStage::Solve, BudgetBreakdown::default())
            .is_ok());
    }
}
