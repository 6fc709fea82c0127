//! Resilience policies for the solver service: per-request deadlines,
//! bounded kernel retry with failover, and per-kernel circuit breakers.
//!
//! The service's job under faults is to turn backend failures from
//! request-killers into degraded-but-correct answers:
//!
//! * a **deadline** travels with the request through admission, queue
//!   wait, schedule build, and solve, and is enforced at each stage
//!   boundary — a request that can no longer make its budget fails fast
//!   with [`ServeError::DeadlineExceeded`](crate::ServeError) carrying
//!   where the budget went;
//! * a failed message-passing execution is **retried** with exponential
//!   backoff (each attempt reseeds the fault plan, modeling transient
//!   faults) up to a bounded budget, then the request **fails over**
//!   down the kernel chain — message-passing → block-parallel →
//!   sequential — because every kernel produces a bit-identical factor;
//! * a **circuit breaker** per kernel class opens after a run of
//!   consecutive failures so a flapping backend stops burning retry
//!   budget, lets a half-open probe through after a cooldown, and
//!   closes again on success. The sequential kernel is the last resort
//!   and is never denied: a healthy request cannot fail solely because
//!   of breaker state.

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
/// request asks for, breakers key on and failover reports name.
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
    /// Stable lowercase name used in metrics (`serve.breaker.<name>.state`).
    pub fn name(&self) -> &'static str {
        match self {
            KernelKind::MessagePassing => "mp",
            KernelKind::BlockParallel => "block",
            KernelKind::Sequential => "seq",
        }
    }

    /// The degradation chain starting at this kernel: itself, then every
    /// cheaper kernel it may fail over to, ending at the sequential last
    /// resort.
    pub fn chain(&self) -> &'static [KernelKind] {
        match self {
            KernelKind::MessagePassing => &[
                KernelKind::MessagePassing,
                KernelKind::BlockParallel,
                KernelKind::Sequential,
            ],
            KernelKind::BlockParallel => &[KernelKind::BlockParallel, KernelKind::Sequential],
            KernelKind::Sequential => &[KernelKind::Sequential],
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
    /// Time in the numeric kernels (including retries and failover).
    pub solve_ms: f64,
}

/// One abandoned attempt in the failover chain, reported on
/// [`SolveResponse`](crate::SolveResponse) so callers can see how their
/// answer was produced.
#[derive(Clone, Debug)]
pub struct FailoverStep {
    /// The kernel that was given up on.
    pub kernel: KernelKind,
    /// Execution attempts made on it (0 = its circuit breaker denied it
    /// without an attempt).
    pub attempts: u32,
    /// The error that caused the step down.
    pub error: ServeError,
}

/// Knobs for the whole resilience layer; lives on
/// [`ServeConfig`](crate::ServeConfig).
#[derive(Clone, Debug)]
pub struct ResilienceConfig {
    /// Deadline applied to requests that do not carry their own.
    /// `None` (the default) means no implicit deadline.
    pub default_deadline: Option<Duration>,
    /// Whether a kernel that exhausts its retries fails over down the
    /// chain (mp → block-parallel → sequential). With `false` the
    /// request fails with the kernel's typed error instead.
    pub failover: bool,
    /// Retries per kernel after the first attempt, for transient
    /// (non-numeric) failures. 0 = one attempt only.
    pub max_retries: u32,
    /// First retry backoff; doubles per retry.
    pub backoff_base: Duration,
    /// Backoff cap.
    pub backoff_max: Duration,
    /// Consecutive failures that open a kernel's breaker. 0 disables
    /// circuit breaking.
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
            max_retries: 2,
            backoff_base: Duration::from_millis(5),
            backoff_max: Duration::from_millis(100),
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

    /// Time left before the deadline; `None` = unbounded.
    pub(crate) fn remaining(&self) -> Option<Duration> {
        self.budget
            .map(|b| b.saturating_sub(self.admitted.elapsed()))
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

/// Circuit breaker state of one kernel class.
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

impl Breaker {
    fn new() -> Self {
        Breaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: None,
        }
    }
}

/// What a breaker decided about a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Admit {
    /// Closed breaker: proceed normally.
    Allow,
    /// Open breaker past its cooldown: proceed as the half-open probe.
    Probe,
    /// Open (or probing) breaker: skip this kernel.
    Deny,
}

/// Per-kernel-class circuit breakers with `serve.breaker.*` telemetry.
pub(crate) struct KernelBreakers {
    threshold: u32,
    cooldown: Duration,
    breakers: [Mutex<Breaker>; 3],
}

impl KernelBreakers {
    pub(crate) fn new(config: &ResilienceConfig) -> Self {
        KernelBreakers {
            threshold: config.breaker_threshold,
            cooldown: config.breaker_cooldown,
            breakers: [
                Mutex::new(Breaker::new()),
                Mutex::new(Breaker::new()),
                Mutex::new(Breaker::new()),
            ],
        }
    }

    fn slot(&self, kind: KernelKind) -> &Mutex<Breaker> {
        match kind {
            KernelKind::MessagePassing => &self.breakers[0],
            KernelKind::BlockParallel => &self.breakers[1],
            KernelKind::Sequential => &self.breakers[2],
        }
    }

    fn publish(&self, kind: KernelKind, state: BreakerState) {
        let rec = trace::current();
        if rec.is_recording() {
            rec.gauge(
                &format!("serve.breaker.{}.state", kind.name()),
                state.gauge(),
            );
        }
    }

    /// Current gauge encoding of a kernel's breaker (0 closed, 1 open,
    /// 2 half-open) — inspection for tests and operators.
    pub(crate) fn state_gauge(&self, kind: KernelKind) -> f64 {
        lock_unpoisoned(self.slot(kind)).state.gauge()
    }

    /// Decides whether a request may run on `kind`. The sequential
    /// kernel is the chain's last resort and is always admitted.
    pub(crate) fn admit(&self, kind: KernelKind) -> Admit {
        if self.threshold == 0 || kind == KernelKind::Sequential {
            return Admit::Allow;
        }
        let mut b = lock_unpoisoned(self.slot(kind));
        match b.state {
            BreakerState::Closed => Admit::Allow,
            BreakerState::HalfOpen => Admit::Deny,
            BreakerState::Open => {
                let cooled = b
                    .opened_at
                    .map(|t| t.elapsed() >= self.cooldown)
                    .unwrap_or(true);
                if cooled {
                    b.state = BreakerState::HalfOpen;
                    self.publish(kind, b.state);
                    trace::current().incr("serve.breaker.probe", 1);
                    Admit::Probe
                } else {
                    Admit::Deny
                }
            }
        }
    }

    /// Reports a successful execution on `kind`: closes the breaker.
    pub(crate) fn on_success(&self, kind: KernelKind) {
        let mut b = lock_unpoisoned(self.slot(kind));
        b.consecutive_failures = 0;
        if b.state != BreakerState::Closed {
            b.state = BreakerState::Closed;
            b.opened_at = None;
            self.publish(kind, b.state);
        }
    }

    /// Reports a failed execution on `kind` (after its retry budget):
    /// a failed probe reopens immediately; a run of `threshold`
    /// consecutive failures opens a closed breaker.
    pub(crate) fn on_failure(&self, kind: KernelKind) {
        if self.threshold == 0 {
            return;
        }
        let mut b = lock_unpoisoned(self.slot(kind));
        b.consecutive_failures = b.consecutive_failures.saturating_add(1);
        let open = match b.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => b.consecutive_failures >= self.threshold,
            BreakerState::Open => false,
        };
        if open {
            b.state = BreakerState::Open;
            b.opened_at = Some(Instant::now());
            self.publish(kind, b.state);
            trace::current().incr("serve.breaker.open", 1);
        }
    }
}

/// Exponential backoff for retry `attempt` (0-based): `base * 2^attempt`
/// capped at `max`, and never past the deadline's remaining budget.
pub(crate) fn backoff_for(
    config: &ResilienceConfig,
    attempt: u32,
    remaining: Option<Duration>,
) -> Duration {
    let exp = config
        .backoff_base
        .saturating_mul(1u32 << attempt.min(16))
        .min(config.backoff_max);
    match remaining {
        Some(r) => exp.min(r),
        None => exp,
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
    fn chain_ends_at_sequential() {
        assert_eq!(KernelKind::MessagePassing.chain().len(), 3);
        assert_eq!(KernelKind::BlockParallel.chain().len(), 2);
        assert_eq!(KernelKind::Sequential.chain(), &[KernelKind::Sequential]);
        for kind in [
            KernelKind::MessagePassing,
            KernelKind::BlockParallel,
            KernelKind::Sequential,
        ] {
            assert_eq!(kind.chain().last(), Some(&KernelKind::Sequential));
        }
    }

    #[test]
    fn breaker_opens_after_threshold_and_probes_after_cooldown() {
        let b = KernelBreakers::new(&config(2, Duration::ZERO));
        let k = KernelKind::MessagePassing;
        assert_eq!(b.admit(k), Admit::Allow);
        b.on_failure(k);
        assert_eq!(b.admit(k), Admit::Allow, "below threshold stays closed");
        b.on_failure(k);
        assert_eq!(b.state_gauge(k), 1.0, "open");
        // Zero cooldown: the next admit is the half-open probe; a second
        // concurrent request is denied while the probe is in flight.
        assert_eq!(b.admit(k), Admit::Probe);
        assert_eq!(b.admit(k), Admit::Deny);
        b.on_success(k);
        assert_eq!(b.state_gauge(k), 0.0, "probe success closes");
        assert_eq!(b.admit(k), Admit::Allow);
    }

    #[test]
    fn failed_probe_reopens() {
        let b = KernelBreakers::new(&config(1, Duration::ZERO));
        let k = KernelKind::BlockParallel;
        b.on_failure(k);
        assert_eq!(b.admit(k), Admit::Probe);
        b.on_failure(k);
        assert_eq!(b.state_gauge(k), 1.0, "failed probe reopens");
    }

    #[test]
    fn open_breaker_denies_until_cooldown() {
        let b = KernelBreakers::new(&config(1, Duration::from_secs(3600)));
        let k = KernelKind::MessagePassing;
        b.on_failure(k);
        assert_eq!(b.admit(k), Admit::Deny, "cooldown not elapsed");
    }

    #[test]
    fn sequential_is_never_denied() {
        let b = KernelBreakers::new(&config(1, Duration::from_secs(3600)));
        for _ in 0..5 {
            b.on_failure(KernelKind::Sequential);
        }
        assert_eq!(b.admit(KernelKind::Sequential), Admit::Allow);
    }

    #[test]
    fn zero_threshold_disables_breaking() {
        let b = KernelBreakers::new(&config(0, Duration::ZERO));
        for _ in 0..10 {
            b.on_failure(KernelKind::MessagePassing);
        }
        assert_eq!(b.admit(KernelKind::MessagePassing), Admit::Allow);
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

    #[test]
    fn backoff_doubles_and_caps() {
        let c = ResilienceConfig {
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(35),
            ..ResilienceConfig::default()
        };
        assert_eq!(backoff_for(&c, 0, None), Duration::from_millis(10));
        assert_eq!(backoff_for(&c, 1, None), Duration::from_millis(20));
        assert_eq!(backoff_for(&c, 2, None), Duration::from_millis(35));
        assert_eq!(
            backoff_for(&c, 2, Some(Duration::from_millis(7))),
            Duration::from_millis(7),
            "backoff never sleeps past the deadline"
        );
    }
}
