//! Per-request deadlines for the solver service.
//!
//! A **deadline** travels with the request through admission, queue
//! wait and schedule build, and is enforced at each stage boundary
//! before the factorization — a request that can no longer make its
//! budget fails fast with
//! [`ServeError::DeadlineExceeded`](crate::ServeError) carrying where the
//! budget went.
//!
//! The one kernel, `numeric::cholesky`, fails only on the matrix (a
//! numeric error, reported as [`ServeError::Solve`](crate::ServeError)),
//! so there is nothing to fail over to and nothing to break a circuit on.

use crate::ServeError;
use spfactor::trace;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Locks a mutex, adopting the data if a previous holder panicked — the
/// serve crate forbids `unwrap`/`expect` outside tests, and a poisoned
/// latency window or queue receiver is still perfectly usable.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Which stage boundary a deadline was discovered to be blown at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeadlineStage {
    /// Admission or queue wait: the budget was gone before any work.
    Queue,
    /// The schedule build (cache miss, single-flight wait, or store
    /// load) consumed the rest of the budget.
    Build,
}

impl DeadlineStage {
    /// Stable lowercase name (`serve.deadline.exceeded.<name>`).
    pub fn name(&self) -> &'static str {
        match self {
            DeadlineStage::Queue => "queue",
            DeadlineStage::Build => "build",
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
}

/// The deadline clock of one in-flight request: admission instant plus
/// the (optional) budget. All stage checks measure from admission, so
/// queue wait counts against the budget exactly like build time does.
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
    /// is spent, attributing the failure to `stage` and counting it on
    /// `serve.deadline.exceeded` and its per-stage leaf.
    pub(crate) fn check(
        &self,
        stage: DeadlineStage,
        spent: BudgetBreakdown,
    ) -> Result<(), ServeError> {
        match self.budget {
            Some(budget) if self.admitted.elapsed() >= budget => {
                let rec = trace::current();
                rec.incr("serve.deadline.exceeded", 1);
                rec.incr(&format!("serve.deadline.exceeded.{}", stage.name()), 1);
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

#[cfg(test)]
mod tests {
    use super::*;

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
            .check(DeadlineStage::Build, BudgetBreakdown::default())
            .is_ok());
    }
}
