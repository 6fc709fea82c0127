//! Typed failure taxonomy of the resilient message-passing runtime.
//!
//! Every way an execution can end other than success is a variant of
//! [`MpError`]; fault-related variants carry the [`FaultTrace`] observed
//! up to the failure so a diagnosis never requires re-running the
//! schedule.

use crate::fault::FaultTrace;
use spfactor_numeric::NumericError;

/// The last protocol step a processor was seen entering, snapshotted
/// when the stall watchdog fires so a wedge diagnosis can say where
/// every processor was stuck without re-running the schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProcLastEvent {
    /// The processor the observation belongs to.
    pub proc: usize,
    /// Protocol step name: `"spawn"`, `"await_deps"`, `"prefetch"`,
    /// `"await_replies"`, `"stall"`, `"execute"`, `"finished"` or
    /// `"crashed"`. Steps stop updating once the shutdown verdict is
    /// seen, so the slot keeps the last *productive* step.
    pub step: &'static str,
    /// Unit block the step concerned (`u32::MAX` before the first).
    pub unit: u32,
    /// Seconds since the run epoch when the step was entered.
    pub at: f64,
}

impl std::fmt::Display for ProcLastEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{} {}", self.proc, self.step)?;
        if self.unit != u32::MAX {
            write!(f, " u{}", self.unit)?;
        }
        write!(f, " @{:.3}s", self.at)
    }
}

/// Why a message-passing execution failed.
#[derive(Clone, Debug, PartialEq)]
pub enum MpError {
    /// A virtual processor hit a numeric error (non-positive pivot or a
    /// structure mismatch) — the one the sequential kernel reports.
    Numeric(NumericError),
    /// The [`crate::MpConfig`] is internally inconsistent (probability
    /// outside `[0, 1]`, fault target beyond the processor count, zero
    /// watchdog budget, …).
    InvalidConfig(String),
    /// A processor announced its own crash; the run was aborted rather
    /// than left to time out.
    ProcessorCrashed {
        /// The crashed processor.
        proc: usize,
        /// Faults observed machine-wide up to the abort.
        trace: FaultTrace,
    },
    /// A processor exhausted its retry budget waiting for a block reply
    /// — the owner is unreachable (crashed or partitioned).
    FetchTimeout {
        /// The starving processor.
        proc: usize,
        /// The processor that never replied.
        owner: usize,
        /// Retransmission rounds attempted before giving up.
        attempts: u32,
        /// Faults observed machine-wide up to the abort.
        trace: FaultTrace,
    },
    /// A processor exhausted its retry budget waiting for a dependency
    /// predecessor to complete.
    DependencyTimeout {
        /// The starving processor.
        proc: usize,
        /// The predecessor unit block that never completed.
        unit: usize,
        /// Re-solicitation rounds attempted before giving up.
        attempts: u32,
        /// Faults observed machine-wide up to the abort.
        trace: FaultTrace,
    },
    /// The stall watchdog heard nothing from any processor for the whole
    /// budget — the machine is deadlocked, livelocked, or a processor
    /// died silently with nobody depending on it.
    WatchdogTimeout {
        /// Processors that had finished their programs when it fired.
        finished: usize,
        /// Total processors.
        nprocs: usize,
        /// The last protocol step each processor was seen entering —
        /// one entry per processor, indexed by processor id. (Boxed
        /// slice rather than `Vec` to keep the error variant small.)
        last_events: Box<[ProcLastEvent]>,
        /// Faults observed machine-wide up to the abort.
        trace: FaultTrace,
    },
    /// A virtual-processor thread panicked — a runtime bug, surfaced as
    /// a value instead of poisoning the caller.
    WorkerPanic {
        /// The panicking processor.
        proc: usize,
    },
}

impl std::fmt::Display for MpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpError::Numeric(e) => write!(f, "numeric failure: {e}"),
            MpError::InvalidConfig(msg) => write!(f, "invalid mp configuration: {msg}"),
            MpError::ProcessorCrashed { proc, trace } => {
                write!(f, "processor {proc} crashed (faults: {trace})")
            }
            MpError::FetchTimeout {
                proc,
                owner,
                attempts,
                trace,
            } => write!(
                f,
                "processor {proc} gave up fetching from processor {owner} \
                 after {attempts} attempts (faults: {trace})"
            ),
            MpError::DependencyTimeout {
                proc,
                unit,
                attempts,
                trace,
            } => write!(
                f,
                "processor {proc} gave up waiting for unit {unit} \
                 after {attempts} re-solicitations (faults: {trace})"
            ),
            MpError::WatchdogTimeout {
                finished,
                nprocs,
                last_events,
                trace,
            } => {
                write!(
                    f,
                    "stall watchdog fired with {finished}/{nprocs} processors \
                     finished (faults: {trace}); last seen:"
                )?;
                for (i, e) in last_events.iter().enumerate() {
                    write!(f, "{} {e}", if i == 0 { "" } else { "," })?;
                }
                Ok(())
            }
            MpError::WorkerPanic { proc } => {
                write!(f, "virtual processor {proc} panicked")
            }
        }
    }
}

impl std::error::Error for MpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MpError::Numeric(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NumericError> for MpError {
    fn from(e: NumericError) -> Self {
        MpError::Numeric(e)
    }
}

impl MpError {
    /// The fault trace carried by fault-related variants, if any.
    pub fn trace(&self) -> Option<&FaultTrace> {
        match self {
            MpError::ProcessorCrashed { trace, .. }
            | MpError::FetchTimeout { trace, .. }
            | MpError::DependencyTimeout { trace, .. }
            | MpError::WatchdogTimeout { trace, .. } => Some(trace),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = MpError::from(NumericError::NotPositiveDefinite(3));
        assert!(e.to_string().contains("numeric"));
        assert!(std::error::Error::source(&e).is_some());
        let e = MpError::FetchTimeout {
            proc: 1,
            owner: 2,
            attempts: 8,
            trace: FaultTrace::default(),
        };
        let s = e.to_string();
        assert!(s.contains("processor 1") && s.contains("processor 2") && s.contains('8'));
        assert!(e.trace().is_some());
        assert!(MpError::WorkerPanic { proc: 0 }.trace().is_none());
    }

    #[test]
    fn watchdog_display_lists_last_seen_steps() {
        let e = MpError::WatchdogTimeout {
            finished: 1,
            nprocs: 2,
            last_events: Box::new([
                ProcLastEvent {
                    proc: 0,
                    step: "finished",
                    unit: u32::MAX,
                    at: 0.5,
                },
                ProcLastEvent {
                    proc: 1,
                    step: "await_deps",
                    unit: 7,
                    at: 0.25,
                },
            ]),
            trace: FaultTrace::default(),
        };
        let s = e.to_string();
        assert!(s.contains("1/2"), "{s}");
        assert!(s.contains("p0 finished"), "{s}");
        assert!(s.contains("p1 await_deps u7"), "{s}");
    }
}
