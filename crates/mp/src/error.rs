//! Typed failure taxonomy of the message-passing runtime.
//!
//! Every way an execution can end other than success is a variant of
//! [`MpError`]: the numeric error the sequential kernel reports (which
//! includes schedule inputs that do not belong together), a wedged
//! machine, or a panicked worker.

use spfactor_numeric::NumericError;

/// The last protocol step a processor was seen entering, snapshotted
/// when the stall watchdog fires so a wedge diagnosis can say where
/// every processor was stuck without re-running the schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProcLastEvent {
    /// The processor the observation belongs to.
    pub proc: usize,
    /// Protocol step name: `"spawn"`, `"await_deps"`, `"prefetch"`,
    /// `"await_replies"`, `"execute"` or `"finished"`. Steps stop
    /// updating once the shutdown verdict is seen, so the slot keeps the
    /// last *productive* step.
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
    /// A virtual processor hit a numeric error (non-positive pivot), or
    /// the inputs do not belong together (structure mismatch) — the
    /// error the sequential kernel and the schedule check report.
    Numeric(NumericError),
    /// The stall watchdog heard nothing from any processor for its whole
    /// budget — the machine is deadlocked, which only a protocol bug or
    /// a dependency graph that misses an edge can cause.
    WatchdogTimeout {
        /// Processors that had finished their programs when it fired.
        finished: usize,
        /// Total processors.
        nprocs: usize,
        /// The last protocol step each processor was seen entering —
        /// one entry per processor, indexed by processor id. (Boxed
        /// slice rather than `Vec` to keep the error variant small.)
        last_events: Box<[ProcLastEvent]>,
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
            MpError::WatchdogTimeout {
                finished,
                nprocs,
                last_events,
            } => {
                write!(
                    f,
                    "stall watchdog fired with {finished}/{nprocs} processors \
                     finished; last seen:"
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = MpError::from(NumericError::NotPositiveDefinite(3));
        assert!(e.to_string().contains("numeric"));
        assert!(std::error::Error::source(&e).is_some());
        let e = MpError::WorkerPanic { proc: 2 };
        assert!(e.to_string().contains("processor 2"));
        assert!(std::error::Error::source(&e).is_none());
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
        };
        let s = e.to_string();
        assert!(s.contains("1/2"), "{s}");
        assert!(s.contains("p0 finished"), "{s}");
        assert!(s.contains("p1 await_deps u7"), "{s}");
    }
}
