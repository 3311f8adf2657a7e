//! Simulation-kernel selection.
//!
//! Every simulator with a per-cycle hot loop exists in two bit-identical
//! implementations:
//!
//! * [`Kernel::Cycle`] — the literal cycle stepper: every simulated cycle
//!   rescans the full processor/port population. Slow, but a direct
//!   transcription of the model; it is retained as the **reference
//!   oracle** that the equivalence suite checks the fast kernel against.
//! * [`Kernel::Event`] — the event-driven skip-ahead kernel: incremental
//!   active sets updated at phase transitions, a `(time, id)` heap of
//!   future wake-ups, and a next-event clock that jumps over dead cycles.
//!   This is the default everywhere.
//!
//! "Bit-identical" is meant literally: same RNG draw sequence, same result
//! structs, and — with an enabled trace sink — the same event bytes. The
//! contract is enforced by the `kernel_equivalence` suite in `abs-bench`.

use std::fmt;
use std::str::FromStr;

/// Which simulation kernel drives a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Kernel {
    /// The reference cycle stepper: O(population) work per simulated cycle.
    Cycle,
    /// The event-driven skip-ahead kernel: O(active) work per busy cycle,
    /// dead cycles skipped via the next-event clock.
    #[default]
    Event,
}

impl Kernel {
    /// Both kernels, reference oracle first (sweep/benchmark order).
    pub const ALL: [Kernel; 2] = [Kernel::Cycle, Kernel::Event];

    /// The CLI/label name (`cycle` or `event`).
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Cycle => "cycle",
            Kernel::Event => "event",
        }
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown kernel name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownKernel(pub String);

impl fmt::Display for UnknownKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown kernel {:?}; known: cycle event", self.0)
    }
}

impl std::error::Error for UnknownKernel {}

impl FromStr for Kernel {
    type Err = UnknownKernel;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "cycle" => Ok(Kernel::Cycle),
            "event" => Ok(Kernel::Event),
            other => Err(UnknownKernel(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_event() {
        assert_eq!(Kernel::default(), Kernel::Event);
    }

    #[test]
    fn names_round_trip() {
        for k in Kernel::ALL {
            assert_eq!(k.name().parse::<Kernel>(), Ok(k));
            assert_eq!(k.to_string(), k.name());
        }
    }

    #[test]
    fn unknown_name_rejected() {
        let err = "warp".parse::<Kernel>().unwrap_err();
        assert_eq!(err, UnknownKernel("warp".to_string()));
        assert!(err.to_string().contains("warp"));
        assert!(err.to_string().contains("cycle event"));
    }
}
