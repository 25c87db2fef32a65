//! Error type of the `kibamrm` crate.

use std::fmt;

/// Errors from the KiBaMRM pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum KibamRmError {
    /// A workload definition was malformed.
    InvalidWorkload(String),
    /// Battery parameters were out of range.
    InvalidBattery(String),
    /// A discretisation step `Δ` that does not evenly divide the well
    /// capacities, or other discretisation problems.
    InvalidDiscretisation(String),
    /// An error propagated from the Markov-chain layer.
    Markov(markov::MarkovError),
    /// An error propagated from the battery-model layer.
    Battery(battery::BatteryError),
    /// A cooperative [`markov::Budget`] check failed: the solve was
    /// cancelled or ran past its deadline. Carries the work completed
    /// before the interruption (uniformisation iterations for the
    /// discretisation backend, replications for simulation).
    DeadlineExceeded {
        /// Units of work (backend-specific) completed before the budget
        /// expired.
        completed: usize,
    },
}

impl fmt::Display for KibamRmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KibamRmError::InvalidWorkload(msg) => write!(f, "invalid workload: {msg}"),
            KibamRmError::InvalidBattery(msg) => write!(f, "invalid battery: {msg}"),
            KibamRmError::InvalidDiscretisation(msg) => {
                write!(f, "invalid discretisation: {msg}")
            }
            KibamRmError::Markov(e) => write!(f, "markov layer: {e}"),
            KibamRmError::Battery(e) => write!(f, "battery layer: {e}"),
            KibamRmError::DeadlineExceeded { completed } => {
                write!(
                    f,
                    "deadline exceeded after {completed} units of completed work"
                )
            }
        }
    }
}

impl std::error::Error for KibamRmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KibamRmError::Markov(e) => Some(e),
            KibamRmError::Battery(e) => Some(e),
            _ => None,
        }
    }
}

impl From<markov::MarkovError> for KibamRmError {
    fn from(e: markov::MarkovError) -> Self {
        // Deadline interruptions are a first-class outcome at this
        // layer (the service degrades on them), so they are
        // lifted out of the generic Markov wrapper at the boundary.
        match e {
            markov::MarkovError::DeadlineExceeded { completed } => {
                KibamRmError::DeadlineExceeded { completed }
            }
            other => KibamRmError::Markov(other),
        }
    }
}

impl From<battery::BatteryError> for KibamRmError {
    fn from(e: battery::BatteryError) -> Self {
        KibamRmError::Battery(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_and_source() {
        let e = KibamRmError::InvalidWorkload("w".into());
        assert!(e.to_string().contains("invalid workload"));
        assert!(e.source().is_none());

        let e: KibamRmError = markov::MarkovError::EmptyChain.into();
        assert!(e.to_string().contains("markov layer"));
        assert!(e.source().is_some());

        let e: KibamRmError = battery::BatteryError::InvalidParameter("p".into()).into();
        assert!(e.to_string().contains("battery layer"));
        assert!(e.source().is_some());

        assert!(KibamRmError::InvalidBattery("b".into())
            .to_string()
            .contains("battery"));
        assert!(KibamRmError::InvalidDiscretisation("d".into())
            .to_string()
            .contains("discretisation"));

        let e: KibamRmError = markov::MarkovError::DeadlineExceeded { completed: 3 }.into();
        assert_eq!(e, KibamRmError::DeadlineExceeded { completed: 3 });
        assert!(e.to_string().contains("deadline exceeded after 3"));
        assert!(e.source().is_none());
    }
}
