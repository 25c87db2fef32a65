//! A fluent builder for custom workload models.
//!
//! The paper's three workloads ship as constructors on
//! [`crate::workload::Workload`]; real devices need their own. The
//! builder keeps the invariants (every state needs a current; rates are
//! validated; each `(from, to)` transition is declared once; one
//! initial state) while staying pleasant to use. It is also the one
//! assembler behind [`crate::scenario::Scenario::from_config_str`], so
//! config text and code refuse the same workloads:
//!
//! ```
//! use kibamrm::builder::WorkloadBuilder;
//! use units::{Current, Rate};
//!
//! // A Wi-Fi radio with scan/associate/transmit states.
//! let workload = WorkloadBuilder::new()
//!     .state("scan", Current::from_milliamps(40.0))
//!     .state("assoc", Current::from_milliamps(120.0))
//!     .state("tx", Current::from_milliamps(300.0))
//!     .transition("scan", "assoc", Rate::per_hour(30.0))
//!     .transition("assoc", "tx", Rate::per_hour(60.0))
//!     .transition("tx", "scan", Rate::per_hour(120.0))
//!     .initial("scan")
//!     .build()
//!     .unwrap();
//! assert_eq!(workload.n_states(), 3);
//! ```

use crate::workload::Workload;
use crate::KibamRmError;
use markov::ctmc::CtmcBuilder;
use units::{Current, Rate};

/// Fluent construction of a [`Workload`].
#[derive(Debug, Clone, Default)]
pub struct WorkloadBuilder {
    states: Vec<(String, Current)>,
    transitions: Vec<(String, String, Rate)>,
    /// Initial weights by state name; a later entry for a state wins.
    /// Empty means a point mass on the first state.
    initial: Vec<(String, f64)>,
}

impl WorkloadBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        WorkloadBuilder::default()
    }

    /// Declares a state with its current draw. The first declared state
    /// is the default initial state.
    #[must_use]
    pub fn state(mut self, name: &str, current: Current) -> Self {
        self.states.push((name.to_owned(), current));
        self
    }

    /// Declares a transition by state names.
    #[must_use]
    pub fn transition(mut self, from: &str, to: &str, rate: Rate) -> Self {
        self.transitions
            .push((from.to_owned(), to.to_owned(), rate));
        self
    }

    /// Selects the initial state by name (defaults to the first state).
    #[must_use]
    pub fn initial(mut self, name: &str) -> Self {
        self.initial = vec![(name.to_owned(), 1.0)];
        self
    }

    /// Gives state `name` initial probability `p` (a config `initial`
    /// line); a later call for the same state wins. The weights are
    /// checked as a distribution at build time.
    #[must_use]
    pub(crate) fn initial_probability(mut self, name: &str, p: f64) -> Self {
        self.initial.push((name.to_owned(), p));
        self
    }

    /// Builds the workload through [`Workload::new`], which checks the
    /// state names.
    ///
    /// # Errors
    ///
    /// [`KibamRmError::InvalidWorkload`] when no states were declared, a
    /// transition or the initial state names an unknown state, a
    /// `(from, to)` transition is declared twice (it would otherwise be
    /// summed), a rate/current is invalid, or a state name is empty,
    /// holds whitespace or `#`, or is declared twice.
    pub fn build(self) -> Result<Workload, KibamRmError> {
        if self.states.is_empty() {
            return Err(KibamRmError::InvalidWorkload("no states declared".into()));
        }
        for (i, (from, to, _)) in self.transitions.iter().enumerate() {
            if self.transitions[i + 1..]
                .iter()
                .any(|(f, t, _)| f == from && t == to)
            {
                return Err(KibamRmError::InvalidWorkload(format!(
                    "duplicate transition '{from} {to}'"
                )));
            }
        }
        let index_of = |name: &str| -> Result<usize, KibamRmError> {
            self.states
                .iter()
                .position(|(n, _)| n == name)
                .ok_or_else(|| KibamRmError::InvalidWorkload(format!("unknown state '{name}'")))
        };
        let mut ctmc = CtmcBuilder::new(self.states.len());
        for (i, (name, _)) in self.states.iter().enumerate() {
            ctmc.label(i, name);
        }
        for (from, to, rate) in &self.transitions {
            let f = index_of(from)?;
            let t = index_of(to)?;
            ctmc.rate(f, t, rate.as_per_second())
                .map_err(|e| KibamRmError::InvalidWorkload(e.to_string()))?;
        }
        let chain = ctmc
            .build()
            .map_err(|e| KibamRmError::InvalidWorkload(e.to_string()))?;

        let mut alpha = vec![0.0; self.states.len()];
        if self.initial.is_empty() {
            alpha[0] = 1.0;
        }
        for (name, p) in &self.initial {
            alpha[index_of(name)?] = *p;
        }
        let currents: Vec<Current> = self.states.iter().map(|(_, c)| *c).collect();
        Workload::new(chain, currents, alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discretise::{DiscretisationOptions, DiscretisedModel};
    use crate::model::KibamRm;
    use units::{Charge, Time};

    fn radio() -> WorkloadBuilder {
        WorkloadBuilder::new()
            .state("scan", Current::from_milliamps(40.0))
            .state("tx", Current::from_milliamps(300.0))
            .transition("scan", "tx", Rate::per_hour(10.0))
            .transition("tx", "scan", Rate::per_hour(30.0))
    }

    #[test]
    fn builds_labelled_workload() {
        let w = radio().build().unwrap();
        assert_eq!(w.n_states(), 2);
        assert_eq!(w.ctmc().state_label(1), "tx");
        assert_eq!(w.initial(), &[1.0, 0.0]);
        assert_eq!(w.current(1).as_milliamps(), 300.0);
        let expected = 10.0 / 3600.0;
        assert!((w.ctmc().rates().get(0, 1) - expected).abs() < 1e-15);
    }

    #[test]
    fn initial_by_name() {
        let w = radio().initial("tx").build().unwrap();
        assert_eq!(w.initial(), &[0.0, 1.0]);
    }

    #[test]
    fn unknown_names_rejected() {
        assert!(matches!(
            radio()
                .transition("scan", "nope", Rate::per_hour(1.0))
                .build(),
            Err(KibamRmError::InvalidWorkload(_))
        ));
        assert!(radio().initial("nope").build().is_err());
        assert!(WorkloadBuilder::new().build().is_err());
    }

    #[test]
    fn duplicate_names_rejected() {
        let b = WorkloadBuilder::new()
            .state("a", Current::ZERO)
            .state("a", Current::ZERO);
        assert!(matches!(b.build(), Err(KibamRmError::InvalidWorkload(_))));
        // A repeated transition is refused, naming the pair, not summed.
        let err = radio()
            .transition("scan", "tx", Rate::per_hour(5.0))
            .build()
            .expect_err("repeated transition");
        assert!(matches!(err, KibamRmError::InvalidWorkload(_)), "{err}");
        assert!(err.to_string().contains("scan tx"), "{err}");
    }

    #[test]
    fn unserialisable_state_names_are_refused() {
        // Names a config line cannot carry are refused at build time,
        // with the offending name in the message.
        for bad in ["", "has space", "tab\there", "line\nbreak", "pr#7"] {
            let err = WorkloadBuilder::new()
                .state(bad, Current::ZERO)
                .build()
                .expect_err("unserialisable name");
            assert!(matches!(err, KibamRmError::InvalidWorkload(_)), "{err}");
            assert!(err.to_string().contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn invalid_rates_rejected() {
        let b = radio().transition("scan", "scan", Rate::per_hour(1.0));
        assert!(b.build().is_err(), "self-loop must be rejected");
        let b = radio().transition("scan", "tx", Rate::per_hour(-1.0));
        assert!(b.build().is_err());
        let b = radio().transition("scan", "tx", Rate::per_hour(f64::NAN));
        assert!(b.build().is_err(), "NaN rate must be rejected");
        let b = radio().transition("scan", "tx", Rate::per_hour(f64::INFINITY));
        assert!(b.build().is_err(), "infinite rate must be rejected");
    }

    #[test]
    fn zero_rate_transitions_are_dropped_not_errors() {
        // A zero rate means "no such transition": the build succeeds and
        // the chain simply lacks the edge.
        let w = WorkloadBuilder::new()
            .state("a", Current::ZERO)
            .state("b", Current::ZERO)
            .transition("a", "b", Rate::per_hour(1.0))
            .transition("b", "a", Rate::per_hour(0.0))
            .build()
            .unwrap();
        assert!(w.ctmc().rates().get(0, 1) > 0.0);
        assert_eq!(w.ctmc().rates().get(1, 0), 0.0);
        assert!(w.ctmc().is_absorbing(1));
    }

    #[test]
    fn transition_from_unknown_state_rejected() {
        let b = radio().transition("nope", "tx", Rate::per_hour(1.0));
        let err = b.build().expect_err("unknown source state");
        assert!(err.to_string().contains("nope"), "{err}");
    }

    #[test]
    fn error_messages_name_the_offender() {
        let err = radio()
            .transition("scan", "ghost", Rate::per_hour(1.0))
            .build()
            .expect_err("unknown target state");
        assert!(err.to_string().contains("ghost"), "{err}");
        let err = WorkloadBuilder::new()
            .state("dup", Current::ZERO)
            .state("dup", Current::ZERO)
            .build()
            .expect_err("duplicate state");
        assert!(err.to_string().contains("dup"), "{err}");
        let err = radio().initial("absent").build().expect_err("bad initial");
        assert!(err.to_string().contains("absent"), "{err}");
    }

    #[test]
    fn negative_current_rejected_at_build() {
        let b = WorkloadBuilder::new()
            .state("a", Current::from_amps(-0.5))
            .state("b", Current::ZERO)
            .transition("a", "b", Rate::per_hour(1.0));
        assert!(matches!(b.build(), Err(KibamRmError::InvalidWorkload(_))));
    }

    #[test]
    fn built_workload_runs_through_the_pipeline() {
        let w = radio().build().unwrap();
        let model = KibamRm::new(
            w,
            Charge::from_milliamp_hours(400.0),
            0.625,
            Rate::per_second(4.5e-5),
        )
        .unwrap();
        let disc = DiscretisedModel::build(
            &model,
            &DiscretisationOptions::with_delta(Charge::from_milliamp_hours(25.0)),
        )
        .unwrap();
        let curve = disc
            .empty_probability_curve(&[Time::from_hours(10.0)])
            .unwrap();
        let p = curve.points[0].1;
        assert!((0.0..=1.0).contains(&p));
    }
}
