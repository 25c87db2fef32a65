//! Stochastic workload models: CTMCs whose states draw current.
//!
//! A [`Workload`] is the "performance model" half of the KiBaMRM (paper
//! §4.3): a CTMC over the operating modes of the device, a current `I_i`
//! per mode, and an initial distribution. The paper's three workloads are
//! provided as ready-made constructors with the exact published
//! parameters:
//!
//! * [`Workload::on_off_erlang`] — Fig. 3, the stochastic square wave;
//! * [`Workload::simple_model`] — Fig. 4, idle/send/sleep;
//! * [`Workload::burst_model`] — Fig. 5, buffered sending.

use crate::KibamRmError;
use markov::ctmc::{Ctmc, CtmcBuilder};
use units::{Current, Frequency, Rate};

/// Refuses custom state labels the config line format cannot carry:
/// an empty one, one holding whitespace or `#` (the parser splits on
/// the first and strips comments from the second), or a repeated one
/// (every reference would bind to its first occurrence).
fn check_labels(ctmc: &Ctmc) -> Result<(), KibamRmError> {
    if !ctmc.has_custom_labels() {
        return Ok(());
    }
    for i in 0..ctmc.n_states() {
        let label = ctmc.state_label(i);
        if label.is_empty() || label.contains(char::is_whitespace) || label.contains('#') {
            return Err(KibamRmError::InvalidWorkload(format!(
                "state name {label:?} cannot be written to a config line \
                 (empty, whitespace or '#')"
            )));
        }
        if (0..i).any(|j| ctmc.state_label(j) == label) {
            return Err(KibamRmError::InvalidWorkload(format!(
                "duplicate state '{label}'"
            )));
        }
    }
    Ok(())
}

/// A CTMC workload with per-state current draw.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    ctmc: Ctmc,
    currents: Vec<Current>,
    initial: Vec<f64>,
}

impl Workload {
    /// Builds a workload from parts. Every workload is built here, so
    /// every workload's state labels can ride the config line format
    /// ([`crate::scenario::Scenario::to_config_string`]): a scenario
    /// over it always has a canonical key.
    ///
    /// # Errors
    ///
    /// [`KibamRmError::InvalidWorkload`] when lengths mismatch, a current
    /// is negative/non-finite, `initial` is not a distribution, or a
    /// custom state label is empty, holds whitespace or `#`, or repeats
    /// another (the message names the label). Default `s{i}` labels are
    /// not checked: they are valid by construction.
    pub fn new(
        ctmc: Ctmc,
        currents: Vec<Current>,
        initial: Vec<f64>,
    ) -> Result<Self, KibamRmError> {
        check_labels(&ctmc)?;
        if currents.len() != ctmc.n_states() {
            return Err(KibamRmError::InvalidWorkload(format!(
                "{} currents for {} states",
                currents.len(),
                ctmc.n_states()
            )));
        }
        if currents.iter().any(|c| !c.is_finite() || c.value() < 0.0) {
            return Err(KibamRmError::InvalidWorkload(
                "currents must be finite and non-negative".into(),
            ));
        }
        ctmc.check_distribution(&initial)
            .map_err(|e| KibamRmError::InvalidWorkload(e.to_string()))?;
        Ok(Workload {
            ctmc,
            currents,
            initial,
        })
    }

    /// The underlying CTMC.
    pub fn ctmc(&self) -> &Ctmc {
        &self.ctmc
    }

    /// Number of operating modes.
    pub fn n_states(&self) -> usize {
        self.ctmc.n_states()
    }

    /// Current drawn in state `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn current(&self, i: usize) -> Current {
        self.currents[i]
    }

    /// All per-state currents.
    pub fn currents(&self) -> &[Current] {
        &self.currents
    }

    /// The initial distribution over modes.
    pub fn initial(&self) -> &[f64] {
        &self.initial
    }

    /// The per-state currents in amperes (the reward-rate magnitudes used
    /// by the analysis layers).
    pub fn currents_amps(&self) -> Vec<f64> {
        self.currents.iter().map(|c| c.as_amps()).collect()
    }

    /// The paper's Fig. 3 on/off workload: on- and off-periods are
    /// Erlang-`K` distributed with rate `λ = 2fK` per phase, giving mean
    /// period `1/f` and convergence to a deterministic square wave as
    /// `K → ∞`. State layout: stages `0..K` are "on" (drawing
    /// `on_current`), stages `K..2K` are "off" (no draw); the initial
    /// state is the first on-stage.
    ///
    /// # Errors
    ///
    /// [`KibamRmError::InvalidWorkload`] for `K = 0`, non-positive
    /// frequency, or invalid current.
    pub fn on_off_erlang(
        frequency: Frequency,
        k_stages: u32,
        on_current: Current,
    ) -> Result<Self, KibamRmError> {
        if k_stages == 0 {
            return Err(KibamRmError::InvalidWorkload(
                "Erlang model needs K ≥ 1".into(),
            ));
        }
        if !(frequency.value() > 0.0) || !frequency.is_finite() {
            return Err(KibamRmError::InvalidWorkload(format!(
                "frequency must be positive, got {frequency}"
            )));
        }
        let k = k_stages as usize;
        let n = 2 * k;
        let lambda = 2.0 * frequency.as_hertz() * k_stages as f64;
        let mut builder = CtmcBuilder::new(n);
        for i in 0..n {
            builder
                .rate(i, (i + 1) % n, lambda)
                .map_err(|e| KibamRmError::InvalidWorkload(e.to_string()))?;
            let phase = if i < k { "on" } else { "off" };
            let stage = i % k + 1;
            builder.label(i, &format!("{phase}{stage}"));
        }
        let ctmc = builder
            .build()
            .map_err(|e| KibamRmError::InvalidWorkload(e.to_string()))?;
        let mut currents = vec![on_current; k];
        currents.extend(vec![Current::ZERO; k]);
        let mut initial = vec![0.0; n];
        initial[0] = 1.0;
        Workload::new(ctmc, currents, initial)
    }

    /// The paper's Fig. 4 simple cell-phone workload:
    ///
    /// * `idle → send` at `λ = 2/h` (data arrives),
    /// * `send → idle` at `µ = 6/h` (10-minute mean transmission),
    /// * `idle → sleep` at `τ = 1/h` (power-save timeout),
    /// * `sleep → send` at `λ = 2/h` (arriving data wakes the device),
    ///
    /// with currents 8 mA (idle), 200 mA (send), 0 mA (sleep) and the
    /// device initially idle. Steady state is (½, ¼, ¼).
    ///
    /// # Errors
    ///
    /// Never fails in practice; the signature matches the other
    /// constructors.
    pub fn simple_model() -> Result<Self, KibamRmError> {
        Workload::simple_model_with(
            Rate::per_hour(2.0),
            Rate::per_hour(6.0),
            Rate::per_hour(1.0),
            Current::from_milliamps(8.0),
            Current::from_milliamps(200.0),
        )
    }

    /// [`Workload::simple_model`] with configurable rates and currents
    /// (`lambda` = data arrival, `mu` = send completion, `tau` =
    /// sleep timeout).
    ///
    /// # Errors
    ///
    /// [`KibamRmError::InvalidWorkload`] for non-positive rates or
    /// negative currents.
    pub fn simple_model_with(
        lambda: Rate,
        mu: Rate,
        tau: Rate,
        idle_current: Current,
        send_current: Current,
    ) -> Result<Self, KibamRmError> {
        for (name, r) in [("lambda", lambda), ("mu", mu), ("tau", tau)] {
            if !(r.value() > 0.0) || !r.is_finite() {
                return Err(KibamRmError::InvalidWorkload(format!(
                    "rate {name} must be positive, got {r}"
                )));
            }
        }
        let mut b = CtmcBuilder::new(3);
        b.label(0, "idle").label(1, "send").label(2, "sleep");
        let mut add = |from: usize, to: usize, rate: Rate| {
            b.rate(from, to, rate.as_per_second())
                .map(|_| ())
                .map_err(|e| KibamRmError::InvalidWorkload(e.to_string()))
        };
        add(0, 1, lambda)?;
        add(1, 0, mu)?;
        add(0, 2, tau)?;
        add(2, 1, lambda)?;
        let ctmc = b
            .build()
            .map_err(|e| KibamRmError::InvalidWorkload(e.to_string()))?;
        Workload::new(
            ctmc,
            vec![idle_current, send_current, Current::ZERO],
            vec![1.0, 0.0, 0.0],
        )
    }

    /// The paper's Fig. 5 burst workload. A data *flow* toggles active /
    /// inactive (`switch_on = 1/h`, `switch_off = 6/h`); while active,
    /// data arrives so fast (`λ_burst = 182/h`) that the device is
    /// essentially always sending; while inactive the device drains its
    /// queue, idles and eventually sleeps (`τ = 1/h`). Send completion is
    /// `µ = 6/h` as in the simple model.
    ///
    /// States: `sleep`, `on-idle`, `off-idle`, `on-send`, `off-send`
    /// with currents 0 / 8 / 8 / 200 / 200 mA; initially `off-idle`.
    ///
    /// `λ_burst = 182/h` makes the steady-state sending probability
    /// exactly ¼ — the same as the simple model — so the two models are
    /// directly comparable (paper §4.3).
    ///
    /// # Errors
    ///
    /// Never fails in practice; the signature matches the other
    /// constructors.
    pub fn burst_model() -> Result<Self, KibamRmError> {
        Workload::burst_model_with(Rate::per_hour(182.0))
    }

    /// [`Workload::burst_model`] with a configurable burst arrival rate
    /// (used by the calibration experiment that re-derives the paper's
    /// `λ_burst = 182/h`).
    ///
    /// # Errors
    ///
    /// [`KibamRmError::InvalidWorkload`] for a non-positive rate.
    pub fn burst_model_with(lambda_burst: Rate) -> Result<Self, KibamRmError> {
        if !(lambda_burst.value() > 0.0) || !lambda_burst.is_finite() {
            return Err(KibamRmError::InvalidWorkload(format!(
                "burst rate must be positive, got {lambda_burst}"
            )));
        }
        let switch_on = Rate::per_hour(1.0);
        let switch_off = Rate::per_hour(6.0);
        let mu = Rate::per_hour(6.0);
        let tau = Rate::per_hour(1.0);

        const SLEEP: usize = 0;
        const ON_IDLE: usize = 1;
        const OFF_IDLE: usize = 2;
        const ON_SEND: usize = 3;
        const OFF_SEND: usize = 4;

        let mut b = CtmcBuilder::new(5);
        b.label(SLEEP, "sleep")
            .label(ON_IDLE, "on-idle")
            .label(OFF_IDLE, "off-idle")
            .label(ON_SEND, "on-send")
            .label(OFF_SEND, "off-send");
        let mut add = |from: usize, to: usize, rate: Rate| {
            b.rate(from, to, rate.as_per_second())
                .map(|_| ())
                .map_err(|e| KibamRmError::InvalidWorkload(e.to_string()))
        };
        add(SLEEP, ON_IDLE, switch_on)?;
        add(ON_IDLE, OFF_IDLE, switch_off)?;
        add(OFF_IDLE, ON_IDLE, switch_on)?;
        add(ON_IDLE, ON_SEND, lambda_burst)?;
        add(ON_SEND, ON_IDLE, mu)?;
        add(ON_SEND, OFF_SEND, switch_off)?;
        add(OFF_SEND, ON_SEND, switch_on)?;
        add(OFF_SEND, OFF_IDLE, mu)?;
        add(OFF_IDLE, SLEEP, tau)?;
        let ctmc = b
            .build()
            .map_err(|e| KibamRmError::InvalidWorkload(e.to_string()))?;

        let idle = Current::from_milliamps(8.0);
        let send = Current::from_milliamps(200.0);
        let mut initial = vec![0.0; 5];
        initial[OFF_IDLE] = 1.0;
        Workload::new(ctmc, vec![Current::ZERO, idle, idle, send, send], initial)
    }

    /// The workload with every transition rate **and** every current
    /// scaled by `gamma` — one axis of a time-rescaled scenario family:
    /// together with scaling the battery's flow constant `k`
    /// ([`crate::scenario::Scenario::with_rate_scale`]), the coupled
    /// model becomes the base process run at `gamma×` speed, so its
    /// derived generator is exactly `γ·Q`. The CTMC's transition
    /// *pattern* (and labels) are preserved through the pattern-reuse
    /// constructor [`markov::ctmc::Ctmc::with_rate_values`], which keeps
    /// the whole family in one sweep-plan group.
    ///
    /// # Errors
    ///
    /// [`KibamRmError::InvalidWorkload`] when `gamma` is not positive and
    /// finite.
    pub fn with_rate_scale(&self, gamma: f64) -> Result<Workload, KibamRmError> {
        if !(gamma > 0.0) || !gamma.is_finite() {
            return Err(KibamRmError::InvalidWorkload(format!(
                "rate scale must be positive and finite, got {gamma}"
            )));
        }
        let values: Vec<f64> = self
            .ctmc
            .rates()
            .values()
            .iter()
            .map(|&r| r * gamma)
            .collect();
        let ctmc = self
            .ctmc
            .with_rate_values(values)
            .map_err(|e| KibamRmError::InvalidWorkload(e.to_string()))?;
        let currents = self
            .currents
            .iter()
            .map(|c| Current::from_amps(c.as_amps() * gamma))
            .collect();
        Workload::new(ctmc, currents, self.initial.clone())
    }

    /// Indices of the sending states (current = the maximal current), for
    /// steady-state comparisons between models.
    pub fn send_states(&self) -> Vec<usize> {
        let max = self
            .currents
            .iter()
            .map(|c| c.value())
            .fold(0.0f64, f64::max);
        self.currents
            .iter()
            .enumerate()
            .filter(|(_, c)| c.value() == max && max > 0.0)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use markov::steady_state::stationary_gth;

    #[test]
    fn construction_validation() {
        let w = Workload::simple_model().unwrap();
        let c = w.ctmc().clone();
        assert!(Workload::new(c.clone(), vec![Current::ZERO], vec![1.0]).is_err());
        assert!(Workload::new(
            c.clone(),
            vec![Current::from_amps(-1.0); 3],
            vec![1.0, 0.0, 0.0]
        )
        .is_err());
        assert!(Workload::new(c, vec![Current::ZERO; 3], vec![0.5, 0.0, 0.0]).is_err());
    }

    #[test]
    fn unserialisable_ctmc_labels_are_refused() {
        // Labels set on the chain itself pass through the same check as
        // builder names: empty, whitespace, '#' and repeated labels are
        // refused, each named in the message.
        let two_state = |labels: &[(usize, &str)]| {
            let mut builder = CtmcBuilder::new(2);
            builder.rate(0, 1, 1.0).unwrap();
            for &(i, label) in labels {
                builder.label(i, label);
            }
            Workload::new(
                builder.build().unwrap(),
                vec![Current::ZERO; 2],
                vec![1.0, 0.0],
            )
        };
        for (labels, named) in [
            (&[(0, ""), (1, "off")][..], "\"\""),
            (&[(0, "on"), (1, "has space")], "\"has space\""),
            (&[(0, "on"), (1, "pr#7")], "\"pr#7\""),
            (&[(0, "on"), (1, "on")], "'on'"),
            // State 1 keeps its default label `s1`.
            (&[(0, "s1")], "'s1'"),
        ] {
            let err = two_state(labels).expect_err("unserialisable label");
            assert!(matches!(err, KibamRmError::InvalidWorkload(_)), "{err}");
            assert!(err.to_string().contains(named), "{err}");
        }
        assert!(two_state(&[(0, "on"), (1, "off")]).is_ok());
        // Default labels need no check.
        let unlabelled = two_state(&[]).unwrap();
        assert!(!unlabelled.ctmc().has_custom_labels());
    }

    #[test]
    fn on_off_erlang_k1_structure() {
        // K = 1, f = 1 Hz: two states, both rates λ = 2/s (paper §4.3).
        let w = Workload::on_off_erlang(Frequency::from_hertz(1.0), 1, Current::from_amps(0.96))
            .unwrap();
        assert_eq!(w.n_states(), 2);
        assert_eq!(w.ctmc().rates().get(0, 1), 2.0);
        assert_eq!(w.ctmc().rates().get(1, 0), 2.0);
        assert_eq!(w.current(0).as_amps(), 0.96);
        assert_eq!(w.current(1).as_amps(), 0.0);
        assert_eq!(w.initial(), &[1.0, 0.0]);
        assert_eq!(w.ctmc().state_label(0), "on1");
        assert_eq!(w.ctmc().state_label(1), "off1");
    }

    #[test]
    fn on_off_erlang_k4_mean_period() {
        // K = 4, f = 0.5 Hz: 8 stages at rate 2·0.5·4 = 4/s; expected
        // on-time = 4/4 = 1 s = 1/(2f). Steady state is uniform (cycle).
        let w = Workload::on_off_erlang(Frequency::from_hertz(0.5), 4, Current::from_amps(1.0))
            .unwrap();
        assert_eq!(w.n_states(), 8);
        let pi = stationary_gth(w.ctmc()).unwrap();
        for p in &pi {
            assert!((p - 0.125).abs() < 1e-12);
        }
        // Mean on-fraction = ½.
        let on_prob: f64 = (0..4).map(|i| pi[i]).sum();
        assert!((on_prob - 0.5).abs() < 1e-12);
    }

    #[test]
    fn on_off_validation() {
        assert!(Workload::on_off_erlang(Frequency::from_hertz(1.0), 0, Current::ZERO).is_err());
        assert!(Workload::on_off_erlang(Frequency::from_hertz(0.0), 1, Current::ZERO).is_err());
    }

    #[test]
    fn simple_model_matches_paper() {
        let w = Workload::simple_model().unwrap();
        assert_eq!(w.n_states(), 3);
        // Rates in per-second units.
        let per_h = 1.0 / 3600.0;
        assert!((w.ctmc().rates().get(0, 1) - 2.0 * per_h).abs() < 1e-15);
        assert!((w.ctmc().rates().get(1, 0) - 6.0 * per_h).abs() < 1e-15);
        assert!((w.ctmc().rates().get(0, 2) - per_h).abs() < 1e-15);
        assert!((w.ctmc().rates().get(2, 1) - 2.0 * per_h).abs() < 1e-15);
        // Currents: 8 / 200 / 0 mA.
        assert_eq!(w.current(0).as_milliamps(), 8.0);
        assert_eq!(w.current(1).as_milliamps(), 200.0);
        assert_eq!(w.current(2).as_milliamps(), 0.0);
        // Steady state (½, ¼, ¼) — paper §4.3.
        let pi = stationary_gth(w.ctmc()).unwrap();
        assert!((pi[0] - 0.5).abs() < 1e-12);
        assert!((pi[1] - 0.25).abs() < 1e-12);
        assert!((pi[2] - 0.25).abs() < 1e-12);
        assert_eq!(w.send_states(), vec![1]);
    }

    #[test]
    fn burst_model_calibration() {
        // λ_burst = 182/h gives P[send] = ¼ exactly (91/364) and a larger
        // sleep probability than the simple model's ¼.
        let w = Workload::burst_model().unwrap();
        assert_eq!(w.n_states(), 5);
        let pi = stationary_gth(w.ctmc()).unwrap();
        let send: f64 = w.send_states().iter().map(|&i| pi[i]).sum();
        assert!((send - 0.25).abs() < 1e-12, "P[send] = {send}");
        let sleep = pi[w.ctmc().find_state("sleep").unwrap()];
        assert!(sleep > 0.25, "P[sleep] = {sleep}");
    }

    #[test]
    fn burst_model_other_rates_change_send_probability() {
        let w = Workload::burst_model_with(Rate::per_hour(20.0)).unwrap();
        let pi = stationary_gth(w.ctmc()).unwrap();
        let send: f64 = w.send_states().iter().map(|&i| pi[i]).sum();
        assert!(send < 0.25, "P[send] = {send}");
        assert!(Workload::burst_model_with(Rate::per_hour(0.0)).is_err());
    }

    #[test]
    fn simple_model_with_validation() {
        assert!(Workload::simple_model_with(
            Rate::per_hour(0.0),
            Rate::per_hour(6.0),
            Rate::per_hour(1.0),
            Current::ZERO,
            Current::ZERO,
        )
        .is_err());
    }

    #[test]
    fn currents_amps_conversion() {
        let w = Workload::simple_model().unwrap();
        assert_eq!(w.currents_amps(), vec![0.008, 0.2, 0.0]);
        assert_eq!(w.currents().len(), 3);
    }
}
