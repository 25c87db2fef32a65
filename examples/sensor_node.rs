//! Duty-cycled sensor node: how sensing frequency and timing regularity
//! shape the lifetime distribution.
//!
//! A sensor wakes, samples/transmits at 0.96 A, then idles — an on/off
//! workload (paper Fig. 3). Two knobs matter:
//!
//! * the duty-cycle *frequency* `f` (how often it wakes), and
//! * the *regularity* of the schedule, modelled by the Erlang stage count
//!   `K` (K = 1 is memoryless jitter; K → ∞ a crystal-driven timer).
//!
//! For the analytic KiBaM the mean lifetime barely moves with `f` at
//! these timescales, but the *distribution* tightens dramatically with
//! `K` — exactly the effect the paper discusses around Fig. 7. Each
//! configuration is one scenario's streaming simulation study: its mean
//! observed lifetime and its quantiles at the resolution of the 10 s
//! query grid (the 10 %–90 % spreads are a few hundred seconds).
//!
//! Run with: `cargo run --release --example sensor_node`

use kibamrm::scenario::Scenario;
use kibamrm::solver::{Budget, SimulationSolver};
use kibamrm::workload::Workload;
use units::{Charge, Current, Frequency, Rate, Time};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let current = Current::from_amps(0.96);
    let solver = SimulationSolver::new();

    let scenario = |workload: Workload, seed: u64| {
        Scenario::builder()
            .workload(workload)
            .capacity(Charge::from_amp_seconds(7200.0))
            .kibam(0.625, Rate::per_second(4.5e-5))
            .time_grid(Time::from_seconds(30_000.0), 3_000)
            .simulation(400, seed)
            .build()
    };

    println!("-- regularity sweep (f = 1 Hz, two-well battery) --");
    println!("K    mean (s)   10%..90% spread (s)");
    for k_stages in [1u32, 2, 4, 8] {
        let w = Workload::on_off_erlang(Frequency::from_hertz(1.0), k_stages, current)?;
        let study = solver.streaming_study(&scenario(w, 42)?, &Budget::unlimited())?;
        let lo = study.lifetime_quantile(0.1).unwrap_or(f64::NAN);
        let hi = study.lifetime_quantile(0.9).unwrap_or(f64::NAN);
        println!(
            "{k_stages:<4} {:9.0}   {:6.0}",
            study.mean_observed_lifetime().unwrap_or(f64::NAN),
            hi - lo
        );
    }

    println!("\n-- frequency sweep (K = 1) --");
    println!("f (Hz)   mean (s)   note");
    for f in [0.01, 0.1, 1.0, 10.0] {
        let w = Workload::on_off_erlang(Frequency::from_hertz(f), 1, current)?;
        let study = solver.streaming_study(&scenario(w, 43)?, &Budget::unlimited())?;
        let note = if f < 0.05 {
            "slow cycles: deeper discharge, more recovery swing"
        } else {
            "fast cycles: battery sees the average current"
        };
        println!(
            "{f:<8} {:9.0}   {note}",
            study.mean_observed_lifetime().unwrap_or(f64::NAN)
        );
    }

    println!(
        "\nAll configurations drain ~0.48 A on average; an ideal battery \
         would last {:.0} s regardless.",
        7200.0 / 0.48
    );
    Ok(())
}
