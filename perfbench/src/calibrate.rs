//! Machine-speed calibration for CPU-bound timings.
//!
//! On a small shared host the same code runs up to twice as slow for
//! minutes at a time, so raw wall-clock times of CPU-bound operations
//! drift between runs far more than any change worth detecting. Before
//! each such operation the benchmark times a fixed loop of its own (a
//! banded matrix–vector product of the kind the solver runs, in this
//! file, so no program change can speed it up) and rescales the
//! operation's time to the speed at which that loop takes
//! [`NOMINAL_S`]. A change to the program moves the rescaled time as it
//! moves the raw one; a slower host moves both loop and operation.

use std::time::Instant;

/// The loop's duration that defines the reference speed.
pub const NOMINAL_S: f64 = 0.02;

const ROWS: usize = 4096;
const PRODUCTS: usize = 2000;
const DIAGONALS: [f64; 5] = [0.1, 0.2, 0.4, 0.2, 0.1];

pub struct Calibration {
    v: Vec<f64>,
    next: Vec<f64>,
}

impl Calibration {
    pub fn new() -> Calibration {
        Calibration {
            v: (0..ROWS).map(|i| (i % 7) as f64).collect(),
            next: vec![0.0; ROWS],
        }
    }

    /// Runs the loop once; returns the factor that rescales a time
    /// measured now to the reference speed.
    pub fn factor(&mut self) -> f64 {
        let started = Instant::now();
        for _ in 0..PRODUCTS {
            for i in 2..ROWS - 2 {
                self.next[i] = DIAGONALS
                    .iter()
                    .zip(&self.v[i - 2..=i + 2])
                    .map(|(d, x)| d * x)
                    .sum();
            }
            std::mem::swap(&mut self.v, &mut self.next);
        }
        std::hint::black_box(&self.v);
        NOMINAL_S / started.elapsed().as_secs_f64()
    }
}
