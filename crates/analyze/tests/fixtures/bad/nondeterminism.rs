//! Fixture: FMA by method and by path, wall-clock reads outside
//! the budget modules, and hash-ordered iteration feeding the bytes of
//! an ordered-output file.

use std::collections::HashMap;
use std::time::Instant;

pub fn fused(a: f64, b: f64, c: f64) -> f64 {
    a.mul_add(b, c)
}

pub fn stamp() -> f64 {
    let t0 = Instant::now();
    t0.elapsed().as_secs_f64()
}

pub struct Sweep {
    rows: HashMap<String, u64>,
}

impl Sweep {
    pub fn serialise(&self) -> String {
        let mut out = String::new();
        for (k, v) in self.rows.iter() {
            out.push_str(k);
            out.push_str(&v.to_string());
        }
        out
    }

    pub fn total(&self) -> u64 {
        // DETERMINISM-OK: summation is order-independent.
        self.rows.values().sum()
    }
}

pub fn fused_by_path(a: f64, b: f64, c: f64) -> f64 {
    simd::mul_add(a, b, c)
}
