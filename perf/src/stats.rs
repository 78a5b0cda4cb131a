//! Order statistics and the micro-benchmark timer.

use std::time::Instant;

/// Linear-interpolated quantile of an unsorted sample (`q` in `[0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `(a − b) / b`: how much slower `a` is than the base `b`.
pub fn overhead_frac(a: f64, base: f64) -> f64 {
    (a - base) / base
}

/// The value an end-to-end timing series is reported as: its lower decile.
///
/// The benchmark box is a small shared VM. Interference from the host
/// (stolen CPU time) arrives in bursts that last from a fraction of a run to
/// most of one, and only ever adds time. Over ten seeds the median of a
/// run's samples then spreads by 6–22% of itself, the lower decile by 2–5%:
/// it estimates what a cycle takes when nothing interferes, and needs only
/// a tenth of the run to be quiet. The median and the upper decile are
/// recorded beside it in the run document.
pub fn undisturbed(values: &[f64]) -> f64 {
    quantile(values, 0.1)
}

/// Spread and sample count of one timed series.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub p10: f64,
    pub median: f64,
    pub p90: f64,
    pub samples: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        Summary {
            p10: quantile(values, 0.1),
            median: median(values),
            p90: quantile(values, 0.9),
            samples: values.len(),
        }
    }
}

/// How long one layer micro-benchmark may sample for, and the sample-count
/// window it must stay inside.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub min_samples: usize,
    pub max_samples: usize,
}

impl Budget {
    pub const LAYER: Budget = Budget {
        seconds: 0.08,
        min_samples: 5,
        max_samples: 2000,
    };
    /// For calls that take a noticeable fraction of a second each.
    pub const HEAVY: Budget = Budget {
        seconds: 0.3,
        min_samples: 3,
        max_samples: 50,
    };
    pub const SMOKE: Budget = Budget {
        seconds: 0.0,
        min_samples: 2,
        max_samples: 2,
    };
}

/// Median seconds of `f`, warmed by one discarded call.
pub fn time_median(budget: Budget, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < budget.min_samples
        || (samples.len() < budget.max_samples && started.elapsed().as_secs_f64() < budget.seconds)
    {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[7.0]), 7.0);
    }
}
