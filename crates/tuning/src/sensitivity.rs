//! Sensitivity analysis for the auto-tuner's economic threshold `ε`.
//!
//! The earnings-rate rule (Eq. 14) stops buying I/O processors once an
//! extra processor saves less than `ε` seconds. `ε` is the only free knob
//! of Algorithm 2, so an operator wants to see how the chosen `C₁` (and the
//! achieved `T₁`) move as `ε` varies — typically a staircase: large `ε`
//! settles for few I/O processors, small `ε` buys toward file-system
//! saturation.

use crate::model::CostParams;
use crate::tune::{economic_choice, min_t1_curve, CurvePoint};

/// The economic choice at one `ε`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensitivityPoint {
    /// The threshold used.
    pub epsilon: f64,
    /// The chosen point of the min-`T₁` curve.
    pub choice: CurvePoint,
}

/// Sweep `ε` over the given values at fixed `C₂`, returning the economic
/// choice at each. The curve is computed once; candidates with no feasible
/// parameters are skipped.
pub fn epsilon_sensitivity(
    cost: &CostParams,
    c2: usize,
    c1_candidates: impl IntoIterator<Item = usize>,
    epsilons: impl IntoIterator<Item = f64>,
) -> Vec<SensitivityPoint> {
    let curve = min_t1_curve(cost, c2, c1_candidates);
    epsilons
        .into_iter()
        .filter_map(|epsilon| {
            economic_choice(&curve, epsilon).map(|choice| SensitivityPoint { epsilon, choice })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{MachineParams, Workload};

    fn cost() -> CostParams {
        CostParams {
            workload: Workload {
                nx: 240,
                ny: 120,
                members: 12,
                h: 80,
                xi: 2,
                eta: 2,
            },
            machine: MachineParams::tianhe2_like(),
        }
    }

    #[test]
    fn larger_epsilon_never_buys_more_processors() {
        let cost = cost();
        let pts = epsilon_sensitivity(
            &cost,
            120,
            [6usize, 12, 24, 48, 96],
            [1e-6, 1e-4, 1e-2, 1.0],
        );
        assert!(!pts.is_empty());
        for w in pts.windows(2) {
            assert!(w[0].epsilon < w[1].epsilon);
            assert!(
                w[1].choice.c1 <= w[0].choice.c1,
                "eps {} chose {} > eps {} chose {}",
                w[1].epsilon,
                w[1].choice.c1,
                w[0].epsilon,
                w[0].choice.c1
            );
        }
    }

    #[test]
    fn tiny_epsilon_takes_the_last_point() {
        let cost = cost();
        let pts = epsilon_sensitivity(&cost, 120, [6usize, 12, 24, 48], [1e-12]);
        assert_eq!(pts.len(), 1);
        // With a vanishing threshold every improving step is worth it.
        let curve = min_t1_curve(&cost, 120, [6usize, 12, 24, 48]);
        let best_t1 = curve.iter().map(|p| p.t1).fold(f64::INFINITY, f64::min);
        assert!((pts[0].choice.t1 - best_t1).abs() < 1e-12);
    }

    #[test]
    fn empty_candidates_yield_no_points() {
        let cost = cost();
        let pts = epsilon_sensitivity(&cost, 120, std::iter::empty(), [0.1]);
        assert!(pts.is_empty());
    }
}
