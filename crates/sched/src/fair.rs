//! Weighted max-min fair allocation of a divisible resource.
//!
//! The classic water-filling construction: every claimant is entitled to a
//! share of the capacity proportional to its weight; a claimant that wants
//! *less* than its entitlement is fully satisfied and its surplus is
//! redistributed over the rest, again by weight, until no claimant's
//! entitlement exceeds its demand. The result is the unique allocation
//! that is Pareto-efficient, demand-capped, and gives every claimant at
//! least `min(demand, weighted equal share)` — the *min-share floor* the
//! scheduler's SLA admission reasons against and the property suite pins.
//!
//! Everything here is straight-line `f64` arithmetic over slices in index
//! order: allocations are bit-identical across reruns, which is half of
//! the scheduler's determinism story (the other half is the seeded,
//! totally ordered dispatch loop).

/// One claimant of the resource.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Demand {
    /// Fair-share weight (> 0).
    pub weight: f64,
    /// The most of the resource the claimant can use (≥ 0).
    pub demand: f64,
}

/// Weighted max-min fair allocation of `capacity` over `demands`.
///
/// Returns one allocation per claimant, in input order, with
/// `alloc[i] ≤ demands[i].demand`, `Σ alloc ≤ capacity`, and
/// `alloc[i] ≥ min(demand_i, capacity · w_i / Σw)` — the min-share floor.
pub(crate) fn weighted_max_min(capacity: f64, demands: &[Demand]) -> Vec<f64> {
    assert!(capacity >= 0.0, "capacity must be non-negative");
    for d in demands {
        assert!(
            d.weight > 0.0 && d.weight.is_finite(),
            "weights must be positive and finite"
        );
        assert!(
            d.demand >= 0.0 && d.demand.is_finite(),
            "demands must be non-negative and finite"
        );
    }
    let mut alloc = vec![0.0f64; demands.len()];
    let mut satisfied = vec![false; demands.len()];
    let mut remaining = capacity;
    loop {
        let active_weight: f64 = demands
            .iter()
            .zip(&satisfied)
            .filter(|(_, s)| !**s)
            .map(|(d, _)| d.weight)
            .sum();
        if active_weight <= 0.0 || remaining <= 0.0 {
            break;
        }
        // Entitlement round: claimants whose demand fits inside their
        // proportional share of what remains are satisfied exactly and
        // removed; their unused entitlement stays in `remaining` for the
        // next round.
        let mut any_capped = false;
        for (i, d) in demands.iter().enumerate() {
            if satisfied[i] {
                continue;
            }
            let entitlement = remaining * d.weight / active_weight;
            if d.demand <= entitlement {
                alloc[i] = d.demand;
                satisfied[i] = true;
                any_capped = true;
            }
        }
        if any_capped {
            remaining = capacity
                - alloc
                    .iter()
                    .zip(&satisfied)
                    .filter(|(_, s)| **s)
                    .map(|(a, _)| *a)
                    .sum::<f64>();
            continue;
        }
        // No claimant is demand-capped: split what remains by weight.
        for (i, d) in demands.iter().enumerate() {
            if !satisfied[i] {
                alloc[i] = remaining * d.weight / active_weight;
                satisfied[i] = true;
            }
        }
        break;
    }
    alloc
}

/// The weighted min-share floor of claimant `i`: what weighted max-min
/// guarantees it regardless of the others' demands,
/// `min(demand_i, capacity · w_i / Σw)`.
pub fn min_share_floor(capacity: f64, demands: &[Demand], i: usize) -> f64 {
    let total: f64 = demands.iter().map(|d| d.weight).sum();
    (capacity * demands[i].weight / total).min(demands[i].demand)
}

/// Integer fair share of `capacity` indivisible units (compute ranks):
/// weighted max-min on the continuous relaxation, floored, with leftover
/// units granted by largest fractional remainder (ties broken by lower
/// index — deterministic).
pub(crate) fn rank_shares(capacity: usize, demands: &[Demand]) -> Vec<usize> {
    let real = weighted_max_min(capacity as f64, demands);
    let mut grant: Vec<usize> = real.iter().map(|a| a.floor() as usize).collect();
    let mut leftover = capacity.saturating_sub(grant.iter().sum::<usize>());
    // Largest-remainder rounding, capped by integer demand.
    let mut order: Vec<usize> = (0..demands.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = real[a] - real[a].floor();
        let fb = real[b] - real[b].floor();
        fb.total_cmp(&fa).then(a.cmp(&b))
    });
    for i in order {
        if leftover == 0 {
            break;
        }
        let cap = demands[i].demand.floor() as usize;
        if grant[i] < cap {
            grant[i] += 1;
            leftover -= 1;
        }
    }
    grant
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(weight: f64, demand: f64) -> Demand {
        Demand { weight, demand }
    }

    #[test]
    fn equal_weights_split_evenly() {
        let a = weighted_max_min(1.0, &[d(1.0, 1.0), d(1.0, 1.0)]);
        assert_eq!(a, vec![0.5, 0.5]);
    }

    #[test]
    fn weights_bias_the_split() {
        let a = weighted_max_min(1.0, &[d(3.0, 1.0), d(1.0, 1.0)]);
        assert!((a[0] - 0.75).abs() < 1e-12);
        assert!((a[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn surplus_redistributes_to_the_hungry() {
        // Claimant 0 wants only 0.1 of its 0.5 entitlement; the surplus
        // goes to claimant 1, capped at nothing.
        let a = weighted_max_min(1.0, &[d(1.0, 0.1), d(1.0, 1.0)]);
        assert!((a[0] - 0.1).abs() < 1e-12);
        assert!((a[1] - 0.9).abs() < 1e-12);
    }

    #[test]
    fn floors_hold_under_cascaded_redistribution() {
        let demands = [d(1.0, 0.05), d(2.0, 0.2), d(1.0, 1.0), d(4.0, 1.0)];
        let a = weighted_max_min(1.0, &demands);
        let total: f64 = a.iter().sum();
        assert!(total <= 1.0 + 1e-12);
        for i in 0..demands.len() {
            assert!(
                a[i] + 1e-12 >= min_share_floor(1.0, &demands, i),
                "claimant {i} got {} < floor {}",
                a[i],
                min_share_floor(1.0, &demands, i)
            );
            assert!(a[i] <= demands[i].demand + 1e-12);
        }
    }

    #[test]
    fn zero_capacity_allocates_nothing() {
        let a = weighted_max_min(0.0, &[d(1.0, 1.0)]);
        assert_eq!(a, vec![0.0]);
    }

    #[test]
    fn rank_shares_conserve_and_cap() {
        let demands = [d(1.0, 512.0), d(1.0, 512.0), d(2.0, 100.0)];
        let g = rank_shares(512, &demands);
        assert!(g.iter().sum::<usize>() <= 512);
        assert!(g[2] <= 100);
        // The heavy tenant is demand-capped at 100; the rest split evenly.
        assert_eq!(g[2], 100);
        assert_eq!(g[0], g[1]);
    }

    #[test]
    fn allocations_are_bit_identical_across_reruns() {
        let demands = [d(1.3, 0.7), d(2.7, 0.9), d(0.5, 0.2)];
        let a = weighted_max_min(1.0, &demands);
        let b = weighted_max_min(1.0, &demands);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
