//! Property-based tests of the cost model and tuner invariants.

use enkf_tuning::{algorithm1, autotune, candidates, CostParams, MachineParams, Params, Workload};
use proptest::prelude::*;

fn workload_strategy() -> impl Strategy<Value = Workload> {
    (
        1usize..=5,
        1usize..=5,
        1usize..=4,
        1usize..=3,
        0usize..=3,
        0usize..=3,
    )
        .prop_map(|(ax, ay, am, h, xi, eta)| Workload {
            nx: ax * 60,
            ny: ay * 60,
            members: am * 12,
            h: h as u64 * 8,
            xi,
            eta,
        })
}

fn cost_strategy() -> impl Strategy<Value = CostParams> {
    workload_strategy().prop_map(|workload| CostParams {
        workload,
        machine: MachineParams::tianhe2_like(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn costs_are_positive_and_finite(cost in cost_strategy(), seed in any::<u64>()) {
        // Evaluate the model at a random feasible parameter set.
        let w = &cost.workload;
        let divy: Vec<usize> = (1..=w.ny).filter(|d| w.ny.is_multiple_of(*d)).collect();
        let nsdy = divy[(seed as usize) % divy.len()];
        let divx: Vec<usize> = (1..=w.nx).filter(|d| w.nx.is_multiple_of(*d)).collect();
        let nsdx = divx[(seed as usize / 7) % divx.len()];
        let sub_h = w.ny / nsdy;
        let divl: Vec<usize> = (1..=sub_h).filter(|d| sub_h.is_multiple_of(*d)).collect();
        let layers = divl[(seed as usize / 13) % divl.len()];
        let divm: Vec<usize> = (1..=w.members).filter(|d| w.members.is_multiple_of(*d)).collect();
        let ncg = divm[(seed as usize / 29) % divm.len()];
        let p = Params { nsdx, nsdy, layers, ncg };
        for v in [cost.t_read(&p), cost.t_comm(&p), cost.t_comp(&p), cost.t1(&p), cost.t_total(&p)] {
            prop_assert!(v.is_finite() && v > 0.0, "{p:?} -> {v}");
        }
        prop_assert!(cost.t_total(&p) >= cost.t1(&p));
    }

    #[test]
    fn algorithm1_solutions_satisfy_all_constraints(
        cost in cost_strategy(),
        c1_raw in 1usize..200,
        c2_raw in 1usize..2000,
    ) {
        if let Some(t) = algorithm1(&cost, c1_raw, c2_raw) {
            let p = t.params;
            let w = &cost.workload;
            prop_assert_eq!(p.c1(), c1_raw);
            prop_assert_eq!(p.c2(), c2_raw);
            prop_assert_eq!(w.ny % p.nsdy, 0);
            prop_assert_eq!(w.nx % p.nsdx, 0);
            prop_assert_eq!(w.members % p.ncg, 0);
            prop_assert_eq!((w.ny / p.nsdy) % p.layers, 0);
            prop_assert!((t.t1 - cost.t1(&p)).abs() < 1e-12);
            prop_assert!((t.t_total - cost.t_total(&p)).abs() < 1e-12);
        }
    }

    #[test]
    fn autotune_respects_the_budget(cost in cost_strategy(), np_k in 2usize..40) {
        let np = np_k * 50;
        if let Some(t) = autotune(&cost, np, 1e-2) {
            prop_assert!(
                t.params.total_processors() <= np,
                "{:?} uses {} > {np}",
                t.params,
                t.params.total_processors()
            );
            prop_assert!(t.t_total.is_finite() && t.t_total > 0.0);
        }
    }

    #[test]
    fn candidates_are_the_brute_force_feasible_set(
        (nx, ny, members) in (1usize..=24, 1usize..=24, 1usize..=12),
        c2 in 1usize..=48,
    ) {
        // Every (n_sdx, n_sdy, L, n_cg) within bounds, in ascending
        // (n_sdy, n_cg, L), kept when it passes problem (12)'s checks.
        let w = Workload { nx, ny, members, h: 8, xi: 1, eta: 1 };
        let mut expect = Vec::new();
        for nsdy in 1..=ny {
            for ncg in 1..=members {
                for layers in 1..=ny {
                    for nsdx in 1..=nx {
                        let p = Params { nsdx, nsdy, layers, ncg };
                        let fits = nsdx * nsdy == c2
                            && ny % nsdy == 0
                            && nx % nsdx == 0
                            && members % ncg == 0
                            && (ny / nsdy) % layers == 0;
                        if fits {
                            expect.push(p);
                        }
                    }
                }
            }
        }
        prop_assert_eq!(candidates(&w, c2).collect::<Vec<_>>(), expect);
    }

    #[test]
    fn t_comp_conserves_total_work(cost in cost_strategy(), seed in any::<u64>()) {
        // L * C2 * t_comp == c * n regardless of the parameter choice.
        let w = &cost.workload;
        let divy: Vec<usize> = (1..=w.ny).filter(|d| w.ny.is_multiple_of(*d)).collect();
        let nsdy = divy[(seed as usize) % divy.len()];
        let divx: Vec<usize> = (1..=w.nx).filter(|d| w.nx.is_multiple_of(*d)).collect();
        let nsdx = divx[(seed as usize / 3) % divx.len()];
        let sub_h = w.ny / nsdy;
        let divl: Vec<usize> = (1..=sub_h).filter(|d| sub_h.is_multiple_of(*d)).collect();
        let layers = divl[(seed as usize / 11) % divl.len()];
        let p = Params { nsdx, nsdy, layers, ncg: 1 };
        let total = p.layers as f64 * p.c2() as f64 * cost.t_comp(&p);
        let expect = cost.machine.c * w.n() as f64;
        prop_assert!((total - expect).abs() < 1e-6 * expect, "{total} vs {expect}");
    }
}
