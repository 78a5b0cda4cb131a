//! Auto-tuning walkthrough: use the cost models (Eqs. 7–10) and
//! Algorithms 1–2 to pick `(n_sdx, n_sdy, L, n_cg)` for a processor budget,
//! then validate the choice against the discrete-event cluster model.
//!
//! ```text
//! cargo run --release --example autotune_cluster
//! ```

use s_enkf::fault::FaultConfig;
use s_enkf::parallel::{model_cycle, ModelConfig, ModelVariant, SEnkfModelOptions};
use s_enkf::tuning::{algorithm1, autotune, economic_choice, min_t1_curve};

fn main() {
    let cfg = ModelConfig::paper();
    let cost = cfg.cost_params();

    // Step 1: fix the compute cost C2 and look at Algorithm 1 at one C1.
    let (c1, c2) = (120, 2000);
    let one = algorithm1(&cost, c1, c2).expect("feasible");
    println!(
        "Algorithm 1 @ (C1={c1}, C2={c2}): {:?}\n  model T1 = {:.3}s, T_total = {:.3}s",
        one.params, one.t1, one.t_total
    );

    // Step 2: the min-T1 curve over C1 and the economic choice (Eq. 14).
    let curve = min_t1_curve(&cost, c2, [5usize, 10, 15, 20, 30, 40, 60, 120, 200, 600]);
    println!("\nmin T1 vs C1 (C2 = {c2}):");
    for pt in &curve {
        println!("  C1 = {:>4}: T1 = {:.3}s  {:?}", pt.c1, pt.t1, pt.params);
    }
    let pick = economic_choice(&curve, 5e-2).expect("non-empty curve");
    println!(
        "economic choice (eps = 0.05): C1 = {} -> {:?}",
        pick.c1, pick.params
    );

    // Step 3: the full auto-tuner over a 12,000-processor budget.
    let np = 12_000;
    let tuned = autotune(&cost, np, 2e-2).expect("tunable");
    println!(
        "\nAlgorithm 2 @ n_p = {np}: {:?}\n  uses {} + {} = {} processors, model T_total = {:.3}s",
        tuned.params,
        tuned.params.c1(),
        tuned.params.c2(),
        tuned.params.total_processors(),
        tuned.t_total
    );

    // Step 4: cross-check on the discrete-event cluster model.
    let (outcome, _) = model_cycle(
        &cfg,
        &ModelVariant::SEnkf(tuned.params),
        SEnkfModelOptions::default(),
        &FaultConfig::none(),
        None,
    )
    .expect("DES run");
    println!(
        "DES check: makespan {:.3}s, exposed first stage {:.3}s, overlapped {:.1}%",
        outcome.makespan,
        outcome.first_compute_start,
        outcome.overlapped_fraction() * 100.0
    );
}
