//! Integration between the closed-form cost model (`enkf-tuning`), the
//! discrete-event substrate (`enkf-sim` + `enkf-pfs` + `enkf-net`), and the
//! planners (`enkf-parallel::model`) on a small workload. The figure-level
//! shapes at paper scale are the verdicts of `s_enkf::reproduce`, asserted
//! by `tests/reproduce.rs`; what stays here are claims no verdict makes:
//! hand-picked and small-budget configurations.

use s_enkf::fault::FaultConfig;
use s_enkf::parallel::{model_cycle, ModelConfig, ModelOutcome, ModelVariant, SEnkfModelOptions};
use s_enkf::tuning::{autotune, Params, Workload};

/// One healthy modelled cycle of `variant`.
fn model(cfg: &ModelConfig, variant: ModelVariant) -> Result<ModelOutcome, String> {
    let options = SEnkfModelOptions::default();
    model_cycle(cfg, &variant, options, &FaultConfig::none(), None).map(|(out, _)| out)
}

fn small_cfg() -> ModelConfig {
    ModelConfig {
        workload: Workload {
            nx: 360,
            ny: 180,
            members: 12,
            h: 80,
            xi: 2,
            eta: 2,
        },
        ..ModelConfig::paper()
    }
}

#[test]
fn senkf_beats_penkf_when_reads_dominate() {
    let cfg = small_cfg();
    let p = model(&cfg, ModelVariant::PEnkf { nsdx: 36, nsdy: 18 }).unwrap();
    let s = model(
        &cfg,
        ModelVariant::SEnkf(Params {
            nsdx: 36,
            nsdy: 18,
            layers: 2,
            ncg: 4,
        }),
    )
    .unwrap();
    assert!(
        s.makespan < p.makespan,
        "S {} vs P {}",
        s.makespan,
        p.makespan
    );
}

#[test]
fn des_makespan_tracks_closed_form_total_at_tuned_params() {
    // The paper's Figure 12 claim, end to end: the analytic T_total and the
    // DES makespan agree (within a modest factor) at the tuned parameters.
    let cfg = small_cfg();
    let cost = cfg.cost_params();
    let tuned = autotune(&cost, 800, 2e-2).expect("tunable");
    let out = model(&cfg, ModelVariant::SEnkf(tuned.params)).unwrap();
    let ratio = out.makespan / tuned.t_total;
    assert!(
        (0.5..2.0).contains(&ratio),
        "DES {} vs model {} (ratio {ratio})",
        out.makespan,
        tuned.t_total
    );
}

#[test]
fn autotuned_configuration_is_competitive_on_the_des() {
    // The tuner's pick should beat a deliberately poor hand-picked
    // configuration of the same budget class.
    let cfg = small_cfg();
    let cost = cfg.cost_params();
    let np = 700;
    let tuned = autotune(&cost, np, 2e-2).expect("tunable");
    let good = model(&cfg, ModelVariant::SEnkf(tuned.params)).unwrap();
    // Poor choice: no layering, single group, skewed decomposition.
    let poor = model(
        &cfg,
        ModelVariant::SEnkf(Params {
            nsdx: 120,
            nsdy: 5,
            layers: 1,
            ncg: 1,
        }),
    )
    .unwrap();
    assert!(
        good.makespan < poor.makespan,
        "tuned {} vs poor {}",
        good.makespan,
        poor.makespan
    );
}
