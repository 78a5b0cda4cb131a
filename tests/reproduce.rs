//! The paper's verdicts, asserted: the rows of `s_enkf::reproduce::FIGURES`
//! at the size `reproduce --tiny` runs them (the paper's figures, Algorithm
//! 2 and the ablations at paper scale; Fig. 12 and the campaign, scheduler
//! and batched sweeps on the tiny workload). The scaling sweep behind Figs.
//! 1, 9, 11 and 13 and Algorithm 2 is priced once for the whole binary.
//! Fig. 14 (29 s in a debug build, 2 cores) is asserted at paper scale by
//! `scripts/check.sh`; the module's unit tests feed each kind of verdict a
//! doctored table that must fail.

use s_enkf::reproduce::{Figure, Sweeps, FIGURES};
use std::sync::LazyLock;

static SWEEPS: LazyLock<Sweeps> = LazyLock::new(|| Sweeps::new(true, None));

fn figure(name: &str) -> &'static Figure {
    let fig = FIGURES.iter().find(|f| f.name == name);
    fig.unwrap_or_else(|| panic!("no row {name}"))
}

macro_rules! verdicts {
    ($($test:ident: $name:literal,)*) => {
        $(
            #[test]
            fn $test() {
                let fig = figure($name);
                let t = (fig.sweep)(&SWEEPS).unwrap_or_else(|e| panic!("{}: {e}", $name));
                if let Err(why) = (fig.verdict)(&t) {
                    panic!("{}: {why}\n{t}", $name);
                }
            }
        )*
    };
}

verdicts! {
    fig01_penkf_io_share_grows_until_it_dominates: "fig01",
    fig05_block_reading_grows_near_linearly_with_nsdx: "fig05",
    fig09_penkf_waits_longer_while_senkf_waits_less: "fig09",
    fig10_concurrent_groups_saturate_at_the_ost_count: "fig10",
    fig11_overlap_is_sustained_at_every_scale: "fig11",
    fig12_model_and_test_data_choose_the_same_c1: "fig12",
    fig13_senkf_scales_and_beats_penkf_threefold: "fig13",
    algorithm2_total_time_predicts_the_des: "alg2",
    ablation_bar_reading_beats_block_reading: "ablation_reading",
    ablation_layers_shrink_the_exposed_stage: "ablation_layers",
    ablation_groups_help_until_the_osts_saturate: "ablation_groups",
    ablation_helper_thread_offloads_communication: "ablation_helper",
    campaign_recovery_line_bounds_crash_loss: "mttr",
    fair_share_keeps_every_campaign_within_its_sla: "fairness",
    adaptive_routing_is_free_when_clean_and_wins_storms: "adaptive",
    batched_update_loses_to_the_point_local_analysis: "batched",
}
