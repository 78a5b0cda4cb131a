//! Property-based invariants of the execution-trace layer.

use proptest::prelude::*;
use s_enkf::parallel::{
    CycleOp, Emitter, Geometry, ModelConfig, PhaseBreakdown, SEnkfModelOptions,
};
use s_enkf::prelude::*;
use s_enkf::sim::{Kind, Simulation, Task};
use s_enkf::trace::Op;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every span a modeled run emits has a non-negative start and
    /// duration; per rank, the span sums are exactly the services the
    /// pricer was handed for that rank's `Read` and `Compute` ops (the
    /// trace is the run's only accounting, so it is held to the *inputs*);
    /// and the outcome's phase breakdown (means × rank count) is the
    /// per-rank sums within 1e-9.
    #[test]
    fn model_spans_nonnegative_and_project_to_report(
        nsdx in 1usize..5,
        nsdy in 1usize..4,
        members in 1usize..6,
    ) {
        let mut cfg = ModelConfig::paper();
        cfg.workload = Workload { nx: 60, ny: 24, members, h: 8, xi: 1, eta: 1 };
        let variant = ModelVariant::PEnkf { nsdx, nsdy };
        let (out, trace) =
            model_cycle(&cfg, &variant, SEnkfModelOptions::default(), &FaultConfig::none(), None)
                .unwrap();
        for s in trace.spans() {
            prop_assert!(s.start >= 0.0, "negative start {}", s.start);
            prop_assert!(s.dur >= 0.0, "negative duration {}", s.dur);
        }
        let per_rank = trace.per_rank_phases();
        prop_assert_eq!(per_rank.len(), out.num_compute_ranks);
        let layout = FileLayout::new(Mesh::new(60, 24), 8);
        let geo = Geometry {
            layout,
            members,
            radius: LocalizationRadius { xi: 1, eta: 1 },
            dropped: &[],
            view: None,
            network: None,
        };
        let mut priced = vec![PhaseBreakdown::default(); out.num_compute_ranks];
        ModelVariant::PEnkf { nsdx, nsdy }
            .emit(&geo, &mut |rank, op| {
                match op {
                    CycleOp::Read { region, .. } => {
                        let seeks = layout.seek_count(&region) as u64;
                        priced[rank].read += cfg.pfs.read_service(seeks, layout.region_bytes(&region));
                    }
                    CycleOp::Compute { work, .. } => {
                        priced[rank].compute += cfg.compute_cost_per_point * work as f64;
                    }
                    CycleOp::Send { .. } | CycleOp::Await { .. } => {}
                }
                Ok(())
            })
            .unwrap();
        let mut sum = PhaseBreakdown::default();
        for (rank, t) in &per_rank {
            prop_assert_eq!(t.read, priced[*rank].read, "rank {} read", rank);
            prop_assert_eq!(t.compute, priced[*rank].compute, "rank {} compute", rank);
            prop_assert_eq!((t.comm, t.fault), (0.0, 0.0));
            sum.merge(t);
        }
        let n = out.num_compute_ranks as f64;
        prop_assert!((sum.read - out.compute_mean.read * n).abs() < 1e-9);
        prop_assert!((sum.comm - out.compute_mean.comm * n).abs() < 1e-9);
        prop_assert!((sum.compute - out.compute_mean.compute * n).abs() < 1e-9);
        prop_assert!((sum.wait - out.compute_mean.wait * n).abs() < 1e-9);
        prop_assert!((sum.fault - out.compute_mean.fault * n).abs() < 1e-9);
    }

    /// `merge` is elementwise addition and `scaled` is elementwise
    /// multiplication, so the two commute: merge-then-scale equals
    /// scale-then-merge.
    #[test]
    fn breakdown_merge_and_scale_are_linear(
        a in (0.0f64..10.0, 0.0f64..10.0, 0.0f64..10.0, 0.0f64..10.0),
        b in (0.0f64..10.0, 0.0f64..10.0, 0.0f64..10.0, 0.0f64..10.0),
        factor in 0.0f64..4.0,
    ) {
        let pa = PhaseBreakdown { read: a.0, comm: a.1, compute: a.2, wait: a.3, fault: 0.0 };
        let pb = PhaseBreakdown { read: b.0, comm: b.1, compute: b.2, wait: b.3, fault: 0.0 };
        let mut merged = pa;
        merged.merge(&pb);
        let scaled_then_merged = {
            let mut m = pa.scaled(factor);
            m.merge(&pb.scaled(factor));
            m
        };
        let merged_then_scaled = merged.scaled(factor);
        prop_assert!((merged.total() - (pa.total() + pb.total())).abs() < 1e-9);
        prop_assert!(
            (scaled_then_merged.total() - merged_then_scaled.total()).abs() < 1e-9
        );
        prop_assert!((scaled_then_merged.read - merged_then_scaled.read).abs() < 1e-9);
        prop_assert!((scaled_then_merged.comm - merged_then_scaled.comm).abs() < 1e-9);
        prop_assert!(
            (scaled_then_merged.compute - merged_then_scaled.compute).abs() < 1e-9
        );
        prop_assert!((scaled_then_merged.wait - merged_then_scaled.wait).abs() < 1e-9);
    }

    /// Spans exported from a DES run never overlap on a capacity-1
    /// resource: the engine serializes its holders, and the trace must
    /// show that serialization.
    #[test]
    fn des_spans_never_overlap_on_capacity_one_resource(
        agents in 1usize..5,
        services in proptest::collection::vec((0usize..4, 0.01f64..2.0), 1..24),
    ) {
        let mut sim = Simulation::new();
        let ids = sim.add_agents(agents);
        let res = sim.add_resource(1);
        for (agent, service) in &services {
            sim.add_task(
                Task::new(ids[agent % agents], Kind::Read, *service)
                    .with_resources(vec![res]),
            )
            .unwrap();
        }
        sim.run().unwrap();
        let trace = sim.export_trace("cap1");
        let mut held: Vec<(f64, f64)> = trace
            .spans()
            .iter()
            .filter(|s| s.op != Op::Wait && s.res == Some(res.0))
            .map(|s| (s.start, s.start + s.dur))
            .collect();
        prop_assert_eq!(held.len(), services.len());
        held.sort_by(|x, y| x.0.total_cmp(&y.0));
        for w in held.windows(2) {
            prop_assert!(
                w[1].0 >= w[0].1 - 1e-9,
                "overlapping holders: [{}, {}] then [{}, {}]",
                w[0].0, w[0].1, w[1].0, w[1].1
            );
        }
    }
}
