//! Property test of the two arms of a member read: under any OST slowdowns
//! and any warmed blacklist, the real read (`read_region_adaptive`) and the
//! modeled read (`ModeledPfs::add_member_read`) of every member take the
//! same steps, and the modeled one holds and is charged at the OST the
//! route picks.

use enkf_fault::{ost_of, replica_of, FaultConfig, FaultInjector, FaultPlan, OSTS};
use enkf_grid::{FileLayout, Mesh, RegionRect};
use enkf_health::{HealthMonitor, HealthParams};
use enkf_pfs::{read_region_adaptive, FileStore, ModeledPfs, PfsParams, ScratchDir};
use enkf_sim::Simulation;
use enkf_trace::{FaultKind, Op, RankTracer, Span};
use proptest::prelude::*;
use std::time::Instant;

const MEMBERS: usize = 2 * OSTS;

/// What a span says a step is: everything but its times and resource.
type Step = (
    Op,
    Option<FaultKind>,
    u32,
    Option<usize>,
    Option<usize>,
    u64,
    u64,
);

fn step(s: &Span) -> Step {
    (
        s.op, s.fault, s.attempt, s.stage, s.member, s.bytes, s.seeks,
    )
}

/// The OST the route should serve `member` from: its replica when its own
/// OST is blacklisted and the replica is in rotation and no slower.
fn routed(member: usize, blacklisted: &[usize], factor: impl Fn(usize) -> f64) -> usize {
    let (ost, replica) = (ost_of(member), replica_of(ost_of(member)));
    let rerouted = blacklisted.contains(&ost)
        && !blacklisted.contains(&replica)
        && factor(replica) <= factor(ost);
    if rerouted {
        replica
    } else {
        ost
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn both_read_arms_route_every_member_alike(
        slowdowns in proptest::collection::vec((any::<bool>(), 1.0f64..4.0), OSTS),
        hot_mask in 0usize..1 << OSTS,
    ) {
        let scratch = ScratchDir::new("route-props").unwrap();
        let mesh = Mesh::new(4, 2);
        let layout = FileLayout::new(mesh, 8);
        let store = FileStore::open(scratch.path(), layout).unwrap();
        for k in 0..MEMBERS {
            store.write_member(k, &vec![k as f64; mesh.n()]).unwrap();
        }
        let mut plan = FaultPlan::new(3);
        for (ost, &(slowed, factor)) in slowdowns.iter().enumerate() {
            if slowed {
                plan = plan.with_ost_slowdown(ost, factor);
            }
        }
        let injector = FaultInjector::new(FaultConfig::degraded(plan));
        // Warm the monitor: one cycle of 4× reads blacklists each hot OST.
        let hot: Vec<usize> = (0..OSTS).filter(|o| hot_mask >> o & 1 == 1).collect();
        let mut monitor = HealthMonitor::new(HealthParams::default());
        for &ost in &hot {
            monitor.observe_read(ost, ost, 4.0);
        }
        prop_assert_eq!(&monitor.end_cycle().blacklisted_osts, &hot);

        let region = RegionRect::full(mesh);
        let (seeks, bytes) = (layout.seek_count(&region) as u64, layout.region_bytes(&region));
        let params = PfsParams { seek_time: 1e-3, byte_time: 1e-6 };
        for member in 0..MEMBERS {
            let mut tracer = RankTracer::new(0, Instant::now());
            let stage = Some(member % 2);
            read_region_adaptive(&store, &mut tracer, stage, member, &region, &injector, Some(&monitor))
                .unwrap();
            let real: Vec<_> = tracer.into_spans().iter().map(step).collect();

            let mut sim = Simulation::new();
            let pfs = ModeledPfs::register(&mut sim, params);
            let agent = sim.add_agent();
            pfs.add_member_read(&mut sim, agent, &injector, Some(&monitor), false, stage, member, seeks, bytes)
                .unwrap();
            sim.run().unwrap();
            let spans: Vec<Span> = sim.spans().filter(|s| s.op != Op::Wait).collect();
            let modeled: Vec<_> = spans.iter().map(step).collect();
            prop_assert_eq!(&real, &modeled, "member {}", member);

            // The OSTs are the simulation's first resources, in order.
            let ost = routed(member, &hot, |o| injector.ost_factor(o));
            let read = spans.iter().find(|s| s.op == Op::Read).unwrap();
            prop_assert_eq!(read.res, Some(ost), "member {} held the routed OST", member);
            let charged = params.read_service(seeks, bytes) * injector.ost_factor(ost);
            prop_assert_eq!(read.dur, charged, "member {} at its OST's factor", member);
        }
    }
}
