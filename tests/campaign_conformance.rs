//! Campaign-level conformance: kill–resume determinism and real-vs-DES
//! agreement, in **both checkpoint-commit modes**.
//!
//! The headline invariant of the checkpoint/restart subsystem: a campaign
//! killed at any point — between cycles, mid-cycle via an injected crash,
//! or during a checkpoint commit — and resumed from disk produces
//! **bit-identical** final ensembles, per-cycle statistics, and per-cycle
//! trace-digest hashes to a campaign that was never interrupted. And on an
//! empty fault plan, the real supervised campaign and its DES model emit
//! byte-identical operation digests (cycle spans × K plus K+1 checkpoint
//! sets).
//!
//! Every invariant is exercised under [`CkptMode::Sync`] *and*
//! [`CkptMode::Pipelined`]: moving the checkpoint write to a background
//! thread must change only *when* durability happens, never *what* the
//! campaign computes — sync and pipelined runs of the same campaign are
//! report- and digest-identical, and a kill during an in-flight
//! asynchronous write falls back to the previous durable cycle.

mod common;

use common::{TenantMix, SENKF};
use proptest::prelude::*;
use s_enkf::ckpt::{CheckpointStore, CkptError};
use s_enkf::fault::{FaultConfig, FaultPlan, RetryPolicy};
use s_enkf::grid::{FileLayout, Mesh};
use s_enkf::parallel::{
    model_campaign_adaptive, run_campaign, run_campaign_ctx, BackoffClock, CampaignConfig,
    CampaignCtx, CampaignError, CampaignExecutor, CampaignModelPlan, CampaignReport, CkptMode,
    ModelConfig, ModelVariant,
};
use s_enkf::pfs::{FileStore, ScratchDir};
use std::io::ErrorKind;

const CYCLES: usize = 3;

/// The shared small geometry — one definition, in the common harness.
fn mix() -> TenantMix {
    TenantMix::small()
}

fn campaign_cfg(cycles: usize) -> CampaignConfig {
    mix().campaign_cfg(cycles)
}

/// Fresh work + checkpoint stores under one scratch directory.
fn stores(label: &str) -> (ScratchDir, FileStore, CheckpointStore) {
    mix().stores(label)
}

fn executors() -> Vec<(&'static str, CampaignExecutor)> {
    vec![
        ("lenkf", CampaignExecutor::LEnkf { nsdx: 2, nsdy: 2 }),
        ("penkf", CampaignExecutor::PEnkf { nsdx: 2, nsdy: 2 }),
        ("senkf", CampaignExecutor::SEnkf(SENKF)),
        (
            "denkf",
            CampaignExecutor::DEnkf {
                shards: 4,
                kernel: s_enkf::core::BatchedKernel::Cholesky,
            },
        ),
    ]
}

fn modes() -> [(&'static str, CkptMode); 2] {
    [("sync", CkptMode::Sync), ("pipelined", CkptMode::Pipelined)]
}

/// Run a campaign under an explicit checkpoint-commit mode.
fn run_mode(
    work: &FileStore,
    ckpt: &CheckpointStore,
    exec: &CampaignExecutor,
    cfg: &CampaignConfig,
    fault: &FaultConfig,
    mode: CkptMode,
) -> CampaignReport {
    run_campaign_ctx(
        work,
        ckpt,
        exec,
        cfg,
        fault,
        &CampaignCtx {
            tenant: None,
            backoff: BackoffClock::Wall,
            ckpt_mode: mode,
            health: None,
        },
    )
    .unwrap()
}

fn assert_reports_identical(a: &CampaignReport, b: &CampaignReport, what: &str) {
    assert_eq!(a.stats, b.stats, "{what}: per-cycle statistics differ");
    assert_eq!(
        a.cycle_digests, b.cycle_digests,
        "{what}: per-cycle trace digests differ"
    );
    assert_eq!(
        a.final_analysis.states(),
        b.final_analysis.states(),
        "{what}: final ensembles differ"
    );
}

/// Pipelining is a *scheduling* change, not a semantic one: a pipelined
/// campaign is bit-identical to the synchronous one — same statistics,
/// same per-cycle digests, same final ensemble, and the same whole-trace
/// operation digest (the writer traces on a fork of the supervisor's
/// rank, so even the Ckpt span multiset matches). On all four executors.
#[test]
fn pipelined_campaign_is_bit_identical_to_sync() {
    for (name, exec) in executors() {
        let (_s1, work1, ckpt1) = stores(&format!("camp-mode-sync-{name}"));
        let sync = run_mode(
            &work1,
            &ckpt1,
            &exec,
            &campaign_cfg(CYCLES),
            &FaultConfig::none(),
            CkptMode::Sync,
        );
        let (_s2, work2, ckpt2) = stores(&format!("camp-mode-pipe-{name}"));
        let pipe = run_mode(
            &work2,
            &ckpt2,
            &exec,
            &campaign_cfg(CYCLES),
            &FaultConfig::none(),
            CkptMode::Pipelined,
        );
        assert_reports_identical(&sync, &pipe, name);
        assert_eq!(
            sync.trace.digest(),
            pipe.trace.digest(),
            "{name}: sync and pipelined trace digests must be byte-identical"
        );
    }
}

/// A member lost for good, by **original** index. `degraded` is the plan's
/// own switch: off, the supervisor degrades through one budget-free
/// recovery; on, the first cycle drops the member by itself.
fn lost_members(lost: &[usize], degraded: bool) -> FaultConfig {
    let mut fault = FaultConfig::none();
    fault.plan = FaultPlan::new(3);
    for &member in lost {
        fault.plan = fault.plan.with_unrecoverable_member(member);
    }
    fault.retry = RetryPolicy {
        max_retries: 1,
        base_backoff: 1e-6,
        multiplier: 2.0,
    };
    fault.degraded = degraded;
    fault
}

/// Overwrite every member file of a work store with garbage; member 0's
/// garbage is also short, so a refresh must stage it instead of writing
/// over it in place.
fn garble(work: &FileStore) {
    let size = work.layout().file_size() as usize;
    assert!(work.num_members() > 0, "the work store holds members");
    for k in 0..work.num_members() {
        let len = if k == 0 { size / 2 } else { size };
        let junk: Vec<u8> = (0..len).map(|i| (i * 31 + k * 7) as u8 ^ 0xA5).collect();
        std::fs::write(work.member_path(k), junk).unwrap();
    }
}

/// Killing a campaign at a cycle boundary (the process exits; all that
/// survives is the checkpoint directory) and resuming produces exactly
/// the uninterrupted run, on all four executors and both commit modes —
/// fault-free, and on a campaign that lost a *non-last* member before the
/// kill (the resumed supervisor re-derives the lost set from the plan and
/// the checkpoint's ensemble size; the format stores neither). The resume
/// never trusts the work store: its members are garbage, one of them short,
/// when the resumed run starts.
#[test]
fn kill_at_cycle_boundary_and_resume_is_bit_identical() {
    let plans = [
        ("clean", FaultConfig::none()),
        ("lost-1", lost_members(&[1], false)),
    ];
    for (name, exec) in executors() {
        for (mname, mode) in modes() {
            for (pname, fault) in &plans {
                if *pname != "clean" && name == "senkf" {
                    continue; // N − 1 = 3 members do not divide into n_cg = 2 groups
                }
                let tag = format!("{name}-{mname}-{pname}");
                let (_s1, work1, ckpt1) = stores(&format!("camp-full-{tag}"));
                let full = run_mode(&work1, &ckpt1, &exec, &campaign_cfg(CYCLES), fault, mode);
                assert_eq!(full.stats.len(), CYCLES);
                assert_eq!(full.resumed_from, None);

                // "Kill" after 2 cycles: run a shorter campaign, drop every
                // in-memory object, and resume from the surviving directories.
                let (_s2, work2, ckpt2) = stores(&format!("camp-killed-{tag}"));
                let partial = run_mode(&work2, &ckpt2, &exec, &campaign_cfg(2), fault, mode);
                assert_eq!(partial.stats.len(), 2);
                drop(partial);
                garble(&work2);

                let resumed = run_mode(&work2, &ckpt2, &exec, &campaign_cfg(CYCLES), fault, mode);
                assert_eq!(
                    resumed.resumed_from,
                    Some(2),
                    "{tag}: must resume, not restart"
                );
                assert_reports_identical(&full, &resumed, &tag);
                assert_eq!(full.dropped_members, resumed.dropped_members, "{tag}");
            }
        }
    }
}

/// A work store laid out for another mesh is a typed error of the
/// campaign, not a panic inside its thread scope.
#[test]
fn work_store_of_another_mesh_is_a_typed_error() {
    let scratch = ScratchDir::new("camp-wrong-mesh").unwrap();
    let mesh = Mesh::new(mix().mesh.nx() / 2, mix().mesh.ny());
    let work = FileStore::open(scratch.path().join("work"), FileLayout::new(mesh, 8)).unwrap();
    let ckpt = CheckpointStore::create(scratch.path().join("ckpt")).unwrap();
    let (_, exec) = executors().remove(0);
    let result = run_campaign(
        &work,
        &ckpt,
        &exec,
        &campaign_cfg(CYCLES),
        &FaultConfig::none(),
    );
    assert!(
        matches!(result, Err(CampaignError::Io(ref e)) if e.kind() == ErrorKind::InvalidInput),
        "got {result:?}"
    );
}

/// Every file of every durable cycle of `ckpt`, with its bytes.
fn ckpt_files(ckpt: &CheckpointStore) -> Vec<(std::path::PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    for cycle in ckpt.durable_cycles().unwrap() {
        for entry in std::fs::read_dir(ckpt.cycle_dir(cycle)).unwrap() {
            let path = entry.unwrap().path();
            files.push((path.clone(), std::fs::read(&path).unwrap()));
        }
    }
    files.sort();
    files
}

/// A checkpoint directory written by another configuration (here another
/// seed) is refused with `ConfigMismatch`, not resumed and not overwritten:
/// starting fresh would prune the other campaign's cycles.
#[test]
fn foreign_checkpoint_is_refused_and_left_untouched() {
    let (_s, work, ckpt) = stores("camp-foreign");
    let (_, exec) = executors().remove(0);
    let cfg = campaign_cfg(1);
    run_mode(
        &work,
        &ckpt,
        &exec,
        &cfg,
        &FaultConfig::none(),
        CkptMode::Sync,
    );
    assert_eq!(ckpt.durable_cycles().unwrap(), vec![0, 1]);
    let before = ckpt_files(&ckpt);

    let foreign = CampaignConfig {
        seed: cfg.seed + 1,
        ..cfg
    };
    let result = run_campaign(&work, &ckpt, &exec, &foreign, &FaultConfig::none());
    assert!(
        matches!(
            result,
            Err(CampaignError::Checkpoint(CkptError::ConfigMismatch { .. }))
        ),
        "got {result:?}"
    );
    assert_eq!(ckpt.durable_cycles().unwrap(), vec![0, 1]);
    assert!(ckpt_files(&ckpt) == before, "the foreign directory changed");
}

/// A rank crash mid-cycle tears the cycle down; the supervisor drains any
/// in-flight asynchronous write, restores the last durable checkpoint from
/// disk and re-runs. The recovered campaign is bit-identical to a
/// never-faulted one, in both commit modes.
#[test]
fn crash_recovery_is_bit_identical_to_uninterrupted() {
    for (name, exec) in executors() {
        for (mname, mode) in modes() {
            let tag = format!("{name}-{mname}");
            let (_s1, work1, ckpt1) = stores(&format!("camp-clean-{tag}"));
            let clean = run_mode(
                &work1,
                &ckpt1,
                &exec,
                &campaign_cfg(CYCLES),
                &FaultConfig::none(),
                mode,
            );

            let mut fault = FaultConfig::none();
            fault.plan = FaultPlan::new(7).with_crash_at_cycle(0, 1, 0);
            fault.recv_timeout = 0.3;
            let (_s2, work2, ckpt2) = stores(&format!("camp-crash-{tag}"));
            let recovered = run_mode(&work2, &ckpt2, &exec, &campaign_cfg(CYCLES), &fault, mode);
            assert_eq!(
                recovered.recoveries.len(),
                1,
                "{tag}: exactly one recovery for one injected crash"
            );
            assert_eq!(recovered.recoveries[0].cycle, 1);
            assert!(!recovered.recoveries[0].degraded);
            assert_reports_identical(&clean, &recovered, &tag);
        }
    }
}

// Kill at a *random* cycle (including before any cycle completes), then
// resume — possibly in the *other* commit mode, pinning that resumability
// is a property of the on-disk format alone. The CI smoke version runs a
// handful of random (kill point, mode, mode) combinations.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn kill_at_random_cycle_and_resume_smoke(
        kill_after in 0usize..CYCLES,
        kill_pipelined in any::<bool>(),
        resume_pipelined in any::<bool>(),
    ) {
        let mode_of = |p: bool| if p { CkptMode::Pipelined } else { CkptMode::Sync };
        let exec = CampaignExecutor::PEnkf { nsdx: 2, nsdy: 2 };
        let (_s1, work1, ckpt1) = stores("camp-rand-full");
        let full = run_campaign(
            &work1, &ckpt1, &exec, &campaign_cfg(CYCLES), &FaultConfig::none(),
        ).unwrap();

        let (_s2, work2, ckpt2) = stores("camp-rand-killed");
        if kill_after > 0 {
            run_mode(
                &work2, &ckpt2, &exec, &campaign_cfg(kill_after),
                &FaultConfig::none(), mode_of(kill_pipelined),
            );
        } else {
            // Kill before the first cycle ever ran: only the initial
            // (cycle 0) checkpoint may exist. Resume must cope with a
            // completely fresh directory too.
        }
        let resumed = run_mode(
            &work2, &ckpt2, &exec, &campaign_cfg(CYCLES),
            &FaultConfig::none(), mode_of(resume_pipelined),
        );
        prop_assert_eq!(&resumed.stats, &full.stats);
        prop_assert_eq!(&resumed.cycle_digests, &full.cycle_digests);
        prop_assert_eq!(resumed.final_analysis.states(), full.final_analysis.states());
    }
}

/// A checkpoint torn by a kill mid-commit (manifest never landed) is
/// skipped; resume falls back one cycle, re-runs it, and still converges
/// to the uninterrupted result.
#[test]
fn torn_checkpoint_on_kill_falls_back_one_cycle() {
    let exec = CampaignExecutor::PEnkf { nsdx: 2, nsdy: 2 };
    let (_s1, work1, ckpt1) = stores("camp-torn-full");
    let full = run_campaign(
        &work1,
        &ckpt1,
        &exec,
        &campaign_cfg(CYCLES),
        &FaultConfig::none(),
    )
    .unwrap();

    let (_s2, work2, ckpt2) = stores("camp-torn-killed");
    run_campaign(
        &work2,
        &ckpt2,
        &exec,
        &campaign_cfg(2),
        &FaultConfig::none(),
    )
    .unwrap();
    // The kill hit between cycle 2's member writes and its manifest
    // commit: the checkpoint is present but not durable.
    std::fs::remove_file(ckpt2.cycle_dir(2).join("MANIFEST.txt")).unwrap();
    let resumed = run_campaign(
        &work2,
        &ckpt2,
        &exec,
        &campaign_cfg(CYCLES),
        &FaultConfig::none(),
    )
    .unwrap();
    assert_eq!(resumed.resumed_from, Some(1), "fallback to cycle 1");
    assert_reports_identical(&full, &resumed, "torn-checkpoint");
}

/// The pipelined analogue: the process dies while the *background writer*
/// is mid-commit on the final cycle — member payloads landed but the
/// manifest did not. The durable frontier is the previous cycle; a
/// resume (in either mode) falls back to it, re-runs the lost cycle, and
/// is bit-identical to the uninterrupted campaign. On all four executors.
#[test]
fn pipelined_torn_inflight_write_falls_back_to_previous_durable_cycle() {
    for (name, exec) in executors() {
        let (_s1, work1, ckpt1) = stores(&format!("camp-ptorn-full-{name}"));
        let full = run_mode(
            &work1,
            &ckpt1,
            &exec,
            &campaign_cfg(CYCLES),
            &FaultConfig::none(),
            CkptMode::Pipelined,
        );

        let (_s2, work2, ckpt2) = stores(&format!("camp-ptorn-killed-{name}"));
        run_mode(
            &work2,
            &ckpt2,
            &exec,
            &campaign_cfg(2),
            &FaultConfig::none(),
            CkptMode::Pipelined,
        );
        // Tear cycle 2's in-flight asynchronous commit: the kill landed
        // after the member writes but before the manifest rename.
        std::fs::remove_file(ckpt2.cycle_dir(2).join("MANIFEST.txt")).unwrap();
        let resumed = run_mode(
            &work2,
            &ckpt2,
            &exec,
            &campaign_cfg(CYCLES),
            &FaultConfig::none(),
            CkptMode::Pipelined,
        );
        assert_eq!(
            resumed.resumed_from,
            Some(1),
            "{name}: fallback to the previous durable cycle"
        );
        assert_reports_identical(&full, &resumed, name);
    }
}

/// A permanently lost member degrades the campaign to the N−1 path: one
/// budget-free recovery, then the ensemble continues on the survivors for
/// every remaining cycle — whichever member it is. The loss is absorbed
/// once: the survivors are renumbered, and neither the consumed entry nor
/// a neighbour sliding into its slot drops a second member. Two members
/// lost together cost one recovery and leave N−2.
#[test]
fn unrecoverable_member_degrades_to_n_minus_one() {
    let exec = CampaignExecutor::PEnkf { nsdx: 2, nsdy: 2 };
    let members = mix().members;
    let mut losses: Vec<Vec<usize>> = (0..members).map(|m| vec![m]).collect();
    losses.push(vec![0, 2]);
    for lost in losses {
        let (_s, work, ckpt) = stores(&format!("camp-degraded-{lost:?}"));
        let fault = lost_members(&lost, false);
        let report = run_campaign(&work, &ckpt, &exec, &campaign_cfg(CYCLES), &fault)
            .unwrap_or_else(|e| panic!("losing {lost:?}: {e}"));
        assert!(report.degraded);
        assert_eq!(report.dropped_members, lost, "by original index");
        assert_eq!(report.final_analysis.size(), members - lost.len());
        assert_eq!(report.stats.len(), CYCLES, "the campaign still completes");
        let deg: Vec<_> = report.recoveries.iter().filter(|r| r.degraded).collect();
        assert_eq!(deg.len(), 1, "one budget-free degradation recovery");
        assert_eq!(report.recoveries.len(), 1, "and nothing else: {lost:?}");
    }
}

fn model_cfg() -> ModelConfig {
    mix().model_cfg()
}

/// On an empty fault plan, the real campaign and the DES campaign model
/// produce byte-identical operation digests: K identical cycle span sets
/// plus K+1 checkpoint sets on the supervisor rank — in both commit modes
/// (pipelining moves the Ckpt spans in *time*, which digests ignore).
#[test]
fn real_and_modeled_campaigns_conform_on_empty_plan() {
    let cases = [
        (
            "penkf",
            CampaignExecutor::PEnkf { nsdx: 2, nsdy: 2 },
            ModelVariant::PEnkf { nsdx: 2, nsdy: 2 },
        ),
        (
            "senkf",
            CampaignExecutor::SEnkf(SENKF),
            ModelVariant::SEnkf(SENKF),
        ),
    ];
    for (name, exec, variant) in cases {
        for (mname, mode) in modes() {
            let plan = CampaignModelPlan {
                cycles: CYCLES,
                checkpoint: true,
                pipelined: mode == CkptMode::Pipelined,
                restart: campaign_cfg(CYCLES).restart,
            };
            let (_s, work, ckpt) = stores(&format!("camp-conf-{name}-{mname}"));
            let real = run_mode(
                &work,
                &ckpt,
                &exec,
                &campaign_cfg(CYCLES),
                &FaultConfig::none(),
                mode,
            );
            let (_out, model_trace) =
                model_campaign_adaptive(&model_cfg(), &variant, &plan, &FaultConfig::none(), None)
                    .unwrap();
            assert_eq!(
                real.trace.digest(),
                model_trace.digest(),
                "{name}/{mname}: real and modeled campaign digests must be byte-identical"
            );
        }
    }
}

/// The modeled no-checkpoint baseline: a late crash costs the whole
/// campaign, so checkpointing strictly reduces lost time.
#[test]
fn model_checkpointing_bounds_crash_loss() {
    let mut fault = FaultConfig::none();
    fault.plan = FaultPlan::new(1).with_crash_at_cycle(0, CYCLES - 1, 0);
    fault.recv_timeout = 0.3;
    let restart = campaign_cfg(CYCLES).restart;
    let variant = ModelVariant::PEnkf { nsdx: 2, nsdy: 2 };
    let with = CampaignModelPlan {
        cycles: CYCLES,
        checkpoint: true,
        pipelined: false,
        restart,
    };
    let without = CampaignModelPlan {
        checkpoint: false,
        ..with
    };
    let (out_with, _) =
        model_campaign_adaptive(&model_cfg(), &variant, &with, &fault, None).unwrap();
    let (out_without, _) =
        model_campaign_adaptive(&model_cfg(), &variant, &without, &fault, None).unwrap();
    assert_eq!(out_with.restarts, 1);
    assert_eq!(out_without.restarts, 1);
    assert!(
        out_without.lost_time > out_with.lost_time,
        "no recovery line must lose more virtual time ({} vs {})",
        out_without.lost_time,
        out_with.lost_time
    );
    // And a fault-free campaign without checkpoints is cheaper — the
    // checkpoint overhead itself is visible in the makespan.
    let none = FaultConfig::none();
    let (clean_with, _) =
        model_campaign_adaptive(&model_cfg(), &variant, &with, &none, None).unwrap();
    let (clean_without, _) =
        model_campaign_adaptive(&model_cfg(), &variant, &without, &none, None).unwrap();
    assert!(clean_without.makespan < clean_with.makespan);
    let expected = clean_without.makespan + (CYCLES + 1) as f64 * clean_with.checkpoint_time;
    assert!(
        (clean_with.makespan - expected).abs() < 1e-9,
        "checkpoint overhead must be exactly K+1 serial member sweeps ({} vs {expected})",
        clean_with.makespan
    );
}

/// The modeled pipelined campaign: overlap hides checkpoint time without
/// weakening the crash-loss bound.
///
/// * clean pipelined makespan < clean synchronous makespan (strictly —
///   the middle sweeps come off the critical path);
/// * hidden + exposed accounts for every checkpoint second ((K+1) sweeps);
/// * the trace-level interval accounting
///   ([`s_enkf::trace::Trace::ckpt_overlap`]) agrees that most checkpoint
///   time is hidden behind cycle work;
/// * under a crash, the pipelined campaign loses no more than the
///   synchronous one plus at most one sweep (the drained in-flight write).
#[test]
fn model_pipelined_overlap_cuts_exposed_checkpoint_time() {
    let restart = campaign_cfg(CYCLES).restart;
    let variant = ModelVariant::PEnkf { nsdx: 2, nsdy: 2 };
    let sync = CampaignModelPlan {
        cycles: CYCLES,
        checkpoint: true,
        pipelined: false,
        restart,
    };
    let pipe = CampaignModelPlan {
        pipelined: true,
        ..sync
    };
    let none = FaultConfig::none();
    let (s, _) = model_campaign_adaptive(&model_cfg(), &variant, &sync, &none, None).unwrap();
    let (p, p_trace) = model_campaign_adaptive(&model_cfg(), &variant, &pipe, &none, None).unwrap();

    assert!(
        p.makespan < s.makespan,
        "pipelining must shorten the clean campaign ({} vs {})",
        p.makespan,
        s.makespan
    );
    assert!(p.ckpt_hidden > 0.0, "some checkpoint time must be hidden");
    assert!(
        p.ckpt_exposed < s.ckpt_exposed,
        "exposed checkpoint time must shrink ({} vs {})",
        p.ckpt_exposed,
        s.ckpt_exposed
    );
    let sweeps = (CYCLES + 1) as f64 * p.checkpoint_time;
    assert!(
        (p.ckpt_hidden + p.ckpt_exposed - sweeps).abs() < 1e-9,
        "hidden + exposed must account for all (K+1) sweeps ({} vs {sweeps})",
        p.ckpt_hidden + p.ckpt_exposed
    );
    // The trace-level interval accounting agrees: the pipelined trace
    // carries all checkpoint seconds, and a positive fraction overlaps
    // cycle work, while the synchronous trace hides nothing.
    let overlap = p_trace.ckpt_overlap();
    assert!((overlap.total - sweeps).abs() < 1e-9);
    assert!(overlap.hidden > 0.0);
    let (_, s_trace) = model_campaign_adaptive(&model_cfg(), &variant, &sync, &none, None).unwrap();
    let s_overlap = s_trace.ckpt_overlap();
    assert!(
        s_overlap.hidden.abs() < 1e-9,
        "a synchronous campaign hides nothing ({})",
        s_overlap.hidden
    );

    // Crash-loss bound: a mid-campaign crash loses the same bounded slice
    // in both modes, modulo at most one drained in-flight sweep.
    let mut fault = FaultConfig::none();
    fault.plan = FaultPlan::new(1).with_crash_at_cycle(0, CYCLES - 1, 0);
    fault.recv_timeout = 0.3;
    let (sc, _) = model_campaign_adaptive(&model_cfg(), &variant, &sync, &fault, None).unwrap();
    let (pc, _) = model_campaign_adaptive(&model_cfg(), &variant, &pipe, &fault, None).unwrap();
    assert_eq!(pc.restarts, 1);
    assert!(
        pc.lost_time <= sc.lost_time + pc.checkpoint_time + 1e-9,
        "pipelining must preserve the crash-loss bound ({} vs {})",
        pc.lost_time,
        sc.lost_time
    );
}

/// The executors of the supervisor-agreement table: S-EnKF on one
/// concurrent group, so an ensemble of any size divides into it.
fn any_size_executors() -> Vec<(&'static str, CampaignExecutor)> {
    let mut execs = executors();
    execs[2].1 = CampaignExecutor::SEnkf(s_enkf::tuning::Params { ncg: 1, ..SENKF });
    execs
}

/// The model never completes a campaign the supervisor gives up on, and
/// never refuses one it finishes: both drivers follow the one supervisor.
/// A table of plans × the four executors × both commit modes.
#[test]
fn real_and_modeled_campaigns_follow_one_supervisor() {
    let crash = |cycle: usize| {
        let mut fault = FaultConfig::none();
        fault.plan = FaultPlan::new(7).with_crash_at_cycle(0, cycle, 0);
        fault.recv_timeout = 0.3;
        fault
    };
    // (name, plan, restart budget, expected recoveries; None = both give up).
    let table = [
        ("budget-0 crash", crash(1), 0, None),
        ("crash", crash(1), 3, Some(1)),
        (
            "lost member, degraded off",
            lost_members(&[1], false),
            3,
            Some(1),
        ),
        (
            "lost member, degraded on",
            lost_members(&[1], true),
            3,
            Some(0),
        ),
        (
            "two lost, degraded off",
            lost_members(&[0, 3], false),
            0,
            Some(1),
        ),
    ];
    for (name, exec) in any_size_executors() {
        for (mname, mode) in modes() {
            for (pname, fault, budget, recoveries) in &table {
                let tag = format!("{name}/{mname}/{pname}");
                let mut cfg = campaign_cfg(CYCLES);
                cfg.restart.max_retries = *budget;
                let plan = CampaignModelPlan {
                    cycles: CYCLES,
                    checkpoint: true,
                    pipelined: mode == CkptMode::Pipelined,
                    restart: cfg.restart,
                };
                let (_s, work, ckpt) = stores("camp-one-supervisor");
                let ctx = CampaignCtx {
                    backoff: BackoffClock::Virtual,
                    ckpt_mode: mode,
                    ..CampaignCtx::default()
                };
                let real = run_campaign_ctx(&work, &ckpt, &exec, &cfg, fault, &ctx);
                let model =
                    model_campaign_adaptive(&model_cfg(), &exec.variant(), &plan, fault, None);
                match (real, model, recoveries) {
                    (Ok(real), Ok((model, model_trace)), Some(n)) => {
                        assert_eq!(real.recoveries.len(), *n, "{tag}");
                        assert_eq!(model.restarts as usize, *n, "{tag}");
                        assert_eq!(real.cycle_digests, model.cycle_digests, "{tag}");
                        assert_eq!(real.trace.digest(), model_trace.digest(), "{tag}");
                    }
                    (Err(real), Err(model), None) => {
                        // Same cycle, same attempt — and the model's error is
                        // the supervisor's, rendered.
                        let s_enkf::parallel::CampaignError::RestartBudgetExhausted {
                            cycle,
                            attempts,
                            ..
                        } = real
                        else {
                            panic!("{tag}: the real campaign failed otherwise: {real}");
                        };
                        assert_eq!((cycle, attempts), (1, 1), "{tag}");
                        let gave_up = format!("cycle {cycle} failed {attempts} attempts");
                        assert!(model.starts_with(&gave_up), "{tag}: {model}");
                    }
                    (real, model, _) => panic!(
                        "{tag}: the sides disagree: real {:?}, model {:?}",
                        real.map(|r| r.cycle_digests),
                        model.map(|m| m.0.cycle_digests)
                    ),
                }
            }
        }
    }
}
