//! The four workloads: what each one's inputs are, how they are generated
//! from the seed, how one operation of each executor is run and timed from
//! outside, and what makes an operation count as failed.
//!
//! The system under test only ever sees generated inputs (a scenario, member
//! files, a campaign configuration, a model configuration) — never the seed's
//! meaning and never the workload's name.

use enkf_ckpt::CheckpointStore;
use enkf_core::{serial_denkf, serial_enkf, BatchedKernel, Ensemble, LocalAnalysis};
use enkf_data::{write_ensemble, CycleConfig, Scenario, ScenarioBuilder};
use enkf_fault::{FaultConfig, RetryPolicy};
use enkf_grid::{FileLayout, LocalizationRadius, Mesh};
use enkf_parallel::{
    model_campaign, model_denkf, model_denkf_traced, model_lenkf, model_lenkf_traced, model_penkf,
    model_penkf_traced, model_senkf, model_senkf_traced, run_campaign_ctx, AssimilationSetup,
    CampaignConfig, CampaignCtx, CampaignExecutor, CampaignModelPlan, CampaignReport, CkptMode,
    DEnkf, LEnkf, ModelConfig, ModelOutcome, ModelVariant, PEnkf, SEnkf,
};
use enkf_pfs::FileStore;
use enkf_trace::Trace;
use enkf_tuning::{autotune, Params};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Analyses must match their serial reference to this absolute tolerance.
const REFERENCE_TOL: f64 = 1e-12;

/// One of the four executors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    Senkf,
    Penkf,
    Lenkf,
    Denkf,
}

impl Exec {
    /// The order a round runs them in.
    pub const ALL: [Exec; 4] = [Exec::Senkf, Exec::Penkf, Exec::Lenkf, Exec::Denkf];

    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        crate::metrics::EXECS[self.index()]
    }
}

/// How many ranks each executor gets, on the real path (always 2 compute
/// ranks: the build box has 2 cores) or in the model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ranks {
    pub senkf: Params,
    /// `(nsdx, nsdy)` of P-EnKF and L-EnKF.
    pub grid: (usize, usize),
    pub shards: usize,
}

impl Ranks {
    pub const TWO: Ranks = Ranks {
        senkf: Params {
            nsdx: 2,
            nsdy: 1,
            layers: 2,
            ncg: 1,
        },
        grid: (2, 1),
        shards: 2,
    };

    fn campaign_executor(&self, exec: Exec) -> CampaignExecutor {
        let (nsdx, nsdy) = self.grid;
        match exec {
            Exec::Senkf => CampaignExecutor::SEnkf(self.senkf),
            Exec::Penkf => CampaignExecutor::PEnkf { nsdx, nsdy },
            Exec::Lenkf => CampaignExecutor::LEnkf { nsdx, nsdy },
            Exec::Denkf => CampaignExecutor::DEnkf {
                shards: self.shards,
                kernel: BatchedKernel::Cholesky,
            },
        }
    }

    pub fn model_variant(&self, exec: Exec) -> ModelVariant {
        let (nsdx, nsdy) = self.grid;
        match exec {
            Exec::Senkf => ModelVariant::SEnkf(self.senkf),
            Exec::Penkf => ModelVariant::PEnkf { nsdx, nsdy },
            Exec::Lenkf => ModelVariant::LEnkf { nsdx, nsdy },
            Exec::Denkf => ModelVariant::DEnkf {
                shards: self.shards,
            },
        }
    }
}

/// Geometry of a real (on-disk) assimilation problem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometry {
    pub nx: usize,
    pub ny: usize,
    pub members: usize,
    pub obs_stride: usize,
    pub xi: usize,
    pub eta: usize,
    /// Bytes per grid point in a member file (8 per vertical level).
    pub h: u64,
}

impl Geometry {
    pub fn mesh(&self) -> Mesh {
        Mesh::new(self.nx, self.ny)
    }

    pub fn radius(&self) -> LocalizationRadius {
        LocalizationRadius {
            xi: self.xi,
            eta: self.eta,
        }
    }

    pub fn layout(&self) -> FileLayout {
        FileLayout::new(self.mesh(), self.h)
    }

    /// The same geometry as the cost model and the DES describe it.
    pub fn tuning_workload(&self) -> enkf_tuning::Workload {
        enkf_tuning::Workload {
            nx: self.nx,
            ny: self.ny,
            members: self.members,
            h: self.h,
            xi: self.xi,
            eta: self.eta,
        }
    }

    /// `ModelConfig::paper()` machine constants around this geometry.
    pub fn model_cfg(&self) -> ModelConfig {
        ModelConfig {
            workload: self.tuning_workload(),
            obs_stride: self.obs_stride,
            ..ModelConfig::paper()
        }
    }
}

/// What a round of the workload consists of.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// One assimilation cycle per executor on member files on disk.
    Cycle,
    /// One supervised campaign of `cycles` cycles per executor, with
    /// synchronous durable checkpoints, on fresh stores.
    Campaign { cycles: usize },
    /// One discrete-event model call per executor; no real substrate runs.
    Des {
        /// The modelled problem.
        modelled: enkf_tuning::Workload,
        /// Total modelled ranks the S-EnKF parameters are tuned for.
        ranks: usize,
        /// S-EnKF parameters; `None` asks the auto-tuner.
        senkf: Option<Params>,
        grid: (usize, usize),
        shards: usize,
        /// Ranks of the job the scheduler layer prices. Admission re-runs
        /// the campaign model dozens of times per mix, so it gets a
        /// smaller job than the end-to-end rounds model.
        sched_ranks: usize,
    },
}

/// A workload as the benchmark defines it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Geometry of the real inputs. For `Kind::Des` these feed only the
    /// layer pass (the end-to-end rounds touch no file).
    pub geometry: Geometry,
    /// Rounds run and discarded before timing starts.
    pub warmup_rounds: usize,
    /// Timed rounds never fall below this, whatever `--seconds` says.
    pub min_rounds: usize,
}

pub const NAMES: [&str; 4] = [
    "compute_bound",
    "io_bound",
    "campaign_ckpt",
    "des_paper_scale",
];

/// The definition of workload `name`; `smoke` shrinks every geometry so the
/// whole suite finishes in seconds (same code paths, meaningless timings).
pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    let g = |nx, ny, members, obs_stride, r: usize, h| Geometry {
        nx,
        ny,
        members,
        obs_stride,
        xi: r,
        eta: r,
        h,
    };
    let (kind, geometry, warmup_rounds) = match (name, smoke) {
        ("compute_bound", false) => (Kind::Cycle, g(48, 24, 32, 2, 3, 8), 3),
        ("compute_bound", true) => (Kind::Cycle, g(16, 8, 8, 2, 2, 8), 1),
        ("io_bound", false) => (Kind::Cycle, g(256, 128, 16, 16, 1, 240), 4),
        ("io_bound", true) => (Kind::Cycle, g(32, 16, 4, 4, 1, 240), 1),
        ("campaign_ckpt", false) => (Kind::Campaign { cycles: 3 }, g(96, 48, 16, 4, 1, 240), 2),
        ("campaign_ckpt", true) => (Kind::Campaign { cycles: 2 }, g(24, 12, 4, 4, 1, 240), 1),
        ("des_paper_scale", false) => (
            Kind::Des {
                modelled: enkf_tuning::Workload::paper_ocean(),
                ranks: 1200,
                senkf: None,
                grid: (30, 40),
                shards: 120,
                sched_ranks: 400,
            },
            g(120, 60, 8, 3, 2, 240),
            2,
        ),
        ("des_paper_scale", true) => (
            Kind::Des {
                modelled: enkf_tuning::Workload {
                    nx: 240,
                    ny: 120,
                    members: 8,
                    h: 80,
                    xi: 2,
                    eta: 2,
                },
                ranks: 32,
                senkf: Some(Params {
                    nsdx: 6,
                    nsdy: 4,
                    layers: 2,
                    ncg: 2,
                }),
                grid: (6, 4),
                shards: 24,
                sched_ranks: 32,
            },
            g(24, 12, 4, 3, 2, 240),
            1,
        ),
        _ => return None,
    };
    Some(Spec {
        name: NAMES.iter().find(|n| **n == name)?,
        kind,
        geometry,
        warmup_rounds,
        min_rounds: if smoke { 2 } else { 5 },
    })
}

/// The real inputs of a workload: a seeded twin-experiment scenario, its
/// ensemble written as member files, and the serial analyses every parallel
/// result is checked against.
pub struct Real {
    pub geometry: Geometry,
    pub scenario: Scenario,
    pub store: FileStore,
    pub reference_enkf: Ensemble,
    pub reference_denkf: Ensemble,
    pub rmse_background: f64,
}

impl Real {
    fn build(geometry: Geometry, seed: u64, dir: &Path) -> Result<Real, String> {
        let scenario = ScenarioBuilder::new(geometry.mesh())
            .members(geometry.members)
            .observation_stride(geometry.obs_stride)
            .seed(seed)
            .build();
        let store = FileStore::open(dir.join("members"), geometry.layout())
            .map_err(|e| format!("open member store: {e}"))?;
        write_ensemble(&store, &scenario.ensemble).map_err(|e| format!("write members: {e}"))?;
        let reference_enkf = serial_enkf(
            &scenario.ensemble,
            &scenario.observations,
            geometry.radius(),
        )
        .map_err(|e| format!("serial_enkf reference: {e}"))?;
        let reference_denkf = serial_denkf(
            &scenario.ensemble,
            &scenario.observations,
            BatchedKernel::Cholesky,
        )
        .map_err(|e| format!("serial_denkf reference: {e}"))?;
        Ok(Real {
            geometry,
            rmse_background: scenario.rmse_background(),
            scenario,
            store,
            reference_enkf,
            reference_denkf,
        })
    }

    pub fn setup(&self) -> AssimilationSetup<'_> {
        AssimilationSetup {
            store: &self.store,
            members: self.geometry.members,
            observations: &self.scenario.observations,
            analysis: LocalAnalysis::new(self.geometry.radius()),
        }
    }

    /// Why `analysis` is not an acceptable result of `exec`, if it is not.
    pub fn check(&self, exec: Exec, analysis: &Ensemble) -> Option<String> {
        let reference = match exec {
            Exec::Denkf => &self.reference_denkf,
            _ => &self.reference_enkf,
        };
        if !analysis
            .states()
            .approx_eq(reference.states(), REFERENCE_TOL)
        {
            return Some(format!(
                "{} analysis differs from its serial reference by more than {REFERENCE_TOL}",
                exec.name()
            ));
        }
        // The batched D-EnKF applies no localization, so with a small
        // ensemble it is not guaranteed to beat the background; the
        // localized executors are.
        let rmse = self.scenario.rmse_of(analysis);
        if exec != Exec::Denkf && (rmse.is_nan() || rmse >= self.rmse_background) {
            return Some(format!(
                "{} analysis RMSE {rmse} does not beat the background's {}",
                exec.name(),
                self.rmse_background
            ));
        }
        None
    }

    /// One cycle of `exec` at two ranks; the analysis is not yet checked.
    pub fn run(&self, exec: Exec, traced: bool) -> Result<(Ensemble, Option<Trace>), String> {
        let setup = self.setup();
        macro_rules! arm {
            ($executor:expr) => {
                if traced {
                    $executor
                        .run_traced(&setup)
                        .map(|(a, _, t)| (a, Some(t)))
                        .map_err(|e| e.to_string())
                } else {
                    $executor
                        .run(&setup)
                        .map(|(a, _)| (a, None))
                        .map_err(|e| e.to_string())
                }
            };
        }
        let r = Ranks::TWO;
        let (nsdx, nsdy) = r.grid;
        match exec {
            Exec::Senkf => arm!(SEnkf::new(r.senkf)),
            Exec::Penkf => arm!(PEnkf { nsdx, nsdy }),
            Exec::Lenkf => arm!(LEnkf { nsdx, nsdy }),
            Exec::Denkf => arm!(DEnkf {
                shards: r.shards,
                kernel: BatchedKernel::Cholesky,
            }),
        }
    }
}

/// The modelled side of a workload: a DES configuration and the rank
/// layout each executor is modelled at.
#[derive(Debug, Clone, Copy)]
pub struct ModelPlan {
    pub cfg: ModelConfig,
    pub ranks: Ranks,
}

impl ModelPlan {
    pub fn run(&self, exec: Exec, traced: bool) -> Result<(ModelOutcome, Option<Trace>), String> {
        let (cfg, r) = (&self.cfg, &self.ranks);
        let (nsdx, nsdy) = r.grid;
        if traced {
            match exec {
                Exec::Senkf => model_senkf_traced(cfg, r.senkf),
                Exec::Penkf => model_penkf_traced(cfg, nsdx, nsdy),
                Exec::Lenkf => model_lenkf_traced(cfg, nsdx, nsdy),
                Exec::Denkf => model_denkf_traced(cfg, r.shards),
            }
            .map(|(out, trace)| (out, Some(trace)))
        } else {
            match exec {
                Exec::Senkf => model_senkf(cfg, r.senkf),
                Exec::Penkf => model_penkf(cfg, nsdx, nsdy),
                Exec::Lenkf => model_lenkf(cfg, nsdx, nsdy),
                Exec::Denkf => model_denkf(cfg, r.shards),
            }
            .map(|out| (out, None))
        }
    }
}

/// Result of one operation (one executor cycle, one campaign, one model
/// call), timed from outside.
pub struct Outcome {
    /// Host wall-clock seconds per assimilation cycle.
    pub cycle_s: f64,
    /// The execution trace, when the operation was asked for one; it
    /// covers [`Workload::cycles_per_op`] cycles.
    pub trace: Option<Trace>,
    /// Why the operation counts as failed, if it does.
    pub failure: Option<String>,
}

/// A workload with its inputs generated and on disk.
pub struct Workload {
    pub spec: Spec,
    pub seed: u64,
    dir: PathBuf,
    /// Present for `Kind::Cycle`, and for every kind in the layer pass.
    pub real: Option<Real>,
    pub model: ModelPlan,
    /// The S-EnKF job `enkf-sched` is asked to price (only `ranks.senkf`
    /// differs from `model`, and only for `Kind::Des`).
    pub sched_model: ModelPlan,
    /// Cross-round identity: each executor's first campaign digests or
    /// first DES makespan, which every later round must reproduce.
    first_digests: [Option<Vec<u64>>; 4],
    makespans: [Option<f64>; 4],
}

impl Workload {
    /// Generate the inputs of `spec` from `seed` under `scratch`.
    /// `with_real` forces the on-disk inputs even when the end-to-end
    /// rounds would not need them.
    pub fn prepare(
        spec: Spec,
        seed: u64,
        scratch: &Path,
        with_real: bool,
    ) -> Result<Workload, String> {
        // One workload is alive per process at a time (repeated set-ups drop
        // the previous one first), so the process id makes the name unique.
        let dir = scratch.join(format!("{}-{}", spec.name, std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let (model, sched_model) = match spec.kind {
            Kind::Des {
                modelled,
                ranks,
                senkf,
                grid,
                shards,
                sched_ranks,
            } => {
                let cfg = ModelConfig {
                    workload: modelled,
                    ..ModelConfig::paper()
                };
                let tuned = |np: usize| match senkf {
                    Some(p) => Ok(p),
                    None => autotune(&cfg.cost_params(), np, 1e-3)
                        .map(|t| t.params)
                        .ok_or_else(|| format!("autotune found nothing at {np} ranks")),
                };
                let plan = |senkf| ModelPlan {
                    cfg,
                    ranks: Ranks {
                        senkf,
                        grid,
                        shards,
                    },
                };
                (plan(tuned(ranks)?), plan(tuned(sched_ranks)?))
            }
            Kind::Cycle | Kind::Campaign { .. } => {
                let plan = ModelPlan {
                    cfg: spec.geometry.model_cfg(),
                    ranks: Ranks::TWO,
                };
                (plan, plan)
            }
        };
        let real = if with_real || spec.kind == Kind::Cycle {
            Some(Real::build(spec.geometry, seed, &dir)?)
        } else {
            None
        };
        Ok(Workload {
            spec,
            seed,
            dir,
            real,
            model,
            sched_model,
            first_digests: Default::default(),
            makespans: [None; 4],
        })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn real(&self) -> &Real {
        self.real
            .as_ref()
            .expect("this pass prepared the workload with its real inputs")
    }

    /// Assimilation cycles one operation covers.
    pub fn cycles_per_op(&self) -> usize {
        match self.spec.kind {
            Kind::Campaign { cycles } => cycles,
            Kind::Cycle | Kind::Des { .. } => 1,
        }
    }

    pub fn campaign_config(&self, cycles: usize) -> CampaignConfig {
        let g = self.spec.geometry;
        CampaignConfig {
            mesh: g.mesh(),
            cycles,
            members: g.members,
            cycle: CycleConfig {
                obs_stride: g.obs_stride,
                ..CycleConfig::default()
            },
            seed: self.seed,
            analysis: LocalAnalysis::new(g.radius()),
            inflation: 1.05,
            restart: RetryPolicy::none(),
        }
    }

    /// The modelled campaign matching [`Workload::campaign_config`].
    pub fn model_campaign_s(&self, cycles: usize, pipelined: bool) -> Result<f64, String> {
        let plan = CampaignModelPlan {
            cycles,
            checkpoint: true,
            pipelined,
            restart: RetryPolicy::none(),
        };
        model_campaign(
            &self.model.cfg,
            &self.model.ranks.model_variant(Exec::Senkf),
            &plan,
            &FaultConfig::none(),
        )
        .map(|(out, _)| out.makespan)
    }

    /// One fault-free campaign of `exec` on fresh work and checkpoint
    /// stores. Only the `run_campaign_ctx` call is timed; creating and
    /// removing the stores is not.
    pub fn run_campaign(
        &self,
        exec: Exec,
        cycles: usize,
        mode: CkptMode,
    ) -> Result<(CampaignReport, f64), String> {
        let dir = self.dir.join(format!("campaign-{}", exec.name()));
        let io = |what: &str, e: std::io::Error| format!("{what} {}: {e}", dir.display());
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| io("clear", e))?;
        }
        let work = FileStore::open(dir.join("work"), self.spec.geometry.layout())
            .map_err(|e| io("open work store in", e))?;
        let ckpt =
            CheckpointStore::create(dir.join("ckpt")).map_err(|e| io("create ckpt store in", e))?;
        let ctx = CampaignCtx {
            ckpt_mode: mode,
            ..CampaignCtx::default()
        };
        let t = Instant::now();
        let result = run_campaign_ctx(
            &work,
            &ckpt,
            &Ranks::TWO.campaign_executor(exec),
            &self.campaign_config(cycles),
            &FaultConfig::none(),
            &ctx,
        );
        let seconds = t.elapsed().as_secs_f64();
        std::fs::remove_dir_all(&dir).map_err(|e| io("remove", e))?;
        result.map(|r| (r, seconds)).map_err(|e| e.to_string())
    }

    /// Run one operation of `exec`, time it from outside, then check it.
    pub fn run_op(&mut self, exec: Exec, traced: bool) -> Outcome {
        let failed = |cycle_s, failure: String| Outcome {
            cycle_s,
            trace: None,
            failure: Some(failure),
        };
        match self.spec.kind {
            Kind::Cycle => {
                let real = self.real();
                let t = Instant::now();
                let result = real.run(exec, traced);
                let cycle_s = t.elapsed().as_secs_f64();
                match result {
                    Ok((analysis, trace)) => Outcome {
                        cycle_s,
                        trace,
                        failure: real.check(exec, &analysis),
                    },
                    Err(e) => failed(cycle_s, e),
                }
            }
            Kind::Campaign { cycles } => match self.run_campaign(exec, cycles, CkptMode::Sync) {
                Ok((report, seconds)) => {
                    let failure = self.check_campaign(exec, &report);
                    Outcome {
                        cycle_s: seconds / cycles as f64,
                        trace: Some(report.trace),
                        failure,
                    }
                }
                Err(e) => failed(0.0, e),
            },
            Kind::Des { .. } => {
                let t = Instant::now();
                let result = self.model.run(exec, traced);
                let cycle_s = t.elapsed().as_secs_f64();
                match result {
                    Ok((out, trace)) => Outcome {
                        cycle_s,
                        trace,
                        failure: self.check_model(exec, &out),
                    },
                    Err(e) => failed(cycle_s, e),
                }
            }
        }
    }

    /// A fault-free campaign recovers from nothing, repeats its per-cycle
    /// digests exactly from round to round, and ends closer to the truth
    /// than the free-running control ensemble.
    fn check_campaign(&mut self, exec: Exec, report: &CampaignReport) -> Option<String> {
        if !report.recoveries.is_empty() {
            return Some(format!(
                "{} campaign performed {} recoveries on a fault-free plan",
                exec.name(),
                report.recoveries.len()
            ));
        }
        let first =
            self.first_digests[exec.index()].get_or_insert_with(|| report.cycle_digests.clone());
        if *first != report.cycle_digests {
            return Some(format!(
                "{} campaign cycle digests changed between rounds",
                exec.name()
            ));
        }
        let last = report.stats.last()?;
        if last.analysis_rmse.is_nan() || last.analysis_rmse >= last.free_run_rmse {
            return Some(format!(
                "{} campaign final RMSE {} does not beat the free run's {}",
                exec.name(),
                last.analysis_rmse,
                last.free_run_rmse
            ));
        }
        None
    }

    /// A DES makespan is bit-identical from round to round, and the modelled
    /// ordering the paper reports (S < P < L) holds.
    fn check_model(&mut self, exec: Exec, out: &ModelOutcome) -> Option<String> {
        let slot = &mut self.makespans[exec.index()];
        if let Some(first) = *slot {
            if first.to_bits() != out.makespan.to_bits() {
                return Some(format!(
                    "{} modelled makespan moved from {first} to {} between rounds",
                    exec.name(),
                    out.makespan
                ));
            }
        }
        *slot = Some(out.makespan);
        if exec == Exec::Lenkf {
            let [s, p, l, _] = self.makespans;
            if let (Some(s), Some(p), Some(l)) = (s, p, l) {
                if !(s < p && p < l) {
                    return Some(format!(
                        "modelled makespans are not ordered S < P < L: {s}, {p}, {l}"
                    ));
                }
            }
        }
        None
    }

    /// The S-EnKF makespan the DES predicts for one cycle of this workload
    /// under the paper's machine constants (campaign makespan per cycle for
    /// the campaign workload). Deterministic.
    pub fn senkf_virtual_s(&self) -> Result<f64, String> {
        match self.spec.kind {
            Kind::Campaign { cycles } => Ok(self.model_campaign_s(cycles, false)? / cycles as f64),
            Kind::Cycle | Kind::Des { .. } => self
                .model
                .run(Exec::Senkf, false)
                .map(|(out, _)| out.makespan),
        }
    }
}

impl Drop for Workload {
    fn drop(&mut self) {
        // Best effort: a leaked scratch directory is not worth a panic.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
