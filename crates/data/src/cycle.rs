//! Cycled twin experiments: forecast → observe → assimilate, repeated.
//!
//! Data assimilation earns its keep over *cycles*: each analysis becomes
//! the initial condition of the next forecast (the paper's opening
//! motivation — "providing initial conditions of numerical atmospheric and
//! oceanic models"). This harness runs a twin experiment where a truth
//! trajectory evolves under [`crate::AdvectionDiffusion`] dynamics, noisy
//! observations of the truth arrive every cycle, and a caller-supplied
//! analysis operator (serial EnKF, LETKF, or a full parallel variant)
//! produces the next background. A free-running (never-assimilating)
//! ensemble is tracked as the control.

use crate::dynamics::AdvectionDiffusion;
use crate::field::SmoothFieldGenerator;
use enkf_core::{Ensemble, ObservationOperator, Observations, PerturbedObservations};
use enkf_grid::{Mesh, ObservationNetwork};
use enkf_linalg::{GaussianSampler, Matrix};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::Arc;

/// An [`StdRng`] that counts its raw draws. The count is the experiment's
/// **RNG cursor**: persisting it in a checkpoint and replaying that many
/// draws after reseeding reconstructs the generator state bit-exactly, so a
/// resumed campaign continues the *same* random sequence an uninterrupted
/// run would have used (every derived draw — uniforms, Gaussians including
/// rejection loops — is a deterministic function of the `next_u64` stream).
#[derive(Debug, Clone)]
struct CountingRng {
    inner: StdRng,
    draws: u64,
}

impl CountingRng {
    fn seed_from_u64(seed: u64) -> Self {
        CountingRng {
            inner: StdRng::seed_from_u64(seed),
            draws: 0,
        }
    }
}

impl RngCore for CountingRng {
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }
}

/// Model steps between consecutive analyses.
const STEPS_PER_CYCLE: usize = 4;

/// Standard deviation of the stochastic model error added to each forecast
/// member per cycle.
const MODEL_ERROR_STD: f64 = 0.05;

/// Configuration of a cycled twin experiment.
#[derive(Debug, Clone, Copy)]
pub struct CycleConfig {
    /// Forecast model.
    pub dynamics: AdvectionDiffusion,
    /// Observation network stride.
    pub obs_stride: usize,
    /// Observation error standard deviation.
    pub obs_noise_std: f64,
}

impl Default for CycleConfig {
    fn default() -> Self {
        CycleConfig {
            dynamics: AdvectionDiffusion::gentle_drift(),
            obs_stride: 2,
            obs_noise_std: 0.1,
        }
    }
}

/// Per-cycle error statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleStats {
    /// 0-based cycle index.
    pub cycle: usize,
    /// RMSE of the forecast (background) mean before assimilation.
    pub forecast_rmse: f64,
    /// RMSE of the analysis mean after assimilation.
    pub analysis_rmse: f64,
    /// RMSE of the free-running control ensemble mean.
    pub free_run_rmse: f64,
}

/// The resumable state of a [`CycledExperiment`] at a cycle boundary —
/// everything [`CycledExperiment::restore`] needs to reconstruct the
/// experiment bit-exactly. Produced by [`CycledExperiment::snapshot`];
/// checkpoint layers persist it to disk.
///
/// The fields are `Arc`-backed shared views, not deep copies: the
/// experiment replaces its state wholesale each cycle (copy-on-write by
/// construction), so a snapshot is O(1) refcount bumps. This is what lets
/// an asynchronous checkpoint writer hold the cycle-k state while cycle
/// k+1 computes, without doubling memory or stalling the supervisor.
#[derive(Debug, Clone)]
pub struct CycleState {
    /// Completed cycles (the next cycle to run).
    pub cycle: usize,
    /// Raw draws consumed from the experiment's RNG since seeding.
    pub rng_cursor: u64,
    /// Truth trajectory state.
    pub truth: Arc<Vec<f64>>,
    /// Background ensemble (the previous cycle's analysis).
    pub background: Arc<Ensemble>,
    /// Free-running control ensemble.
    pub free_run: Arc<Ensemble>,
}

/// A running cycled experiment.
///
/// The state fields are `Arc`-wrapped and only ever *replaced* (never
/// mutated in place) by [`CycledExperiment::run_cycle`], so
/// [`CycledExperiment::snapshot`] is O(1) and outstanding snapshots stay
/// bit-stable while the experiment advances.
pub struct CycledExperiment {
    mesh: Mesh,
    config: CycleConfig,
    truth: Arc<Vec<f64>>,
    background: Arc<Ensemble>,
    free_run: Arc<Ensemble>,
    rng: CountingRng,
    cycle: usize,
    seed: u64,
}

impl CycledExperiment {
    /// Initialize from a seed: truth and initial ensembles are smooth
    /// random fields; the ensemble starts biased off the truth.
    pub fn new(mesh: Mesh, members: usize, config: CycleConfig, seed: u64) -> Self {
        let mut rng = CountingRng::seed_from_u64(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0xDA3E);
        let mut gs = GaussianSampler::new();
        let gen = SmoothFieldGenerator {
            max_wavenumber: 2,
            ..Default::default()
        };
        let truth = gen.generate(mesh, &mut rng);
        let members_vec: Vec<Vec<f64>> = (0..members)
            .map(|_| {
                let err = gen.generate(mesh, &mut rng);
                truth
                    .iter()
                    .zip(&err)
                    .map(|(&t, &e)| t + 0.4 + e + 0.1 * gs.sample(&mut rng))
                    .collect()
            })
            .collect();
        let states = Matrix::from_fn(mesh.n(), members, |i, k| members_vec[k][i]);
        let background = Arc::new(Ensemble::new(mesh, states));
        let free_run = background.clone();
        CycledExperiment {
            mesh,
            config,
            truth: Arc::new(truth),
            background,
            free_run,
            rng,
            cycle: 0,
            seed,
        }
    }

    /// Reconstruct an experiment from a [`CycleState`] snapshot.
    ///
    /// `members` must be the member count the experiment was *originally*
    /// constructed with (the state's ensembles may be smaller after a
    /// degraded cycle): initialization replays the same draws, and the RNG
    /// is then fast-forwarded to the snapshot's cursor. The reconstruction
    /// is bit-exact — continuing from a restored experiment produces the
    /// same fields, observations and statistics an uninterrupted run would.
    pub fn restore(
        mesh: Mesh,
        members: usize,
        config: CycleConfig,
        seed: u64,
        state: CycleState,
    ) -> Self {
        let mut exp = Self::new(mesh, members, config, seed);
        assert!(
            exp.rng.draws <= state.rng_cursor,
            "snapshot cursor {} precedes initialization ({} draws)",
            state.rng_cursor,
            exp.rng.draws
        );
        while exp.rng.draws < state.rng_cursor {
            exp.rng.next_u64();
        }
        exp.truth = state.truth;
        exp.background = state.background;
        exp.free_run = state.free_run;
        exp.cycle = state.cycle;
        exp
    }

    /// Snapshot the resumable state at the current cycle boundary. Call
    /// between cycles (not mid-`run_cycle`). O(1): the state is shared,
    /// not copied — `run_cycle` replaces (never mutates) the underlying
    /// fields, so the snapshot stays bit-stable as the experiment runs on.
    pub fn snapshot(&self) -> CycleState {
        CycleState {
            cycle: self.cycle,
            rng_cursor: self.rng.draws,
            truth: Arc::clone(&self.truth),
            background: Arc::clone(&self.background),
            free_run: Arc::clone(&self.free_run),
        }
    }

    /// The current background ensemble.
    pub fn background(&self) -> &Ensemble {
        &self.background
    }

    /// Observations of the *current* truth (call once per cycle).
    pub(crate) fn observe(&mut self) -> Observations {
        let net = ObservationNetwork::uniform(self.mesh, self.config.obs_stride);
        let op = ObservationOperator::new(net);
        let mut gs = GaussianSampler::new();
        let values: Vec<f64> = op
            .apply(&self.truth)
            .into_iter()
            .map(|v| v + self.config.obs_noise_std * gs.sample(&mut self.rng))
            .collect();
        let m = op.len();
        let var = self.config.obs_noise_std * self.config.obs_noise_std;
        Observations::new(
            op,
            values,
            vec![var; m],
            PerturbedObservations::new(
                self.seed ^ (self.cycle as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                self.background.size(),
            ),
        )
    }

    /// Run one full cycle: forecast truth + ensembles, observe, assimilate
    /// with the supplied analysis operator, and return the cycle's errors.
    pub fn run_cycle<E>(
        &mut self,
        analyze: impl FnOnce(&Ensemble, &Observations) -> Result<Ensemble, E>,
    ) -> Result<CycleStats, E> {
        let c = &self.config;
        // Forecast phase: truth evolves deterministically; ensembles get
        // stochastic model error. Every state field is *replaced*, never
        // mutated — outstanding snapshots keep the pre-cycle values.
        self.truth = Arc::new(
            c.dynamics
                .integrate(self.mesh, &self.truth, STEPS_PER_CYCLE),
        );
        self.background = Arc::new(c.dynamics.forecast_ensemble(
            &self.background,
            STEPS_PER_CYCLE,
            MODEL_ERROR_STD,
            &mut self.rng,
        ));
        self.free_run = Arc::new(c.dynamics.forecast_ensemble(
            &self.free_run,
            STEPS_PER_CYCLE,
            MODEL_ERROR_STD,
            &mut self.rng,
        ));
        // Observation + analysis phase.
        let observations = self.observe();
        let forecast_rmse = self.background.rmse_against(&self.truth);
        let analysis = analyze(&self.background, &observations)?;
        let stats = CycleStats {
            cycle: self.cycle,
            forecast_rmse,
            analysis_rmse: analysis.rmse_against(&self.truth),
            free_run_rmse: self.free_run.rmse_against(&self.truth),
        };
        self.background = Arc::new(analysis);
        self.cycle += 1;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enkf_core::{inflated, serial_enkf};
    use enkf_grid::LocalizationRadius;

    #[test]
    fn cycled_assimilation_beats_the_free_run() {
        let mesh = Mesh::new(20, 10);
        let mut exp = CycledExperiment::new(mesh, 16, CycleConfig::default(), 3);
        let radius = LocalizationRadius { xi: 2, eta: 2 };
        let mut last = None;
        for _ in 0..5 {
            // Standard practice in cycled EnKF: inflate the background to
            // counter spread collapse, then assimilate.
            let stats = exp
                .run_cycle(|bg, obs| serial_enkf(&inflated(bg, 1.15), obs, radius))
                .expect("analysis succeeds");
            assert!(
                stats.analysis_rmse <= stats.forecast_rmse * 1.25,
                "cycle {}: analysis {} vs forecast {}",
                stats.cycle,
                stats.analysis_rmse,
                stats.forecast_rmse
            );
            last = Some(stats);
        }
        let last = last.unwrap();
        assert!(
            last.analysis_rmse < last.free_run_rmse,
            "assimilating run ({}) must beat the free run ({})",
            last.analysis_rmse,
            last.free_run_rmse
        );
    }

    #[test]
    fn analysis_feeds_the_next_forecast() {
        let mesh = Mesh::new(12, 8);
        let mut exp = CycledExperiment::new(mesh, 8, CycleConfig::default(), 5);
        let radius = LocalizationRadius { xi: 1, eta: 1 };
        let s0 = exp
            .run_cycle(|bg, obs| serial_enkf(bg, obs, radius))
            .unwrap();
        let s1 = exp
            .run_cycle(|bg, obs| serial_enkf(bg, obs, radius))
            .unwrap();
        assert_eq!(s0.cycle, 0);
        assert_eq!(s1.cycle, 1);
        // The second forecast starts from the first analysis, so its error
        // should not balloon back to the free-run level.
        assert!(s1.forecast_rmse < s1.free_run_rmse * 1.2);
    }

    #[test]
    fn snapshot_restore_replays_bit_exactly() {
        let mesh = Mesh::new(14, 8);
        let radius = LocalizationRadius { xi: 1, eta: 1 };
        let analyze = |bg: &Ensemble, obs: &Observations| serial_enkf(bg, obs, radius);
        // Uninterrupted: 4 cycles straight through.
        let mut full = CycledExperiment::new(mesh, 6, CycleConfig::default(), 11);
        let mut full_stats = Vec::new();
        for _ in 0..4 {
            full_stats.push(full.run_cycle(analyze).unwrap());
        }
        // Interrupted: 2 cycles, snapshot, restore, 2 more.
        let mut a = CycledExperiment::new(mesh, 6, CycleConfig::default(), 11);
        let mut parts = Vec::new();
        parts.push(a.run_cycle(analyze).unwrap());
        parts.push(a.run_cycle(analyze).unwrap());
        let state = a.snapshot();
        assert_eq!(state.cycle, 2);
        drop(a);
        let mut b = CycledExperiment::restore(mesh, 6, CycleConfig::default(), 11, state);
        parts.push(b.run_cycle(analyze).unwrap());
        parts.push(b.run_cycle(analyze).unwrap());
        assert_eq!(parts, full_stats, "stats are bit-identical after restore");
        assert_eq!(
            b.background().states(),
            full.background().states(),
            "final ensembles are bit-identical"
        );
        assert_eq!(b.truth, full.truth);
        assert_eq!(b.rng.draws, full.rng.draws);
    }

    #[test]
    fn snapshot_is_o1_and_stable_while_the_experiment_advances() {
        let mesh = Mesh::new(10, 6);
        let radius = LocalizationRadius { xi: 1, eta: 1 };
        let mut exp = CycledExperiment::new(mesh, 4, CycleConfig::default(), 21);
        exp.run_cycle(|bg, obs| serial_enkf(bg, obs, radius))
            .unwrap();
        let snap = exp.snapshot();
        // O(1): the snapshot shares the experiment's backing allocations
        // instead of deep-copying the ensembles.
        assert!(std::ptr::eq(exp.truth.as_slice(), snap.truth.as_slice()));
        assert!(std::ptr::eq(exp.background(), snap.background.as_ref()));
        assert!(std::ptr::eq(exp.free_run.as_ref(), snap.free_run.as_ref()));
        // Copy-on-write: advancing the experiment replaces its state and
        // leaves the outstanding snapshot bit-identical — the property an
        // asynchronous checkpoint writer depends on.
        let truth_before = snap.truth.to_vec();
        let bg_before = snap.background.states().clone();
        exp.run_cycle(|bg, obs| serial_enkf(bg, obs, radius))
            .unwrap();
        assert_eq!(*snap.truth, truth_before);
        assert_eq!(snap.background.states(), &bg_before);
        assert!(!std::ptr::eq(exp.background(), snap.background.as_ref()));
    }

    #[test]
    fn observe_is_deterministic_per_cycle() {
        let mesh = Mesh::new(10, 6);
        let mk = || {
            let mut e = CycledExperiment::new(mesh, 6, CycleConfig::default(), 9);
            let _ = e
                .run_cycle(|bg, _| Ok::<_, std::convert::Infallible>(bg.clone()))
                .unwrap();
            e.observe().values().to_vec()
        };
        assert_eq!(mk(), mk());
    }
}
