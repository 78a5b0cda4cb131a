//! The failure detector: EWMA baselines + phi-accrual-style suspicion.

use crate::route::RouteView;
use std::collections::BTreeMap;
use std::f64::consts::LN_10;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The monitor's parameters: none. The files it watches lie where
/// [`enkf_fault::ost_of`] puts them, and the detector's own tuning is not
/// configurable either — see the constants beside the private `Detector`.
/// The type stays as the value a campaign's health switch holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthParams {}

/// Where a monitored target currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TargetStatus {
    /// In rotation.
    Healthy,
    /// Out of rotation for `remaining` more cycles.
    Blacklisted {
        /// Cycles left before probation.
        remaining: u32,
    },
    /// Back in rotation on probe duty: one healthy cycle reintegrates, one
    /// anomalous cycle re-blacklists.
    Probation,
}

// Detector tuning. The values are chosen together so that a ≥ 2× dilation
// blacklists after one cycle of evidence and a mild ~1.5× dilation needs
// two consecutive anomalous cycles (suspicion *accrues*, phi-accrual style),
// while healthy jitter below `SUSPECT_RATIO` never trips. Nothing in the
// workspace ever ran with other values, so they are not options.

/// EWMA weight of the newest cycle mean in the baseline: heavy enough to
/// follow a drifting substrate within a few cycles, light enough that one
/// healthy outlier does not move `μ` past the suspect ratio.
const EWMA_ALPHA: f64 = 0.3;
/// Cycle mean / baseline ratio above which a cycle is anomalous and accrues
/// suspicion — above the retry and jitter noise of a healthy substrate,
/// below the mildest slowdown worth routing around.
const SUSPECT_RATIO: f64 = 1.4;
/// Floor of the deviation estimate, keeping φ finite on a quiet baseline
/// (the substrate's injected ratios have zero variance when healthy).
const DEV_FLOOR: f64 = 0.25;
/// Accrued suspicion (φ units) at which a target is blacklisted: one order
/// of magnitude of surprise.
const SUSPICION_THRESHOLD: f64 = 1.0;
/// Cycles a blacklisted OST sits out before a probation probe: the shortest
/// term, so a recovered OST costs one cycle of capacity, not several.
const PROBATION_CYCLES: u32 = 1;

/// Per-target detector state. All arithmetic is plain f64 on
/// plan-determined ratios folded in sorted key order, so two detectors fed
/// the same observation multiset are bit-identical — the property the
/// chaos-soak conformance suite pins.
#[derive(Debug, Clone)]
struct Detector {
    /// EWMA baseline of the cycle-mean dilation ratio.
    mu: f64,
    /// EWMA of the absolute deviation from the baseline.
    dev: f64,
    /// Accrued suspicion, φ units.
    susp: f64,
    status: TargetStatus,
    /// Whether suspicion ever crossed the threshold without a clearing
    /// cycle since (drives [`HealthSnapshot::suspected_ranks`]).
    suspected: bool,
}

impl Detector {
    fn new() -> Self {
        Detector {
            mu: 1.0,
            dev: 0.0,
            susp: 0.0,
            status: TargetStatus::Healthy,
            suspected: false,
        }
    }

    /// The phi-accrual-style instantaneous suspicion of cycle mean `m`:
    /// `φ = (m − μ) / (max(dev, floor) · ln 10)` — the anomaly's z-like
    /// deviation expressed as "orders of magnitude of surprise", matching
    /// the −log₁₀ P scaling of the classic accrual detector under an
    /// exponential tail.
    fn phi(&self, m: f64) -> f64 {
        (m - self.mu) / (self.dev.max(DEV_FLOOR) * LN_10)
    }

    /// Fold one cycle mean (or its absence) into the detector.
    fn step(&mut self, m: Option<f64>) {
        if let TargetStatus::Blacklisted { remaining } = self.status {
            // Out of rotation: no observations to judge, just serve the term.
            self.status = if remaining > 1 {
                TargetStatus::Blacklisted {
                    remaining: remaining - 1,
                }
            } else {
                TargetStatus::Probation
            };
            return;
        }
        let Some(m) = m else {
            return; // nothing observed this cycle: no verdict
        };
        if m > self.mu * SUSPECT_RATIO {
            self.susp += self.phi(m).max(0.0);
            if self.status == TargetStatus::Probation || self.susp >= SUSPICION_THRESHOLD {
                // A failed probe re-blacklists immediately; a fresh target
                // needs accrued suspicion past the threshold.
                self.status = TargetStatus::Blacklisted {
                    remaining: PROBATION_CYCLES,
                };
                self.suspected = true;
            }
        } else {
            if self.status == TargetStatus::Probation {
                self.status = TargetStatus::Healthy; // reintegrated
            }
            self.suspected = false;
            self.susp = 0.0;
            // Only healthy cycles update the baseline: degraded samples must
            // not poison μ (or the detector would acclimatize to the fault).
            self.dev = (1.0 - EWMA_ALPHA) * self.dev + EWMA_ALPHA * (m - self.mu).abs();
            self.mu = (1.0 - EWMA_ALPHA) * self.mu + EWMA_ALPHA * m;
        }
    }
}

/// A frozen summary of the detector state at a cycle boundary — what the
/// scheduler consumes at rebalance to reprice SLAs against degraded
/// capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Cycle the snapshot closes.
    pub cycle: u32,
    /// OSTs out of rotation.
    pub blacklisted_osts: Vec<usize>,
    /// OSTs on probe duty next cycle.
    pub probation_osts: Vec<usize>,
    /// OSTs still in rotation whose suspicion accrued in an anomalous
    /// cycle since their last healthy one: suspect, not (yet) blacklisted.
    pub suspected_osts: Vec<usize>,
    /// Ranks whose compute dilation is past the suspicion threshold.
    pub suspected_ranks: Vec<usize>,
    /// OSTs in the file system, [`enkf_fault::OSTS`] (for capacity math).
    pub num_osts: usize,
}

impl HealthSnapshot {
    /// Nothing degraded.
    pub fn is_clean(&self) -> bool {
        self.blacklisted_osts.is_empty()
            && self.probation_osts.is_empty()
            && self.suspected_ranks.is_empty()
    }

    /// Fraction of OST bandwidth still in rotation — the factor the
    /// scheduler multiplies into its bandwidth pool when repricing SLAs.
    pub fn capacity_factor(&self) -> f64 {
        if self.num_osts == 0 {
            return 1.0;
        }
        (self.num_osts - self.blacklisted_osts.len()) as f64 / self.num_osts as f64
    }
}

/// The online health monitor: per-OST and per-rank detectors, an
/// order-insensitive per-cycle observation accumulator, and the frozen
/// routing view executors consult. Its record is the [`HealthSnapshot`]
/// `end_cycle` returns; what the routing view made readers do (reroutes,
/// reordering) is in the run's trace.
///
/// Thread contract: `observe_*` take `&self` (rank threads feed
/// concurrently mid-cycle); `end_cycle` takes `&mut self` (the supervisor
/// folds at the cycle boundary). Within a cycle the view never changes.
#[derive(Debug)]
pub struct HealthMonitor {
    cycle: u32,
    osts: BTreeMap<usize, Detector>,
    ranks: BTreeMap<usize, Detector>,
    /// (target, member)-keyed sums — keyed, not running, so the fold order
    /// is canonical no matter how rank threads interleave.
    acc: Mutex<CycleAcc>,
    view: RouteView,
}

#[derive(Debug, Default)]
struct CycleAcc {
    /// (ost, member) → (count, dilation ratio).
    reads: BTreeMap<(usize, usize), (u64, f64)>,
    /// rank → (count, dilation ratio).
    computes: BTreeMap<usize, (u64, f64)>,
}

impl HealthMonitor {
    /// The cycle accumulator. A rank thread that panicked while feeding it
    /// left the maps consistent (every update is one entry write), so a
    /// poisoned lock is entered, not propagated.
    fn acc(&self) -> MutexGuard<'_, CycleAcc> {
        self.acc.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A monitor with all targets healthy.
    pub fn new(_: HealthParams) -> Self {
        HealthMonitor {
            cycle: 0,
            osts: BTreeMap::new(),
            ranks: BTreeMap::new(),
            acc: Mutex::new(CycleAcc::default()),
            view: RouteView::default(),
        }
    }

    /// The frozen routing table for the current cycle.
    pub fn view(&self) -> &RouteView {
        &self.view
    }

    /// Record one read service observation: `member`'s read was served by
    /// `ost` at `ratio`× the healthy service time.
    pub fn observe_read(&self, ost: usize, member: usize, ratio: f64) {
        let mut acc = self.acc();
        let e = acc.reads.entry((ost, member)).or_insert((0, ratio));
        e.0 += 1;
        e.1 = ratio;
    }

    /// Record one compute observation: `rank` computed at `ratio`× its
    /// healthy cost.
    pub fn observe_compute(&self, rank: usize, ratio: f64) {
        let mut acc = self.acc();
        let e = acc.computes.entry(rank).or_insert((0, ratio));
        e.0 += 1;
        e.1 = ratio;
    }

    /// Discard the current cycle's accumulated observations without
    /// stepping the detectors or advancing the cycle. The campaign
    /// supervisor calls this when a cycle attempt fails and will be
    /// re-run from a checkpoint: the partial attempt's observations must
    /// not bias the detectors, and the re-run re-observes the full cycle,
    /// so recovery keeps detection a pure function of *completed* cycles.
    pub fn abort_cycle(&self) {
        *self.acc() = CycleAcc::default();
    }

    /// Close the cycle: fold the accumulated observations into the
    /// detectors in sorted key order, step every tracked target, refreeze
    /// the routing view, and return the snapshot.
    pub fn end_cycle(&mut self) -> HealthSnapshot {
        let acc = std::mem::take(&mut *self.acc());
        // Per-OST cycle means: Σ count·ratio / Σ count over sorted members.
        let mut ost_means: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
        for (&(ost, _member), &(count, ratio)) in &acc.reads {
            let e = ost_means.entry(ost).or_insert((0.0, 0.0));
            e.0 += count as f64 * ratio;
            e.1 += count as f64;
        }
        for &ost in ost_means.keys() {
            self.osts.entry(ost).or_insert_with(Detector::new);
        }
        for (&ost, det) in self.osts.iter_mut() {
            det.step(ost_means.get(&ost).map(|&(sum, n)| sum / n));
        }
        for &rank in acc.computes.keys() {
            self.ranks.entry(rank).or_insert_with(Detector::new);
        }
        // Ranks are not routed around: the probation ladder a straggler
        // walks is visible only as `suspected_ranks`.
        for (&rank, det) in self.ranks.iter_mut() {
            det.step(acc.computes.get(&rank).map(|&(_, ratio)| ratio));
        }
        self.view.blacklisted = self
            .osts
            .iter()
            .filter(|(_, d)| matches!(d.status, TargetStatus::Blacklisted { .. }))
            .map(|(&o, _)| o)
            .collect();
        let snap = self.snapshot_at(self.cycle);
        self.cycle += 1;
        snap
    }

    fn snapshot_at(&self, cycle: u32) -> HealthSnapshot {
        HealthSnapshot {
            cycle,
            blacklisted_osts: self
                .osts
                .iter()
                .filter(|(_, d)| matches!(d.status, TargetStatus::Blacklisted { .. }))
                .map(|(&o, _)| o)
                .collect(),
            probation_osts: self
                .osts
                .iter()
                .filter(|(_, d)| d.status == TargetStatus::Probation)
                .map(|(&o, _)| o)
                .collect(),
            suspected_osts: self
                .osts
                .iter()
                .filter(|(_, d)| d.status == TargetStatus::Healthy && d.susp > 0.0)
                .map(|(&o, _)| o)
                .collect(),
            suspected_ranks: self
                .ranks
                .iter()
                .filter(|(_, d)| d.suspected)
                .map(|(&r, _)| r)
                .collect(),
            num_osts: enkf_fault::OSTS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feed one cycle of reads: OST `ost` observes member `ost` at
    /// `ratios[ost]`.
    fn feed(mon: &HealthMonitor, ratios: &[f64]) {
        for (ost, &r) in ratios.iter().enumerate() {
            mon.observe_read(ost, ost, r); // member = ost for simplicity
        }
    }

    #[test]
    fn healthy_cycles_never_trip() {
        let mut mon = HealthMonitor::new(HealthParams::default());
        for _ in 0..6 {
            feed(&mon, &[1.0; 6]);
            let snap = mon.end_cycle();
            assert!(snap.is_clean(), "healthy substrate must stay clean");
            assert!(snap.suspected_osts.is_empty());
        }
        assert_eq!(mon.snapshot_at(mon.cycle).capacity_factor(), 1.0);
    }

    #[test]
    fn severe_slowdown_blacklists_in_one_cycle() {
        let mut mon = HealthMonitor::new(HealthParams::default());
        feed(&mon, &[1.0, 4.0, 1.0, 1.0, 1.0, 1.0]);
        let snap = mon.end_cycle();
        assert_eq!(snap.blacklisted_osts, vec![1]);
        assert!(mon.view().blacklisted.contains(&1));
        assert_eq!(snap.capacity_factor(), 5.0 / 6.0);
        assert!(snap.suspected_osts.is_empty(), "blacklisted, not suspect");
    }

    #[test]
    fn mild_slowdown_needs_accrued_evidence() {
        let mut mon = HealthMonitor::new(HealthParams::default());
        feed(&mon, &[1.0, 1.5, 1.0, 1.0, 1.0, 1.0]);
        let snap = mon.end_cycle();
        assert!(
            snap.blacklisted_osts.is_empty(),
            "one mild cycle: suspect only"
        );
        assert_eq!(snap.suspected_osts, vec![1]);
        assert!(snap.is_clean(), "a suspect stays in rotation");
        feed(&mon, &[1.0, 1.5, 1.0, 1.0, 1.0, 1.0]);
        let snap = mon.end_cycle();
        assert_eq!(
            snap.blacklisted_osts,
            vec![1],
            "accrual crosses the threshold"
        );
        assert!(snap.suspected_osts.is_empty());
    }

    #[test]
    fn probation_and_reintegration_round_trip() {
        let mut mon = HealthMonitor::new(HealthParams::default());
        feed(&mon, &[1.0, 6.0, 1.0, 1.0, 1.0, 1.0]);
        assert_eq!(mon.end_cycle().blacklisted_osts, vec![1]);
        // Term served (probation_cycles = 1): next boundary moves to probe.
        feed(&mon, &[1.0; 6]); // OST 1 routed away: no reads for it
        let snap = mon.end_cycle();
        assert!(snap.blacklisted_osts.is_empty());
        assert_eq!(snap.probation_osts, vec![1]);
        assert!(!mon.view().blacklisted.contains(&1), "probe reads allowed");
        // The probe comes back healthy: reintegrated.
        feed(&mon, &[1.0; 6]);
        let snap = mon.end_cycle();
        assert!(snap.is_clean(), "reintegrated");
        assert!(snap.suspected_osts.is_empty());
        assert!(!mon.view().blacklisted.contains(&1));
    }

    #[test]
    fn failed_probe_reblacklists() {
        let mut mon = HealthMonitor::new(HealthParams::default());
        feed(&mon, &[1.0, 6.0, 1.0, 1.0, 1.0, 1.0]);
        mon.end_cycle();
        feed(&mon, &[1.0; 6]);
        mon.end_cycle(); // → probation
        feed(&mon, &[1.0, 6.0, 1.0, 1.0, 1.0, 1.0]); // probe still degraded
        let snap = mon.end_cycle();
        assert_eq!(snap.blacklisted_osts, vec![1]);
    }

    #[test]
    fn straggling_rank_is_suspected_then_cleared() {
        let mut mon = HealthMonitor::new(HealthParams::default());
        mon.observe_compute(2, 3.0);
        let snap = mon.end_cycle();
        assert_eq!(snap.suspected_ranks, vec![2]);
        mon.observe_compute(2, 1.0);
        // The rank detector enters the blacklist ladder internally; walk it
        // out: blacklist term, probe, healthy.
        mon.end_cycle();
        mon.observe_compute(2, 1.0);
        mon.end_cycle();
        mon.observe_compute(2, 1.0);
        let snap = mon.end_cycle();
        assert!(snap.suspected_ranks.is_empty(), "cleared");
        assert!(snap.is_clean());
    }

    #[test]
    fn detection_is_a_pure_function_of_the_observation_multiset() {
        let run = |order_flip: bool| {
            let mut mon = HealthMonitor::new(HealthParams::default());
            let mut snaps = Vec::new();
            for c in 0..5 {
                let members: Vec<usize> = if order_flip {
                    (0..12).rev().collect()
                } else {
                    (0..12).collect()
                };
                for m in members {
                    let ost = enkf_fault::ost_of(m);
                    let ratio = if ost == 2 && c >= 1 { 3.0 } else { 1.0 };
                    mon.observe_read(ost, m, ratio);
                }
                snaps.push(mon.end_cycle());
            }
            snaps
        };
        assert_eq!(run(false), run(true), "feed order must not matter");
        assert!(run(false).iter().any(|s| s.blacklisted_osts == [2]));
    }
}
