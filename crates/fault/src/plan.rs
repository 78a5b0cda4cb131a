//! The typed, deterministic schedule of injectable faults, and the one
//! storage layout they land on.

/// Object storage targets the member files are striped over.
pub const OSTS: usize = 6;

/// The OST member `member`'s file stripes to: round-robin placement, the
/// "two different files may be stored in either the same disk or two
/// physical disks" distribution of §4.1.3.
pub fn ost_of(member: usize) -> usize {
    member % OSTS
}

/// The OST holding the replica of `ost`'s files: the next one.
pub fn replica_of(ost: usize) -> usize {
    (ost + 1) % OSTS
}

/// `fail_attempts` value meaning "never succeeds": the member is
/// unrecoverable under any finite retry budget.
pub(crate) const UNRECOVERABLE: u32 = u32::MAX;

/// Reads of `member` fail for the first `fail_attempts` attempts of every
/// read operation, then succeed. `fail_attempts > RetryPolicy::max_retries`
/// (in particular [`UNRECOVERABLE`]) makes the member unrecoverable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadFault {
    /// Ensemble member whose file misbehaves.
    pub member: usize,
    /// Attempts that fail before a read of this member succeeds.
    pub fail_attempts: u32,
}

/// Every operation on OST `ost` is slowed by `factor` (≥ 1); member files
/// land on OSTs by [`ost_of`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OstSlowdown {
    /// OST index in `0..OSTS`.
    pub ost: usize,
    /// Service-time multiplier (1.0 = healthy).
    pub factor: f64,
}

/// Messages from `from` to `to` are silently dropped: they never arrive,
/// which surfaces as a receive timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgFault {
    /// Sender rank.
    pub from: usize,
    /// Receiver rank.
    pub to: usize,
}

/// Rank `rank` computes `dilation` times slower than its peers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Straggler {
    /// The slow rank.
    pub rank: usize,
    /// Compute-time multiplier (1.0 = healthy).
    pub dilation: f64,
}

/// Rank `rank` dies silently at the start of stage `stage`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankCrash {
    /// The crashing rank.
    pub rank: usize,
    /// Stage (layer) index at which it stops responding.
    pub stage: usize,
}

/// Rank `rank` dies at stage `stage` of assimilation cycle `cycle` — a
/// campaign-scoped kill point. Cycle-scoped crashes are inert until a
/// campaign supervisor projects them into a per-cycle plan with
/// [`FaultPlan::for_cycle_attempt`]; they fire on the *first* attempt of
/// their cycle only, so a recovered re-run does not re-crash (the faulty
/// node is considered replaced).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleCrash {
    /// The crashing rank.
    pub rank: usize,
    /// 0-based assimilation cycle in which the crash lands.
    pub cycle: usize,
    /// Stage (layer) index at which the rank stops responding.
    pub stage: usize,
}

/// A deterministic, seeded fault plan: plain data describing which faults
/// fire where. The same plan drives both executors — decisions are pure
/// functions of the plan (see `FaultInjector`), never of runtime state. A
/// slowed OST slows the member files [`ost_of`] places on it, on the real
/// and the modeled file system alike.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed this plan was generated from (recorded for reproducibility; the
    /// schedule below is already fully expanded).
    pub seed: u64,
    /// Injected read failures.
    pub read_faults: Vec<ReadFault>,
    /// Degraded OSTs.
    pub ost_slowdowns: Vec<OstSlowdown>,
    /// Dropped messages.
    pub msg_faults: Vec<MsgFault>,
    /// Ranks with dilated compute.
    pub stragglers: Vec<Straggler>,
    /// Ranks that die mid-run.
    pub crashes: Vec<RankCrash>,
    /// Campaign kill points: ranks that die at a specific (cycle, stage).
    /// Ignored by single-cycle executors; a supervisor resolves them with
    /// [`FaultPlan::for_cycle_attempt`].
    pub cycle_crashes: Vec<CycleCrash>,
}

impl FaultPlan {
    /// An empty plan carrying `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    // The `assert!`s of the builders below stay panics: a plan is program
    // text composed by the caller, never parsed input, so an out-of-range
    // argument is a bug at the call site — rejected where it is written,
    // not carried into a run.

    /// Reads of `member` fail `fail_attempts` times, then recover.
    pub fn with_read_fault(mut self, member: usize, fail_attempts: u32) -> Self {
        self.read_faults.push(ReadFault {
            member,
            fail_attempts,
        });
        self
    }

    /// `member` never reads successfully.
    pub fn with_unrecoverable_member(mut self, member: usize) -> Self {
        self.read_faults.push(ReadFault {
            member,
            fail_attempts: UNRECOVERABLE,
        });
        self
    }

    /// OST `ost` serves every operation `factor`× slower.
    pub fn with_ost_slowdown(mut self, ost: usize, factor: f64) -> Self {
        assert!(factor >= 1.0, "slowdown factor must be >= 1");
        self.ost_slowdowns.push(OstSlowdown { ost, factor });
        self
    }

    /// Messages `from → to` never arrive.
    pub fn with_msg_drop(mut self, from: usize, to: usize) -> Self {
        self.msg_faults.push(MsgFault { from, to });
        self
    }

    /// Rank `rank` computes `dilation`× slower.
    pub fn with_straggler(mut self, rank: usize, dilation: f64) -> Self {
        assert!(dilation >= 1.0, "dilation must be >= 1");
        self.stragglers.push(Straggler { rank, dilation });
        self
    }

    /// Rank `rank` dies at stage `stage`.
    pub fn with_crash(mut self, rank: usize, stage: usize) -> Self {
        self.crashes.push(RankCrash { rank, stage });
        self
    }

    /// Rank `rank` dies at stage `stage` of campaign cycle `cycle` (first
    /// attempt of that cycle only — recovery re-runs proceed on a replaced
    /// node).
    pub fn with_crash_at_cycle(mut self, rank: usize, cycle: usize, stage: usize) -> Self {
        self.cycle_crashes.push(CycleCrash { rank, cycle, stage });
        self
    }

    /// Project this campaign plan onto one executor invocation: attempt
    /// `attempt` (0-based) of cycle `cycle`. Per-cycle faults (read faults,
    /// slowdowns, message faults, stragglers, plain crashes) carry over
    /// unchanged; cycle-scoped crashes matching `cycle` become plain
    /// [`RankCrash`]es on the first attempt and disappear on re-runs.
    pub fn for_cycle_attempt(&self, cycle: usize, attempt: u32) -> FaultPlan {
        let mut plan = self.clone();
        if attempt == 0 {
            plan.crashes.extend(
                plan.cycle_crashes
                    .iter()
                    .filter(|c| c.cycle == cycle)
                    .map(|c| RankCrash {
                        rank: c.rank,
                        stage: c.stage,
                    }),
            );
        }
        plan.cycle_crashes.clear();
        plan
    }

    /// This plan as the survivors of `lost` see it. `lost` holds the
    /// *original* indices of members a campaign has already dropped for
    /// good; the survivors are renumbered `0..N−|lost|` in order, and that
    /// slot numbering is what an executor reads by. Read faults of a lost
    /// member go (its file is never opened again, so the loss cannot fire
    /// twice); every other read fault moves from its member's original index
    /// to the slot the member now occupies. OST striping is by slot, so
    /// slowdowns — like rank- and message-indexed entries — carry over
    /// unchanged.
    pub fn for_survivors(mut self, lost: &[usize]) -> FaultPlan {
        self.read_faults.retain(|f| !lost.contains(&f.member));
        for f in &mut self.read_faults {
            f.member -= lost.iter().filter(|&&gone| gone < f.member).count();
        }
        self
    }

    /// A seeded jitter plan for severity sweeps (fig. 14): every rank in
    /// `0..ranks` gets a deterministic pseudo-random compute dilation in
    /// `[1, max_dilation]`. `severity = max_dilation − 1` is the knob the
    /// sweep turns.
    pub fn jitter(seed: u64, ranks: usize, max_dilation: f64) -> Self {
        assert!(max_dilation >= 1.0, "max_dilation must be >= 1");
        let mut plan = FaultPlan::new(seed);
        for rank in 0..ranks {
            let u = seeded_unit(seed, rank as u64);
            plan.stragglers.push(Straggler {
                rank,
                dilation: 1.0 + u * (max_dilation - 1.0),
            });
        }
        plan
    }
}

/// SplitMix64-derived uniform in `[0, 1)` for `(seed, index)` — the same
/// keyed-stream construction the perturbed observations use, so jitter
/// plans and chaos-soak storm generators are reproducible without an RNG
/// dependency.
pub fn seeded_unit(seed: u64, index: u64) -> f64 {
    let mut z =
        (seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_accumulate() {
        let plan = FaultPlan::new(7)
            .with_read_fault(3, 2)
            .with_unrecoverable_member(5)
            .with_ost_slowdown(1, 4.0)
            .with_msg_drop(1, 3)
            .with_straggler(2, 1.5)
            .with_crash(4, 1);
        assert_eq!(plan.read_faults.len(), 2);
        assert_eq!(plan.read_faults[1].fail_attempts, UNRECOVERABLE);
        assert_eq!(plan.ost_slowdowns.len(), 1);
        assert_eq!(plan.msg_faults, vec![MsgFault { from: 1, to: 3 }]);
        assert_eq!(plan.stragglers.len(), 1);
        assert_eq!(plan.crashes, vec![RankCrash { rank: 4, stage: 1 }]);
    }

    #[test]
    fn cycle_crashes_fire_on_the_first_attempt_only() {
        let plan = FaultPlan::new(9)
            .with_read_fault(1, 1)
            .with_crash_at_cycle(3, 2, 1);
        // Wrong cycle: nothing fires, the cycle-scoped entry is stripped.
        let other = plan.for_cycle_attempt(0, 0);
        assert!(other.crashes.is_empty());
        assert!(other.cycle_crashes.is_empty());
        assert_eq!(
            other.read_faults, plan.read_faults,
            "per-cycle faults carry over"
        );
        // Matching cycle, first attempt: the kill point becomes a crash.
        let first = plan.for_cycle_attempt(2, 0);
        assert_eq!(first.crashes, vec![RankCrash { rank: 3, stage: 1 }]);
        // Recovery re-run of the same cycle: the node was replaced.
        let retry = plan.for_cycle_attempt(2, 1);
        assert!(retry.crashes.is_empty());
    }

    #[test]
    fn survivors_see_their_own_slots_and_no_consumed_loss() {
        let plan = FaultPlan::new(5)
            .with_unrecoverable_member(1)
            .with_read_fault(0, 1)
            .with_read_fault(3, 2)
            .with_ost_slowdown(2, 3.0);
        let seen = plan.clone().for_survivors(&[1]);
        assert_eq!(
            seen.read_faults,
            vec![
                ReadFault {
                    member: 0,
                    fail_attempts: 1
                },
                ReadFault {
                    member: 2,
                    fail_attempts: 2
                },
            ],
            "member 1's entry is consumed, member 3 now sits in slot 2"
        );
        assert_eq!(
            seen.ost_slowdowns, plan.ost_slowdowns,
            "striping is by slot"
        );
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let a = FaultPlan::jitter(11, 32, 3.0);
        let b = FaultPlan::jitter(11, 32, 3.0);
        assert_eq!(a, b, "same seed, same plan");
        let c = FaultPlan::jitter(12, 32, 3.0);
        assert_ne!(a, c, "different seed, different plan");
        assert_eq!(a.stragglers.len(), 32);
        for s in &a.stragglers {
            assert!((1.0..=3.0).contains(&s.dilation));
        }
        // Dilation 1.0 for everyone when severity is zero.
        for s in &FaultPlan::jitter(11, 8, 1.0).stragglers {
            assert_eq!(s.dilation, 1.0);
        }
    }
}
