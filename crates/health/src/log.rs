//! The shared record of detection and failover decisions.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// What the health layer decided. Ordered so sorted record lists read
/// naturally: detection transitions first, then routing actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthEvent {
    /// An OST's cycle mean crossed the suspect ratio; suspicion accrued.
    OstSuspected,
    /// Accrued suspicion crossed the threshold: the OST is blacklisted.
    OstBlacklisted,
    /// The blacklist term expired: the OST serves probe reads next cycle.
    OstProbation,
    /// The probe came back healthy: the OST rejoins the rotation.
    OstReintegrated,
    /// A rank's compute dilation accrued suspicion.
    RankSuspected,
    /// A previously suspected rank went back to baseline.
    RankCleared,
    /// A member striped to a blacklisted OST got a speculative duplicate
    /// read on its replica path.
    SpeculatedRead,
    /// The speculative replica read won the race (deterministic tie-break);
    /// the primary duplicate was cancelled.
    ReplicaWon,
}

impl HealthEvent {
    /// Lower-case label used in digests.
    pub fn label(self) -> &'static str {
        match self {
            HealthEvent::OstSuspected => "ost-suspected",
            HealthEvent::OstBlacklisted => "ost-blacklisted",
            HealthEvent::OstProbation => "ost-probation",
            HealthEvent::OstReintegrated => "ost-reintegrated",
            HealthEvent::RankSuspected => "rank-suspected",
            HealthEvent::RankCleared => "rank-cleared",
            HealthEvent::SpeculatedRead => "speculated",
            HealthEvent::ReplicaWon => "replica-won",
        }
    }
}

/// One health decision. The derived `Ord` (cycle, ost, rank, stage, member,
/// event) is the canonical sort used by [`HealthLog::digest`], so
/// multi-threaded real runs and single-threaded model construction produce
/// the same digest for the same observations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct HealthRecord {
    /// Assimilation cycle the decision belongs to.
    pub cycle: u32,
    /// OST the decision targets (detection transitions, speculation
    /// primaries).
    pub ost: Option<usize>,
    /// Rank involved (rank detection, the reader of a speculative read).
    pub rank: Option<usize>,
    /// Stage (layer) for multi-stage variants.
    pub stage: Option<usize>,
    /// Ensemble member involved (speculation).
    pub member: Option<usize>,
    /// Replica OST of a speculative read.
    pub replica: Option<usize>,
    /// The decision.
    pub event: HealthEvent,
}

/// Append-only, thread-shared log of health decisions: the real executors
/// feed it from rank threads, the DES models while weaving the decision
/// sequence into virtual time.
/// The sorted [`HealthLog::digest`] must be identical on both sides.
#[derive(Debug, Default)]
pub struct HealthLog {
    records: Mutex<Vec<HealthRecord>>,
}

impl HealthLog {
    /// An empty log.
    pub fn new() -> Self {
        HealthLog::default()
    }

    /// The records. A thread that panicked mid-`push` left the list whole,
    /// so a poisoned lock is entered, not propagated.
    fn lock(&self) -> MutexGuard<'_, Vec<HealthRecord>> {
        self.records.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Append a record.
    pub fn push(&self, rec: HealthRecord) {
        self.lock().push(rec);
    }

    /// Record a detection transition for OST `ost` at `cycle`.
    pub fn ost_event(&self, cycle: u32, ost: usize, event: HealthEvent) {
        self.push(HealthRecord {
            cycle,
            ost: Some(ost),
            rank: None,
            stage: None,
            member: None,
            replica: None,
            event,
        });
    }

    /// Record a detection transition for rank `rank` at `cycle`.
    pub fn rank_event(&self, cycle: u32, rank: usize, event: HealthEvent) {
        self.push(HealthRecord {
            cycle,
            ost: None,
            rank: Some(rank),
            stage: None,
            member: None,
            replica: None,
            event,
        });
    }

    /// Record a speculative duplicate read of `member` (primary OST
    /// `ost`, replica `replica`) issued by `rank`, and whether the replica
    /// won the deterministic race.
    #[allow(clippy::too_many_arguments)]
    pub fn speculated(
        &self,
        cycle: u32,
        rank: usize,
        stage: Option<usize>,
        member: usize,
        ost: usize,
        replica: usize,
        replica_won: bool,
    ) {
        let rec = |event| HealthRecord {
            cycle,
            ost: Some(ost),
            rank: Some(rank),
            stage,
            member: Some(member),
            replica: Some(replica),
            event,
        };
        self.push(rec(HealthEvent::SpeculatedRead));
        if replica_won {
            self.push(rec(HealthEvent::ReplicaWon));
        }
    }

    /// Snapshot of the records in insertion order.
    pub fn records(&self) -> Vec<HealthRecord> {
        self.lock().clone()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The canonical decision-sequence digest: records sorted by (cycle,
    /// ost, rank, stage, member, event), one text line each. Sorting
    /// removes thread-interleaving nondeterminism while preserving
    /// per-target cycle order, so real-vs-model comparison is a string
    /// equality.
    pub fn digest(&self) -> String {
        let mut recs = self.records();
        recs.sort_unstable();
        let opt = |v: Option<usize>| v.map_or("-".to_string(), |x| x.to_string());
        let mut out = String::new();
        for r in recs {
            use std::fmt::Write as _;
            // Writing into a `String` cannot fail.
            let _ = writeln!(
                out,
                "cycle={} ost={} rank={} stage={} member={} replica={} event={}",
                r.cycle,
                opt(r.ost),
                opt(r.rank),
                opt(r.stage),
                opt(r.member),
                opt(r.replica),
                r.event.label()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_insertion_order_independent() {
        let a = HealthLog::new();
        a.ost_event(0, 2, HealthEvent::OstSuspected);
        a.ost_event(1, 2, HealthEvent::OstBlacklisted);
        a.speculated(2, 0, None, 4, 2, 3, true);
        let b = HealthLog::new();
        b.speculated(2, 0, None, 4, 2, 3, true);
        b.ost_event(1, 2, HealthEvent::OstBlacklisted);
        b.ost_event(0, 2, HealthEvent::OstSuspected);
        assert_eq!(a.digest(), b.digest());
        assert!(a.digest().contains("event=ost-blacklisted"));
        assert!(a.digest().contains("event=replica-won"));
    }

    #[test]
    fn digest_distinguishes_cycles_and_targets() {
        let a = HealthLog::new();
        a.ost_event(0, 1, HealthEvent::OstBlacklisted);
        let b = HealthLog::new();
        b.ost_event(1, 1, HealthEvent::OstBlacklisted);
        assert_ne!(a.digest(), b.digest());
        let c = HealthLog::new();
        c.ost_event(0, 2, HealthEvent::OstBlacklisted);
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn log_is_shareable_across_threads() {
        let log = HealthLog::new();
        std::thread::scope(|s| {
            for rank in 0..4 {
                let log = &log;
                s.spawn(move || log.speculated(0, rank, None, rank, 0, 1, false));
            }
        });
        assert_eq!(log.len(), 4);
    }
}
