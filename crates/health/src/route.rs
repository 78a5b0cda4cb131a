//! The frozen per-cycle routing decision table.

use enkf_fault::{ost_of, replica_of};
use std::collections::BTreeSet;

/// How a member's read should be issued this cycle. Decided once per
/// (member, view) — a pure function, so the real executor and the DES weave
/// agree without coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadRoute {
    /// The member's OST is in rotation: read exactly like the resilient
    /// path (byte-identical spans — the no-fault parity guarantee).
    Primary,
    /// The member stripes to a blacklisted OST: the read is rerouted.
    /// `replica_wins` picks the serving path deterministically: the replica
    /// when it is not blacklisted and its expected dilation is no larger
    /// (ties go to the replica, the healthier bet by construction), else
    /// the primary. No duplicate read is issued — the choice is made before
    /// the read, not raced — and the reroute is charged as one
    /// zero-duration cancelled marker span.
    Reroute {
        /// OST index of the replica path.
        replica: usize,
        /// Whether the read is served by the replica.
        replica_wins: bool,
    },
}

/// The blacklist as the executors consume it: which OSTs are out of
/// rotation this cycle (files and replicas lie where
/// [`enkf_fault::ost_of`] and [`enkf_fault::replica_of`] put them). Frozen
/// between cycle boundaries — within a cycle every rank (and the model
/// weave) routes from the same table. The default is the all-healthy view,
/// on which every route is [`ReadRoute::Primary`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteView {
    /// OSTs currently out of rotation.
    pub blacklisted: BTreeSet<usize>,
}

impl RouteView {
    /// Whether no OST is blacklisted (the passthrough fast path).
    pub(crate) fn is_clean(&self) -> bool {
        self.blacklisted.is_empty()
    }

    /// Route a read of `member`, given the expected service dilation of the
    /// primary and replica paths (from the fault plan via
    /// `FaultInjector::ost_factor`). Pure: both executors call this with
    /// identical arguments and get identical routes.
    pub fn route(&self, member: usize, primary_factor: f64, replica_factor: f64) -> ReadRoute {
        let ost = ost_of(member);
        if !self.blacklisted.contains(&ost) {
            return ReadRoute::Primary;
        }
        let replica = replica_of(ost);
        let replica_wins = !self.blacklisted.contains(&replica) && replica_factor <= primary_factor;
        ReadRoute::Reroute {
            replica,
            replica_wins,
        }
    }

    /// Stable reorder of a member schedule away from hot OSTs: members on
    /// healthy OSTs first, members on blacklisted OSTs last, original order
    /// preserved within each class. The trace digest is an order-free
    /// multiset, so this is conformance-neutral; in time (wall or virtual)
    /// it moves the slow tail where rerouting and pipelining can hide it.
    pub fn reorder(&self, members: &[usize]) -> Vec<usize> {
        if self.is_clean() {
            return members.to_vec();
        }
        let (cool, hot): (Vec<usize>, Vec<usize>) = members
            .iter()
            .copied()
            .partition(|&m| !self.blacklisted.contains(&ost_of(m)));
        let mut out = cool;
        out.extend(hot);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(blacklisted: &[usize]) -> RouteView {
        RouteView {
            blacklisted: blacklisted.iter().copied().collect(),
        }
    }

    #[test]
    fn clean_view_routes_everything_primary() {
        let v = view(&[]);
        assert!(v.is_clean());
        for m in 0..2 * enkf_fault::OSTS {
            assert_eq!(v.route(m, 5.0, 1.0), ReadRoute::Primary);
        }
        assert_eq!(v.reorder(&[3, 1, 2]), vec![3, 1, 2]);
    }

    #[test]
    fn blacklisted_ost_reroutes_and_replica_wins_ties() {
        let v = view(&[1]);
        // Member 1 stripes to OST 1 (blacklisted), replica is OST 2.
        assert_eq!(
            v.route(1, 4.0, 1.0),
            ReadRoute::Reroute {
                replica: 2,
                replica_wins: true
            }
        );
        // Tie goes to the replica.
        assert_eq!(
            v.route(1, 1.0, 1.0),
            ReadRoute::Reroute {
                replica: 2,
                replica_wins: true
            }
        );
        // A slower replica is not chosen.
        assert_eq!(
            v.route(1, 2.0, 3.0),
            ReadRoute::Reroute {
                replica: 2,
                replica_wins: false
            }
        );
        // Members on other OSTs are untouched.
        assert_eq!(v.route(0, 1.0, 1.0), ReadRoute::Primary);
    }

    #[test]
    fn blacklisted_replica_is_never_chosen() {
        let v = view(&[1, 2]);
        assert_eq!(
            v.route(7, 4.0, 1.0),
            ReadRoute::Reroute {
                replica: 2,
                replica_wins: false
            }
        );
    }

    #[test]
    fn reorder_is_stable_and_moves_hot_members_last() {
        let v = view(&[1]);
        // Members 1 and 7 stripe to OST 1: they are hot.
        assert_eq!(
            v.reorder(&[0, 1, 2, 3, 4, 5, 6, 7, 8]),
            vec![0, 2, 3, 4, 5, 6, 8, 1, 7]
        );
    }
}
