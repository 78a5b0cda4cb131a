//! Structured substrate errors shared by pfs, net and parallel.

use std::path::PathBuf;

/// A file-system read that failed, with full context: which file, which
/// member, how many bytes the region needed and how many were actually
/// available. Replaces the stringly `io::Error` the executors used to
/// propagate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadError {
    /// The member file being read.
    pub path: PathBuf,
    /// Ensemble member index.
    pub member: usize,
    /// Bytes the region read required.
    pub expected: u64,
    /// Bytes actually present (file length at failure time; 0 when the file
    /// is missing).
    pub actual: u64,
    /// OS-level detail of the underlying failure.
    pub detail: String,
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "read of member {} from {} failed: expected {} bytes, {} available ({})",
            self.member,
            self.path.display(),
            self.expected,
            self.actual,
            self.detail
        )
    }
}

impl std::error::Error for ReadError {}

impl From<ReadError> for std::io::Error {
    fn from(e: ReadError) -> Self {
        std::io::Error::other(e.to_string())
    }
}

/// Errors the execution substrate (file system, network, rank scheduler)
/// can surface. One vocabulary for both executors: the real path produces
/// them from syscalls and channel timeouts, the modeled path from the fault
/// plan alone.
#[derive(Debug, Clone, PartialEq)]
pub enum SubstrateError {
    /// A read failed and no retries were configured.
    Read(ReadError),
    /// A read still failed after the retry policy's attempt budget. `cause`
    /// is the last real I/O error, or `None` when every failure was
    /// injected.
    RetriesExhausted {
        /// Ensemble member whose read was abandoned.
        member: usize,
        /// Total attempts made (initial + retries).
        attempts: u32,
        /// The last real failure, if any failure was real.
        cause: Option<ReadError>,
    },
    /// The fault plan makes these members unrecoverable but degraded mode
    /// was not enabled, so the cycle cannot complete.
    Unrecoverable {
        /// The members that cannot be read within the retry budget.
        members: Vec<usize>,
    },
    /// A receive did not complete within the timeout — the typed
    /// alternative to blocking forever on a crashed or silent peer.
    RecvTimeout {
        /// The waiting rank.
        rank: usize,
        /// Seconds waited before giving up.
        waited: f64,
    },
    /// Every peer that could have sent to this rank has exited, so the
    /// blocked receive can never complete — the typed alternative to the
    /// "all senders hung up" channel panic.
    PeerExited {
        /// The rank whose receive was orphaned.
        rank: usize,
    },
    /// A peer this rank was receiving from failed and told it to stop
    /// waiting. An echo of the peer's own error, never a root cause: the
    /// cycle reports the originating rank's error in preference to it.
    PeerAborted {
        /// The rank whose receive was cut short.
        rank: usize,
        /// The peer that aborted.
        peer: usize,
        /// The peer's failure, rendered.
        reason: String,
    },
    /// A rank was crashed by the fault plan at the given stage.
    RankCrashed {
        /// The crashed rank.
        rank: usize,
        /// The stage at which it died.
        stage: usize,
    },
    /// A rank's helper thread failed (panic or early termination), so the
    /// rank could not assemble its background blocks. The typed alternative
    /// to propagating the helper's panic into the whole process.
    HelperFailed {
        /// The rank whose helper died.
        rank: usize,
        /// What happened.
        detail: String,
    },
    /// A collective (broadcast, gather, scatter, …) was called
    /// inconsistently: a root without its payload or with the wrong number
    /// of them, or a message the collective does not expect.
    Collective {
        /// The rank that detected it.
        rank: usize,
        /// What was wrong.
        detail: String,
    },
}

impl std::fmt::Display for SubstrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubstrateError::Read(e) => write!(f, "{e}"),
            SubstrateError::RetriesExhausted {
                member,
                attempts,
                cause,
            } => {
                write!(f, "member {member} unreadable after {attempts} attempts")?;
                if let Some(c) = cause {
                    write!(f, ": {c}")?;
                }
                Ok(())
            }
            SubstrateError::Unrecoverable { members } => write!(
                f,
                "members {members:?} are unrecoverable under the fault plan \
                 and degraded mode is disabled"
            ),
            SubstrateError::RecvTimeout { rank, waited } => {
                write!(f, "rank {rank} receive timed out after {waited} s")
            }
            SubstrateError::PeerExited { rank } => {
                write!(f, "rank {rank} receive orphaned: all peers have exited")
            }
            SubstrateError::PeerAborted { rank, peer, reason } => {
                write!(f, "rank {rank} aborted by rank {peer}: {reason}")
            }
            SubstrateError::RankCrashed { rank, stage } => {
                write!(f, "rank {rank} crashed at stage {stage}")
            }
            SubstrateError::HelperFailed { rank, detail } => {
                write!(f, "rank {rank} helper thread failed: {detail}")
            }
            SubstrateError::Collective { rank, detail } => {
                write!(f, "rank {rank} collective misused: {detail}")
            }
        }
    }
}

impl std::error::Error for SubstrateError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_error_carries_full_context() {
        let e = ReadError {
            path: PathBuf::from("/tmp/member_00003.bin"),
            member: 3,
            expected: 4096,
            actual: 128,
            detail: "unexpected end of file".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("member 3"));
        assert!(msg.contains("member_00003.bin"));
        assert!(msg.contains("4096"));
        assert!(msg.contains("128"));
        let io: std::io::Error = e.into();
        assert!(io.to_string().contains("member_00003.bin"));
    }

    #[test]
    fn substrate_errors_display() {
        let e = SubstrateError::RetriesExhausted {
            member: 7,
            attempts: 4,
            cause: None,
        };
        assert!(e.to_string().contains("member 7"));
        assert!(e.to_string().contains("4 attempts"));
        let e = SubstrateError::RecvTimeout {
            rank: 2,
            waited: 0.5,
        };
        assert!(e.to_string().contains("rank 2"));
        let e = SubstrateError::RankCrashed { rank: 9, stage: 1 };
        assert!(e.to_string().contains("stage 1"));
        let e = SubstrateError::PeerExited { rank: 3 };
        assert!(e.to_string().contains("rank 3"));
        assert!(e.to_string().contains("exited"));
        let e = SubstrateError::PeerAborted {
            rank: 1,
            peer: 4,
            reason: "member 2 unreadable".into(),
        };
        assert!(e.to_string().contains("by rank 4: member 2 unreadable"));
    }
}
