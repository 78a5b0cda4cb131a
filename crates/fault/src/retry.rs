//! Bounded retry with exponential backoff.

/// Retry policy for substrate reads: up to `max_retries` re-issues after
/// the initial attempt, sleeping `base_backoff · multiplier^attempt`
/// between attempts.
///
/// The delays are a pure function of the attempt, so they are identical on
/// the real path (wall-clock sleeps) and the modeled path (virtual-time
/// tasks) — the cross-executor conformance checks rely on this, and a DES
/// test asserts they appear in virtual time exactly as scheduled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (total attempts = `max_retries + 1`,
    /// saturating at `u32::MAX`).
    pub max_retries: u32,
    /// Backoff before the first retry, seconds.
    pub base_backoff: f64,
    /// Geometric growth factor between consecutive backoffs.
    pub multiplier: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: 1e-3,
            multiplier: 2.0,
        }
    }
}

impl RetryPolicy {
    /// No retries: the first failure is final (the pre-fault-subsystem
    /// behaviour; used by the plain `run` paths).
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: 0.0,
            multiplier: 2.0,
        }
    }

    /// Backoff slept after failed attempt `attempt` (0-based):
    /// `base_backoff · multiplier^attempt`.
    pub fn backoff(&self, attempt: u32) -> f64 {
        let exponent = i32::try_from(attempt).unwrap_or(i32::MAX);
        self.base_backoff * self.multiplier.powi(exponent)
    }

    /// Total attempts of a retry sequence (initial + retries), saturating
    /// at `u32::MAX`. The real retry loops, the DES weaves and the dropout
    /// decision ([`crate::FaultInjector::is_unrecoverable`]) all use this
    /// one bound, so a member is recoverable exactly when its read is
    /// served within it.
    pub fn attempts(&self) -> u32 {
        self.max_retries.saturating_add(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_geometrically() {
        let p = RetryPolicy {
            max_retries: 3,
            base_backoff: 0.5,
            multiplier: 2.0,
        };
        assert_eq!(p.backoff(0), 0.5);
        assert_eq!(p.backoff(1), 1.0);
        assert_eq!(p.backoff(2), 2.0);
        assert_eq!(p.attempts(), 4);
    }

    #[test]
    fn none_never_sleeps() {
        let p = RetryPolicy::none();
        assert_eq!(p.max_retries, 0);
        assert_eq!(p.backoff(0), 0.0);
        assert_eq!(p.attempts(), 1);
    }
}
