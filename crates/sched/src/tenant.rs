//! Tenants: identity, fair-share weight, and admission quotas.

/// A tenant of the assimilation service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Per-tenant admission limits. Exceeding them is *backpressure*: the
/// submit call fails with a typed error and the caller retries later —
/// the queue never grows without bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quota {
    /// Campaigns this tenant may have running concurrently.
    pub max_running: usize,
    /// Campaigns this tenant may have waiting in the queue; a submit that
    /// would exceed it is rejected ([`SubmitError::Backpressure`]).
    ///
    /// [`SubmitError::Backpressure`]: crate::SubmitError::Backpressure
    pub max_queued: usize,
    /// Minimum seconds between two accepted submits (token-bucket rate
    /// limit with one token); `0.0` disables it.
    pub min_submit_gap: f64,
}

impl Default for Quota {
    fn default() -> Self {
        Quota {
            max_running: 4,
            max_queued: 16,
            min_submit_gap: 0.0,
        }
    }
}

/// A registered tenant: identity, weight, quota.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSpec {
    /// The tenant.
    pub id: TenantId,
    /// Fair-share weight (> 0): bandwidth and rank allocations are
    /// proportional to it under contention.
    pub weight: f64,
    /// Admission limits.
    pub quota: Quota,
}

impl TenantSpec {
    /// A tenant with the default quota.
    pub fn new(id: u32, weight: f64) -> Self {
        assert!(
            weight > 0.0 && weight.is_finite(),
            "tenant weight must be positive and finite, got {weight}"
        );
        TenantSpec {
            id: TenantId(id),
            weight,
            quota: Quota::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sets_fields() {
        let t = TenantSpec::new(3, 2.5);
        assert_eq!(t.id, TenantId(3));
        assert_eq!(t.weight, 2.5);
        assert_eq!(t.quota, Quota::default());
        let t = TenantSpec {
            quota: Quota {
                max_running: 1,
                max_queued: 2,
                min_submit_gap: 0.5,
            },
            ..t
        };
        assert_eq!(t.id, TenantId(3));
        assert_eq!(t.weight, 2.5);
        assert_eq!(t.quota.max_running, 1);
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn zero_weight_rejected() {
        TenantSpec::new(0, 0.0);
    }
}
