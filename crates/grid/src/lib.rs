//! Grid geometry for the S-EnKF reproduction.
//!
//! Everything spatial lives here: the latitude–longitude mesh, domain
//! decomposition into `n_sdx × n_sdy` sub-domains (§2.2), localization boxes
//! with radii `(ξ, η)` (Fig. 2), sub-domain expansions `D̄`, the `L`-layer
//! split that drives the multi-stage computation (§4.2), the latitude *bars*
//! of the bar-reading approach (§4.1.2), and the mapping from grid regions to
//! contiguous byte segments of the row-priority on-disk layout — which is
//! what makes block reading seek-heavy and bar reading single-seek.
//!
//! Storage convention (fixed by the paper's Figures 3 and 6): an ensemble
//! member is a 2-D tensor stored row-priority where a *row* is one latitude
//! line of `n_x` longitude points. A latitude band is therefore contiguous
//! on disk; a longitude slice is not.

#![deny(unreachable_pub)]

pub(crate) mod decomp;
pub(crate) mod layout;
pub(crate) mod mesh;
pub(crate) mod obs;
pub(crate) mod region;

pub use decomp::{Decomposition, SubDomainId};
pub use layout::FileLayout;
pub use mesh::{GridPoint, Mesh};
pub use obs::{ObsIndex, ObservationNetwork};
pub use region::RegionRect;

use serde::{Deserialize, Serialize};

/// Domain-localization radius in grid points: `xi` along longitude, `eta`
/// along latitude (Fig. 2a). The local box around a point has dimensions
/// `(2ξ+1) × (2η+1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LocalizationRadius {
    /// Influence radius along the longitude (x) direction, in grid points.
    pub xi: usize,
    /// Influence radius along the latitude (y) direction, in grid points.
    pub eta: usize,
}
