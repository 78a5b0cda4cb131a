//! Domain decomposition, expansions, layers, bars and read-blocks.
//!
//! The mesh is split into `n_sdx × n_sdy` non-overlapping sub-domains
//! (§2.2); each sub-domain is further split into `L` latitude layers for the
//! multi-stage computation (§4.2). The bar-reading primitives (§4.1.2) are
//! full-longitude latitude bands: a *bar* is the band owned by one I/O
//! processor, a *small bar* is a bar restricted to one layer and expanded by
//! `η` so it carries everything the layer's local analyses need.

use crate::{LocalizationRadius, Mesh, RegionRect};
use serde::{Deserialize, Serialize};

/// Identifier of a sub-domain: `i` ∈ [0, n_sdx) along longitude,
/// `j` ∈ [0, n_sdy) along latitude — the paper's `D_{i,j}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SubDomainId {
    /// Longitude block index.
    pub i: usize,
    /// Latitude block index.
    pub j: usize,
}

/// A validated `n_sdx × n_sdy` decomposition of a mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Decomposition {
    mesh: Mesh,
    nsdx: usize,
    nsdy: usize,
}

/// Errors constructing a decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompError {
    /// `nx` is not a multiple of `n_sdx`.
    Longitude {
        /// Mesh longitude extent.
        nx: usize,
        /// Requested sub-domain count along longitude.
        nsdx: usize,
    },
    /// `ny` is not a multiple of `n_sdy`.
    Latitude {
        /// Mesh latitude extent.
        ny: usize,
        /// Requested sub-domain count along latitude.
        nsdy: usize,
    },
    /// Sub-domain height is not a multiple of the requested layer count.
    Layers {
        /// Sub-domain height in grid rows.
        sub_height: usize,
        /// Requested layer count.
        layers: usize,
    },
}

impl std::fmt::Display for DecompError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecompError::Longitude { nx, nsdx } => {
                write!(f, "nx = {nx} is not divisible by n_sdx = {nsdx}")
            }
            DecompError::Latitude { ny, nsdy } => {
                write!(f, "ny = {ny} is not divisible by n_sdy = {nsdy}")
            }
            DecompError::Layers { sub_height, layers } => {
                write!(
                    f,
                    "sub-domain height {sub_height} is not divisible by L = {layers}"
                )
            }
        }
    }
}

impl std::error::Error for DecompError {}

impl Decomposition {
    /// Build a decomposition; the paper assumes `n_x` (resp. `n_y`) is a
    /// multiple of `n_sdx` (resp. `n_sdy`), and so do we.
    pub fn new(mesh: Mesh, nsdx: usize, nsdy: usize) -> Result<Self, DecompError> {
        if nsdx == 0 || !mesh.nx().is_multiple_of(nsdx) {
            return Err(DecompError::Longitude {
                nx: mesh.nx(),
                nsdx,
            });
        }
        if nsdy == 0 || !mesh.ny().is_multiple_of(nsdy) {
            return Err(DecompError::Latitude {
                ny: mesh.ny(),
                nsdy,
            });
        }
        Ok(Decomposition { mesh, nsdx, nsdy })
    }

    /// The whole mesh as its only sub-domain: `1 × 1` divides every mesh.
    pub fn whole(mesh: Mesh) -> Self {
        Decomposition {
            mesh,
            nsdx: 1,
            nsdy: 1,
        }
    }

    /// The underlying mesh.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// Sub-domain count along longitude.
    pub fn nsdx(&self) -> usize {
        self.nsdx
    }

    /// Sub-domain count along latitude.
    pub fn nsdy(&self) -> usize {
        self.nsdy
    }

    /// Total sub-domain count `n_s = n_sdx · n_sdy`.
    pub fn num_subdomains(&self) -> usize {
        self.nsdx * self.nsdy
    }

    /// Sub-domain width `n_x / n_sdx` in grid columns.
    pub(crate) fn sub_width(&self) -> usize {
        self.mesh.nx() / self.nsdx
    }

    /// Sub-domain height `n_y / n_sdy` in grid rows.
    pub(crate) fn sub_height(&self) -> usize {
        self.mesh.ny() / self.nsdy
    }

    /// Points per sub-domain `n_sd = n / n_s`.
    pub fn points_per_subdomain(&self) -> usize {
        self.sub_width() * self.sub_height()
    }

    /// The rectangle of sub-domain `D_{i,j}`.
    pub fn subdomain(&self, id: SubDomainId) -> RegionRect {
        assert!(
            id.i < self.nsdx && id.j < self.nsdy,
            "sub-domain id out of range"
        );
        let w = self.sub_width();
        let h = self.sub_height();
        RegionRect::new(id.i * w, (id.i + 1) * w, id.j * h, (id.j + 1) * h)
    }

    /// The expansion `D̄_{i,j}`: the sub-domain plus its localization halo,
    /// clamped to the mesh.
    pub fn expansion(&self, id: SubDomainId, radius: LocalizationRadius) -> RegionRect {
        self.subdomain(id).expand(radius, self.mesh)
    }

    /// Iterate over all sub-domain ids in `(j, i)` row-priority order —
    /// ranks are conventionally assigned in this order.
    pub fn iter_ids(&self) -> impl Iterator<Item = SubDomainId> + '_ {
        let nsdx = self.nsdx;
        (0..self.num_subdomains()).map(move |k| SubDomainId {
            i: k % nsdx,
            j: k / nsdx,
        })
    }

    /// Linear rank of a sub-domain under the `(j, i)` ordering.
    pub fn rank_of(&self, id: SubDomainId) -> usize {
        id.j * self.nsdx + id.i
    }

    /// Inverse of [`Decomposition::rank_of`].
    pub fn id_of_rank(&self, rank: usize) -> SubDomainId {
        assert!(rank < self.num_subdomains(), "rank out of range");
        SubDomainId {
            i: rank % self.nsdx,
            j: rank / self.nsdx,
        }
    }

    /// Which sub-domain owns a grid point.
    pub fn owner_of(&self, p: crate::GridPoint) -> SubDomainId {
        debug_assert!(self.mesh.contains(p));
        SubDomainId {
            i: p.ix / self.sub_width(),
            j: p.iy / self.sub_height(),
        }
    }

    /// Validate a layer count `L` against the sub-domain height (the
    /// auto-tuner only proposes divisors, Algorithm 1 line 8).
    pub fn check_layers(&self, layers: usize) -> Result<(), DecompError> {
        if layers == 0 || !self.sub_height().is_multiple_of(layers) {
            return Err(DecompError::Layers {
                sub_height: self.sub_height(),
                layers,
            });
        }
        Ok(())
    }

    /// Layer `l` of sub-domain `D_{i,j}` (the paper's `D'_{i,j,l}`): the
    /// `l`-th of `L` equal latitude slices, `0 ≤ l < L`.
    pub fn layer(&self, id: SubDomainId, l: usize, layers: usize) -> RegionRect {
        self.check_layers(layers).expect("invalid layer count");
        assert!(l < layers, "layer index out of range");
        let sub = self.subdomain(id);
        let lh = sub.height() / layers;
        RegionRect::new(sub.x0, sub.x1, sub.y0 + l * lh, sub.y0 + (l + 1) * lh)
    }

    /// The data needed to update one layer: the layer expanded by the
    /// localization radius, clamped to the mesh.
    pub fn layer_expansion(
        &self,
        id: SubDomainId,
        l: usize,
        layers: usize,
        radius: LocalizationRadius,
    ) -> RegionRect {
        self.layer(id, l, layers).expand(radius, self.mesh)
    }

    /// The *bar* of latitude-block `j`: all longitudes, the sub-domain row
    /// band — contiguous on disk, readable with a single seek (§4.1.2).
    pub fn bar(&self, j: usize) -> RegionRect {
        assert!(j < self.nsdy, "bar index out of range");
        let h = self.sub_height();
        RegionRect::new(0, self.mesh.nx(), j * h, (j + 1) * h)
    }

    /// The *small bar* for latitude-block `j`, layer `l`: the bar restricted
    /// to the layer band and expanded by `η` (what an I/O processor reads per
    /// stage in the multi-stage workflow; Eq. 7's
    /// `(n_y/(n_sdy·L) + 2η) · n_x` points, minus boundary clamping).
    pub fn small_bar(
        &self,
        j: usize,
        l: usize,
        layers: usize,
        radius: LocalizationRadius,
    ) -> RegionRect {
        assert!(j < self.nsdy, "bar index out of range");
        self.check_layers(layers).expect("invalid layer count");
        assert!(l < layers, "layer index out of range");
        let h = self.sub_height();
        let lh = h / layers;
        let y0 = j * h + l * lh;
        let y1 = y0 + lh;
        RegionRect::new(
            0,
            self.mesh.nx(),
            y0.saturating_sub(radius.eta),
            (y1 + radius.eta).min(self.mesh.ny()),
        )
    }

    /// The *block* that sub-domain `(i, j)` needs out of a small bar: the
    /// layer expansion — what an I/O processor sends to compute rank `(i,j)`
    /// at one stage.
    pub fn block_of_small_bar(
        &self,
        id: SubDomainId,
        l: usize,
        layers: usize,
        radius: LocalizationRadius,
    ) -> RegionRect {
        let e = self.layer_expansion(id, l, layers, radius);
        debug_assert!(self.small_bar(id.j, l, layers, radius).contains_rect(&e));
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GridPoint;

    fn decomp() -> Decomposition {
        Decomposition::new(Mesh::new(24, 12), 4, 3).unwrap()
    }

    #[test]
    fn divisibility_is_enforced() {
        let mesh = Mesh::new(10, 9);
        assert!(matches!(
            Decomposition::new(mesh, 3, 3),
            Err(DecompError::Longitude { .. })
        ));
        assert!(matches!(
            Decomposition::new(mesh, 5, 4),
            Err(DecompError::Latitude { .. })
        ));
        assert!(Decomposition::new(mesh, 5, 3).is_ok());
        assert!(matches!(
            Decomposition::new(mesh, 0, 3),
            Err(DecompError::Longitude { .. })
        ));
    }

    #[test]
    fn subdomains_partition_the_mesh() {
        let d = decomp();
        let mut seen = vec![0u32; d.mesh().n()];
        for id in d.iter_ids() {
            for p in d.subdomain(id).iter_points() {
                seen[d.mesh().index(p)] += 1;
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "every point covered exactly once"
        );
    }

    #[test]
    fn expansion_contains_subdomain() {
        let d = decomp();
        let r = LocalizationRadius { xi: 2, eta: 1 };
        for id in d.iter_ids() {
            assert!(d.expansion(id, r).contains_rect(&d.subdomain(id)));
        }
    }

    #[test]
    fn interior_expansion_has_nominal_size() {
        let d = decomp();
        let r = LocalizationRadius { xi: 2, eta: 1 };
        let e = d.expansion(SubDomainId { i: 1, j: 1 }, r);
        assert_eq!(e.width(), d.sub_width() + 2 * r.xi);
        assert_eq!(e.height(), d.sub_height() + 2 * r.eta);
    }

    #[test]
    fn rank_ordering_roundtrips() {
        let d = decomp();
        for (k, id) in d.iter_ids().enumerate() {
            assert_eq!(d.rank_of(id), k);
            assert_eq!(d.id_of_rank(k), id);
        }
    }

    #[test]
    fn owner_of_matches_subdomain_membership() {
        let d = decomp();
        for p in d.mesh().iter_points() {
            let id = d.owner_of(p);
            assert!(d.subdomain(id).contains(p));
        }
    }

    #[test]
    fn layers_partition_subdomain() {
        let d = decomp();
        let id = SubDomainId { i: 2, j: 1 };
        let sub = d.subdomain(id);
        let layers = 2;
        let mut count = 0;
        for l in 0..layers {
            let lay = d.layer(id, l, layers);
            assert!(sub.contains_rect(&lay));
            count += lay.npoints();
        }
        assert_eq!(count, sub.npoints());
    }

    #[test]
    fn invalid_layer_count_rejected() {
        let d = decomp(); // sub_height = 4
        assert!(d.check_layers(3).is_err());
        assert!(d.check_layers(0).is_err());
        assert!(d.check_layers(4).is_ok());
    }

    #[test]
    fn bars_are_full_width_and_partition_latitude() {
        let d = decomp();
        let mut rows = 0;
        for j in 0..d.nsdy() {
            let b = d.bar(j);
            assert_eq!(b.width(), d.mesh().nx());
            rows += b.height();
        }
        assert_eq!(rows, d.mesh().ny());
    }

    #[test]
    fn small_bar_covers_every_block_of_its_layer() {
        let d = decomp();
        let r = LocalizationRadius { xi: 3, eta: 1 };
        let layers = 2;
        for j in 0..d.nsdy() {
            for l in 0..layers {
                let sb = d.small_bar(j, l, layers, r);
                for i in 0..d.nsdx() {
                    let blk = d.block_of_small_bar(SubDomainId { i, j }, l, layers, r);
                    assert!(
                        sb.contains_rect(&blk),
                        "small bar must contain block (i={i})"
                    );
                }
            }
        }
    }

    #[test]
    fn layer_expansion_contains_layer() {
        let d = decomp();
        let r = LocalizationRadius { xi: 1, eta: 2 };
        let id = SubDomainId { i: 0, j: 2 };
        for l in 0..2 {
            assert!(d
                .layer_expansion(id, l, 2, r)
                .contains_rect(&d.layer(id, l, 2)));
        }
    }

    #[test]
    fn owner_of_boundary_points() {
        let d = decomp();
        assert_eq!(
            d.owner_of(GridPoint { ix: 0, iy: 0 }),
            SubDomainId { i: 0, j: 0 }
        );
        assert_eq!(
            d.owner_of(GridPoint { ix: 23, iy: 11 }),
            SubDomainId { i: 3, j: 2 }
        );
        assert_eq!(
            d.owner_of(GridPoint { ix: 6, iy: 4 }),
            SubDomainId { i: 1, j: 1 }
        );
    }
}
