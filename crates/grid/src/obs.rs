//! Observation-network geometry.
//!
//! The observational operator `H ∈ R^{m×n}` of the paper selects (and in
//! general interpolates) `m ≪ n` observed components from the model state.
//! Geometrically an observation network is a set of observed grid points;
//! this module provides the regular (strided) networks the experiments use
//! and the restriction of a network to an expansion `D̄` — yielding the
//! local operator `H_{[i,j]}` with `m̄_sd` rows.

use crate::{GridPoint, Mesh, RegionRect};
use serde::{Deserialize, Serialize};

/// A set of observed grid points in a fixed (row-priority) order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObservationNetwork {
    mesh: Mesh,
    points: Vec<GridPoint>,
}

impl ObservationNetwork {
    /// A regular network observing every `stride_x`-th longitude and
    /// `stride_y`-th latitude point, starting at the given offsets.
    pub(crate) fn strided(
        mesh: Mesh,
        stride_x: usize,
        stride_y: usize,
        offset_x: usize,
        offset_y: usize,
    ) -> Self {
        assert!(stride_x > 0 && stride_y > 0, "strides must be positive");
        let mut points = Vec::new();
        let mut iy = offset_y;
        while iy < mesh.ny() {
            let mut ix = offset_x;
            while ix < mesh.nx() {
                points.push(GridPoint { ix, iy });
                ix += stride_x;
            }
            iy += stride_y;
        }
        ObservationNetwork { mesh, points }
    }

    /// Uniform stride in both directions with zero offset.
    pub fn uniform(mesh: Mesh, stride: usize) -> Self {
        Self::strided(mesh, stride, stride, 0, 0)
    }

    /// Build a network from an explicit point list (e.g. a sparse irregular
    /// network). Points must lie inside the mesh.
    pub fn from_points(mesh: Mesh, points: Vec<GridPoint>) -> Self {
        assert!(
            points.iter().all(|&p| mesh.contains(p)),
            "observation outside mesh"
        );
        ObservationNetwork { mesh, points }
    }

    /// The mesh the network observes.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// Number of observed components `m`.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no point is observed.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The observed points, in network order (row `k` of `H` observes
    /// `points()[k]`).
    pub fn points(&self) -> &[GridPoint] {
        &self.points
    }

    /// Global observation indices (rows of `H`) whose points fall inside a
    /// region, in network order. These are the rows of the local operator
    /// `H_{[i,j]}` and the entries of `Yˢ_{[i,j]}` / `R_{[i,j]}`.
    pub fn indices_in(&self, region: &RegionRect) -> Vec<usize> {
        self.points
            .iter()
            .enumerate()
            .filter(|(_, &p)| region.contains(p))
            .map(|(k, _)| k)
            .collect()
    }
}

/// Bucket-grid spatial index over an observation network.
///
/// Built once per assimilation cycle, it answers "which observations fall
/// inside this rectangle" in O(obs in box) instead of O(all obs) — the query
/// every localization box issues per grid point. Results are byte-identical
/// to [`ObservationNetwork::indices_in`]: the same indices, ascending.
#[derive(Debug, Clone)]
pub struct ObsIndex {
    cell: usize,
    ncx: usize,
    ncy: usize,
    /// CSR bucket offsets into `items`, length `ncx * ncy + 1`.
    starts: Vec<usize>,
    /// Observation indices grouped by bucket (network order within each).
    items: Vec<usize>,
    /// Copy of the network's points for the partial-bucket filter.
    points: Vec<GridPoint>,
}

impl ObsIndex {
    /// Index a network with square buckets of `cell` grid points per edge.
    ///
    /// Pick `cell` on the order of the localization radius so a typical box
    /// query touches O(1) buckets.
    pub fn build(net: &ObservationNetwork, cell: usize) -> Self {
        assert!(cell > 0, "bucket edge must be positive");
        let mesh = net.mesh();
        let ncx = mesh.nx().div_ceil(cell).max(1);
        let ncy = mesh.ny().div_ceil(cell).max(1);
        let nb = ncx * ncy;
        let bucket = |p: GridPoint| (p.iy / cell) * ncx + p.ix / cell;
        // Counting sort into CSR layout; network order survives per bucket.
        let mut starts = vec![0usize; nb + 1];
        for &p in net.points() {
            starts[bucket(p) + 1] += 1;
        }
        for b in 0..nb {
            starts[b + 1] += starts[b];
        }
        let mut fill = starts.clone();
        let mut items = vec![0usize; net.len()];
        for (k, &p) in net.points().iter().enumerate() {
            let b = bucket(p);
            items[fill[b]] = k;
            fill[b] += 1;
        }
        ObsIndex {
            cell,
            ncx,
            ncy,
            starts,
            items,
            points: net.points().to_vec(),
        }
    }

    /// Observation indices inside `region`, ascending, written into a
    /// caller-owned buffer (allocation-free at steady state).
    pub(crate) fn indices_in_into(&self, region: &RegionRect, out: &mut Vec<usize>) {
        out.clear();
        if region.is_empty() || self.points.is_empty() {
            return;
        }
        let bx0 = region.x0 / self.cell;
        let bx1 = ((region.x1 - 1) / self.cell).min(self.ncx - 1);
        let by0 = region.y0 / self.cell;
        let by1 = ((region.y1 - 1) / self.cell).min(self.ncy - 1);
        for by in by0..=by1 {
            for bx in bx0..=bx1 {
                let b = by * self.ncx + bx;
                let seg = &self.items[self.starts[b]..self.starts[b + 1]];
                let bucket_inside = bx * self.cell >= region.x0
                    && (bx + 1) * self.cell <= region.x1
                    && by * self.cell >= region.y0
                    && (by + 1) * self.cell <= region.y1;
                if bucket_inside {
                    out.extend_from_slice(seg);
                } else {
                    out.extend(
                        seg.iter()
                            .copied()
                            .filter(|&k| region.contains(self.points[k])),
                    );
                }
            }
        }
        // Buckets are visited in row-major bucket order, not network order;
        // restore the ascending order the linear scan produces.
        out.sort_unstable();
    }

    /// Observation indices inside `region`, ascending (allocating variant).
    pub fn indices_in(&self, region: &RegionRect) -> Vec<usize> {
        let mut out = Vec::new();
        self.indices_in_into(region, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_network_count() {
        let mesh = Mesh::new(12, 6);
        let net = ObservationNetwork::uniform(mesh, 3);
        // ix in {0,3,6,9}, iy in {0,3}: 4 * 2 points.
        assert_eq!(net.len(), 8);
        assert!(!net.is_empty());
    }

    #[test]
    fn strided_offsets_respected() {
        let mesh = Mesh::new(10, 10);
        let net = ObservationNetwork::strided(mesh, 4, 5, 1, 2);
        assert!(net
            .points()
            .iter()
            .all(|p| (p.ix - 1) % 4 == 0 && (p.iy - 2) % 5 == 0));
        assert!(net.points().iter().all(|&p| mesh.contains(p)));
    }

    #[test]
    fn indices_in_region_are_sorted_and_consistent() {
        let mesh = Mesh::new(12, 6);
        let net = ObservationNetwork::uniform(mesh, 2);
        let region = RegionRect::new(4, 9, 2, 5);
        let idx = net.indices_in(&region);
        let inside = net.points().iter().filter(|&&p| region.contains(p));
        assert_eq!(idx.len(), inside.count());
        assert!(
            idx.windows(2).all(|w| w[0] < w[1]),
            "network order preserved"
        );
        assert!(idx.iter().all(|&k| region.contains(net.points()[k])));
    }

    #[test]
    fn whole_mesh_region_captures_all() {
        let mesh = Mesh::new(8, 8);
        let net = ObservationNetwork::uniform(mesh, 3);
        let all = net.indices_in(&RegionRect::full(mesh));
        assert_eq!(all.len(), net.len());
    }

    #[test]
    #[should_panic(expected = "observation outside mesh")]
    fn from_points_validates() {
        let mesh = Mesh::new(4, 4);
        ObservationNetwork::from_points(mesh, vec![GridPoint { ix: 4, iy: 0 }]);
    }

    #[test]
    fn empty_region_has_no_observations() {
        let mesh = Mesh::new(8, 8);
        let net = ObservationNetwork::uniform(mesh, 2);
        let empty = RegionRect::new(3, 3, 0, 8);
        assert!(net.indices_in(&empty).is_empty());
    }

    #[test]
    fn obs_index_matches_linear_scan() {
        let mesh = Mesh::new(13, 9);
        let net = ObservationNetwork::strided(mesh, 2, 3, 1, 0);
        for cell in [1usize, 2, 4, 16] {
            let index = ObsIndex::build(&net, cell);
            assert_eq!(index.items.len(), net.len());
            for region in [
                RegionRect::new(0, 13, 0, 9),
                RegionRect::new(3, 8, 2, 7),
                RegionRect::new(5, 5, 0, 9),
                RegionRect::new(0, 1, 8, 9),
                RegionRect::new(12, 13, 0, 1),
            ] {
                assert_eq!(
                    index.indices_in(&region),
                    net.indices_in(&region),
                    "cell {cell}, region {region:?}"
                );
            }
        }
    }

    #[test]
    fn obs_index_reuses_query_buffer() {
        let mesh = Mesh::new(8, 8);
        let net = ObservationNetwork::uniform(mesh, 2);
        let index = ObsIndex::build(&net, 3);
        let mut out = vec![42; 7];
        index.indices_in_into(&RegionRect::new(0, 4, 0, 4), &mut out);
        assert_eq!(out, net.indices_in(&RegionRect::new(0, 4, 0, 4)));
        index.indices_in_into(&RegionRect::new(4, 4, 0, 8), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn obs_index_on_empty_network() {
        let mesh = Mesh::new(4, 4);
        let net = ObservationNetwork::from_points(mesh, Vec::new());
        let index = ObsIndex::build(&net, 2);
        assert!(index.items.is_empty());
        assert!(index.indices_in(&RegionRect::full(mesh)).is_empty());
    }
}
