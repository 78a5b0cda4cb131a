//! Observation-network geometry, and the one spatial index over it.
//!
//! The observational operator `H ∈ R^{m×n}` of the paper selects (and in
//! general interpolates) `m ≪ n` observed components from the model state.
//! Geometrically an observation network is a set of observed grid points;
//! this module provides the regular (strided) networks the experiments use
//! and the restriction of a network to an expansion `D̄` — yielding the
//! local operator `H_{[i,j]}` with `m̄_sd` rows. [`ObsIndex`] answers every
//! "which observations lie in this box" query of the workspace: over the
//! network for an expansion, and over an expansion's observations for a
//! grid point's box. [`ObservationNetwork::indices_in`] is its linear-scan
//! oracle.

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

/// The bucket-grid spatial index: which of a set of points lie in a box.
///
/// It indexes any points inside an outer rectangle — item `k` lying at the
/// `k`-th point it was built from — in square buckets anchored at the
/// rectangle's corner, and answers a box query in O(items in the box)
/// instead of O(all items). A bucket the box holds whole is copied as is;
/// only the partial buckets at the box's rim are filtered point by point.
/// Hits come back ascending, the order a linear scan gives them.
///
/// It has two uses: over an observation network's points inside the mesh
/// (`enkf_core::Observations::localize`, buckets of about the mean
/// observation spacing), and over an expansion's observations
/// (`enkf_core::LocalObsIndex`, which re-localizes them to each grid
/// point's box, buckets of about the localization radius).
#[derive(Debug, Clone)]
pub struct ObsIndex {
    outer: RegionRect,
    cell: usize,
    /// Buckets per row.
    ncx: usize,
    /// CSR bucket offsets into `items`, length `ncx * ncy + 1`.
    starts: Vec<usize>,
    /// Item numbers grouped by bucket (ascending within each).
    items: Vec<usize>,
    /// Each item's point, for the partial-bucket filter.
    points: Vec<GridPoint>,
}

impl ObsIndex {
    /// Index `points`, every one inside `outer`, with square buckets of
    /// `cell` grid points per edge. Pick `cell` so that a typical query
    /// touches O(1) buckets.
    pub fn build(points: Vec<GridPoint>, outer: &RegionRect, cell: usize) -> Self {
        assert!(cell > 0, "bucket edge must be positive");
        assert!(
            points.iter().all(|&p| outer.contains(p)),
            "indexed point outside its outer rectangle"
        );
        let ncx = outer.width().div_ceil(cell).max(1);
        let nb = ncx * outer.height().div_ceil(cell).max(1);
        let bucket = |p: GridPoint| ((p.iy - outer.y0) / cell) * ncx + (p.ix - outer.x0) / cell;
        // Counting sort into CSR layout; item order survives per bucket.
        let mut starts = vec![0usize; nb + 1];
        for &p in &points {
            starts[bucket(p) + 1] += 1;
        }
        for b in 0..nb {
            starts[b + 1] += starts[b];
        }
        let mut fill = starts.clone();
        let mut items = vec![0usize; points.len()];
        for (k, &p) in points.iter().enumerate() {
            let b = bucket(p);
            items[fill[b]] = k;
            fill[b] += 1;
        }
        ObsIndex {
            outer: *outer,
            cell,
            ncx,
            starts,
            items,
            points,
        }
    }

    /// The items whose points lie inside `region`, ascending, written into
    /// a caller-owned buffer (allocation-free at steady state). The part of
    /// `region` outside the outer rectangle holds none.
    pub fn query_into(&self, region: &RegionRect, out: &mut Vec<usize>) {
        out.clear();
        let (o, cell) = (&self.outer, self.cell);
        let r = region.intersect(o);
        if r.is_empty() || self.items.is_empty() {
            return;
        }
        // Bucket `b`'s span along an axis of `outer` from `lo` to `hi`.
        let span = |b: usize, lo: usize, hi: usize| (lo + b * cell, (lo + (b + 1) * cell).min(hi));
        for by in (r.y0 - o.y0) / cell..=(r.y1 - 1 - o.y0) / cell {
            let (y0, y1) = span(by, o.y0, o.y1);
            for bx in (r.x0 - o.x0) / cell..=(r.x1 - 1 - o.x0) / cell {
                let (x0, x1) = span(bx, o.x0, o.x1);
                let b = by * self.ncx + bx;
                let seg = &self.items[self.starts[b]..self.starts[b + 1]];
                if r.contains_rect(&RegionRect { x0, x1, y0, y1 }) {
                    out.extend_from_slice(seg);
                } else {
                    out.extend(seg.iter().copied().filter(|&k| r.contains(self.points[k])));
                }
            }
        }
        // Buckets are visited in row-major bucket order, not item order;
        // restore the ascending order the linear scan produces.
        out.sort_unstable();
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

    /// The network's index with `cell`-point buckets over the whole mesh.
    fn network_index(net: &ObservationNetwork, cell: usize) -> ObsIndex {
        ObsIndex::build(net.points().to_vec(), &RegionRect::full(net.mesh()), cell)
    }

    #[test]
    fn obs_index_matches_linear_scan() {
        let mesh = Mesh::new(13, 9);
        let net = ObservationNetwork::strided(mesh, 2, 3, 1, 0);
        let mut out = Vec::new();
        for cell in [1usize, 2, 4, 16] {
            let index = network_index(&net, cell);
            assert_eq!(index.items.len(), net.len());
            for region in [
                RegionRect::new(0, 13, 0, 9),
                RegionRect::new(3, 8, 2, 7),
                RegionRect::new(5, 5, 0, 9),
                RegionRect::new(0, 1, 8, 9),
                RegionRect::new(12, 13, 0, 1),
            ] {
                index.query_into(&region, &mut out);
                assert_eq!(
                    out,
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
        let index = network_index(&net, 3);
        let mut out = vec![42; 7];
        index.query_into(&RegionRect::new(0, 4, 0, 4), &mut out);
        assert_eq!(out, net.indices_in(&RegionRect::new(0, 4, 0, 4)));
        index.query_into(&RegionRect::new(4, 4, 0, 8), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn obs_index_on_empty_network() {
        let mesh = Mesh::new(4, 4);
        let net = ObservationNetwork::from_points(mesh, Vec::new());
        let index = network_index(&net, 2);
        assert!(index.items.is_empty());
        let mut out = vec![1];
        index.query_into(&RegionRect::full(mesh), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn obs_index_counts_only_its_outer_rectangle() {
        // Items inside an interior rectangle, bucketed from its corner; a
        // query reaching past it sees only its part inside.
        let outer = RegionRect::new(3, 10, 2, 7);
        let points: Vec<_> = outer.iter_points().step_by(3).collect();
        let index = ObsIndex::build(points.clone(), &outer, 2);
        let mut out = Vec::new();
        let query = RegionRect::new(0, 6, 0, 5);
        index.query_into(&query, &mut out);
        let scan: Vec<usize> = (0..points.len())
            .filter(|&k| query.contains(points[k]))
            .collect();
        assert_eq!(out, scan);
    }

    #[test]
    #[should_panic(expected = "outside its outer rectangle")]
    fn obs_index_refuses_a_point_outside_its_outer_rectangle() {
        let outer = RegionRect::new(2, 4, 2, 4);
        ObsIndex::build(vec![GridPoint { ix: 4, iy: 2 }], &outer, 1);
    }
}
