//! Axis-aligned half-open rectangles of grid points.
//!
//! Sub-domains, expansions, layers, bars and read-blocks are all
//! [`RegionRect`]s; the decomposition module constructs them and the file
//! layout module turns them into byte segments.

use crate::{GridPoint, LocalizationRadius, Mesh};
use serde::{Deserialize, Serialize};

/// A half-open rectangle `[x0, x1) × [y0, y1)` of grid points.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RegionRect {
    /// First longitude index (inclusive).
    pub x0: usize,
    /// One past the last longitude index.
    pub x1: usize,
    /// First latitude index (inclusive).
    pub y0: usize,
    /// One past the last latitude index.
    pub y1: usize,
}

impl RegionRect {
    /// Construct; requires a non-degenerate ordering (`x0 ≤ x1`, `y0 ≤ y1`).
    pub fn new(x0: usize, x1: usize, y0: usize, y1: usize) -> Self {
        assert!(x0 <= x1 && y0 <= y1, "degenerate region bounds");
        RegionRect { x0, x1, y0, y1 }
    }

    /// The rectangle covering an entire mesh.
    pub fn full(mesh: Mesh) -> Self {
        RegionRect::new(0, mesh.nx(), 0, mesh.ny())
    }

    /// Extent along longitude.
    #[inline]
    pub fn width(&self) -> usize {
        self.x1 - self.x0
    }

    /// Extent along latitude.
    #[inline]
    pub fn height(&self) -> usize {
        self.y1 - self.y0
    }

    /// Number of grid points covered.
    #[inline]
    pub fn npoints(&self) -> usize {
        self.width() * self.height()
    }

    /// True when the rectangle covers no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.x0 == self.x1 || self.y0 == self.y1
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, p: GridPoint) -> bool {
        p.ix >= self.x0 && p.ix < self.x1 && p.iy >= self.y0 && p.iy < self.y1
    }

    /// Whether `self` contains every point of `other`.
    pub fn contains_rect(&self, other: &RegionRect) -> bool {
        other.is_empty()
            || (self.x0 <= other.x0
                && other.x1 <= self.x1
                && self.y0 <= other.y0
                && other.y1 <= self.y1)
    }

    /// Intersection (possibly empty).
    pub fn intersect(&self, other: &RegionRect) -> RegionRect {
        let x0 = self.x0.max(other.x0);
        let x1 = self.x1.min(other.x1).max(x0);
        let y0 = self.y0.max(other.y0);
        let y1 = self.y1.min(other.y1).max(y0);
        RegionRect { x0, x1, y0, y1 }
    }

    /// Expand by the localization radius and clamp to the mesh: this is the
    /// expansion `D̄` of a sub-domain `D` (Fig. 2b) — the sub-domain plus
    /// every halo point its local analyses need.
    pub fn expand(&self, radius: LocalizationRadius, mesh: Mesh) -> RegionRect {
        RegionRect {
            x0: self.x0.saturating_sub(radius.xi),
            x1: (self.x1 + radius.xi).min(mesh.nx()),
            y0: self.y0.saturating_sub(radius.eta),
            y1: (self.y1 + radius.eta).min(mesh.ny()),
        }
    }

    /// Iterate over the covered points in row-priority (latitude-major)
    /// order — the same order the region's data appears in a file and in a
    /// gathered local matrix.
    pub fn iter_points(&self) -> impl Iterator<Item = GridPoint> + '_ {
        let (x0, x1, y0, y1) = (self.x0, self.x1, self.y0, self.y1);
        (y0..y1).flat_map(move |iy| (x0..x1).map(move |ix| GridPoint { ix, iy }))
    }

    /// Local (region-relative) index of a global point, in the order of
    /// [`RegionRect::iter_points`]. Panics outside the region.
    #[inline]
    pub fn local_index(&self, p: GridPoint) -> usize {
        assert!(self.contains(p), "point not inside region");
        (p.iy - self.y0) * self.width() + (p.ix - self.x0)
    }

    /// Inverse of [`RegionRect::local_index`].
    #[inline]
    pub fn point_at(&self, local: usize) -> GridPoint {
        debug_assert!(local < self.npoints());
        GridPoint {
            ix: self.x0 + local % self.width(),
            iy: self.y0 + local / self.width(),
        }
    }

    /// Local indices of the points of `inner` within `self` (row-priority
    /// over `inner`). Used to project an expansion-local analysis back onto
    /// the sub-domain (the paper's implicit `P_{i,j}`).
    pub fn local_indices_of(&self, inner: &RegionRect) -> Vec<usize> {
        debug_assert!(self.contains_rect(inner), "inner region escapes outer");
        inner.iter_points().map(|p| self.local_index(p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_extents() {
        let r = RegionRect::new(2, 6, 1, 4);
        assert_eq!(r.width(), 4);
        assert_eq!(r.height(), 3);
        assert_eq!(r.npoints(), 12);
        assert!(!r.is_empty());
        assert!(RegionRect::new(3, 3, 0, 9).is_empty());
    }

    #[test]
    fn contains_and_local_index_roundtrip() {
        let r = RegionRect::new(2, 6, 1, 4);
        for (k, p) in r.iter_points().enumerate() {
            assert!(r.contains(p));
            assert_eq!(r.local_index(p), k);
            assert_eq!(r.point_at(k), p);
        }
    }

    #[test]
    fn expansion_clamps_at_boundaries() {
        let mesh = Mesh::new(10, 8);
        let radius = LocalizationRadius { xi: 3, eta: 2 };
        let corner = RegionRect::new(0, 5, 0, 4);
        let e = corner.expand(radius, mesh);
        assert_eq!(e, RegionRect::new(0, 8, 0, 6));
        let inner = RegionRect::new(5, 8, 4, 6);
        let e2 = inner.expand(radius, mesh);
        assert_eq!(e2, RegionRect::new(2, 10, 2, 8));
        assert!(e2.contains_rect(&inner));
    }

    #[test]
    fn intersect_empty_when_disjoint() {
        let a = RegionRect::new(0, 2, 0, 2);
        let b = RegionRect::new(5, 7, 5, 7);
        assert!(a.intersect(&b).is_empty());
        let c = RegionRect::new(1, 6, 1, 6);
        assert_eq!(a.intersect(&c), RegionRect::new(1, 2, 1, 2));
    }

    #[test]
    fn local_indices_of_projects_subdomain() {
        let outer = RegionRect::new(0, 4, 0, 4);
        let inner = RegionRect::new(1, 3, 1, 3);
        assert_eq!(outer.local_indices_of(&inner), vec![5, 6, 9, 10]);
    }

    #[test]
    fn full_covers_mesh() {
        let mesh = Mesh::new(6, 3);
        assert_eq!(RegionRect::full(mesh).npoints(), mesh.n());
    }
}
