//! The latitude–longitude mesh and its flat indexing.

use serde::{Deserialize, Serialize};

/// A 2-D latitude–longitude mesh with `nx` points along longitude and `ny`
/// points along latitude (`n = nx · ny` model components per level).
///
/// Flat index convention (row-priority, rows = latitude lines):
/// `index(p) = p.iy * nx + p.ix`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Mesh {
    nx: usize,
    ny: usize,
}

/// A grid point: `ix` ∈ [0, nx) along longitude, `iy` ∈ [0, ny) along
/// latitude.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GridPoint {
    /// Longitude index.
    pub ix: usize,
    /// Latitude index.
    pub iy: usize,
}

impl Mesh {
    /// Create a mesh; both extents must be positive.
    pub fn new(nx: usize, ny: usize) -> Self {
        assert!(nx > 0 && ny > 0, "mesh extents must be positive");
        Mesh { nx, ny }
    }

    /// Points along longitude.
    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Points along latitude.
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Total number of model components `n = nx · ny`.
    #[inline]
    pub fn n(&self) -> usize {
        self.nx * self.ny
    }

    /// Flat index of a point (row-priority by latitude line).
    #[inline]
    pub fn index(&self, p: GridPoint) -> usize {
        debug_assert!(self.contains(p), "point out of mesh bounds");
        p.iy * self.nx + p.ix
    }

    /// Inverse of [`Mesh::index`].
    #[inline]
    pub fn point(&self, index: usize) -> GridPoint {
        debug_assert!(index < self.n(), "flat index out of bounds");
        GridPoint {
            ix: index % self.nx,
            iy: index / self.nx,
        }
    }

    /// Whether the point lies inside the mesh.
    #[inline]
    pub fn contains(&self, p: GridPoint) -> bool {
        p.ix < self.nx && p.iy < self.ny
    }

    /// Iterate over all points in storage (row-priority) order.
    pub fn iter_points(&self) -> impl Iterator<Item = GridPoint> + '_ {
        (0..self.n()).map(|i| self.point(i))
    }

    /// Chebyshev-style anisotropic distance used by the local box test:
    /// `q` is inside the box of `p` iff `|Δx| ≤ ξ` and `|Δy| ≤ η`.
    pub fn in_local_box(
        &self,
        p: GridPoint,
        q: GridPoint,
        radius: crate::LocalizationRadius,
    ) -> bool {
        p.ix.abs_diff(q.ix) <= radius.xi && p.iy.abs_diff(q.iy) <= radius.eta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LocalizationRadius;

    #[test]
    fn index_roundtrip() {
        let m = Mesh::new(7, 5);
        for i in 0..m.n() {
            assert_eq!(m.index(m.point(i)), i);
        }
    }

    #[test]
    fn latitude_lines_are_contiguous() {
        let m = Mesh::new(10, 4);
        let a = m.index(GridPoint { ix: 0, iy: 2 });
        let b = m.index(GridPoint { ix: 9, iy: 2 });
        assert_eq!(b - a, 9, "one latitude line spans consecutive flat indices");
    }

    #[test]
    fn local_box_membership() {
        let m = Mesh::new(20, 20);
        let r = LocalizationRadius { xi: 4, eta: 2 };
        let c = GridPoint { ix: 10, iy: 10 };
        assert!(m.in_local_box(c, GridPoint { ix: 14, iy: 12 }, r));
        assert!(!m.in_local_box(c, GridPoint { ix: 15, iy: 10 }, r));
        assert!(!m.in_local_box(c, GridPoint { ix: 10, iy: 13 }, r));
    }

    #[test]
    fn iter_points_visits_all_once() {
        let m = Mesh::new(3, 4);
        let pts: Vec<_> = m.iter_points().collect();
        assert_eq!(pts.len(), 12);
        assert_eq!(pts[0], GridPoint { ix: 0, iy: 0 });
        assert_eq!(pts[11], GridPoint { ix: 2, iy: 3 });
    }

    #[test]
    #[should_panic(expected = "mesh extents must be positive")]
    fn zero_extent_rejected() {
        Mesh::new(0, 5);
    }
}
