//! Mapping grid regions to byte segments of the on-disk layout.
//!
//! One ensemble member file stores the mesh row-priority (latitude line by
//! latitude line), `h` bytes per grid point (the paper's *volume of data per
//! grid point* — 30 vertical levels of `f64` gives `h = 240`). A read of a
//! [`RegionRect`] therefore decomposes into one contiguous byte segment per
//! latitude row — unless the region spans the full longitude extent, in
//! which case consecutive rows merge into a single segment. Segment count is
//! exactly the number of *disk addressing operations* the paper's analysis
//! counts: `O(n_y · n_sdx)` per member for block reading versus one per bar
//! for bar reading.

use crate::{Mesh, RegionRect};
use serde::{Deserialize, Serialize};

/// A contiguous byte range within an ensemble-member file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ByteSegment {
    /// Offset from the start of the file, in bytes.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

/// The row-priority byte layout of one ensemble member on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileLayout {
    mesh: Mesh,
    bytes_per_point: u64,
}

impl FileLayout {
    /// Create a layout for the given mesh and per-point payload (`h`).
    pub fn new(mesh: Mesh, bytes_per_point: u64) -> Self {
        assert!(bytes_per_point > 0, "bytes_per_point must be positive");
        FileLayout {
            mesh,
            bytes_per_point,
        }
    }

    /// The mesh this layout describes.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// Bytes per grid point (`h` in Table 1).
    pub fn bytes_per_point(&self) -> u64 {
        self.bytes_per_point
    }

    /// Total file size in bytes.
    pub fn file_size(&self) -> u64 {
        self.mesh.n() as u64 * self.bytes_per_point
    }

    /// Visit the contiguous byte segments covering a region, in file
    /// order, with adjacent segments merged, without allocating — so a warm
    /// region read touches the heap zero times. Full-width regions always
    /// collapse to a single segment; a `w`-column region of `r` rows yields
    /// `r` segments.
    pub fn for_each_segment(&self, region: &RegionRect, mut f: impl FnMut(ByteSegment)) {
        if region.is_empty() {
            return;
        }
        debug_assert!(
            RegionRect::full(self.mesh).contains_rect(region),
            "region escapes the mesh"
        );
        let h = self.bytes_per_point;
        let row_bytes = self.mesh.nx() as u64 * h;
        let seg_len = region.width() as u64 * h;
        if region.width() == self.mesh.nx() {
            // Full-width rows are adjacent in the row-priority layout: the
            // whole region merges into one segment (the bar-reading case).
            f(ByteSegment {
                offset: region.y0 as u64 * row_bytes,
                len: seg_len * region.height() as u64,
            });
            return;
        }
        for iy in region.y0..region.y1 {
            f(ByteSegment {
                offset: iy as u64 * row_bytes + region.x0 as u64 * h,
                len: seg_len,
            });
        }
    }

    /// Number of disk addressing operations (seeks) a read of the region
    /// incurs: one per non-adjacent segment.
    pub fn seek_count(&self, region: &RegionRect) -> usize {
        if region.is_empty() {
            0
        } else if region.width() == self.mesh.nx() {
            1
        } else {
            region.height()
        }
    }

    /// Total bytes a read of the region transfers.
    pub fn region_bytes(&self, region: &RegionRect) -> u64 {
        region.npoints() as u64 * self.bytes_per_point
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The segments `for_each_segment` visits.
    fn segments(l: &FileLayout, region: &RegionRect) -> Vec<ByteSegment> {
        let mut out = Vec::new();
        l.for_each_segment(region, |seg| out.push(seg));
        out
    }

    fn layout() -> FileLayout {
        FileLayout::new(Mesh::new(8, 4), 16)
    }

    #[test]
    fn file_size_covers_every_point() {
        let l = layout();
        assert_eq!(l.file_size(), 8 * 4 * 16);
    }

    #[test]
    fn full_width_region_is_single_segment() {
        let l = layout();
        let bar = RegionRect::new(0, 8, 1, 3);
        let segs = segments(&l, &bar);
        assert_eq!(segs.len(), 1);
        assert_eq!(
            segs[0],
            ByteSegment {
                offset: 8 * 16,
                len: 2 * 8 * 16
            }
        );
        assert_eq!(l.seek_count(&bar), 1);
    }

    #[test]
    fn partial_width_region_is_one_segment_per_row() {
        let l = layout();
        let block = RegionRect::new(2, 5, 1, 4);
        let segs = segments(&l, &block);
        assert_eq!(segs.len(), 3);
        for (k, seg) in segs.iter().enumerate() {
            assert_eq!(seg.offset, ((1 + k as u64) * 8 + 2) * 16);
            assert_eq!(seg.len, 3 * 16);
        }
        assert_eq!(l.seek_count(&block), 3);
    }

    #[test]
    fn segment_bytes_sum_to_region_bytes() {
        let l = layout();
        let r = RegionRect::new(1, 7, 0, 4);
        let total: u64 = segments(&l, &r).iter().map(|s| s.len).sum();
        assert_eq!(total, l.region_bytes(&r));
    }

    #[test]
    fn empty_region_has_no_segments() {
        let l = layout();
        let r = RegionRect::new(3, 3, 0, 4);
        assert!(segments(&l, &r).is_empty());
        assert_eq!(l.seek_count(&r), 0);
    }

    #[test]
    fn whole_file_is_one_segment() {
        let l = layout();
        let segs = segments(&l, &RegionRect::full(l.mesh()));
        assert_eq!(
            segs,
            vec![ByteSegment {
                offset: 0,
                len: l.file_size()
            }]
        );
    }

    #[test]
    fn seek_count_matches_segments() {
        let l = layout();
        for r in [
            RegionRect::new(0, 8, 0, 2),
            RegionRect::new(1, 4, 1, 3),
            RegionRect::new(0, 4, 0, 4),
        ] {
            assert_eq!(l.seek_count(&r), segments(&l, &r).len());
        }
    }
}
