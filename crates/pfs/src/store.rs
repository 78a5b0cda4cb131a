//! The real file backend: ensemble members as files on local disk.
//!
//! Each background ensemble member `X^{b[k]}` is one file (`member_XXXX.bin`)
//! holding the mesh row-priority with `h = 8·levels` bytes per grid point
//! (little-endian `f64` per vertical level). Region reads are issued
//! segment-by-segment exactly as [`enkf_grid::FileLayout`] predicts, so the
//! seek/byte accounting of the real backend matches what the DES model
//! charges for.
//!
//! # Zero-copy data plane
//!
//! The store is the hot edge of the read/scatter path, so it avoids the
//! pure-software taxes the paper's C/MPI implementation never paid:
//!
//! * [`RegionData`] is an offset-indexed **view** over an `Arc`-shared
//!   backing slab. [`RegionData::extract`] (bar → per-sub-domain block
//!   splitting) is O(1) and allocation-free: every block sent to a compute
//!   rank is a refcount bump on the bar's single allocation, not a copy.
//! * A [`BufferPool`] recycles the `f64` slabs: once warm, a read
//!   performs **zero heap allocations** (slabs return to the pool
//!   automatically when the last view into them drops).
//! * The slab keeps what the reader needs. The executors read with
//!   [`FileStore::read_surface`]: the kernel copies all `h` bytes of each
//!   point into a cache-resident bounce buffer (about 256 KiB, checked out
//!   of the same pool), and the slab keeps the point's 8-byte surface
//!   value. [`FileStore::read_region`] keeps every level: it issues its
//!   per-segment `seek + read_exact` straight into the pooled slab through
//!   its byte view ([`enkf_linalg::kernel::convert::fill_le_f64`]) — no
//!   staging buffer and no decode pass. Neither zero-fills: a recycled
//!   slab is already initialised and is only resized. A write hands the
//!   kernel the values' little-endian byte view
//!   ([`enkf_linalg::kernel::convert::f64_le_bytes`]). Both views are
//!   borrows on little-endian targets and byte-swap on big-endian ones;
//!   this crate itself contains no `unsafe`.
//! * A small open-file-handle cache removes the per-read `File::open`.
//!
//! None of this changes what is counted: both reads issue the same
//! segments in the same order, so `IoStats` seeks/bytes and the
//! [`FileStore::op_cost`] contract — and with them the real-vs-model trace
//! digests — do not move.
//! The independent oracle (`std::fs` + [`FileLayout::for_each_segment`] +
//! per-value `f64::from_le_bytes`) lives in `tests/proptests.rs`.

use enkf_fault::ReadError;
use enkf_grid::{FileLayout, RegionRect};
use enkf_linalg::kernel::convert::{f64_le_bytes, fill_le_f64};
use parking_lot::Mutex;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Cumulative I/O accounting for a store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Number of disk addressing operations (seeks) issued.
    pub seeks: u64,
    /// Bytes read from disk.
    pub bytes_read: u64,
    /// Bytes written to disk.
    pub bytes_written: u64,
}

/// The values of one region of one ensemble member, in the region's
/// row-priority local order, `levels` values per point — implemented as an
/// offset-indexed view over a shared backing slab.
///
/// A freshly read region owns a slab covering exactly its own points;
/// [`RegionData::extract`] returns a sub-view sharing the same slab (O(1),
/// no copy), which is what travels through channels when a bar is fanned
/// out to its sub-domain blocks.
#[derive(Debug, Clone)]
pub struct RegionData {
    region: RegionRect,
    levels: usize,
    /// Backing slab, shared between all views split from one read.
    values: Arc<Vec<f64>>,
    /// Index in `values` of the region's first point's level-0 value.
    base: usize,
    /// Values per backing row (backing width × levels).
    row_stride: usize,
}

impl RegionData {
    /// Owned region data from a contiguous local-row-major value vector
    /// (`region.npoints() * levels` values).
    pub fn from_vec(region: RegionRect, levels: usize, values: Vec<f64>) -> Self {
        Self::from_shared(region, levels, Arc::new(values))
    }

    /// Owned region data over an already-shared slab covering exactly
    /// `region` in local row-major order.
    pub(crate) fn from_shared(region: RegionRect, levels: usize, values: Arc<Vec<f64>>) -> Self {
        assert_eq!(
            values.len(),
            region.npoints() * levels,
            "value count mismatch"
        );
        RegionData {
            region,
            levels,
            values,
            base: 0,
            row_stride: region.width() * levels,
        }
    }

    /// The region the values cover.
    #[inline]
    pub fn region(&self) -> RegionRect {
        self.region
    }

    /// Values per grid point (vertical levels).
    #[inline]
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Grid points covered.
    #[inline]
    pub(crate) fn npoints(&self) -> usize {
        self.region.npoints()
    }

    /// Total values covered (`npoints() * levels()`).
    #[inline]
    pub fn len(&self) -> usize {
        self.npoints() * self.levels
    }

    /// True when the region covers no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.region.is_empty()
    }

    /// Value at a region-local point index and vertical level.
    #[inline]
    pub fn value(&self, local: usize, level: usize) -> f64 {
        debug_assert!(level < self.levels);
        let w = self.region.width();
        self.values[self.base + (local / w) * self.row_stride + (local % w) * self.levels + level]
    }

    /// One local row (latitude line) of the view: `width() * levels`
    /// contiguous values. Row-wise access avoids the per-value index
    /// arithmetic of [`RegionData::value`].
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.region.height());
        let start = self.base + r * self.row_stride;
        &self.values[start..start + self.region.width() * self.levels]
    }

    /// Iterate the surface (level-0) values in local row-priority order —
    /// the analysis variable the executors assemble into `X̄ᵇ` columns.
    pub fn surface(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.region.height())
            .flat_map(move |r| self.row(r).iter().step_by(self.levels).copied())
    }

    /// The whole view when it is contiguous in its backing slab (owned
    /// data, full-backing-width views, and single-row views), else `None`.
    pub fn as_contiguous(&self) -> Option<&[f64]> {
        if self.region.height() <= 1 || self.row_stride == self.region.width() * self.levels {
            Some(&self.values[self.base..self.base + self.len()])
        } else {
            None
        }
    }

    /// Copy out into a contiguous local-row-major vector.
    pub fn to_vec(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len());
        for r in 0..self.region.height() {
            out.extend_from_slice(self.row(r));
        }
        out
    }

    /// Extract the sub-region `inner` (must be contained in `self.region`)
    /// as a **view** sharing this data's backing slab — how a bar is split
    /// into the per-sub-domain blocks that I/O processors send onward. O(1):
    /// the returned value is an offset, a stride and a refcount bump.
    pub fn extract(&self, inner: &RegionRect) -> RegionData {
        assert!(
            self.region.contains_rect(inner),
            "extract region escapes data"
        );
        if inner.is_empty() {
            return RegionData {
                region: *inner,
                levels: self.levels,
                values: Arc::clone(&self.values),
                base: 0,
                row_stride: 0,
            };
        }
        RegionData {
            region: *inner,
            levels: self.levels,
            values: Arc::clone(&self.values),
            base: self.base
                + (inner.y0 - self.region.y0) * self.row_stride
                + (inner.x0 - self.region.x0) * self.levels,
            row_stride: self.row_stride,
        }
    }

    /// True when the two views index into the same backing slab (the
    /// zero-copy invariant the tests pin).
    pub fn shares_backing(&self, other: &RegionData) -> bool {
        Arc::ptr_eq(&self.values, &other.values)
    }
}

impl PartialEq for RegionData {
    /// Logical equality: same region, same levels, same values — a view and
    /// an owned copy of the same data compare equal.
    fn eq(&self, other: &Self) -> bool {
        self.region == other.region
            && self.levels == other.levels
            && (0..self.region.height()).all(|r| self.row(r) == other.row(r))
    }
}

/// Reusable `f64` slabs for the read data plane: the slabs reads return
/// views into, and the bounce buffers multi-level surface reads stream
/// through.
///
/// Slabs are *registered*: the pool keeps one `Arc` reference to every
/// slab it hands out, and a slab becomes reusable as soon as every
/// [`RegionData`] view into it has been dropped (the pool's reference is
/// then the only one left, observable via the refcount). No drop plumbing
/// crosses the channel layer.
#[derive(Debug, Default)]
pub struct BufferPool {
    slabs: Mutex<Vec<Arc<Vec<f64>>>>,
}

impl BufferPool {
    /// Upper bound on pooled slabs; beyond it slabs are simply dropped
    /// (freed when their views drop) instead of retained.
    const MAX_POOLED: usize = 64;

    /// A uniquely-owned slab (`strong_count == 1`) for `len` values,
    /// recycled from the pool when any registered slab has no outstanding
    /// views: the smallest free slab whose capacity covers `len`, else the
    /// largest free one. Surface slabs, full-level slabs and bounce
    /// buffers share one pool, and a first fit would grow a small slab
    /// for a large read (a reallocation and a copy) or tie a large slab to
    /// a small one.
    fn take_slab(&self, len: usize) -> Arc<Vec<f64>> {
        let mut slabs = self.slabs.lock();
        let mut best: Option<(usize, usize)> = None;
        for (pos, slab) in slabs.iter().enumerate() {
            if Arc::strong_count(slab) != 1 {
                continue;
            }
            let cap = slab.capacity();
            let better = match best {
                None => true,
                Some((_, b)) if b >= len => (len..b).contains(&cap),
                Some((_, b)) => cap > b,
            };
            if better {
                best = Some((pos, cap));
                if cap == len {
                    break; // nothing free fits closer
                }
            }
        }
        match best {
            // The pool holds the only reference, so nobody can clone it
            // concurrently: unique ownership is stable once removed.
            Some((pos, _)) => slabs.swap_remove(pos),
            None => Arc::new(Vec::new()),
        }
    }

    /// Register a slab for future reuse (keeps one pool-owned reference).
    fn register(&self, slab: Arc<Vec<f64>>) {
        let mut slabs = self.slabs.lock();
        if slabs.len() < Self::MAX_POOLED {
            slabs.push(slab);
        }
    }

    /// Number of registered slabs currently reusable (no live views).
    pub fn free_slabs(&self) -> usize {
        self.slabs
            .lock()
            .iter()
            .filter(|s| Arc::strong_count(s) == 1)
            .count()
    }
}

/// Small MRU cache of open member-file read handles, replacing the
/// per-call `File::open`. Handles are checked out exclusively (removed
/// while in use) so concurrent readers of the same member never share a
/// seek cursor.
///
/// Every checkout is stamped with the cache's generation, which
/// [`HandleCache::invalidate`] bumps: a handle checked out (or opened on a
/// miss) before a member file was swapped may map the replaced inode, and
/// its stale stamp keeps [`HandleCache::put`] from resurrecting it after
/// the invalidation.
#[derive(Debug, Default)]
struct HandleCache {
    entries: Vec<(usize, File)>,
    generation: u64,
}

impl HandleCache {
    const MAX_HANDLES: usize = 32;

    /// The cached handle for `member`, if any, and the stamp to return it
    /// (or a handle opened in its place) with.
    fn take(&mut self, member: usize) -> (Option<File>, u64) {
        let pos = self.entries.iter().position(|(k, _)| *k == member);
        (pos.map(|pos| self.entries.remove(pos).1), self.generation)
    }

    fn put(&mut self, member: usize, file: File, stamp: u64) {
        if stamp != self.generation || self.entries.iter().any(|(k, _)| *k == member) {
            return; // possibly stale, or another reader already returned one
        }
        if self.entries.len() >= Self::MAX_HANDLES {
            self.entries.remove(0); // least recently returned
        }
        self.entries.push((member, file));
    }

    fn invalidate(&mut self, member: usize) {
        self.generation += 1;
        self.entries.retain(|(k, _)| *k != member);
    }
}

/// Bytes one bounce-buffer read of [`FileStore::read_surface`] moves: small
/// enough to stay in L2 beside the slab it decodes into, large enough that
/// the per-call cost of a read is noise.
const BOUNCE_BYTES: usize = 256 * 1024;

/// Run `io(index, file offset, byte range)` for each of the region's
/// segments in file order — the byte range is the segment's place in the
/// region's packed row-major stream — stopping at the first error. Returns
/// the number of segments completed, i.e. the seeks issued.
fn try_each_segment(
    layout: &FileLayout,
    region: &RegionRect,
    mut io: impl FnMut(usize, u64, Range<usize>) -> std::io::Result<()>,
) -> std::io::Result<u64> {
    let mut cursor = 0usize;
    let mut index = 0usize;
    let mut result = Ok(());
    layout.for_each_segment(region, |seg| {
        if result.is_ok() {
            let end = cursor + seg.len as usize;
            result = io(index, seg.offset, cursor..end);
            cursor = end;
            index += 1;
        }
    });
    result.map(|()| index as u64)
}

/// A directory of ensemble-member files with a fixed layout.
///
/// ```
/// use enkf_grid::{FileLayout, Mesh, RegionRect};
/// use enkf_pfs::{FileStore, ScratchDir};
///
/// let scratch = ScratchDir::new("doc").unwrap();
/// let mesh = Mesh::new(8, 4);
/// let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8)).unwrap();
/// store.write_member(0, &vec![1.5; mesh.n()]).unwrap();
/// // A full-width bar reads with a single disk addressing operation.
/// let bar = RegionRect::new(0, 8, 1, 3);
/// let data = store.read_region(0, &bar).unwrap();
/// assert_eq!(data.len(), bar.npoints());
/// assert_eq!(store.stats().seeks, 1);
/// ```
#[derive(Debug)]
pub struct FileStore {
    root: PathBuf,
    layout: FileLayout,
    stats: Mutex<IoStats>,
    pool: BufferPool,
    handles: Mutex<HandleCache>,
    /// Contiguous-from-0 member count, computed once at `open` and advanced
    /// by `write_member`/`create_member` (replaces the unbounded `stat`
    /// probe loop `num_members` used to run on every call).
    members: Mutex<usize>,
}

impl FileStore {
    /// Open (creating the directory if needed) a store rooted at `root`.
    ///
    /// `layout.bytes_per_point()` must be a multiple of 8 (whole `f64`
    /// levels per point).
    pub fn open(root: impl AsRef<Path>, layout: FileLayout) -> std::io::Result<Self> {
        assert!(
            layout.bytes_per_point().is_multiple_of(8) && layout.bytes_per_point() > 0,
            "bytes per point must be a positive multiple of 8"
        );
        std::fs::create_dir_all(root.as_ref())?;
        let root = root.as_ref().to_path_buf();
        let member_path = |k: usize| root.join(format!("member_{k:05}.bin"));
        let members = (0..).take_while(|&k| member_path(k).is_file()).count();
        Ok(FileStore {
            root,
            layout,
            stats: Mutex::new(IoStats::default()),
            pool: BufferPool::default(),
            handles: Mutex::new(HandleCache::default()),
            members: Mutex::new(members),
        })
    }

    /// The layout shared by every member file.
    pub fn layout(&self) -> FileLayout {
        self.layout
    }

    /// Vertical levels per point (`h / 8`).
    pub fn levels(&self) -> usize {
        (self.layout.bytes_per_point() / 8) as usize
    }

    /// Path of member `k`'s file.
    pub fn member_path(&self, k: usize) -> PathBuf {
        self.root.join(format!("member_{k:05}.bin"))
    }

    /// Number of member files present (contiguous from 0). Cached: scanned
    /// once at [`FileStore::open`], advanced by member writes. Files placed
    /// in the directory behind this store's back are only discovered when a
    /// write lands adjacent to them.
    pub fn num_members(&self) -> usize {
        *self.members.lock()
    }

    /// Advance the cached member count after member `k` was written.
    fn note_member(&self, k: usize) {
        let mut n = self.members.lock();
        if k == *n {
            *n += 1;
            // Absorb any files beyond the old frontier (e.g. written by a
            // previous store instance on the same directory).
            while self.member_path(*n).is_file() {
                *n += 1;
            }
        }
    }

    /// The store's buffer pool (exposed for allocation-regression tests and
    /// benchmarks).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// `(seeks, bytes)` a region access costs under this store's layout —
    /// exactly what [`FileStore::read_region`], [`FileStore::read_surface`]
    /// and [`FileStore::write_region`] will add to [`FileStore::stats`],
    /// and exactly what the DES model charges for the same region. Used to
    /// label execution-trace spans so the real and modeled paths account
    /// operations identically.
    pub(crate) fn op_cost(&self, region: &RegionRect) -> (u64, u64) {
        (
            self.layout.seek_count(region) as u64,
            self.layout.region_bytes(region),
        )
    }

    /// Cumulative I/O statistics.
    pub fn stats(&self) -> IoStats {
        *self.stats.lock()
    }

    /// Reset the I/O statistics (e.g. between measured phases).
    pub fn reset_stats(&self) {
        *self.stats.lock() = IoStats::default();
    }

    /// Build the structured read failure context (error path only — the
    /// steady-state success path never touches `member_path` or `metadata`).
    fn read_error(&self, k: usize, expected: u64, detail: std::io::Error) -> ReadError {
        let path = self.member_path(k);
        ReadError {
            member: k,
            expected,
            actual: std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
            detail: detail.to_string(),
            path,
        }
    }

    /// Scratch path a member's replacement is staged at before the atomic
    /// rename. Lives in the member's directory so the rename never crosses
    /// a filesystem; the `.tmp` suffix keeps it invisible to `open`'s
    /// member scan and to [`FileStore::member_path`]-based reads.
    fn member_tmp_path(&self, k: usize) -> PathBuf {
        self.root.join(format!("member_{k:05}.bin.tmp"))
    }

    /// Stage `buf` at the member's temp path, optionally fsync, and rename
    /// it over the final path — readers see either the old file or the new
    /// one, never a torn intermediate. The open-handle cache is invalidated
    /// *after* the swap: a cached handle still maps the old inode, which
    /// stays readable but stale.
    fn swap_member_file(&self, k: usize, buf: &[u8], durable: bool) -> std::io::Result<()> {
        let tmp = self.member_tmp_path(k);
        let mut f = File::create(&tmp)?;
        f.write_all(buf)?;
        if durable {
            f.sync_all()?;
        }
        drop(f);
        std::fs::rename(&tmp, self.member_path(k))?;
        if durable {
            // Persist the rename itself: fsync the containing directory.
            File::open(&self.root).and_then(|d| d.sync_all())?;
        }
        self.handles.lock().invalidate(k);
        Ok(())
    }

    /// Write member `k` from mesh-ordered values (`n · levels` values,
    /// `levels` consecutive values per point).
    ///
    /// The write is atomic: bytes are staged at a temp path in the same
    /// directory and renamed over the member file, so a crash mid-write can
    /// never leave a torn member — readers observe the old contents or the
    /// new, nothing in between.
    pub fn write_member(&self, k: usize, values: &[f64]) -> std::io::Result<()> {
        self.write_member_impl(k, values, false)
    }

    /// [`FileStore::write_member`] with durability: the staged file is
    /// fsynced before the rename and the directory after it, so a completed
    /// call survives power loss.
    pub fn write_member_durable(&self, k: usize, values: &[f64]) -> std::io::Result<()> {
        self.write_member_impl(k, values, true)
    }

    fn write_member_impl(&self, k: usize, values: &[f64], durable: bool) -> std::io::Result<()> {
        let expect = self.layout.mesh().n() * self.levels();
        assert_eq!(values.len(), expect, "member value count mismatch");
        let bytes = f64_le_bytes(values);
        self.swap_member_file(k, &bytes, durable)?;
        self.stats.lock().bytes_written += bytes.len() as u64;
        self.note_member(k);
        Ok(())
    }

    /// Read one region of member `k`, every level, issuing one seek + read
    /// per contiguous segment (full-width regions are a single segment)
    /// straight into a pooled `f64` slab — each byte crosses memory once.
    ///
    /// Once the pool and the handle cache are warm this performs zero heap
    /// allocations and no zero-fill: the slab is recycled (resized, never
    /// cleared), and the returned [`RegionData`] shares it by refcount.
    ///
    /// Failures return a structured [`ReadError`] carrying the path, the
    /// member, the bytes the region required and the bytes actually present
    /// — the context the executors' failure paths propagate instead of a
    /// bare `io::Error` string. A failed read leaves [`FileStore::stats`]
    /// untouched and its slab back in the pool.
    pub fn read_region(&self, k: usize, region: &RegionRect) -> Result<RegionData, ReadError> {
        self.read(k, region, false)
    }

    /// Read one region of member `k` and keep only its surface: the same
    /// segments, seeks, byte counts, [`FileStore::stats`] and errors as
    /// [`FileStore::read_region`], but the returned view has
    /// `levels() == 1` and equals `read_region(k, region).surface()` bit
    /// for bit. This is the executors' read: every level crosses the file
    /// system, only the analysis variable lands in the slab.
    ///
    /// A multi-level segment is read in chunks of about 256 KiB into a
    /// pooled bounce buffer that stays cache-resident, and each point's
    /// level-0 value is decoded from it. A single-level file reads straight
    /// into the slab, as [`FileStore::read_region`] does. Allocation-free
    /// once warm; a failed read returns the slab and the bounce buffer to
    /// the pool.
    pub fn read_surface(&self, k: usize, region: &RegionRect) -> Result<RegionData, ReadError> {
        self.read(k, region, true)
    }

    /// The body of [`FileStore::read_region`] (`surface == false`) and
    /// [`FileStore::read_surface`].
    fn read(&self, k: usize, region: &RegionRect, surface: bool) -> Result<RegionData, ReadError> {
        let total = self.layout.region_bytes(region);
        let levels = self.levels();
        let kept = if surface { 1 } else { levels };
        let (cached, stamp) = self.handles.lock().take(k);
        let mut file = match cached {
            Some(f) => f,
            None => File::open(self.member_path(k)).map_err(|e| self.read_error(k, total, e))?,
        };
        let len = region.npoints() * kept;
        let mut slab = self.pool.take_slab(len);
        // `take_slab` hands out a unique slab, so this never clones.
        let values = Arc::make_mut(&mut slab);
        // Grows zero-filled, shrinks by truncation: a recycled slab of the
        // steady-state size is neither reallocated nor rewritten here.
        values.resize(len, 0.0);
        let read = if kept == levels {
            fill_le_f64(values, |raw| {
                try_each_segment(&self.layout, region, |_, offset, range| {
                    file.seek(SeekFrom::Start(offset))?;
                    file.read_exact(&mut raw[range])
                })
            })
        } else {
            // Whole points per chunk, so every chunk starts at a level 0.
            let point_bytes = levels * 8;
            let chunk_points = (BOUNCE_BYTES / point_bytes).max(1);
            let mut bounce = self.pool.take_slab(chunk_points * levels);
            let chunk = Arc::make_mut(&mut bounce);
            chunk.resize(chunk_points * levels, 0.0);
            let read = try_each_segment(&self.layout, region, |_, offset, range| {
                file.seek(SeekFrom::Start(offset))?;
                let surface = &mut values[range.start / point_bytes..range.end / point_bytes];
                for out in surface.chunks_mut(chunk_points) {
                    let points = &mut chunk[..out.len() * levels];
                    fill_le_f64(points, |raw| file.read_exact(raw))?;
                    for (v, point) in out.iter_mut().zip(points.chunks_exact(levels)) {
                        *v = point[0];
                    }
                }
                Ok(())
            });
            self.pool.register(bounce);
            read
        };
        let shared = Arc::clone(&slab);
        self.pool.register(slab);
        let seeks = read.map_err(|e| self.read_error(k, total, e))?;
        {
            let mut st = self.stats.lock();
            st.seeks += seeks;
            st.bytes_read += total;
        }
        self.handles.lock().put(k, file, stamp);
        Ok(RegionData::from_shared(*region, kept, shared))
    }

    /// Read an entire member file.
    pub fn read_full(&self, k: usize) -> Result<RegionData, ReadError> {
        self.read_region(k, &RegionRect::full(self.layout.mesh()))
    }

    /// Write one region of member `k` in place (the file must already
    /// exist), issuing one seek + write per contiguous segment — the
    /// write-side mirror of [`FileStore::read_region`], used to write
    /// analysis results back bar-by-bar. Accepts views: each segment is
    /// written from the view's own rows, nothing is staged.
    pub fn write_region(&self, k: usize, data: &RegionData) -> std::io::Result<()> {
        assert_eq!(data.levels(), self.levels(), "level count mismatch");
        match data.as_contiguous() {
            Some(values) => self.write_region_values(k, &data.region(), values),
            // A strided view is narrower than its backing rows, hence than
            // the mesh: its segments are its rows.
            None => self.write_segments(k, &data.region(), |row, _| data.row(row)),
        }
    }

    /// [`FileStore::write_region`] from a contiguous local-row-major value
    /// slice (`region.npoints() * levels` values) — lets callers reuse one
    /// staging vector across many writes instead of building a
    /// [`RegionData`] per call.
    pub fn write_region_values(
        &self,
        k: usize,
        region: &RegionRect,
        values: &[f64],
    ) -> std::io::Result<()> {
        assert_eq!(
            values.len(),
            region.npoints() * self.levels(),
            "value count mismatch"
        );
        self.write_segments(k, region, |_, range| &values[range])
    }

    /// Write a region segment by segment, with the same seek/byte
    /// accounting as the read side. `values_of(index, value range)` yields
    /// each segment's values, the range being its place in the region's
    /// packed row-major value stream.
    fn write_segments<'a>(
        &self,
        k: usize,
        region: &RegionRect,
        mut values_of: impl FnMut(usize, Range<usize>) -> &'a [f64],
    ) -> std::io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .write(true)
            .open(self.member_path(k))?;
        let seeks = try_each_segment(&self.layout, region, |index, offset, range| {
            let values = values_of(index, range.start / 8..range.end / 8);
            assert_eq!(values.len() * 8, range.len(), "segment value count");
            f.seek(SeekFrom::Start(offset))?;
            f.write_all(&f64_le_bytes(values))
        })?;
        let mut st = self.stats.lock();
        st.seeks += seeks;
        st.bytes_written += self.layout.region_bytes(region);
        Ok(())
    }

    /// Create member `k` as an all-zero file (a preallocation target for
    /// region writes). Implemented with `File::set_len` — no zero-filled
    /// buffer is materialized — while the byte accounting stays exactly
    /// what the old write-a-buffer-of-zeros implementation charged. Like
    /// [`FileStore::write_member`], the file is staged at a temp path and
    /// renamed into place, so a crash mid-create never leaves a
    /// short member file behind.
    pub fn create_member(&self, k: usize) -> std::io::Result<()> {
        let size = self.layout.file_size();
        let tmp = self.member_tmp_path(k);
        let f = File::create(&tmp)?;
        f.set_len(size)?;
        drop(f);
        std::fs::rename(&tmp, self.member_path(k))?;
        self.stats.lock().bytes_written += size;
        self.handles.lock().invalidate(k);
        self.note_member(k);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScratchDir;
    use enkf_grid::Mesh;

    fn store_with_member() -> (ScratchDir, FileStore, Vec<f64>) {
        let scratch = ScratchDir::new("store").unwrap();
        let mesh = Mesh::new(8, 4);
        let layout = FileLayout::new(mesh, 16); // 2 levels
        let store = FileStore::open(scratch.path(), layout).unwrap();
        let values: Vec<f64> = (0..mesh.n() * 2).map(|i| i as f64 * 0.5 - 3.0).collect();
        store.write_member(0, &values).unwrap();
        (scratch, store, values)
    }

    #[test]
    fn roundtrip_full_member() {
        let (_s, store, values) = store_with_member();
        let data = store.read_full(0).unwrap();
        assert_eq!(data.to_vec(), values);
        assert_eq!(data.levels(), 2);
        assert_eq!(data.as_contiguous().unwrap(), &values[..]);
    }

    #[test]
    fn interrupted_write_leaves_the_old_member_intact() {
        let (_s, store, values) = store_with_member();
        // Simulate a crash mid-replacement: a partial replacement sits at
        // the staging path, the rename never happened.
        std::fs::write(store.member_tmp_path(0), [0u8; 24]).unwrap();
        let data = store.read_full(0).unwrap();
        assert_eq!(data.to_vec(), values, "reader sees the old contents");
        // The leftover staging file is invisible to the member scan.
        let reopened = FileStore::open(store.root.clone(), store.layout()).unwrap();
        assert_eq!(reopened.num_members(), 1);
    }

    #[test]
    fn atomic_write_replaces_despite_cached_handle() {
        let (_s, store, values) = store_with_member();
        let _warm = store.read_full(0).unwrap(); // populate the handle cache
        let newvals: Vec<f64> = values.iter().map(|v| v + 1.0).collect();
        store.write_member(0, &newvals).unwrap();
        let data = store.read_full(0).unwrap();
        assert_eq!(data.to_vec(), newvals, "swap invalidates the cached handle");
    }

    #[test]
    fn handle_checked_out_across_a_swap_is_not_resurrected() {
        let (_s, store, values) = store_with_member();
        store.read_full(0).unwrap(); // populate the handle cache
        let (old, stamp) = store.handles.lock().take(0);
        let old = old.expect("handle was cached");
        // The member is replaced while a reader still holds the old inode.
        let newvals: Vec<f64> = values.iter().map(|v| v + 1.0).collect();
        store.write_member(0, &newvals).unwrap();
        store.handles.lock().put(0, old, stamp);
        let data = store.read_full(0).unwrap();
        assert_eq!(data.to_vec(), newvals, "a stale checkout must be dropped");
        // ... and the handle that read re-cached maps the new inode.
        assert_eq!(store.read_full(0).unwrap().to_vec(), newvals);
    }

    #[test]
    fn durable_write_matches_plain_write() {
        let (_s, store, values) = store_with_member();
        let before = store.stats().bytes_written;
        store.write_member_durable(1, &values).unwrap();
        assert_eq!(
            store.stats().bytes_written - before,
            (values.len() * 8) as u64,
            "durable writes charge the same bytes"
        );
        assert_eq!(store.read_full(1).unwrap().to_vec(), values);
        assert_eq!(store.num_members(), 2);
        assert!(
            !store.member_tmp_path(1).exists(),
            "staging file renamed away"
        );
    }

    #[test]
    fn region_read_matches_mesh_indexing() {
        let (_s, store, values) = store_with_member();
        let region = RegionRect::new(2, 5, 1, 3);
        let data = store.read_region(0, &region).unwrap();
        assert_eq!(data.len(), region.npoints() * 2);
        for (local, p) in region.iter_points().enumerate() {
            let flat = store.layout().mesh().index(p);
            for level in 0..2 {
                assert_eq!(data.value(local, level), values[flat * 2 + level]);
            }
        }
    }

    #[test]
    fn op_cost_predicts_actual_stats() {
        let (_s, store, _) = store_with_member();
        let region = RegionRect::new(2, 5, 1, 3);
        let (seeks, bytes) = store.op_cost(&region);
        store.reset_stats();
        store.read_region(0, &region).unwrap();
        let st = store.stats();
        assert_eq!(st.seeks, seeks, "trace labeling must match real accounting");
        assert_eq!(st.bytes_read, bytes);
    }

    #[test]
    fn seek_accounting_matches_layout() {
        let (_s, store, _) = store_with_member();
        store.reset_stats();
        let bar = RegionRect::new(0, 8, 1, 3); // full width: 1 seek
        store.read_region(0, &bar).unwrap();
        assert_eq!(store.stats().seeks, 1);
        store.reset_stats();
        let block = RegionRect::new(2, 5, 0, 4); // 4 rows: 4 seeks
        store.read_region(0, &block).unwrap();
        let st = store.stats();
        assert_eq!(st.seeks, 4);
        assert_eq!(st.bytes_read, (3 * 4 * 16) as u64);
    }

    #[test]
    fn extract_sub_block() {
        let (_s, store, _) = store_with_member();
        let bar = store.read_region(0, &RegionRect::new(0, 8, 0, 4)).unwrap();
        let inner = RegionRect::new(3, 6, 1, 3);
        let block = bar.extract(&inner);
        let direct = store.read_region(0, &inner).unwrap();
        assert_eq!(block, direct);
        assert!(block.shares_backing(&bar), "extract must not copy");
        assert!(!block.shares_backing(&direct));
        assert_eq!(block.extract(&inner).to_vec(), direct.to_vec());
    }

    #[test]
    fn nested_views_compose() {
        let (_s, store, _) = store_with_member();
        let bar = store.read_region(0, &RegionRect::new(0, 8, 0, 4)).unwrap();
        let mid = bar.extract(&RegionRect::new(1, 7, 1, 4));
        let inner = RegionRect::new(2, 5, 2, 4);
        let twice = mid.extract(&inner);
        let direct = store.read_region(0, &inner).unwrap();
        assert_eq!(twice, direct);
        assert!(twice.shares_backing(&bar));
    }

    #[test]
    fn empty_extract_is_well_formed() {
        let (_s, store, _) = store_with_member();
        let bar = store.read_region(0, &RegionRect::new(0, 8, 0, 4)).unwrap();
        let empty = bar.extract(&RegionRect::new(3, 3, 0, 2));
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.to_vec(), Vec::<f64>::new());
    }

    #[test]
    fn surface_iterates_level_zero() {
        let (_s, store, values) = store_with_member();
        let region = RegionRect::new(2, 6, 1, 4);
        let data = store.read_region(0, &region).unwrap();
        let surf: Vec<f64> = data.surface().collect();
        let expect: Vec<f64> = region
            .iter_points()
            .map(|p| values[store.layout().mesh().index(p) * 2])
            .collect();
        assert_eq!(surf, expect);
    }

    #[test]
    fn pool_recycles_slab_after_views_drop() {
        let (_s, store, _) = store_with_member();
        let bar = RegionRect::new(0, 8, 0, 4);
        let first = store.read_region(0, &bar).unwrap();
        let first_ptr = Arc::as_ptr(&first.values);
        let held = store.read_region(0, &bar).unwrap();
        assert_ne!(
            Arc::as_ptr(&held.values),
            first_ptr,
            "live slab must not be reused"
        );
        drop(first);
        drop(held);
        let next = store.read_region(0, &bar).unwrap();
        let reused = store
            .pool()
            .free_slabs()
            .checked_add(1)
            .expect("pool registered");
        assert!(reused >= 1);
        let next_ptr = Arc::as_ptr(&next.values);
        assert!(
            next_ptr == first_ptr || store.pool().free_slabs() >= 1,
            "a dropped slab is available for reuse"
        );
    }

    #[test]
    fn num_members_counts_contiguous_files() {
        let (_s, store, values) = store_with_member();
        assert_eq!(store.num_members(), 1);
        store.write_member(1, &values).unwrap();
        store.write_member(2, &values).unwrap();
        assert_eq!(store.num_members(), 3);
        // Out-of-order writes leave a gap: the count stays at the frontier
        // until the gap is filled.
        store.write_member(5, &values).unwrap();
        assert_eq!(store.num_members(), 3);
        store.write_member(3, &values).unwrap();
        assert_eq!(store.num_members(), 4);
        store.write_member(4, &values).unwrap();
        assert_eq!(store.num_members(), 6, "frontier absorbs the gap files");
    }

    #[test]
    fn reopen_rescans_member_count() {
        let (scratch, store, values) = store_with_member();
        store.write_member(1, &values).unwrap();
        let reopened = FileStore::open(scratch.path(), store.layout()).unwrap();
        assert_eq!(reopened.num_members(), 2);
    }

    #[test]
    fn missing_member_errors() {
        let (_s, store, _) = store_with_member();
        assert!(store.read_full(7).is_err());
    }

    #[test]
    fn read_error_carries_context() {
        let (_s, store, _) = store_with_member();
        let err = store.read_full(7).unwrap_err();
        assert_eq!(err.member, 7);
        assert_eq!(err.path, store.member_path(7));
        assert_eq!(err.expected, (8 * 4 * 16) as u64);
        assert_eq!(err.actual, 0, "missing file has zero bytes present");
        assert!(!err.detail.is_empty());
        // The error converts into io::Error for legacy `?` call sites.
        let io: std::io::Error = err.into();
        assert!(io.to_string().contains("member 7"));
    }

    #[test]
    fn truncated_member_reports_actual_bytes() {
        let (_s, store, _) = store_with_member();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(store.member_path(0))
            .unwrap();
        f.set_len(40).unwrap();
        let err = store.read_full(0).unwrap_err();
        assert_eq!(err.member, 0);
        assert_eq!(err.expected, (8 * 4 * 16) as u64);
        assert_eq!(err.actual, 40);
    }

    #[test]
    fn truncation_detected_through_warm_handle_cache() {
        let (_s, store, _) = store_with_member();
        store.read_full(0).unwrap(); // caches the handle
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(store.member_path(0))
            .unwrap();
        f.set_len(40).unwrap();
        let err = store.read_full(0).unwrap_err();
        assert_eq!(err.actual, 40, "cached handle sees the truncated inode");
        // A failed read does not poison subsequent reads.
        f.set_len(8 * 4 * 16).unwrap();
        assert!(store.read_full(0).is_ok());
    }

    #[test]
    #[should_panic(expected = "member value count mismatch")]
    fn write_wrong_length_panics() {
        let (_s, store, _) = store_with_member();
        store.write_member(1, &[1.0, 2.0]).unwrap();
    }

    #[test]
    fn write_region_roundtrips() {
        let (_s, store, original) = store_with_member();
        let region = RegionRect::new(2, 6, 1, 3);
        let read = store.read_region(0, &region).unwrap();
        let values: Vec<f64> = read.to_vec().iter().map(|v| v + 100.0).collect();
        let data = RegionData::from_vec(region, 2, values);
        store.write_region(0, &data).unwrap();
        // The region reads back modified; everything else is untouched.
        let back = store.read_full(0).unwrap();
        let mesh = store.layout().mesh();
        for p in mesh.iter_points() {
            let flat = mesh.index(p);
            for level in 0..2 {
                let expect = if region.contains(p) {
                    original[flat * 2 + level] + 100.0
                } else {
                    original[flat * 2 + level]
                };
                assert_eq!(back.value(flat, level), expect, "point {p:?} level {level}");
            }
        }
    }

    #[test]
    fn write_region_accepts_views() {
        let (_s, store, values) = store_with_member();
        store.write_member(1, &vec![0.0; values.len()]).unwrap();
        let bar = store.read_region(0, &RegionRect::new(0, 8, 0, 4)).unwrap();
        let inner = RegionRect::new(2, 6, 1, 3);
        let view = bar.extract(&inner);
        store.write_region(1, &view).unwrap();
        let back = store.read_region(1, &inner).unwrap();
        assert_eq!(back, view, "view writes land bit-identically");
    }

    #[test]
    fn create_member_preallocates_zeros() {
        let (_s, store, _) = store_with_member();
        store.reset_stats();
        store.create_member(3).unwrap();
        assert_eq!(
            store.stats().bytes_written,
            store.layout().file_size(),
            "set_len create must charge the same bytes as a zero write"
        );
        let data = store.read_full(3).unwrap();
        assert!(data.to_vec().iter().all(|&v| v == 0.0));
        // Region writes into the fresh file work.
        let region = RegionRect::new(0, 8, 0, 1);
        let patch = RegionData::from_vec(region, 2, vec![7.0; region.npoints() * 2]);
        store.write_region(3, &patch).unwrap();
        assert_eq!(store.read_region(3, &region).unwrap(), patch);
    }

    #[test]
    fn write_region_counts_seeks() {
        let (_s, store, _) = store_with_member();
        store.reset_stats();
        let region = RegionRect::new(1, 4, 0, 3); // 3 rows, partial width
        let data = RegionData::from_vec(region, 2, vec![1.0; region.npoints() * 2]);
        store.write_region(0, &data).unwrap();
        let st = store.stats();
        assert_eq!(st.seeks, 3);
        assert_eq!(st.bytes_written, (9 * 16) as u64);
    }

    #[test]
    fn write_region_values_matches_write_region() {
        let (_s, store, values) = store_with_member();
        store.write_member(1, &values).unwrap();
        store.write_member(2, &values).unwrap();
        let region = RegionRect::new(1, 5, 0, 3);
        let patch: Vec<f64> = (0..region.npoints() * 2).map(|i| i as f64 * 0.25).collect();
        store
            .write_region(1, &RegionData::from_vec(region, 2, patch.clone()))
            .unwrap();
        store.write_region_values(2, &region, &patch).unwrap();
        let a = std::fs::read(store.member_path(1)).unwrap();
        let b = std::fs::read(store.member_path(2)).unwrap();
        assert_eq!(a, b, "both write paths produce identical bytes");
    }
}
