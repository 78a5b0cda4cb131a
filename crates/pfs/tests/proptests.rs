//! Property-based tests of the real file backend: region reads must always
//! agree with whole-file reads, and the seek accounting must match the
//! layout's prediction.

use enkf_grid::{FileLayout, Mesh, RegionRect};
use enkf_linalg::kernel::convert::{f64_le_bytes, fill_le_f64, le_bytes_to_f64_into};
use enkf_pfs::{FileStore, IoStats, RegionData, ScratchDir};
use proptest::prelude::*;
use std::io::{Read, Seek, SeekFrom};

fn mesh_strategy() -> impl Strategy<Value = Mesh> {
    (2usize..20, 2usize..16).prop_map(|(nx, ny)| Mesh::new(nx, ny))
}

fn region_strategy(mesh: Mesh) -> impl Strategy<Value = RegionRect> {
    (0..mesh.nx(), 0..mesh.ny()).prop_flat_map(move |(x0, y0)| {
        (x0 + 1..=mesh.nx(), y0 + 1..=mesh.ny())
            .prop_map(move |(x1, y1)| RegionRect::new(x0, x1, y0, y1))
    })
}

/// Like [`region_strategy`], but also empty (zero-width or zero-height)
/// regions.
fn maybe_empty_region_strategy(mesh: Mesh) -> impl Strategy<Value = RegionRect> {
    (0..mesh.nx(), 0..mesh.ny()).prop_flat_map(move |(x0, y0)| {
        (x0..=mesh.nx(), y0..=mesh.ny()).prop_map(move |(x1, y1)| RegionRect::new(x0, x1, y0, y1))
    })
}

/// The read oracle: shares nothing with [`FileStore::read_region`] but the
/// layout's segment list — a fresh `std::fs` handle, a fresh buffer per
/// segment, and one `f64::from_le_bytes` per value.
fn oracle_read(store: &FileStore, k: usize, region: &RegionRect) -> std::io::Result<Vec<f64>> {
    let mut file = std::fs::File::open(store.member_path(k))?;
    let mut values = Vec::new();
    let mut result = Ok(());
    store.layout().for_each_segment(region, |seg| {
        if result.is_err() {
            return;
        }
        let mut raw = vec![0u8; seg.len as usize];
        result = file
            .seek(SeekFrom::Start(seg.offset))
            .and_then(|_| file.read_exact(&mut raw));
        values.extend(
            raw.chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap())),
        );
    });
    result.map(|()| values)
}

/// A full-width bar of one or more rows: one segment.
fn full_width_bar_strategy(mesh: Mesh) -> impl Strategy<Value = RegionRect> {
    (0..mesh.ny()).prop_flat_map(move |y0| {
        (y0 + 1..=mesh.ny()).prop_map(move |y1| RegionRect::new(0, mesh.nx(), y0, y1))
    })
}

/// A block narrower than the mesh, at least two rows high when the mesh
/// allows: one segment per row.
fn block_strategy(mesh: Mesh) -> impl Strategy<Value = RegionRect> {
    region_strategy(mesh).prop_map(move |r| {
        let x1 = if r.x0 == 0 && r.x1 == mesh.nx() {
            r.x1 - 1
        } else {
            r.x1
        };
        let y1 = (r.y0 + 2).min(mesh.ny()).max(r.y1);
        RegionRect::new(r.x0, x1, r.y0, y1)
    })
}

/// `read_surface` returns `read_region(..).surface()` bit for bit, as a
/// one-level view, and charges the same `IoStats`.
fn surface_read_agrees_with_the_full_read(
    store: &FileStore,
    region: &RegionRect,
) -> Result<(), String> {
    store.reset_stats();
    let full = store.read_region(0, region).unwrap();
    let full_stats = store.stats();
    store.reset_stats();
    let surface = store.read_surface(0, region).unwrap();
    prop_assert_eq!(store.stats(), full_stats);
    prop_assert_eq!(surface.levels(), 1);
    prop_assert_eq!(surface.region(), *region);
    let want: Vec<f64> = full.surface().collect();
    prop_assert_eq!(to_bits(&surface.to_vec()), to_bits(&want));
    Ok(())
}

/// Bit patterns, so that NaNs compare and signed zeros differ.
fn to_bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A member of arbitrary bit patterns (NaN payloads, infinities,
/// subnormals, signed zeros), all distinct enough to expose a misplaced or
/// stale value.
fn patterned_member(mesh: Mesh, levels: u64, seed: u64) -> Vec<f64> {
    (0..mesh.n() as u64 * levels)
        .map(|i| f64::from_bits((i + 1).wrapping_mul(seed | 1).rotate_left(17) ^ seed))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn region_read_agrees_with_full_read(
        (mesh, region, levels, seed) in mesh_strategy().prop_flat_map(|mesh| {
            (Just(mesh), region_strategy(mesh), 1u64..4, any::<u32>())
        })
    ) {
        let scratch = ScratchDir::new("prop").unwrap();
        let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8 * levels)).unwrap();
        let n = mesh.n() * levels as usize;
        let values: Vec<f64> = (0..n).map(|i| (i as f64) * 0.25 + seed as f64).collect();
        store.write_member(0, &values).unwrap();

        let full = store.read_full(0).unwrap();
        prop_assert_eq!(full.to_vec(), values.clone());

        let data = store.read_region(0, &region).unwrap();
        for (local, p) in region.iter_points().enumerate() {
            let flat = mesh.index(p);
            for level in 0..levels as usize {
                prop_assert_eq!(data.value(local, level), values[flat * levels as usize + level]);
            }
        }
    }

    #[test]
    fn seek_accounting_matches_layout(
        (mesh, region) in mesh_strategy().prop_flat_map(|mesh| (Just(mesh), region_strategy(mesh)))
    ) {
        let scratch = ScratchDir::new("prop-seek").unwrap();
        let layout = FileLayout::new(mesh, 8);
        let store = FileStore::open(scratch.path(), layout).unwrap();
        store.write_member(0, &vec![1.0; mesh.n()]).unwrap();
        store.reset_stats();
        store.read_region(0, &region).unwrap();
        let st = store.stats();
        prop_assert_eq!(st.seeks, layout.seek_count(&region) as u64);
        prop_assert_eq!(st.bytes_read, layout.region_bytes(&region));
    }

    #[test]
    fn extract_matches_direct_read(
        (mesh, outer, seed) in mesh_strategy().prop_flat_map(|mesh| {
            (Just(mesh), region_strategy(mesh), any::<u32>())
        })
    ) {
        // Any sub-rectangle extracted from an outer read equals reading it
        // directly — the invariant the bar -> block split relies on.
        let scratch = ScratchDir::new("prop-extract").unwrap();
        let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8)).unwrap();
        let values: Vec<f64> = (0..mesh.n()).map(|i| (i as u32 ^ seed) as f64).collect();
        store.write_member(0, &values).unwrap();
        let outer_data = store.read_region(0, &outer).unwrap();
        // Take the upper-left quadrant of the outer region as inner.
        let inner = RegionRect::new(
            outer.x0,
            outer.x0 + outer.width().div_ceil(2),
            outer.y0,
            outer.y0 + outer.height().div_ceil(2),
        );
        let direct = store.read_region(0, &inner).unwrap();
        prop_assert_eq!(outer_data.extract(&inner), direct);
    }

    #[test]
    fn views_are_bit_identical_to_owned_copies(
        (mesh, outer, levels, seed) in mesh_strategy().prop_flat_map(|mesh| {
            (Just(mesh), region_strategy(mesh), 1u64..4, any::<u32>())
        })
    ) {
        // The zero-copy invariant: a view shares its parent's backing slab
        // yet `value`, `row` and `to_vec` agree bit-for-bit with a deep
        // copy of the same sub-region — including views of views.
        let scratch = ScratchDir::new("prop-view").unwrap();
        let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8 * levels)).unwrap();
        let n = mesh.n() * levels as usize;
        let values: Vec<f64> = (0..n).map(|i| ((i as u32).wrapping_mul(seed | 1)) as f64).collect();
        store.write_member(0, &values).unwrap();
        let outer_data = store.read_region(0, &outer).unwrap();
        let inner = RegionRect::new(
            outer.x0,
            outer.x0 + outer.width().div_ceil(2),
            outer.y0,
            outer.y0 + outer.height().div_ceil(2),
        );
        let view = outer_data.extract(&inner);
        let owned = RegionData::from_vec(inner, levels as usize, view.to_vec());
        prop_assert!(view.shares_backing(&outer_data), "extract must not copy");
        prop_assert_eq!(&view, &owned);
        prop_assert_eq!(view.to_vec(), owned.to_vec());
        for local in 0..inner.npoints() {
            for level in 0..levels as usize {
                prop_assert_eq!(view.value(local, level), owned.value(local, level));
            }
        }
        // A view of the view still indexes the original slab correctly.
        let core = RegionRect::new(
            inner.x0,
            inner.x0 + inner.width().div_ceil(2),
            inner.y0,
            inner.y0 + inner.height().div_ceil(2),
        );
        let nested = view.extract(&core);
        prop_assert!(nested.shares_backing(&outer_data));
        prop_assert_eq!(nested.to_vec(), owned.extract(&core).to_vec());
    }

    #[test]
    fn read_region_matches_the_segment_walk_oracle(
        (mesh, regions, levels, seed) in mesh_strategy().prop_flat_map(|mesh| {
            let full_width_bar = (0..mesh.ny()).prop_flat_map(move |y0| {
                (y0 + 1..=mesh.ny()).prop_map(move |y1| RegionRect::new(0, mesh.nx(), y0, y1))
            });
            let one_row = (region_strategy(mesh), 0..mesh.ny())
                .prop_map(|(r, y)| RegionRect::new(r.x0, r.x1, y, y + 1));
            (
                Just(mesh),
                (maybe_empty_region_strategy(mesh), one_row, full_width_bar),
                1u64..=4,
                any::<u64>(),
            )
        })
    ) {
        // The single-pass read (segments land directly in the pooled slab)
        // must agree bit for bit with the oracle and charge exactly what
        // the layout predicts — for empty regions, single rows, partial
        // widths (one segment per row) and full-width bars (one segment).
        let scratch = ScratchDir::new("prop-oracle").unwrap();
        let layout = FileLayout::new(mesh, 8 * levels);
        let store = FileStore::open(scratch.path(), layout).unwrap();
        store.write_member(0, &patterned_member(mesh, levels, seed)).unwrap();
        for region in [regions.0, regions.1, regions.2] {
            store.reset_stats();
            let data = store.read_region(0, &region).unwrap();
            prop_assert_eq!(
                store.stats(),
                IoStats {
                    seeks: layout.seek_count(&region) as u64,
                    bytes_read: layout.region_bytes(&region),
                    bytes_written: 0,
                }
            );
            prop_assert_eq!(data.len(), region.npoints() * levels as usize);
            prop_assert_eq!(to_bits(&data.to_vec()), to_bits(&oracle_read(&store, 0, &region).unwrap()));
        }
    }

    #[test]
    fn recycled_slabs_have_exact_length_and_no_stale_tail(
        (mesh, small, levels, seed) in mesh_strategy().prop_flat_map(|mesh| {
            (Just(mesh), region_strategy(mesh), 1u64..=4, any::<u64>())
        })
    ) {
        // One slab serves large -> small -> large: it is resized, never
        // cleared, so each read must expose exactly its own values.
        let scratch = ScratchDir::new("prop-recycle").unwrap();
        let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8 * levels)).unwrap();
        store.write_member(0, &patterned_member(mesh, levels, seed)).unwrap();
        store.write_member(1, &patterned_member(mesh, levels, !seed)).unwrap();
        let large = RegionRect::full(mesh);
        for (k, region) in [(0, large), (1, small), (0, large), (1, small)] {
            let data = store.read_region(k, &region).unwrap();
            let contiguous = data.as_contiguous().expect("a fresh read owns its slab");
            prop_assert_eq!(to_bits(contiguous), to_bits(&oracle_read(&store, k, &region).unwrap()));
            drop(data);
            prop_assert_eq!(store.pool().free_slabs(), 1, "the one slab is recycled");
        }
    }

    #[test]
    fn truncated_member_fails_typed_and_leaves_the_store_clean(
        (mesh, region, levels, seed, keep) in mesh_strategy().prop_flat_map(|mesh| {
            (Just(mesh), region_strategy(mesh), 1u64..=4, any::<u64>(), 0.0f64..1.0)
        })
    ) {
        let scratch = ScratchDir::new("prop-trunc").unwrap();
        let layout = FileLayout::new(mesh, 8 * levels);
        let store = FileStore::open(scratch.path(), layout).unwrap();
        let values = patterned_member(mesh, levels, seed);
        store.write_member(0, &values).unwrap();
        store.write_member(1, &values).unwrap();
        drop(store.read_region(1, &region).unwrap()); // one slab in the pool
        let before = store.stats();

        // Cut member 0 somewhere inside the region's last segment.
        let last = *layout.segments(&region).last().unwrap();
        let cut = last.offset + (keep * last.len as f64) as u64;
        let file = std::fs::OpenOptions::new().write(true).open(store.member_path(0)).unwrap();
        file.set_len(cut).unwrap();

        let err = store.read_region(0, &region).unwrap_err();
        prop_assert_eq!(err.member, 0);
        prop_assert_eq!(err.expected, layout.region_bytes(&region));
        prop_assert_eq!(err.actual, cut);
        prop_assert!(oracle_read(&store, 0, &region).is_err(), "the oracle fails too");
        prop_assert_eq!(store.stats(), before, "a failed read charges nothing");
        prop_assert_eq!(store.pool().free_slabs(), 1, "the slab went back to the pool");

        // The half-filled slab is reused by the next good read, exactly.
        let good = store.read_region(1, &region).unwrap();
        prop_assert_eq!(to_bits(&good.to_vec()), to_bits(&oracle_read(&store, 1, &region).unwrap()));
    }

    #[test]
    fn read_surface_is_the_surface_of_read_region(
        (mesh, regions, levels, seed) in (0usize..4).prop_flat_map(|i| {
            let levels = [1u64, 2, 3, 30][i];
            (mesh_strategy(), Just(levels))
        }).prop_flat_map(|(mesh, levels)| {
            (
                Just(mesh),
                (
                    maybe_empty_region_strategy(mesh),
                    full_width_bar_strategy(mesh),
                    block_strategy(mesh),
                ),
                Just(levels),
                any::<u64>(),
            )
        })
    ) {
        // Empty regions, full-width bars (one segment) and blocks of
        // several rows (one segment per row), at one, a few and 30 levels.
        let scratch = ScratchDir::new("prop-surface").unwrap();
        let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8 * levels)).unwrap();
        store.write_member(0, &patterned_member(mesh, levels, seed)).unwrap();
        for region in [regions.0, regions.1, regions.2] {
            surface_read_agrees_with_the_full_read(&store, &region)?;
        }
    }

    #[test]
    fn read_surface_streams_segments_longer_than_the_bounce_buffer(
        (mesh, bar, seed) in (40usize..72, 32usize..48).prop_flat_map(|(nx, ny)| {
            let mesh = Mesh::new(nx, ny);
            // At least 29 rows of at least 40 points of 240 B: > 256 KiB.
            let bar = (0..ny - 28).prop_map(move |y0| RegionRect::new(0, nx, y0, ny));
            (Just(mesh), bar, any::<u64>())
        })
    ) {
        let scratch = ScratchDir::new("prop-surface-long").unwrap();
        let layout = FileLayout::new(mesh, 240);
        let store = FileStore::open(scratch.path(), layout).unwrap();
        store.write_member(0, &patterned_member(mesh, 30, seed)).unwrap();
        prop_assert!(layout.region_bytes(&bar) > 256 * 1024);
        surface_read_agrees_with_the_full_read(&store, &bar)?;
        surface_read_agrees_with_the_full_read(&store, &RegionRect::full(mesh))?;
    }

    #[test]
    fn a_truncated_member_fails_read_surface_as_it_fails_read_region(
        (mesh, region, levels, seed, keep) in (0usize..4).prop_flat_map(|i| {
            (mesh_strategy(), Just([1u64, 2, 3, 30][i]))
        }).prop_flat_map(|(mesh, levels)| {
            (Just(mesh), region_strategy(mesh), Just(levels), any::<u64>(), 0.0f64..1.0)
        })
    ) {
        let scratch = ScratchDir::new("prop-surface-trunc").unwrap();
        let layout = FileLayout::new(mesh, 8 * levels);
        let store = FileStore::open(scratch.path(), layout).unwrap();
        let values = patterned_member(mesh, levels, seed);
        store.write_member(0, &values).unwrap();
        store.write_member(1, &values).unwrap();
        // The slab, and the bounce buffer a multi-level read streams
        // through, are pooled.
        drop(store.read_surface(1, &region).unwrap());
        let pooled = if levels == 1 { 1 } else { 2 };
        prop_assert_eq!(store.pool().free_slabs(), pooled);
        let before = store.stats();

        let last = *layout.segments(&region).last().unwrap();
        let cut = last.offset + (keep * last.len as f64) as u64;
        let file = std::fs::OpenOptions::new().write(true).open(store.member_path(0)).unwrap();
        file.set_len(cut).unwrap();

        let surface = store.read_surface(0, &region).unwrap_err();
        prop_assert_eq!(store.stats(), before, "a failed read charges nothing");
        prop_assert_eq!(store.pool().free_slabs(), pooled, "slab and bounce are back");
        let full = store.read_region(0, &region).unwrap_err();
        prop_assert_eq!(
            (surface.member, surface.expected, surface.actual),
            (full.member, full.expected, full.actual)
        );
        prop_assert_eq!(surface.actual, cut);

        // The next good read reuses the half-filled slab, exactly.
        let good = store.read_surface(1, &region).unwrap();
        let want: Vec<f64> = store.read_region(1, &region).unwrap().surface().collect();
        prop_assert_eq!(to_bits(&good.to_vec()), to_bits(&want));
    }

    #[test]
    fn write_from_view_roundtrips(
        (mesh, outer, seed) in mesh_strategy().prop_flat_map(|mesh| {
            (Just(mesh), region_strategy(mesh), any::<u32>())
        })
    ) {
        // Writing a view (non-contiguous in its backing) through the pooled
        // write path lands the same bytes as writing an owned copy.
        let scratch = ScratchDir::new("prop-wview").unwrap();
        let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8)).unwrap();
        let values: Vec<f64> = (0..mesh.n()).map(|i| (i as u32 ^ seed) as f64).collect();
        store.write_member(0, &values).unwrap();
        store.write_member(1, &vec![0.0; mesh.n()]).unwrap();
        store.write_member(2, &vec![0.0; mesh.n()]).unwrap();
        let outer_data = store.read_region(0, &outer).unwrap();
        let inner = RegionRect::new(
            outer.x0,
            outer.x0 + outer.width().div_ceil(2),
            outer.y0,
            outer.y0 + outer.height().div_ceil(2),
        );
        let view = outer_data.extract(&inner);
        store.write_region(1, &view).unwrap();
        store.write_region(2, &RegionData::from_vec(inner, 1, view.to_vec())).unwrap();
        let a = std::fs::read(store.member_path(1)).unwrap();
        let b = std::fs::read(store.member_path(2)).unwrap();
        prop_assert_eq!(a, b);
        prop_assert_eq!(store.read_region(1, &inner).unwrap(), view);
    }

    #[test]
    fn conversion_kernel_bit_identical_decode(bits in proptest::collection::vec(any::<u64>(), 0..600)) {
        // Filling an f64 buffer through its byte view must reproduce the
        // per-value `from_le_bytes` walk bit for bit — including NaN
        // payloads, infinities, subnormals and signed zeros (arbitrary u64
        // patterns) — whether the bytes arrive in one piece or several.
        let bytes: Vec<u8> = bits.iter().flat_map(|b| b.to_le_bytes()).collect();
        let legacy: Vec<f64> = bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let mut whole = vec![f64::NAN; 3];
        le_bytes_to_f64_into(&bytes, &mut whole);
        prop_assert_eq!(to_bits(&whole), to_bits(&legacy));
        let mut pieces = vec![-1.0; bits.len()];
        fill_le_f64(&mut pieces, |raw| {
            for (dst, src) in raw.chunks_mut(24).zip(bytes.chunks(24)) {
                dst.copy_from_slice(src);
            }
        });
        prop_assert_eq!(to_bits(&pieces), to_bits(&legacy));
    }

    #[test]
    fn conversion_kernel_bit_identical_encode(bits in proptest::collection::vec(any::<u64>(), 0..600)) {
        // Encode direction: the byte view vs per-value to_le_bytes, and
        // back again.
        let values: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        let legacy: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let view = f64_le_bytes(&values);
        prop_assert_eq!(&*view, &legacy[..]);
        let mut back = Vec::new();
        le_bytes_to_f64_into(&view, &mut back);
        prop_assert_eq!(to_bits(&back), to_bits(&values));
    }
}
