//! Laying ensembles out on disk and reading them back.
//!
//! Members are written in the row-priority format the reading strategies
//! operate on; when the layout carries more than one vertical level per
//! point, the surface value is replicated with a small per-level lapse so
//! files have the paper's `h = 8·levels` bytes per point while the analysis
//! (which works on the surface level) stays unchanged.
//!
//! [`write_ensemble`] refreshes a store whose member files already exist
//! in place, and stages every other member through the atomic
//! [`FileStore::write_member`]; the bytes on disk are the same either way.

use enkf_core::Ensemble;
use enkf_grid::RegionRect;
use enkf_linalg::Matrix;
use enkf_pfs::{FileStore, RegionData};

/// Per-level offset applied when replicating the surface value into deeper
/// levels (a fixed, invertible transformation — level 0 is the analysis
/// variable). Public so parallel write-back produces byte-identical files.
pub const LEVEL_LAPSE: f64 = 0.01;

/// Write every member of an ensemble into the store.
///
/// A member whose file already holds exactly `layout.file_size()` bytes
/// is overwritten in place ([`FileStore::write_region_values`] over the
/// full mesh: one segment, same inode, no truncate, no rename). Any other
/// member — a fresh store, a missing, short or over-long file — takes the
/// staged, atomic [`FileStore::write_member`]. The bytes on disk are
/// identical either way.
///
/// The in-place refresh is not atomic, and needs not be: a work store
/// holds derived state. A campaign rewrites every live member before its
/// executor reads one, a recovery or a resume rebuilds from the checkpoint
/// and rewrites, and nothing reads the store during the refresh. Replacing
/// an existing file by rename costs a forced block allocation per member
/// on ext4 (`auto_da_alloc`), which the in-place write does not pay. A read
/// handle the store has cached maps the same inode, so it sees the new
/// bytes.
///
/// A store whose layout is for a different mesh than the ensemble's is an
/// [`std::io::ErrorKind::InvalidInput`] error; nothing is written.
pub fn write_ensemble(store: &FileStore, ensemble: &Ensemble) -> std::io::Result<()> {
    let layout = store.layout();
    let mesh = layout.mesh();
    if mesh != ensemble.mesh() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "work store mesh {}x{} does not match the ensemble mesh {}x{}",
                mesh.nx(),
                mesh.ny(),
                ensemble.mesh().nx(),
                ensemble.mesh().ny()
            ),
        ));
    }
    let full = RegionRect::full(mesh);
    let levels = store.levels();
    let n = ensemble.dim();
    let mut buf = vec![0.0f64; n * levels];
    for k in 0..ensemble.size() {
        let member = ensemble.member(k);
        for (i, &v) in member.iter().enumerate() {
            for level in 0..levels {
                buf[i * levels + level] = v - LEVEL_LAPSE * level as f64;
            }
        }
        let whole = std::fs::metadata(store.member_path(k))
            .is_ok_and(|m| m.is_file() && m.len() == layout.file_size());
        if whole {
            store.write_region_values(k, &full, &buf)?;
        } else {
            store.write_member(k, &buf)?;
        }
    }
    Ok(())
}

/// Read `members` full member files back into an ensemble: every level is
/// read, the surface is kept ([`FileStore::read_surface`]).
pub fn read_ensemble(store: &FileStore, members: usize) -> std::io::Result<Ensemble> {
    let mesh = store.layout().mesh();
    let mut states = Matrix::zeros(mesh.n(), members);
    for k in 0..members {
        // One member at a time: its slab goes back to the store's pool
        // before the next read takes it.
        let data = store.read_surface(k, &RegionRect::full(mesh))?;
        gather_surface_into(&mut states, &[k], std::slice::from_ref(&data));
    }
    Ok(Ensemble::new(mesh, states))
}

/// Gather the surface (level-0) values of `per_member[j]` into column
/// `cols[j]` of `m` — the one `X̄ᵇ` assembly every executor and
/// [`read_ensemble`] share. All members must cover the same region, whose
/// points are `m`'s rows in local row-priority order; columns not named in
/// `cols` are left as they are, so a matrix can be filled by several calls
/// (S-EnKF's per-group bundles) and dead members' columns simply never
/// appear.
///
/// The walk is tiled by region row: the `width × N` slice of `m` that one
/// latitude line maps to is filled from every member's `row(r)` while it
/// is cache-resident, instead of each member streaming a strided column
/// through the whole matrix. Allocation-free.
pub fn gather_surface_into(m: &mut Matrix, cols: &[usize], per_member: &[RegionData]) {
    assert_eq!(cols.len(), per_member.len(), "one column per member");
    let Some(first) = per_member.first() else {
        return;
    };
    let (region, levels) = (first.region(), first.levels());
    for (j, data) in per_member.iter().enumerate() {
        assert_eq!(
            data.region(),
            region,
            "member {j} covers a different region"
        );
        assert_eq!(data.levels(), levels, "member {j} level count differs");
    }
    assert_eq!(m.nrows(), region.npoints(), "one matrix row per point");
    let ncols = m.ncols();
    assert!(cols.iter().all(|&c| c < ncols), "column out of range");
    if region.is_empty() {
        return;
    }
    let tile_len = region.width() * ncols;
    for (r, tile) in m.as_mut_slice().chunks_exact_mut(tile_len).enumerate() {
        for (&col, data) in cols.iter().zip(per_member) {
            let surface = data.row(r).iter().step_by(levels);
            for (point, &v) in tile.chunks_exact_mut(ncols).zip(surface) {
                point[col] = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioBuilder;
    use enkf_grid::{FileLayout, Mesh};
    use enkf_pfs::ScratchDir;

    /// Assemble region-local background data `X̄ᵇ` (surface level) from one
    /// [`RegionData`] per member: the `region.npoints() × N` matrix of Eq. 6.
    fn region_to_matrix(region: &RegionRect, per_member: &[RegionData]) -> Matrix {
        let mut m = Matrix::zeros(region.npoints(), per_member.len());
        let cols: Vec<usize> = (0..per_member.len()).collect();
        gather_surface_into(&mut m, &cols, per_member);
        m
    }

    fn setup(levels: u64) -> (ScratchDir, FileStore, Ensemble) {
        let mesh = Mesh::new(12, 6);
        let scenario = ScenarioBuilder::new(mesh).members(5).seed(2).build();
        let scratch = ScratchDir::new("data-io").unwrap();
        let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8 * levels)).unwrap();
        write_ensemble(&store, &scenario.ensemble).unwrap();
        (scratch, store, scenario.ensemble)
    }

    #[test]
    fn write_read_roundtrip_single_level() {
        let (_s, store, ensemble) = setup(1);
        let back = read_ensemble(&store, 5).unwrap();
        assert_eq!(back.states(), ensemble.states());
    }

    #[test]
    fn multi_level_files_keep_surface_exact() {
        let (_s, store, ensemble) = setup(3);
        assert_eq!(store.levels(), 3);
        let back = read_ensemble(&store, 5).unwrap();
        assert_eq!(back.states(), ensemble.states());
        // Deeper levels follow the lapse.
        let data = store.read_full(0).unwrap();
        let surf = data.value(7, 0);
        assert!((data.value(7, 2) - (surf - 2.0 * LEVEL_LAPSE)).abs() < 1e-12);
    }

    #[test]
    fn region_matrix_matches_ensemble_restrict() {
        let (_s, store, ensemble) = setup(2);
        let region = RegionRect::new(3, 9, 1, 5);
        let per_member: Vec<RegionData> = (0..5)
            .map(|k| store.read_region(k, &region).unwrap())
            .collect();
        let m = region_to_matrix(&region, &per_member);
        let expect = ensemble.restrict(&region);
        assert!(
            m.approx_eq(&expect, 0.0),
            "file-backed region must equal in-memory restrict"
        );
    }

    /// A second ensemble on `setup`'s mesh, different in every value.
    fn other_ensemble() -> Ensemble {
        ScenarioBuilder::new(Mesh::new(12, 6))
            .members(5)
            .seed(7)
            .build()
            .ensemble
    }

    fn inode(store: &FileStore, k: usize) -> u64 {
        use std::os::unix::fs::MetadataExt;
        std::fs::metadata(store.member_path(k)).unwrap().ino()
    }

    /// Member `k`'s bytes as a fresh store's staged write lays them down.
    fn staged_bytes(ensemble: &Ensemble, levels: u64, k: usize) -> Vec<u8> {
        let scratch = ScratchDir::new("data-io-staged").unwrap();
        let layout = FileLayout::new(ensemble.mesh(), 8 * levels);
        let store = FileStore::open(scratch.path(), layout).unwrap();
        write_ensemble(&store, ensemble).unwrap();
        std::fs::read(store.member_path(k)).unwrap()
    }

    #[test]
    fn refresh_overwrites_existing_members_in_place() {
        let (_s, store, first) = setup(3);
        let inodes: Vec<u64> = (0..5).map(|k| inode(&store, k)).collect();
        let second = other_ensemble();
        assert_ne!(second.states(), first.states());
        write_ensemble(&store, &second).unwrap();
        assert_eq!(read_ensemble(&store, 5).unwrap().states(), second.states());
        for (k, &ino) in inodes.iter().enumerate() {
            let bytes = std::fs::read(store.member_path(k)).unwrap();
            assert_eq!(bytes.len() as u64, store.layout().file_size());
            assert_eq!(bytes, staged_bytes(&second, 3, k), "member {k} bytes");
            assert_eq!(
                inode(&store, k),
                ino,
                "member {k} was replaced, not refreshed"
            );
        }
    }

    #[test]
    fn short_and_long_members_take_the_staged_write() {
        let (_s, store, _) = setup(2);
        let size = store.layout().file_size();
        let file = |k| {
            std::fs::OpenOptions::new()
                .write(true)
                .open(store.member_path(k))
                .unwrap()
        };
        file(1).set_len(size - 8).unwrap();
        file(3).set_len(size + 8).unwrap();
        let (short, long) = (inode(&store, 1), inode(&store, 3));
        let second = other_ensemble();
        write_ensemble(&store, &second).unwrap();
        assert_eq!(read_ensemble(&store, 5).unwrap().states(), second.states());
        for k in [1, 3] {
            let bytes = std::fs::read(store.member_path(k)).unwrap();
            assert_eq!(bytes.len() as u64, size, "member {k} length");
            assert_eq!(bytes, staged_bytes(&second, 2, k), "member {k} bytes");
        }
        assert_ne!(inode(&store, 1), short, "a short member is staged");
        assert_ne!(inode(&store, 3), long, "an over-long member is staged");
    }

    #[test]
    fn cached_read_handle_sees_the_refresh() {
        let (_s, store, _) = setup(2);
        let region = RegionRect::new(2, 10, 1, 4);
        store.read_region(0, &region).unwrap(); // caches member 0's handle
        let second = other_ensemble();
        write_ensemble(&store, &second).unwrap();
        let data = store.read_region(0, &region).unwrap();
        let expect = second.restrict(&region);
        assert!(data
            .surface()
            .eq((0..region.npoints()).map(|i| expect[(i, 0)])));
    }

    #[test]
    fn a_store_of_another_mesh_is_invalid_input() {
        let (_s, _, ensemble) = setup(1);
        let scratch = ScratchDir::new("data-io-mesh").unwrap();
        let store = FileStore::open(scratch.path(), FileLayout::new(Mesh::new(6, 6), 8)).unwrap();
        let err = write_ensemble(&store, &ensemble).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert_eq!(store.num_members(), 0, "nothing is written");
    }
}
