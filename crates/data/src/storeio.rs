//! Laying ensembles out on disk and reading them back.
//!
//! Members are written in the row-priority format the reading strategies
//! operate on; when the layout carries more than one vertical level per
//! point, the surface value is replicated with a small per-level lapse so
//! files have the paper's `h = 8·levels` bytes per point while the analysis
//! (which works on the surface level) stays unchanged.

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
/// The store's layout must match the ensemble's mesh.
pub fn write_ensemble(store: &FileStore, ensemble: &Ensemble) -> std::io::Result<()> {
    assert_eq!(
        store.layout().mesh(),
        ensemble.mesh(),
        "layout/ensemble mesh mismatch"
    );
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
        store.write_member(k, &buf)?;
    }
    Ok(())
}

/// Read `members` full member files back into an ensemble (surface level).
pub fn read_ensemble(store: &FileStore, members: usize) -> std::io::Result<Ensemble> {
    let mesh = store.layout().mesh();
    let mut states = Matrix::zeros(mesh.n(), members);
    for k in 0..members {
        // One member at a time: its slab goes back to the store's pool
        // before the next read takes it.
        let data = store.read_full(k)?;
        gather_surface_into(&mut states, &[k], std::slice::from_ref(&data));
    }
    Ok(Ensemble::new(mesh, states))
}

/// Assemble region-local background data `X̄ᵇ` (surface level) from one
/// [`RegionData`] per member: the `region.npoints() × N` matrix of Eq. 6.
pub fn region_to_matrix(region: &RegionRect, per_member: &[RegionData]) -> Matrix {
    let mut m = Matrix::zeros(region.npoints(), per_member.len());
    if let Some(first) = per_member.first() {
        assert_eq!(
            &first.region(),
            region,
            "member 0 covers a different region"
        );
    }
    let cols: Vec<usize> = (0..per_member.len()).collect();
    gather_surface_into(&mut m, &cols, per_member);
    m
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

    #[test]
    #[should_panic(expected = "covers a different region")]
    fn region_matrix_rejects_mismatched_regions() {
        let (_s, store, _) = setup(1);
        let a = store.read_region(0, &RegionRect::new(0, 2, 0, 2)).unwrap();
        region_to_matrix(&RegionRect::new(0, 3, 0, 2), &[a]);
    }
}
