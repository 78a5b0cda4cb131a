//! Parallel write-back of the analysis ensemble.
//!
//! The assimilation's product — the analysis `X^a` — must land back on the
//! parallel file system to serve as the model's initial condition. The
//! write side mirrors the bar-reading co-design: each writer owns a set of
//! full-width latitude bars (single-segment, one addressing operation per
//! bar per member) instead of scattering per-rank blocks.

use crate::report::PhaseBreakdown;
use enkf_core::{EnkfError, Ensemble, Result};
use enkf_grid::{Decomposition, RegionRect};
use enkf_pfs::FileStore;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Test failpoint: the next writer thread panics mid-write. The panic must
/// surface as a typed error from [`parallel_write_back`], never tear down
/// the caller. Self-clearing.
pub(crate) static FAIL_WRITER_PANIC: AtomicBool = AtomicBool::new(false);

/// Write every member of `analysis` into `store` using `writers` parallel
/// bar writers. Member files are created (zero-filled) first; each writer
/// then writes its latitude bars of every member. Returns the accumulated
/// write-phase timing.
pub fn parallel_write_back(
    store: &FileStore,
    analysis: &Ensemble,
    writers: usize,
) -> Result<PhaseBreakdown> {
    let mesh = analysis.mesh();
    if store.layout().mesh() != mesh {
        return Err(EnkfError::GeometryMismatch(
            "store layout mesh differs from analysis mesh".into(),
        ));
    }
    if writers == 0 || !mesh.ny().is_multiple_of(writers) {
        return Err(EnkfError::GeometryMismatch(format!(
            "ny = {} is not divisible into {writers} writer bars",
            mesh.ny()
        )));
    }
    let levels = store.levels();
    // Preallocate the member files serially (cheap, one pass).
    for k in 0..analysis.size() {
        store
            .create_member(k)
            .map_err(|e| EnkfError::GeometryMismatch(format!("create failed: {e}")))?;
    }
    let decomp = Decomposition::new(mesh, 1, writers)
        .map_err(|e| EnkfError::GeometryMismatch(e.to_string()))?;

    let t0 = Instant::now();
    let errors: Vec<Option<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..writers)
            .map(|j| {
                let decomp = &decomp;
                scope.spawn(move || {
                    if FAIL_WRITER_PANIC.swap(false, Ordering::SeqCst) {
                        // The one deliberate panic of the crate: a panicking
                        // writer thread is what the failpoint exists to
                        // produce, only a test arms it, and the join below
                        // contains it.
                        #[allow(clippy::panic)]
                        {
                            panic!("injected write-back writer panic (failpoint)");
                        }
                    }
                    let bar: RegionRect = decomp.bar(j);
                    let local = analysis.restrict(&bar);
                    // One staging vector per writer, reused across members —
                    // the pooled write path serializes straight from it.
                    let mut values = vec![0.0f64; bar.npoints() * levels];
                    for k in 0..analysis.size() {
                        for row in 0..bar.npoints() {
                            let v = local[(row, k)];
                            for level in 0..levels {
                                values[row * levels + level] =
                                    v - enkf_data::LEVEL_LAPSE * level as f64;
                            }
                        }
                        if let Err(e) = store.write_region_values(k, &bar, &values) {
                            return Some(format!("bar {j}, member {k}: {e}"));
                        }
                    }
                    None
                })
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(j, h)| match h.join() {
                Ok(err) => err,
                // Contain a panicking writer: the caller gets a typed
                // error, not a propagated panic from a worker thread.
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "writer panicked".into());
                    Some(format!("writer {j} panicked: {msg}"))
                }
            })
            .collect()
    });
    if let Some(msg) = errors.into_iter().flatten().next() {
        return Err(EnkfError::GeometryMismatch(format!(
            "write-back failed: {msg}"
        )));
    }
    Ok(PhaseBreakdown {
        read: 0.0,
        comm: 0.0,
        compute: 0.0,
        wait: t0.elapsed().as_secs_f64(),
        fault: 0.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use enkf_data::{read_ensemble, ScenarioBuilder};
    use enkf_grid::{FileLayout, Mesh};
    use enkf_pfs::ScratchDir;

    #[test]
    fn write_back_roundtrips_through_read() {
        let mesh = Mesh::new(16, 8);
        let members = 5;
        let scenario = ScenarioBuilder::new(mesh).members(members).seed(2).build();
        let scratch = ScratchDir::new("writeback").unwrap();
        let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8)).unwrap();
        parallel_write_back(&store, &scenario.ensemble, 4).unwrap();
        let back = read_ensemble(&store, members).unwrap();
        assert_eq!(back.states(), scenario.ensemble.states());
    }

    #[test]
    fn panicking_writer_is_a_typed_error_not_a_process_panic() {
        let mesh = Mesh::new(16, 8);
        let members = 3;
        let scenario = ScenarioBuilder::new(mesh).members(members).seed(5).build();
        let scratch = ScratchDir::new("wb-panic").unwrap();
        let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8)).unwrap();
        FAIL_WRITER_PANIC.store(true, Ordering::SeqCst);
        let err = parallel_write_back(&store, &scenario.ensemble, 2)
            .expect_err("a panicking writer must surface as an error");
        let msg = err.to_string();
        assert!(msg.contains("panicked"), "typed containment: {msg}");
        assert!(msg.contains("failpoint"), "payload preserved: {msg}");
        assert!(
            !FAIL_WRITER_PANIC.load(Ordering::SeqCst),
            "failpoint clears itself"
        );
        // The store is still usable after containment.
        parallel_write_back(&store, &scenario.ensemble, 2).unwrap();
    }

    #[test]
    fn writer_count_does_not_change_the_files() {
        let mesh = Mesh::new(12, 12);
        let members = 3;
        let scenario = ScenarioBuilder::new(mesh).members(members).seed(7).build();
        let scratch_a = ScratchDir::new("wb-a").unwrap();
        let scratch_b = ScratchDir::new("wb-b").unwrap();
        let store_a = FileStore::open(scratch_a.path(), FileLayout::new(mesh, 16)).unwrap();
        let store_b = FileStore::open(scratch_b.path(), FileLayout::new(mesh, 16)).unwrap();
        parallel_write_back(&store_a, &scenario.ensemble, 1).unwrap();
        parallel_write_back(&store_b, &scenario.ensemble, 6).unwrap();
        for k in 0..members {
            let a = std::fs::read(store_a.member_path(k)).unwrap();
            let b = std::fs::read(store_b.member_path(k)).unwrap();
            assert_eq!(a, b, "member {k} differs between writer counts");
        }
    }

    #[test]
    fn invalid_writer_count_rejected() {
        let mesh = Mesh::new(8, 8);
        let scenario = ScenarioBuilder::new(mesh).members(3).seed(1).build();
        let scratch = ScratchDir::new("wb-bad").unwrap();
        let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8)).unwrap();
        assert!(parallel_write_back(&store, &scenario.ensemble, 3).is_err());
        assert!(parallel_write_back(&store, &scenario.ensemble, 0).is_err());
    }

    #[test]
    fn mesh_mismatch_rejected() {
        let scenario = ScenarioBuilder::new(Mesh::new(8, 8))
            .members(3)
            .seed(1)
            .build();
        let scratch = ScratchDir::new("wb-mesh").unwrap();
        let store = FileStore::open(scratch.path(), FileLayout::new(Mesh::new(8, 4), 8)).unwrap();
        assert!(parallel_write_back(&store, &scenario.ensemble, 2).is_err());
    }
}
