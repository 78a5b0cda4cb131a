//! Durable checkpoint/restart for multi-cycle assimilation campaigns.
//!
//! A campaign that runs K cycles on faulty hardware needs a recovery line:
//! after each analysis the supervisor persists the *resumable state* — the
//! analysis ensemble, the truth trajectory, the free-running control, the
//! RNG cursor, the accumulated statistics — and on a crash restores the
//! last durable cycle and re-runs from there. This crate is that layer:
//!
//! * **Atomic**: a checkpoint *exists* only once its commit record
//!   `MANIFEST.bin` — written last, through temp file + fsync + rename — is
//!   in place. Each save writes into a freshly recreated cycle directory:
//!   member files go straight to their final names and are fsynced, one
//!   directory fsync makes the names durable, and only then is the record
//!   committed. A crash mid-write leaves a directory without a record,
//!   which is not a checkpoint, and the previous cycle untouched.
//! * **Self-verifying**: the record holds everything but the analysis
//!   members (the header, the truth, the free run, the statistics and the
//!   cycle digests), an FNV-64 checksum of every member file, and ends with
//!   a checksum of itself. Loads verify before trusting anything; a
//!   mismatch yields a typed [`CkptError::CorruptMember`] /
//!   [`CkptError::CorruptManifest`], the bad artifact is quarantined
//!   (renamed aside, never silently re-read), and
//!   [`CheckpointStore::load_latest`] falls back to the previous durable
//!   cycle.
//! * **Costed**: member payload I/O (the dominant term: 8·n bytes per
//!   member per direction) is recorded through [`enkf_trace::RankTracer`]
//!   as [`enkf_trace::Op::Ckpt`] / [`enkf_trace::Op::Restore`] spans, so
//!   the DES campaign model can charge the identical byte stream to the
//!   OST model and real-vs-modeled campaign digests stay comparable.
//!
//! On-disk layout under the store root:
//!
//! ```text
//! cycle_0003/
//!   member_00000.bin ... member_000{N-1}.bin   # analysis, FileStore layout
//!   MANIFEST.bin                               # commit record; written last
//! ```
//!
//! `MANIFEST.bin` is little-endian: the magic `SENKFCK2`; ten `u64` words
//! (`cycle, seed, members0, members, rng_cursor, config_fp, nx, ny,
//! stats_len, digests_len`); `members` member checksums; the truth (`n`
//! f64) and the free run (`members0 × n` f64, member-major); the statistics
//! (`stats_len × [u64, 3 f64]`) and the digests (`digests_len` u64); and a
//! trailing FNV-64 of every byte before it.

#![deny(unreachable_pub)]
// ROADMAP carve-out (c): outside tests nothing in this crate may panic on a
// failure correct use can meet.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use enkf_core::Ensemble;
use enkf_data::CycleStats;
use enkf_grid::{FileLayout, Mesh};
use enkf_linalg::Matrix;
use enkf_pfs::FileStore;
use enkf_trace::RankTracer;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

mod writer;
pub use writer::AsyncCheckpointer;

/// FNV-1a 64-bit hash — the checksum used for every checkpoint artifact.
/// Not cryptographic; it detects torn writes and bit rot, which is the
/// failure model here.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Typed checkpoint failures. Corruption variants mean the artifact was
/// quarantined (renamed to `*.quarantined`) so it can never be silently
/// read again; the caller falls back to an earlier cycle.
#[derive(Debug)]
pub enum CkptError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// A member file's checksum did not match the commit record (or the
    /// file is missing/truncated). `actual == 0` with a missing file.
    CorruptMember {
        /// Checkpoint cycle the member belongs to.
        cycle: usize,
        /// Ensemble member index.
        member: usize,
        /// The quarantined (or missing) file.
        path: PathBuf,
        /// Checksum the record promised.
        expected: u64,
        /// Checksum of the bytes actually on disk.
        actual: u64,
    },
    /// The commit record `MANIFEST.bin` failed verification.
    CorruptManifest {
        /// Checkpoint cycle.
        cycle: usize,
        /// The quarantined record.
        path: PathBuf,
        /// What failed.
        detail: String,
    },
    /// The checkpoint was written by a campaign with a different
    /// configuration fingerprint — restoring it would silently change the
    /// experiment.
    ConfigMismatch {
        /// Fingerprint the caller expects.
        expected: u64,
        /// Fingerprint recorded in the checkpoint.
        actual: u64,
    },
    /// A cycle directory holds a commit record of an older format
    /// (`MANIFEST.txt`). Nothing is read, quarantined or pruned; delete the
    /// directory to start afresh.
    OldFormat {
        /// The old record.
        path: PathBuf,
    },
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            CkptError::CorruptMember {
                cycle,
                member,
                path,
                expected,
                actual,
            } => write!(
                f,
                "cycle {cycle} member {member} corrupt ({}): checksum {actual:016x}, \
                 record says {expected:016x}; file quarantined",
                path.display()
            ),
            CkptError::CorruptManifest {
                cycle,
                path,
                detail,
            } => write!(
                f,
                "cycle {cycle} commit record corrupt ({}): {detail}",
                path.display()
            ),
            CkptError::ConfigMismatch { expected, actual } => write!(
                f,
                "checkpoint config fingerprint {actual:016x} does not match \
                 campaign fingerprint {expected:016x}"
            ),
            CkptError::OldFormat { path } => write!(
                f,
                "{} is an older checkpoint format; refused and left as is",
                path.display()
            ),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<io::Error> for CkptError {
    fn from(e: io::Error) -> Self {
        CkptError::Io(e)
    }
}

/// The resumable state of a campaign after `cycle` completed cycles —
/// everything the supervisor needs to continue as if never interrupted.
///
/// The field arrays are `Arc`-backed shared views of the experiment's
/// copy-on-write state (`enkf_data::CycleState`): building and cloning a
/// checkpoint is O(1) refcount bumps, which is what lets the supervisor
/// hand cycle k's state to the asynchronous writer and immediately start
/// cycle k+1 without deep-copying the ensemble.
#[derive(Debug, Clone)]
pub struct CampaignCheckpoint {
    /// Completed cycles (the next cycle to run).
    pub cycle: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Member count the campaign *started* with (the analysis may hold
    /// fewer after a degraded cycle).
    pub members0: usize,
    /// Raw RNG draws consumed so far (see `enkf_data::CycleState`).
    pub rng_cursor: u64,
    /// Fingerprint of the campaign configuration that wrote this.
    pub config_fp: u64,
    /// Truth trajectory state.
    pub truth: Arc<Vec<f64>>,
    /// The analysis ensemble of the last completed cycle (= the next
    /// background).
    pub analysis: Arc<Ensemble>,
    /// Free-running control ensemble (always `members0` wide).
    pub free_run: Arc<Ensemble>,
    /// Per-cycle statistics accumulated so far.
    pub stats: Vec<CycleStats>,
    /// FNV-64 hash of each completed cycle's trace digest — the
    /// kill–resume conformance artifact.
    pub cycle_digests: Vec<u64>,
}

const MANIFEST: &str = "MANIFEST.bin";
/// The text commit record of the format before `MANIFEST.bin`.
const OLD_MANIFEST: &str = "MANIFEST.txt";
const MAGIC: &[u8; 8] = b"SENKFCK2";
/// `u64` header words after the magic.
const WORDS: usize = 10;
/// Durable cycles kept: enough for one fallback level.
const RETAIN: usize = 2;

/// A directory of durable per-cycle checkpoints with bounded retention.
#[derive(Debug)]
pub struct CheckpointStore {
    root: PathBuf,
}

impl CheckpointStore {
    /// Open (creating if needed) a checkpoint directory. Retains the last
    /// 2 durable cycles — enough for one fallback level.
    pub fn create(root: impl AsRef<Path>) -> io::Result<Self> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        Ok(CheckpointStore { root })
    }

    /// Directory of one cycle's checkpoint.
    pub fn cycle_dir(&self, cycle: usize) -> PathBuf {
        self.root.join(format!("cycle_{cycle:04}"))
    }

    /// Every `cycle_*` entry under the root with its path, ascending.
    fn cycles(&self) -> io::Result<Vec<(usize, PathBuf)>> {
        let mut cycles = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            let name = entry.file_name();
            let cycle = name.to_str().and_then(|n| n.strip_prefix("cycle_"));
            if let Some(Ok(cycle)) = cycle.map(str::parse) {
                cycles.push((cycle, entry.path()));
            }
        }
        cycles.sort_unstable();
        Ok(cycles)
    }

    /// Cycles with a commit record in place (durably committed), ascending.
    /// Quarantined or partially-written cycles do not appear.
    pub fn durable_cycles(&self) -> io::Result<Vec<usize>> {
        let cycles = self.cycles()?.into_iter();
        Ok(cycles
            .filter(|(_, dir)| dir.join(MANIFEST).is_file())
            .map(|(cycle, _)| cycle)
            .collect())
    }

    /// Durably persist a checkpoint into a freshly recreated cycle
    /// directory: member files ([`MemberEncoder::write_durable`]) straight
    /// to their final names, each fsynced; one directory fsync; then — last,
    /// and the only commit point — the record, through temp file + fsync +
    /// rename. Member payload writes are recorded as
    /// [`enkf_trace::Op::Ckpt`] spans (8·n bytes, one seek each). Older
    /// cycles beyond the retention budget are pruned.
    pub fn save(
        &self,
        ckpt: &CampaignCheckpoint,
        mut tracer: Option<&mut RankTracer>,
    ) -> io::Result<()> {
        let mesh = ckpt.analysis.mesh();
        let dir = self.cycle_dir(ckpt.cycle);
        // A leftover partial attempt for this cycle (no record) is stale:
        // clear it so FileStore::open starts from an empty directory.
        if dir.exists() {
            fs::remove_dir_all(&dir)?;
        }
        fs::create_dir_all(&dir)?;
        let store = FileStore::open(&dir, FileLayout::new(mesh, 8))?;
        let members = ckpt.analysis.size();
        let mut member_crcs = Vec::with_capacity(members);
        let mut enc = MemberEncoder::new();
        for k in 0..members {
            let bytes = 8 * mesh.n() as u64;
            let crc = if let Some(t) = tracer.as_deref_mut() {
                t.ckpt(Some(k), bytes, 1, || {
                    enc.write_durable(&store, &ckpt.analysis, k)
                })?
            } else {
                enc.write_durable(&store, &ckpt.analysis, k)?
            };
            member_crcs.push(crc);
        }
        // One fsync makes every name above durable before the record
        // vouches for them.
        sync_dir(&dir)?;
        write_atomic(&dir, MANIFEST, &encode_record(ckpt, &member_crcs))?;
        self.prune()
    }

    /// Load and fully verify one cycle's checkpoint. Corrupt artifacts are
    /// quarantined and reported as typed errors; member payload reads are
    /// recorded as [`enkf_trace::Op::Restore`] spans.
    pub fn load_cycle(
        &self,
        cycle: usize,
        config_fp: u64,
        mut tracer: Option<&mut RankTracer>,
    ) -> Result<CampaignCheckpoint, CkptError> {
        let dir = self.cycle_dir(cycle);
        let path = dir.join(MANIFEST);
        let corrupt = |detail: String| {
            // Quarantine: the cycle must stop looking durable.
            let _ = fs::rename(&path, dir.join("MANIFEST.bin.quarantined"));
            CkptError::CorruptManifest {
                cycle,
                path: path.clone(),
                detail,
            }
        };
        let record = fs::read(&path).map_err(|e| corrupt(format!("unreadable: {e}")))?;
        let words = sealed_words(&record).map_err(&corrupt)?;
        let header: [u64; WORDS] = std::array::from_fn(|i| u64::from_le_bytes(words[i]));
        let [on_disk, seed, members0, members, rng_cursor, fp, nx, ny, stats_len, digests_len] =
            header;
        if on_disk != cycle as u64 {
            return Err(corrupt(format!(
                "record says cycle {on_disk}, directory says {cycle}"
            )));
        }
        if fp != config_fp {
            return Err(CkptError::ConfigMismatch {
                expected: config_fp,
                actual: fp,
            });
        }
        // A degraded cycle only loses members, and the free run holds
        // `members0` of them: this bounds the analysis allocation.
        if members == 0 || members > members0 {
            return Err(corrupt(format!("{members} members of {members0} original")));
        }
        // Every count sizes an allocation: the record must hold exactly the
        // words the header promises before any of them is trusted.
        let n = nx.checked_mul(ny).filter(|_| nx > 0 && ny > 0);
        let expected = n.and_then(|n| {
            n.checked_mul(members0.checked_add(1)?)?
                .checked_add(stats_len.checked_mul(4)?)?
                .checked_add(digests_len)?
                .checked_add(members)?
                .checked_add(WORDS as u64)
        });
        if expected != Some(words.len() as u64) {
            return Err(corrupt(format!(
                "header of a {nx} x {ny} mesh promises {expected:?} words, record has {}",
                words.len()
            )));
        }
        // Each count is now bounded by the record's length.
        let mesh = Mesh::new(nx as usize, ny as usize);
        let (n, members0, members) = (mesh.n(), members0 as usize, members as usize);
        let (crcs, rest) = words[WORDS..].split_at(members);
        let (truth, rest) = rest.split_at(n);
        let (free, rest) = rest.split_at(n * members0);
        let (stats, digests) = rest.split_at(4 * stats_len as usize);
        let f64_of = |w: &[u8; 8]| f64::from_le_bytes(*w);
        let u64_of = |w: &[u8; 8]| u64::from_le_bytes(*w);

        // Member payloads: raw read, checksum against the record, then
        // parse — a corrupt file is quarantined before anything trusts it.
        let store = FileStore::open(&dir, FileLayout::new(mesh, 8))?;
        let mut states = Matrix::zeros(n, members);
        for (k, crc) in crcs.iter().enumerate() {
            let (path, expected) = (store.member_path(k), u64_of(crc));
            let bytes = match fs::read(&path) {
                Ok(b) if fnv64(&b) == expected && b.len() == 8 * n => b,
                read => {
                    let _ = fs::rename(&path, path.with_extension("bin.quarantined"));
                    return Err(CkptError::CorruptMember {
                        cycle,
                        member: k,
                        path,
                        expected,
                        actual: read.map_or(0, |b| fnv64(&b)),
                    });
                }
            };
            if let Some(t) = tracer.as_deref_mut() {
                t.restore(Some(k), 8 * n as u64, 1, || ());
            }
            for (i, word) in bytes.as_chunks::<8>().0.iter().enumerate() {
                states[(i, k)] = f64_of(word);
            }
        }

        Ok(CampaignCheckpoint {
            cycle,
            seed,
            members0,
            rng_cursor,
            config_fp,
            truth: Arc::new(truth.iter().map(f64_of).collect()),
            analysis: Arc::new(Ensemble::new(mesh, states)),
            free_run: Arc::new(Ensemble::new(
                mesh,
                Matrix::from_fn(n, members0, |i, k| f64_of(&free[k * n + i])),
            )),
            stats: stats
                .as_chunks::<4>()
                .0
                .iter()
                .map(|[c, forecast, analysis, free_run]| CycleStats {
                    cycle: u64_of(c) as usize,
                    forecast_rmse: f64_of(forecast),
                    analysis_rmse: f64_of(analysis),
                    free_run_rmse: f64_of(free_run),
                })
                .collect(),
            cycle_digests: digests.iter().map(u64_of).collect(),
        })
    }

    /// Load the most recent durable checkpoint, falling back past corrupt
    /// cycles (each is quarantined and reported in the returned list).
    /// `Ok(None)` when no durable checkpoint survives; a directory of the
    /// older text format is [`CkptError::OldFormat`], and nothing is read.
    #[allow(clippy::type_complexity)]
    pub fn load_latest(
        &self,
        config_fp: u64,
        mut tracer: Option<&mut RankTracer>,
    ) -> Result<Option<(CampaignCheckpoint, Vec<CkptError>)>, CkptError> {
        let mut old = self
            .cycles()?
            .into_iter()
            .map(|(_, dir)| dir.join(OLD_MANIFEST));
        if let Some(path) = old.find(|p| p.is_file()) {
            return Err(CkptError::OldFormat { path });
        }
        let mut skipped = Vec::new();
        for cycle in self.durable_cycles()?.into_iter().rev() {
            match self.load_cycle(cycle, config_fp, tracer.as_deref_mut()) {
                Ok(ckpt) => return Ok(Some((ckpt, skipped))),
                Err(e @ (CkptError::CorruptMember { .. } | CkptError::CorruptManifest { .. })) => {
                    skipped.push(e);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }

    /// Remove every cycle directory older than the oldest retained durable
    /// cycle: durable cycles past the budget, and the quarantined or torn
    /// leftovers that no longer count as durable (without this sweep,
    /// `*.quarantined` artifacts would accumulate forever).
    fn prune(&self) -> io::Result<()> {
        let durable = self.durable_cycles()?;
        let Some(&cutoff) = durable.get(durable.len().saturating_sub(RETAIN)) else {
            return Ok(());
        };
        for (_, dir) in self.cycles()?.into_iter().filter(|&(c, _)| c < cutoff) {
            fs::remove_dir_all(dir)?;
        }
        Ok(())
    }
}

/// Reusable encode state for checkpoint member writes.
///
/// Gathers a member column into an owned `f64` buffer, checksums its
/// little-endian byte view (`kernel::convert::f64_le_bytes` — the buffer's
/// own memory on little-endian targets) and hands that same view to the
/// durable write path: the bytes checksummed are the bytes written, with
/// no staging copy and zero payload allocations at steady state (pinned by
/// `tests/dataplane_alloc_free.rs`).
#[derive(Debug, Default)]
pub struct MemberEncoder {
    col: Vec<f64>,
}

impl MemberEncoder {
    /// An encoder with empty (lazily grown) buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write member `k` of `ensemble` to its file in `store`'s directory
    /// (created or truncated in place, not staged) and fsync it, returning
    /// the FNV-64 checksum of the exact bytes written. The file's contents
    /// are durable on return; its name becomes durable at the directory
    /// fsync [`CheckpointStore::save`] makes before committing the record.
    /// The store's I/O statistics are not charged.
    pub fn write_durable(
        &mut self,
        store: &FileStore,
        ensemble: &Ensemble,
        k: usize,
    ) -> io::Result<u64> {
        ensemble.member_into(k, &mut self.col);
        let bytes = enkf_linalg::kernel::convert::f64_le_bytes(&self.col);
        write_synced(&store.member_path(k), &bytes)?;
        Ok(fnv64(&bytes))
    }
}

/// Write `bytes` to `path` (created or truncated) and flush them to stable
/// storage. The name is durable only once its directory is synced.
fn write_synced(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = fs::File::create(path)?;
    f.write_all(bytes)?;
    f.sync_all()
}

fn sync_dir(dir: &Path) -> io::Result<()> {
    fs::File::open(dir)?.sync_all()
}

/// Write `bytes` to `dir/name` atomically: temp file in the same
/// directory, flush to stable storage, rename over the target, sync the
/// directory so the rename itself is durable.
fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    write_synced(&tmp, bytes)?;
    fs::rename(&tmp, dir.join(name))?;
    sync_dir(dir)
}

/// `ckpt`'s commit record (the layout in the crate docs) for analysis
/// members whose files have the checksums `member_crcs`.
fn encode_record(ckpt: &CampaignCheckpoint, member_crcs: &[u64]) -> Vec<u8> {
    fn put(buf: &mut Vec<u8>, words: impl IntoIterator<Item = u64>) {
        for w in words {
            buf.extend_from_slice(&w.to_le_bytes());
        }
    }
    let (mesh, free) = (ckpt.analysis.mesh(), ckpt.free_run.states());
    let words = WORDS + member_crcs.len() + mesh.n() * (1 + ckpt.members0);
    let words = words + 4 * ckpt.stats.len() + ckpt.cycle_digests.len() + 1;
    let mut buf = Vec::with_capacity(8 * (1 + words));
    buf.extend_from_slice(MAGIC);
    put(
        &mut buf,
        [
            ckpt.cycle as u64,
            ckpt.seed,
            ckpt.members0 as u64,
            member_crcs.len() as u64,
            ckpt.rng_cursor,
            ckpt.config_fp,
            mesh.nx() as u64,
            mesh.ny() as u64,
            ckpt.stats.len() as u64,
            ckpt.cycle_digests.len() as u64,
        ],
    );
    put(&mut buf, member_crcs.iter().copied());
    put(&mut buf, ckpt.truth.iter().map(|v| v.to_bits()));
    for k in 0..ckpt.members0 {
        put(&mut buf, (0..mesh.n()).map(|i| free[(i, k)].to_bits()));
    }
    for s in &ckpt.stats {
        let rmse = [s.forecast_rmse, s.analysis_rmse, s.free_run_rmse];
        put(
            &mut buf,
            [s.cycle as u64].into_iter().chain(rmse.map(f64::to_bits)),
        );
    }
    put(&mut buf, ckpt.cycle_digests.iter().copied());
    let crc = fnv64(&buf);
    put(&mut buf, [crc]);
    buf
}

/// The words between a commit record's magic and its trailing checksum,
/// once the checksum and the magic check out and the header is whole.
fn sealed_words(record: &[u8]) -> Result<&[[u8; 8]], String> {
    match record.as_chunks::<8>() {
        ([magic, words @ .., crc], []) if words.len() >= WORDS => {
            let (sum, sealed) = (fnv64(&record[..record.len() - 8]), u64::from_le_bytes(*crc));
            if sum != sealed {
                Err(format!("checksum {sum:016x} != sealed {sealed:016x}"))
            } else if magic != MAGIC {
                Err("bad magic".into())
            } else {
                Ok(words)
            }
        }
        _ => Err(format!("truncated at {} bytes", record.len())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enkf_pfs::ScratchDir;

    fn sample(cycle: usize, members: usize) -> CampaignCheckpoint {
        let mesh = Mesh::new(6, 4);
        let n = mesh.n();
        let mk = |salt: usize| {
            Matrix::from_fn(n, members, |i, k| {
                ((i * 31 + k * 7 + salt) as f64).sin() * 3.0 - 1.0
            })
        };
        CampaignCheckpoint {
            cycle,
            seed: 42,
            members0: members,
            rng_cursor: 1234 + cycle as u64,
            config_fp: 0xFEED_BEEF,
            truth: Arc::new((0..n).map(|i| (i as f64).cos()).collect()),
            analysis: Arc::new(Ensemble::new(mesh, mk(1))),
            free_run: Arc::new(Ensemble::new(mesh, mk(2))),
            stats: (0..cycle)
                .map(|c| CycleStats {
                    cycle: c,
                    forecast_rmse: 0.5 + c as f64,
                    analysis_rmse: 0.25 + c as f64,
                    free_run_rmse: 0.75 + c as f64,
                })
                .collect(),
            cycle_digests: (0..cycle).map(|c| 0x1000 + c as u64).collect(),
        }
    }

    #[test]
    fn save_load_round_trips_bit_exactly() {
        let scratch = ScratchDir::new("ckpt-rt").unwrap();
        let store = CheckpointStore::create(scratch.path().join("ckpt")).unwrap();
        let ckpt = sample(3, 5);
        store.save(&ckpt, None).unwrap();
        let back = store.load_cycle(3, 0xFEED_BEEF, None).unwrap();
        assert_eq!(back.analysis.states(), ckpt.analysis.states());
        assert_eq!(back.free_run.states(), ckpt.free_run.states());
        assert_eq!(back.truth, ckpt.truth);
        assert_eq!(back.stats, ckpt.stats);
        assert_eq!(back.cycle_digests, ckpt.cycle_digests);
        assert_eq!(back.rng_cursor, ckpt.rng_cursor);
        assert_eq!(back.seed, ckpt.seed);
        assert_eq!(back.members0, ckpt.members0);
    }

    /// The same state committed as cycle 9 and as cycle 10 (one more digit)
    /// makes records of one size.
    #[test]
    fn manifest_size_does_not_depend_on_the_cycle_number() {
        let scratch = ScratchDir::new("ckpt-pad").unwrap();
        let store = CheckpointStore::create(scratch.path().join("ckpt")).unwrap();
        let mut lens = Vec::new();
        for cycle in [9, 10] {
            let ckpt = CampaignCheckpoint {
                cycle,
                ..sample(9, 3)
            };
            store.save(&ckpt, None).unwrap();
            let manifest = fs::metadata(store.cycle_dir(cycle).join(MANIFEST)).unwrap();
            lens.push(manifest.len());
            let back = store.load_cycle(cycle, 0xFEED_BEEF, None).unwrap();
            let bits = |e: &Ensemble| -> Vec<u64> {
                e.states().as_slice().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(back.cycle, cycle);
            assert_eq!(bits(&back.analysis), bits(&ckpt.analysis));
            assert_eq!(bits(&back.free_run), bits(&ckpt.free_run));
        }
        assert_eq!(lens[0], lens[1]);
    }

    #[test]
    fn retention_prunes_old_cycles() {
        let scratch = ScratchDir::new("ckpt-prune").unwrap();
        let store = CheckpointStore::create(scratch.path().join("ckpt")).unwrap();
        for c in 0..5 {
            store.save(&sample(c, 3), None).unwrap();
        }
        assert_eq!(store.durable_cycles().unwrap(), vec![3, 4]);
    }

    /// Regression: quarantined artifacts used to escape retention forever —
    /// a cycle whose manifest was quarantined no longer counts as durable,
    /// so `prune` never saw it. The sweep must delete quarantined/torn
    /// cycle directories once they fall out of the retention window.
    #[test]
    fn quarantined_artifacts_are_swept_out_of_the_retention_window() {
        let scratch = ScratchDir::new("ckpt-sweep").unwrap();
        let store = CheckpointStore::create(scratch.path().join("ckpt")).unwrap();
        store.save(&sample(1, 3), None).unwrap();
        store.save(&sample(2, 3), None).unwrap();
        // Corrupt cycle 2's manifest; the failed load quarantines it.
        let mpath = store.cycle_dir(2).join(MANIFEST);
        let mut bytes = fs::read(&mpath).unwrap();
        bytes[20] ^= 0x01;
        fs::write(&mpath, &bytes).unwrap();
        assert!(store.load_cycle(2, 0xFEED_BEEF, None).is_err());
        assert!(store
            .cycle_dir(2)
            .join("MANIFEST.bin.quarantined")
            .is_file());
        // New durable cycles push cycle 2 out of the retention window; the
        // quarantined directory must be swept, not kept forever.
        for c in 3..6 {
            store.save(&sample(c, 3), None).unwrap();
        }
        assert_eq!(store.durable_cycles().unwrap(), vec![4, 5]);
        assert!(
            !store.cycle_dir(2).exists(),
            "quarantined cycle directory must be swept once out of retention"
        );
        let leftovers: Vec<_> = walk_quarantined(&store.root);
        assert!(
            leftovers.is_empty(),
            "no quarantined artifacts may survive the sweep: {leftovers:?}"
        );
    }

    fn walk_quarantined(root: &Path) -> Vec<PathBuf> {
        let mut found = Vec::new();
        let mut stack = vec![root.to_path_buf()];
        while let Some(dir) = stack.pop() {
            for entry in fs::read_dir(&dir).unwrap() {
                let p = entry.unwrap().path();
                if p.is_dir() {
                    stack.push(p);
                } else if p.to_string_lossy().ends_with(".quarantined") {
                    found.push(p);
                }
            }
        }
        found
    }

    #[test]
    fn config_mismatch_is_typed_and_non_destructive() {
        let scratch = ScratchDir::new("ckpt-fp").unwrap();
        let store = CheckpointStore::create(scratch.path().join("ckpt")).unwrap();
        store.save(&sample(1, 3), None).unwrap();
        match store.load_cycle(1, 0xDEAD, None) {
            Err(CkptError::ConfigMismatch { actual, .. }) => assert_eq!(actual, 0xFEED_BEEF),
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
        // Not corruption: the checkpoint must remain durable.
        assert_eq!(store.durable_cycles().unwrap(), vec![1]);
    }

    #[test]
    fn corrupt_member_quarantines_and_falls_back() {
        let scratch = ScratchDir::new("ckpt-corrupt").unwrap();
        let store = CheckpointStore::create(scratch.path().join("ckpt")).unwrap();
        store.save(&sample(1, 3), None).unwrap();
        store.save(&sample(2, 3), None).unwrap();
        // Flip one byte of cycle 2's member 1.
        let victim = store.cycle_dir(2).join("member_00001.bin");
        let mut bytes = fs::read(&victim).unwrap();
        bytes[17] ^= 0x40;
        fs::write(&victim, &bytes).unwrap();
        match store.load_cycle(2, 0xFEED_BEEF, None) {
            Err(CkptError::CorruptMember { cycle, member, .. }) => {
                assert_eq!((cycle, member), (2, 1));
            }
            other => panic!("expected CorruptMember, got {other:?}"),
        }
        assert!(!victim.exists(), "corrupt member must be quarantined");
        let (back, skipped) = store.load_latest(0xFEED_BEEF, None).unwrap().unwrap();
        assert_eq!(back.cycle, 1, "fallback to the previous durable cycle");
        assert_eq!(skipped.len(), 1);
    }

    #[test]
    fn corrupt_manifest_quarantines_and_falls_back() {
        let scratch = ScratchDir::new("ckpt-man").unwrap();
        let store = CheckpointStore::create(scratch.path().join("ckpt")).unwrap();
        store.save(&sample(1, 3), None).unwrap();
        store.save(&sample(2, 3), None).unwrap();
        let mpath = store.cycle_dir(2).join(MANIFEST);
        let mut bytes = fs::read(&mpath).unwrap();
        bytes[20] ^= 0x01;
        fs::write(&mpath, &bytes).unwrap();
        match store.load_cycle(2, 0xFEED_BEEF, None) {
            Err(CkptError::CorruptManifest { cycle, .. }) => assert_eq!(cycle, 2),
            other => panic!("expected CorruptManifest, got {other:?}"),
        }
        let (back, _) = store.load_latest(0xFEED_BEEF, None).unwrap().unwrap();
        assert_eq!(back.cycle, 1);
    }

    /// Overwrite header word `word` of cycle 2's record (0 = `cycle`, 2 =
    /// `members0`, 6 = `nx`, 8 = `stats_len`, ...) and re-seal its
    /// checksum, so the decoder, not the checksum, sees the edit.
    fn set_header_word(store: &CheckpointStore, word: usize, value: u64) {
        let path = store.cycle_dir(2).join(MANIFEST);
        let mut record = fs::read(&path).unwrap();
        record[8 * (word + 1)..8 * (word + 2)].copy_from_slice(&value.to_le_bytes());
        let end = record.len() - 8;
        let crc = fnv64(&record[..end]);
        record[end..].copy_from_slice(&crc.to_le_bytes());
        fs::write(&path, record).unwrap();
    }

    /// Saves cycles 1 and 2 and applies `craft` to cycle 2, twice: the
    /// crafted cycle must be a typed `CorruptManifest` through `load_cycle`,
    /// and `load_latest` must fall back past it to cycle 1.
    fn crafted_cycle_falls_back(label: &str, craft: impl Fn(&CheckpointStore)) {
        let scratch = ScratchDir::new(label).unwrap();
        let store = CheckpointStore::create(scratch.path().join("ckpt")).unwrap();
        store.save(&sample(1, 3), None).unwrap();
        store.save(&sample(2, 3), None).unwrap();
        craft(&store);
        match store.load_cycle(2, 0xFEED_BEEF, None) {
            Err(CkptError::CorruptManifest { cycle: 2, .. }) => {}
            other => panic!("expected CorruptManifest, got {other:?}"),
        }
        store.save(&sample(2, 3), None).unwrap();
        craft(&store);
        let (back, skipped) = store.load_latest(0xFEED_BEEF, None).unwrap().unwrap();
        assert_eq!(back.cycle, 1, "fallback to the previous durable cycle");
        assert!(
            matches!(skipped[..], [CkptError::CorruptManifest { cycle: 2, .. }]),
            "{skipped:?}"
        );
    }

    #[test]
    fn stats_length_beyond_the_record_is_corrupt_not_a_panic() {
        crafted_cycle_falls_back("ckpt-craft-stats", |store| {
            set_header_word(store, 8, u64::MAX)
        });
    }

    #[test]
    fn huge_member_count_is_corrupt_not_an_abort() {
        crafted_cycle_falls_back("ckpt-craft-members0", |store| {
            set_header_word(store, 2, 1 << 40)
        });
    }

    #[test]
    fn overflowing_mesh_is_corrupt_not_a_panic() {
        crafted_cycle_falls_back("ckpt-craft-mesh", |store| {
            set_header_word(store, 6, (usize::MAX / 2) as u64)
        });
    }

    #[test]
    fn checkpoint_io_is_traced() {
        use enkf_trace::{Op, RankTracer};
        use std::time::Instant;
        let scratch = ScratchDir::new("ckpt-trace").unwrap();
        let store = CheckpointStore::create(scratch.path().join("ckpt")).unwrap();
        let ckpt = sample(1, 4);
        let n = ckpt.analysis.mesh().n() as u64;
        let mut tracer = RankTracer::new(0, Instant::now());
        store.save(&ckpt, Some(&mut tracer)).unwrap();
        store.load_cycle(1, 0xFEED_BEEF, Some(&mut tracer)).unwrap();
        let spans = tracer.into_spans();
        let ckpts: Vec<_> = spans.iter().filter(|s| s.op == Op::Ckpt).collect();
        let restores: Vec<_> = spans.iter().filter(|s| s.op == Op::Restore).collect();
        assert_eq!(ckpts.len(), 4);
        assert_eq!(restores.len(), 4);
        assert!(ckpts.iter().all(|s| s.bytes == 8 * n && s.seeks == 1));
        assert!(restores.iter().all(|s| s.bytes == 8 * n && s.seeks == 1));
    }
}
