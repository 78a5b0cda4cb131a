//! Durable checkpoint/restart for multi-cycle assimilation campaigns.
//!
//! A campaign that runs K cycles on faulty hardware needs a recovery line:
//! after each analysis the supervisor persists the *resumable state* — the
//! analysis ensemble, the truth trajectory, the free-running control, the
//! RNG cursor, the accumulated statistics — and on a crash restores the
//! last durable cycle and re-runs from there. This crate is that layer:
//!
//! * **Atomic**: a checkpoint *exists* only once its `MANIFEST.txt` —
//!   written last, through temp file + fsync + rename — is in place. Each
//!   save writes into a freshly recreated cycle directory: member files and
//!   the aux blob go straight to their final names and are fsynced, one
//!   directory fsync makes the names durable, and only then is the
//!   manifest committed. A crash mid-write leaves a directory without a
//!   manifest, which is not a checkpoint, and the previous cycle untouched.
//! * **Self-verifying**: the manifest records an FNV-64 checksum of every
//!   member file and of the aux blob, and ends with a checksum of itself.
//!   Loads verify before trusting anything; a mismatch yields a typed
//!   [`CkptError::CorruptMember`] / [`CkptError::CorruptManifest`], the bad
//!   artifact is quarantined (renamed aside, never silently re-read), and
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
//!   aux.bin                                    # truth + free-run + stats
//!   MANIFEST.txt                               # checksums; written last
//! ```

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
    /// A member file's checksum did not match the manifest (or the file is
    /// missing/truncated). `actual == 0` with a missing file.
    CorruptMember {
        /// Checkpoint cycle the member belongs to.
        cycle: usize,
        /// Ensemble member index.
        member: usize,
        /// The quarantined (or missing) file.
        path: PathBuf,
        /// Checksum the manifest promised.
        expected: u64,
        /// Checksum of the bytes actually on disk.
        actual: u64,
    },
    /// The manifest (or the aux blob it vouches for) failed verification.
    CorruptManifest {
        /// Checkpoint cycle.
        cycle: usize,
        /// The quarantined manifest.
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
                 manifest says {expected:016x}; file quarantined",
                path.display()
            ),
            CkptError::CorruptManifest {
                cycle,
                path,
                detail,
            } => write!(
                f,
                "cycle {cycle} manifest corrupt ({}): {detail}",
                path.display()
            ),
            CkptError::ConfigMismatch { expected, actual } => write!(
                f,
                "checkpoint config fingerprint {actual:016x} does not match \
                 campaign fingerprint {expected:016x}"
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

const MANIFEST: &str = "MANIFEST.txt";
const AUX: &str = "aux.bin";
const MAGIC: &str = "SENKF-CKPT v1";
const AUX_MAGIC: &[u8; 8] = b"SENKFAUX";

/// A directory of durable per-cycle checkpoints with bounded retention.
#[derive(Debug)]
pub struct CheckpointStore {
    root: PathBuf,
    retain: usize,
}

impl CheckpointStore {
    /// Open (creating if needed) a checkpoint directory. Retains the last
    /// 2 durable cycles by default — enough for one fallback level.
    pub fn create(root: impl AsRef<Path>) -> io::Result<Self> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        Ok(CheckpointStore { root, retain: 2 })
    }

    /// Directory of one cycle's checkpoint.
    pub fn cycle_dir(&self, cycle: usize) -> PathBuf {
        self.root.join(format!("cycle_{cycle:04}"))
    }

    /// Cycles with a manifest in place (durably committed), ascending.
    /// Quarantined or partially-written cycles do not appear.
    pub fn durable_cycles(&self) -> io::Result<Vec<usize>> {
        let mut cycles = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(num) = name.strip_prefix("cycle_") else {
                continue;
            };
            let Ok(cycle) = num.parse::<usize>() else {
                continue;
            };
            if entry.path().join(MANIFEST).is_file() {
                cycles.push(cycle);
            }
        }
        cycles.sort_unstable();
        Ok(cycles)
    }

    /// Durably persist a checkpoint into a freshly recreated cycle
    /// directory: member files ([`MemberEncoder::write_durable`]) and the
    /// aux blob straight to their final names, each fsynced; one directory
    /// fsync; then — last, and the only commit point — the manifest,
    /// through temp file + fsync + rename. Member payload writes are
    /// recorded as [`enkf_trace::Op::Ckpt`] spans (8·n bytes, one seek
    /// each). Older cycles beyond the retention budget are pruned.
    pub fn save(
        &self,
        ckpt: &CampaignCheckpoint,
        mut tracer: Option<&mut RankTracer>,
    ) -> io::Result<()> {
        let mesh = ckpt.analysis.mesh();
        let n = mesh.n();
        let dir = self.cycle_dir(ckpt.cycle);
        // A leftover partial attempt for this cycle (no manifest) is stale:
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
            let bytes = 8 * n as u64;
            let crc = if let Some(t) = tracer.as_deref_mut() {
                t.ckpt(Some(k), bytes, 1, || {
                    enc.write_durable(&store, &ckpt.analysis, k)
                })?
            } else {
                enc.write_durable(&store, &ckpt.analysis, k)?
            };
            member_crcs.push(crc);
        }

        let aux = encode_aux(ckpt);
        write_synced(&dir.join(AUX), &aux)?;
        let aux_crc = fnv64(&aux);
        // One fsync makes every name above durable before the manifest
        // vouches for them.
        sync_dir(&dir)?;

        let mut m = String::new();
        m.push_str(MAGIC);
        m.push('\n');
        // Zero-padded to the 20 digits of a 64-bit `usize::MAX`, so a
        // checkpoint's size does not depend on its cycle number's digits.
        m.push_str(&format!("cycle={:020}\n", ckpt.cycle));
        m.push_str(&format!("seed={}\n", ckpt.seed));
        m.push_str(&format!("members0={}\n", ckpt.members0));
        m.push_str(&format!("members={members}\n"));
        m.push_str(&format!("rng_cursor={}\n", ckpt.rng_cursor));
        m.push_str(&format!("config_fp={:016x}\n", ckpt.config_fp));
        m.push_str(&format!("nx={} ny={}\n", mesh.nx(), mesh.ny()));
        m.push_str(&format!("aux_crc={aux_crc:016x}\n"));
        for (k, crc) in member_crcs.iter().enumerate() {
            m.push_str(&format!("member {k} crc={crc:016x}\n"));
        }
        m.push_str(&format!("crc={:016x}\n", fnv64(m.as_bytes())));
        write_atomic(&dir, MANIFEST, m.as_bytes())?;

        self.prune()?;
        Ok(())
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
        let mpath = dir.join(MANIFEST);
        let corrupt_manifest = |detail: String| {
            // Quarantine: the cycle must stop looking durable.
            let _ = fs::rename(&mpath, dir.join("MANIFEST.txt.quarantined"));
            CkptError::CorruptManifest {
                cycle,
                path: mpath.clone(),
                detail,
            }
        };
        let text = fs::read_to_string(&mpath).map_err(|e| CkptError::CorruptManifest {
            cycle,
            path: mpath.clone(),
            detail: format!("manifest unreadable: {e}"),
        })?;
        let man = parse_manifest(&text).map_err(&corrupt_manifest)?;
        if man.cycle != cycle {
            return Err(corrupt_manifest(format!(
                "manifest says cycle {}, directory says {cycle}",
                man.cycle
            )));
        }
        if man.config_fp != config_fp {
            return Err(CkptError::ConfigMismatch {
                expected: config_fp,
                actual: man.config_fp,
            });
        }
        let mesh = Mesh::new(man.nx, man.ny);
        let n = mesh.n();

        // Aux blob (truth, free run, stats, digests) — verified first so a
        // torn aux never pairs with good members.
        let aux_path = dir.join(AUX);
        let aux =
            fs::read(&aux_path).map_err(|e| corrupt_manifest(format!("aux unreadable: {e}")))?;
        if fnv64(&aux) != man.aux_crc {
            let _ = fs::rename(&aux_path, dir.join("aux.bin.quarantined"));
            return Err(corrupt_manifest(format!(
                "aux checksum {:016x} != manifest {:016x}",
                fnv64(&aux),
                man.aux_crc
            )));
        }
        let decoded = decode_aux(&aux, mesh, man.members0).map_err(corrupt_manifest)?;

        // Member payloads: raw read, checksum against the manifest, then
        // parse — a corrupt file is quarantined before anything trusts it.
        let store = FileStore::open(&dir, FileLayout::new(mesh, 8)).map_err(CkptError::Io)?;
        let mut states = Matrix::zeros(n, man.members);
        for k in 0..man.members {
            let path = store.member_path(k);
            let bytes = match fs::read(&path) {
                Ok(b) => b,
                Err(_) => {
                    return Err(CkptError::CorruptMember {
                        cycle,
                        member: k,
                        path,
                        expected: man.member_crcs[k],
                        actual: 0,
                    })
                }
            };
            let actual = fnv64(&bytes);
            if actual != man.member_crcs[k] || bytes.len() != 8 * n {
                let mut q = path.clone();
                q.set_extension("bin.quarantined");
                let _ = fs::rename(&path, &q);
                return Err(CkptError::CorruptMember {
                    cycle,
                    member: k,
                    path,
                    expected: man.member_crcs[k],
                    actual,
                });
            }
            if let Some(t) = tracer.as_deref_mut() {
                t.restore(Some(k), 8 * n as u64, 1, || ());
            }
            for (i, word) in bytes.as_chunks::<8>().0.iter().enumerate() {
                states[(i, k)] = f64::from_le_bytes(*word);
            }
        }

        Ok(CampaignCheckpoint {
            cycle,
            seed: man.seed,
            members0: man.members0,
            rng_cursor: man.rng_cursor,
            config_fp: man.config_fp,
            truth: Arc::new(decoded.truth),
            analysis: Arc::new(Ensemble::new(mesh, states)),
            free_run: Arc::new(decoded.free_run),
            stats: decoded.stats,
            cycle_digests: decoded.digests,
        })
    }

    /// Load the most recent durable checkpoint, falling back past corrupt
    /// cycles (each is quarantined and reported in the returned list).
    /// `Ok(None)` when no durable checkpoint survives.
    #[allow(clippy::type_complexity)]
    pub fn load_latest(
        &self,
        config_fp: u64,
        mut tracer: Option<&mut RankTracer>,
    ) -> Result<Option<(CampaignCheckpoint, Vec<CkptError>)>, CkptError> {
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

    fn prune(&self) -> io::Result<()> {
        let cycles = self.durable_cycles()?;
        if cycles.len() > self.retain {
            for &c in &cycles[..cycles.len() - self.retain] {
                fs::remove_dir_all(self.cycle_dir(c))?;
            }
        }
        // Sweep non-durable leftovers — quarantined manifests/members and
        // torn partial attempts — once their cycle falls out of the
        // retention window. Without this, `*.quarantined` artifacts (whose
        // cycle directory no longer counts as durable) accumulate forever.
        let Some(&cutoff) = cycles.get(cycles.len().saturating_sub(self.retain)) else {
            return Ok(());
        };
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(num) = name.strip_prefix("cycle_") else {
                continue;
            };
            let Ok(cycle) = num.parse::<usize>() else {
                continue;
            };
            if cycle < cutoff && !entry.path().join(MANIFEST).is_file() {
                fs::remove_dir_all(entry.path())?;
            }
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
    /// fsync [`CheckpointStore::save`] makes before committing the
    /// manifest. The store's I/O statistics are not charged.
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

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_f64s(buf: &mut Vec<u8>, vs: &[f64]) {
    for v in vs {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn encode_aux(ckpt: &CampaignCheckpoint) -> Vec<u8> {
    let n = ckpt.analysis.mesh().n();
    let mut buf = Vec::with_capacity(48 + 8 * n * (1 + ckpt.members0));
    buf.extend_from_slice(AUX_MAGIC);
    push_u64(&mut buf, n as u64);
    push_u64(&mut buf, ckpt.members0 as u64);
    push_u64(&mut buf, ckpt.stats.len() as u64);
    push_u64(&mut buf, ckpt.cycle_digests.len() as u64);
    push_f64s(&mut buf, &ckpt.truth);
    for k in 0..ckpt.members0 {
        push_f64s(&mut buf, &ckpt.free_run.member(k));
    }
    for s in &ckpt.stats {
        push_u64(&mut buf, s.cycle as u64);
        push_f64s(
            &mut buf,
            &[s.forecast_rmse, s.analysis_rmse, s.free_run_rmse],
        );
    }
    for &d in &ckpt.cycle_digests {
        push_u64(&mut buf, d);
    }
    buf
}

struct DecodedAux {
    truth: Vec<f64>,
    free_run: Ensemble,
    stats: Vec<CycleStats>,
    digests: Vec<u64>,
}

fn decode_aux(bytes: &[u8], mesh: Mesh, members0: usize) -> Result<DecodedAux, String> {
    let n = mesh.n();
    let mut off = 0usize;
    let take = |off: &mut usize, len: usize| -> Result<&[u8], String> {
        let s = bytes
            .get(*off..*off + len)
            .ok_or_else(|| format!("aux truncated at offset {}", *off))?;
        *off += len;
        Ok(s)
    };
    if take(&mut off, 8)? != AUX_MAGIC {
        return Err("aux magic mismatch".into());
    }
    let rd_u64 = |off: &mut usize| -> Result<u64, String> {
        let word: &[u8; 8] = take(off, 8)?.try_into().map_err(|e| format!("aux: {e}"))?;
        Ok(u64::from_le_bytes(*word))
    };
    if rd_u64(&mut off)? != n as u64 {
        return Err("aux field size mismatch".into());
    }
    if rd_u64(&mut off)? != members0 as u64 {
        return Err("aux member count mismatch".into());
    }
    let stats_len = rd_u64(&mut off)?;
    let digests_len = rd_u64(&mut off)?;
    // Every length below sizes an allocation: the blob must hold exactly
    // the bytes the header promises before any of them is trusted.
    let expected = (members0 as u64)
        .checked_add(1)
        .and_then(|columns| (n as u64).checked_mul(columns))
        .and_then(|words| words.checked_add(digests_len))
        .and_then(|words| words.checked_mul(8))
        .and_then(|bytes| bytes.checked_add(stats_len.checked_mul(32)?))
        .and_then(|bytes| bytes.checked_add(off as u64));
    if expected != Some(bytes.len() as u64) {
        return Err(format!(
            "aux header promises {} bytes, blob has {}",
            expected.map_or_else(|| "more than 2^64".into(), |b| b.to_string()),
            bytes.len()
        ));
    }
    let (stats_len, digests_len) = (stats_len as usize, digests_len as usize);
    let rd_f64s = |off: &mut usize, count: usize| -> Result<Vec<f64>, String> {
        let raw = take(off, 8 * count)?;
        Ok(raw
            .as_chunks::<8>()
            .0
            .iter()
            .map(|w| f64::from_le_bytes(*w))
            .collect())
    };
    let truth = rd_f64s(&mut off, n)?;
    let mut free = Matrix::zeros(n, members0);
    for k in 0..members0 {
        let col = rd_f64s(&mut off, n)?;
        free.set_col(k, &col);
    }
    let mut stats = Vec::with_capacity(stats_len);
    for _ in 0..stats_len {
        let cycle = rd_u64(&mut off)? as usize;
        let vals = rd_f64s(&mut off, 3)?;
        stats.push(CycleStats {
            cycle,
            forecast_rmse: vals[0],
            analysis_rmse: vals[1],
            free_run_rmse: vals[2],
        });
    }
    let mut digests = Vec::with_capacity(digests_len);
    for _ in 0..digests_len {
        digests.push(rd_u64(&mut off)?);
    }
    if off != bytes.len() {
        return Err(format!("aux has {} trailing bytes", bytes.len() - off));
    }
    Ok(DecodedAux {
        truth,
        free_run: Ensemble::new(mesh, free),
        stats,
        digests,
    })
}

struct Manifest {
    cycle: usize,
    seed: u64,
    members0: usize,
    members: usize,
    rng_cursor: u64,
    config_fp: u64,
    nx: usize,
    ny: usize,
    aux_crc: u64,
    member_crcs: Vec<u64>,
}

fn parse_manifest(text: &str) -> Result<Manifest, String> {
    // Self-verification: the last line checksums everything before it.
    let body_end = text
        .trim_end_matches('\n')
        .rfind('\n')
        .ok_or("manifest too short")?;
    let (body, tail) = text.split_at(body_end + 1);
    let tail = tail.trim_end();
    let declared = tail
        .strip_prefix("crc=")
        .ok_or("missing trailing crc line")?;
    let declared = u64::from_str_radix(declared, 16).map_err(|e| format!("bad crc: {e}"))?;
    if fnv64(body.as_bytes()) != declared {
        return Err(format!(
            "manifest checksum {:016x} != declared {declared:016x}",
            fnv64(body.as_bytes())
        ));
    }
    let mut lines = body.lines();
    if lines.next() != Some(MAGIC) {
        return Err("bad magic line".into());
    }
    let mut m = Manifest {
        cycle: 0,
        seed: 0,
        members0: 0,
        members: 0,
        rng_cursor: 0,
        config_fp: 0,
        nx: 0,
        ny: 0,
        aux_crc: 0,
        member_crcs: Vec::new(),
    };
    for line in lines {
        if let Some(rest) = line.strip_prefix("member ") {
            let (k, crc) = rest
                .split_once(" crc=")
                .ok_or_else(|| format!("bad member line: {line}"))?;
            let k: usize = k.parse().map_err(|e| format!("bad member index: {e}"))?;
            if k != m.member_crcs.len() {
                return Err(format!("member lines out of order at {k}"));
            }
            m.member_crcs
                .push(u64::from_str_radix(crc, 16).map_err(|e| format!("bad member crc: {e}"))?);
            continue;
        }
        let (key, val) = line
            .split_once('=')
            .ok_or_else(|| format!("bad line: {line}"))?;
        match key {
            "cycle" => m.cycle = val.parse().map_err(|e| format!("bad cycle: {e}"))?,
            "seed" => m.seed = val.parse().map_err(|e| format!("bad seed: {e}"))?,
            "members0" => m.members0 = val.parse().map_err(|e| format!("bad members0: {e}"))?,
            "members" => m.members = val.parse().map_err(|e| format!("bad members: {e}"))?,
            "rng_cursor" => {
                m.rng_cursor = val.parse().map_err(|e| format!("bad rng_cursor: {e}"))?
            }
            "config_fp" => {
                m.config_fp =
                    u64::from_str_radix(val, 16).map_err(|e| format!("bad config_fp: {e}"))?
            }
            "nx" => {
                let (nx, ny) = val
                    .split_once(" ny=")
                    .ok_or_else(|| format!("bad mesh line: {line}"))?;
                m.nx = nx.parse().map_err(|e| format!("bad nx: {e}"))?;
                m.ny = ny.parse().map_err(|e| format!("bad ny: {e}"))?;
            }
            "aux_crc" => {
                m.aux_crc = u64::from_str_radix(val, 16).map_err(|e| format!("bad aux_crc: {e}"))?
            }
            other => return Err(format!("unknown manifest key {other}")),
        }
    }
    if m.members == 0 || m.nx == 0 || m.ny == 0 {
        return Err("manifest missing required fields".into());
    }
    if m.nx.checked_mul(m.ny).is_none() {
        return Err(format!("mesh {} x {} overflows", m.nx, m.ny));
    }
    // A degraded cycle only loses members, and the aux blob's free run
    // holds `members0` of them: this bounds the analysis allocation.
    if m.members > m.members0 {
        return Err(format!(
            "manifest has {} members of {} original",
            m.members, m.members0
        ));
    }
    if m.member_crcs.len() != m.members {
        return Err(format!(
            "manifest lists {} member checksums for {} members",
            m.member_crcs.len(),
            m.members
        ));
    }
    Ok(m)
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

    #[test]
    fn manifest_size_does_not_depend_on_the_cycle_number() {
        let scratch = ScratchDir::new("ckpt-pad").unwrap();
        let store = CheckpointStore::create(scratch.path().join("ckpt")).unwrap();
        let mut lens = Vec::new();
        for cycle in [9, 10] {
            let ckpt = sample(cycle, 3);
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

    /// Manifests written before the cycle field was padded still load.
    #[test]
    fn unpadded_manifest_still_loads() {
        let scratch = ScratchDir::new("ckpt-unpadded").unwrap();
        let store = CheckpointStore::create(scratch.path().join("ckpt")).unwrap();
        let ckpt = sample(9, 3);
        store.save(&ckpt, None).unwrap();
        let mpath = store.cycle_dir(9).join(MANIFEST);
        let text = fs::read_to_string(&mpath).unwrap();
        let body = &text[..text.rfind("crc=").unwrap()];
        let body = body.replace("cycle=00000000000000000009\n", "cycle=9\n");
        let crc = fnv64(body.as_bytes());
        fs::write(&mpath, format!("{body}crc={crc:016x}\n")).unwrap();
        let back = store.load_cycle(9, 0xFEED_BEEF, None).unwrap();
        assert_eq!(back.cycle, 9);
        assert_eq!(back.analysis.states(), ckpt.analysis.states());
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
            .join("MANIFEST.txt.quarantined")
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

    /// Overwrite header word `word` of cycle 2's aux blob (0 = `n`,
    /// 1 = `members0`, 2 = `stats_len`, 3 = `digests_len`) and re-seal the
    /// checksums, so the parser, not the checksum, sees the edit.
    fn set_aux_word(store: &CheckpointStore, word: usize, value: u64) {
        let path = store.cycle_dir(2).join(AUX);
        let mut aux = fs::read(&path).unwrap();
        aux[8 * (word + 1)..8 * (word + 2)].copy_from_slice(&value.to_le_bytes());
        fs::write(&path, &aux).unwrap();
        let crc = format!("aux_crc={:016x}", fnv64(&aux));
        reseal_manifest(store, |line| {
            if line.starts_with("aux_crc=") {
                crc.clone()
            } else {
                line.to_string()
            }
        });
    }

    /// Rewrite cycle 2's manifest lines through `edit` and recompute its
    /// trailing checksum.
    fn reseal_manifest(store: &CheckpointStore, edit: impl Fn(&str) -> String) {
        let path = store.cycle_dir(2).join(MANIFEST);
        let text = fs::read_to_string(&path).unwrap();
        let mut body = String::new();
        for line in text.lines().filter(|l| !l.starts_with("crc=")) {
            body.push_str(&edit(line));
            body.push('\n');
        }
        body.push_str(&format!("crc={:016x}\n", fnv64(body.as_bytes())));
        fs::write(&path, body).unwrap();
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
    fn aux_stats_length_beyond_the_blob_is_corrupt_not_a_panic() {
        crafted_cycle_falls_back("ckpt-craft-stats", |store| set_aux_word(store, 2, u64::MAX));
    }

    #[test]
    fn huge_member_count_is_corrupt_not_an_abort() {
        crafted_cycle_falls_back("ckpt-craft-members0", |store| {
            set_aux_word(store, 1, 1 << 40);
            reseal_manifest(store, |line| {
                if line.starts_with("members0=") {
                    format!("members0={}", 1u64 << 40)
                } else {
                    line.to_string()
                }
            });
        });
    }

    #[test]
    fn overflowing_mesh_is_corrupt_not_a_panic() {
        crafted_cycle_falls_back("ckpt-craft-mesh", |store| {
            reseal_manifest(store, |line| {
                if line.starts_with("nx=") {
                    format!("nx={} ny=4", usize::MAX / 2)
                } else {
                    line.to_string()
                }
            });
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
