//! Durability of the checkpoint layer and the atomic member-write path.
//!
//! Three guarantees under test:
//!
//! 1. **Atomic member writes** (`FileStore`): an interrupted write — a
//!    stale temp file, or a torn in-place payload — is *detected*, never
//!    silently read as member data.
//! 2. **Self-verifying checkpoints** (`CheckpointStore`): flipping any
//!    single byte of a checkpointed member or of the commit record
//!    `MANIFEST.bin`, or cutting the record short, yields a typed
//!    `CorruptMember`/`CorruptManifest`, quarantines the artifact, and
//!    `load_latest` falls back to the previous durable cycle.
//! 3. **Round-trip exactness**: a save → load cycle reproduces every
//!    field bit-exactly (f64 payloads included), from a directory that
//!    holds the member files and the record and nothing else.
//! 4. **The decoder past the checksum**: a header word rewritten with the
//!    record's checksum recomputed is still a typed `CorruptManifest` with
//!    fallback — never a panic or an allocation sized by the file — unless
//!    it wrote the value already there.

mod common;

use common::harness_labeled;
use proptest::prelude::*;
use s_enkf::ckpt::{fnv64, CampaignCheckpoint, CheckpointStore, CkptError};
use s_enkf::core::Ensemble;
use s_enkf::data::CycleStats;
use s_enkf::grid::Mesh;
use s_enkf::linalg::Matrix;
use s_enkf::pfs::{FileStore, ScratchDir};
use std::fs;

const FP: u64 = 0x00C0_FFEE;
const MEMBERS: usize = 3;

fn synthetic(cycle: usize, salt: u64) -> CampaignCheckpoint {
    let mesh = Mesh::new(10, 6);
    let n = mesh.n();
    let mk = |tag: u64| {
        Matrix::from_fn(n, MEMBERS, |i, k| {
            ((i as u64 * 37 + k as u64 * 11 + tag + salt) as f64).sin() * 2.5
        })
    };
    CampaignCheckpoint {
        cycle,
        seed: 99,
        members0: MEMBERS,
        rng_cursor: 4_000 + cycle as u64,
        config_fp: FP,
        truth: std::sync::Arc::new((0..n).map(|i| ((i as u64 + salt) as f64).cos()).collect()),
        analysis: std::sync::Arc::new(Ensemble::new(mesh, mk(1))),
        free_run: std::sync::Arc::new(Ensemble::new(mesh, mk(2))),
        stats: (0..cycle)
            .map(|c| CycleStats {
                cycle: c,
                forecast_rmse: 0.4 + c as f64 * 0.1,
                analysis_rmse: 0.2 + c as f64 * 0.1,
                free_run_rmse: 0.9 + c as f64 * 0.1,
            })
            .collect(),
        cycle_digests: (0..cycle).map(|c| salt ^ (0xAA00 + c as u64)).collect(),
    }
}

/// A store holding durable checkpoints for cycles 1 and 2.
fn two_cycles(label: &str) -> (ScratchDir, CheckpointStore) {
    let scratch = ScratchDir::new(label).unwrap();
    let store = CheckpointStore::create(scratch.path().join("ckpt")).unwrap();
    store.save(&synthetic(1, 5), None).unwrap();
    store.save(&synthetic(2, 6), None).unwrap();
    (scratch, store)
}

#[test]
fn stale_tmp_from_interrupted_atomic_write_is_never_read() {
    let mesh = Mesh::new(8, 6);
    let h = harness_labeled("ckpt-staletmp", mesh, 2, 3, 1);
    let before = h.store.read_full(1).unwrap().to_vec();
    // Simulate a writer that died between creating the temp file and the
    // rename: a garbage `.tmp` sits next to the member.
    let tmp = h.store.member_path(1).with_extension("bin.tmp");
    fs::write(&tmp, vec![0xAB; 16]).unwrap();
    let reopened = FileStore::open(h.scratch.path(), h.store.layout()).unwrap();
    assert_eq!(
        reopened.num_members(),
        2,
        "the temp file must not be scanned as a member"
    );
    assert_eq!(
        reopened.read_full(1).unwrap().to_vec(),
        before,
        "the committed payload is untouched by the dead writer"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A torn in-place write (the file truncated at an arbitrary point)
    /// surfaces as a typed short-read error with byte-accurate context —
    /// the member is never silently read.
    #[test]
    fn torn_member_write_is_detected(frac in 0.0f64..1.0, seed in 0u64..500) {
        let mesh = Mesh::new(8, 6);
        let h = harness_labeled("ckpt-torn", mesh, 2, seed, 1);
        let len = h.store.layout().file_size();
        let cut = ((len as f64 * frac) as u64).min(len - 1);
        let f = fs::OpenOptions::new()
            .write(true)
            .open(h.store.member_path(1))
            .unwrap();
        f.set_len(cut).unwrap();
        drop(f);
        let err = h
            .store
            .read_full(1)
            .expect_err("a torn member must not be silently read");
        prop_assert_eq!(err.member, 1);
        prop_assert_eq!(err.actual, cut);
    }

    /// Flipping any single byte of a checkpointed member yields
    /// `CorruptMember`, quarantines the file, and `load_latest` restores
    /// the previous durable cycle.
    #[test]
    fn member_byte_flip_falls_back_to_prior_cycle(
        member in 0usize..MEMBERS,
        offset in 0usize..480, // file is 10*6*8 = 480 bytes
        bit in 0u8..8,
    ) {
        let (_s, store) = two_cycles("ckpt-flip-member");
        let victim = store
            .cycle_dir(2)
            .join(format!("member_{member:05}.bin"));
        let mut bytes = fs::read(&victim).unwrap();
        bytes[offset] ^= 1 << bit;
        fs::write(&victim, &bytes).unwrap();
        match store.load_cycle(2, FP, None) {
            Err(CkptError::CorruptMember { cycle, member: m, .. }) => {
                prop_assert_eq!((cycle, m), (2, member));
            }
            other => prop_assert!(false, "expected CorruptMember, got {:?}", other.map(|_| ())),
        }
        prop_assert!(!victim.exists(), "corrupt member must be quarantined");
        let (back, skipped) = store.load_latest(FP, None).unwrap().unwrap();
        prop_assert_eq!(back.cycle, 1, "fallback to the previous durable cycle");
        prop_assert_eq!(skipped.len(), 1);
        let reference = synthetic(1, 5);
        prop_assert_eq!(back.analysis.states(), reference.analysis.states());
        prop_assert_eq!(back.rng_cursor, reference.rng_cursor);
    }

    /// Flipping any single byte of the commit record (header, member
    /// checksums, truth, free run, statistics, digests or its own checksum)
    /// yields `CorruptManifest` and the same fallback.
    #[test]
    fn manifest_byte_flip_falls_back_to_prior_cycle(
        offset_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let (_s, store) = two_cycles("ckpt-flip-manifest");
        let mpath = store.cycle_dir(2).join("MANIFEST.bin");
        let mut bytes = fs::read(&mpath).unwrap();
        let offset = ((bytes.len() as f64 * offset_frac) as usize).min(bytes.len() - 1);
        bytes[offset] ^= 1 << bit;
        fs::write(&mpath, &bytes).unwrap();
        match store.load_cycle(2, FP, None) {
            Err(CkptError::CorruptManifest { cycle, .. }) => prop_assert_eq!(cycle, 2),
            other => prop_assert!(false, "expected CorruptManifest, got {:?}", other.map(|_| ())),
        }
        let (back, _) = store.load_latest(FP, None).unwrap().unwrap();
        prop_assert_eq!(back.cycle, 1);
    }

    /// Flipping any single byte of the record's auxiliary payload — truth,
    /// free run, statistics and digests, the bytes between the member
    /// checksums and the trailing checksum — yields `CorruptManifest`,
    /// quarantines the record, and falls back.
    #[test]
    fn aux_byte_flip_falls_back_to_prior_cycle(
        offset_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let (_s, store) = two_cycles("ckpt-flip-aux");
        let mpath = store.cycle_dir(2).join("MANIFEST.bin");
        let mut bytes = fs::read(&mpath).unwrap();
        // Magic, ten header words, then one checksum per member.
        let start = 8 * (1 + 10 + MEMBERS);
        let span = bytes.len() - 8 - start;
        let offset = start + ((span as f64 * offset_frac) as usize).min(span - 1);
        bytes[offset] ^= 1 << bit;
        fs::write(&mpath, &bytes).unwrap();
        let (back, skipped) = store.load_latest(FP, None).unwrap().unwrap();
        prop_assert_eq!(back.cycle, 1, "fallback to the previous durable cycle");
        prop_assert!(
            matches!(skipped[..], [CkptError::CorruptManifest { cycle: 2, .. }]),
            "{:?}",
            skipped
        );
        prop_assert!(store.cycle_dir(2).join("MANIFEST.bin.quarantined").is_file());
    }

    /// A commit record cut short at any length — a torn write the rename
    /// should have prevented, or a truncating filesystem — is
    /// `CorruptManifest` and the same fallback, never a panic or an abort.
    #[test]
    fn truncated_manifest_falls_back_to_prior_cycle(frac in 0.0f64..1.0) {
        let (_s, store) = two_cycles("ckpt-cut-manifest");
        let mpath = store.cycle_dir(2).join("MANIFEST.bin");
        let len = fs::metadata(&mpath).unwrap().len();
        let cut = ((len as f64 * frac) as u64).min(len - 1);
        fs::OpenOptions::new().write(true).open(&mpath).unwrap().set_len(cut).unwrap();
        let (back, skipped) = store.load_latest(FP, None).unwrap().unwrap();
        prop_assert_eq!(back.cycle, 1, "fallback to the previous durable cycle");
        prop_assert!(
            matches!(skipped[..], [CkptError::CorruptManifest { cycle: 2, .. }]),
            "{:?}",
            skipped
        );
        prop_assert!(store.cycle_dir(2).join("MANIFEST.bin.quarantined").is_file());
    }
}

/// Overwrite header word `word` of cycle 2's commit record with `value`
/// and re-seal the record's trailing checksum.
fn set_header_word(store: &CheckpointStore, word: usize, value: u64) {
    let path = store.cycle_dir(2).join("MANIFEST.bin");
    let mut record = fs::read(&path).unwrap();
    record[8 * (word + 1)..8 * (word + 2)].copy_from_slice(&value.to_le_bytes());
    let end = record.len() - 8;
    let crc = fnv64(&record[..end]);
    record[end..].copy_from_slice(&crc.to_le_bytes());
    fs::write(&path, record).unwrap();
}

/// The header words the decoder proptest rewrites — `cycle`, `members0`,
/// `members`, `nx`, `ny`, `stats_len`, `digests_len` — with their index
/// and cycle 2's value.
const HEADER_WORDS: [(usize, u64); 7] = [
    (0, 2),
    (2, MEMBERS as u64),
    (3, MEMBERS as u64),
    (6, 10),
    (7, 6),
    (8, 2),
    (9, 2),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One structural header word of cycle 2's record is rewritten and the
    /// record's checksum recomputed, so the decoder sees the edit.
    /// `load_latest` never panics or aborts: it returns cycle 1 with cycle
    /// 2's `CorruptManifest` skipped, or cycle 2 bit-exactly when the edit
    /// wrote the value that was already there.
    #[test]
    fn resealed_header_and_manifest_edits_fall_back_or_load_exactly(
        field in 0usize..HEADER_WORDS.len(),
        pick in 0u8..5,
        small in 0u64..64,
        big in any::<u64>(),
    ) {
        let (word, original) = HEADER_WORDS[field];
        // The original value must load exactly; the pinned ones size the
        // allocations an unchecked decoder would attempt.
        let value = [original, small, big, 1 << 40, u64::MAX][pick as usize];
        let (_s, store) = two_cycles("ckpt-reseal");
        set_header_word(&store, word, value);
        let (back, skipped) = store.load_latest(FP, None).unwrap().unwrap();
        if value == original {
            prop_assert!(skipped.is_empty(), "{:?}", skipped);
            let reference = synthetic(2, 6);
            prop_assert_eq!(back.cycle, 2);
            prop_assert_eq!(back.analysis.states(), reference.analysis.states());
            prop_assert_eq!(back.free_run.states(), reference.free_run.states());
            prop_assert_eq!(&back.truth, &reference.truth);
            prop_assert_eq!(&back.stats, &reference.stats);
            prop_assert_eq!(&back.cycle_digests, &reference.cycle_digests);
            prop_assert_eq!(back.rng_cursor, reference.rng_cursor);
        } else {
            prop_assert_eq!(back.cycle, 1, "fallback to the previous durable cycle");
            prop_assert!(
                matches!(skipped[..], [CkptError::CorruptManifest { cycle: 2, .. }]),
                "{:?}",
                skipped
            );
        }
    }
}

#[test]
fn save_load_round_trip_is_bit_exact_including_stats() {
    let scratch = ScratchDir::new("ckpt-roundtrip").unwrap();
    let store = CheckpointStore::create(scratch.path().join("ckpt")).unwrap();
    let ckpt = synthetic(4, 9);
    store.save(&ckpt, None).unwrap();
    let back = store.load_cycle(4, FP, None).unwrap();
    assert_eq!(back.analysis.states(), ckpt.analysis.states());
    assert_eq!(back.free_run.states(), ckpt.free_run.states());
    assert_eq!(back.truth, ckpt.truth);
    assert_eq!(back.stats, ckpt.stats);
    assert_eq!(back.cycle_digests, ckpt.cycle_digests);
    assert_eq!(back.rng_cursor, ckpt.rng_cursor);
    assert_eq!(back.members0, ckpt.members0);
    assert_eq!(back.seed, ckpt.seed);
    // A committed cycle is its member files plus one commit record.
    let mut names: Vec<String> = fs::read_dir(store.cycle_dir(4))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    let mut expected: Vec<String> = (0..MEMBERS).map(|k| format!("member_{k:05}.bin")).collect();
    expected.push("MANIFEST.bin".into());
    expected.sort();
    assert_eq!(names, expected);
}

#[test]
fn missing_manifest_means_not_durable() {
    let scratch = ScratchDir::new("ckpt-nodurable").unwrap();
    let store = CheckpointStore::create(scratch.path().join("ckpt")).unwrap();
    store.save(&synthetic(1, 2), None).unwrap();
    store.save(&synthetic(2, 3), None).unwrap();
    // Simulate a crash between the member writes and the record commit.
    fs::remove_file(store.cycle_dir(2).join("MANIFEST.bin")).unwrap();
    assert_eq!(store.durable_cycles().unwrap(), vec![1]);
    let (back, skipped) = store.load_latest(FP, None).unwrap().unwrap();
    assert_eq!(back.cycle, 1);
    assert!(skipped.is_empty(), "a non-durable cycle is not corruption");
}

/// Saving a cycle again over its torn attempt (members written, no
/// record) commits it bit-exactly and leaves no staging file behind.
#[test]
fn resaving_a_torn_cycle_commits_it() {
    let scratch = ScratchDir::new("ckpt-resave").unwrap();
    let store = CheckpointStore::create(scratch.path().join("ckpt")).unwrap();
    store.save(&synthetic(1, 2), None).unwrap();
    store.save(&synthetic(2, 3), None).unwrap();
    fs::remove_file(store.cycle_dir(2).join("MANIFEST.bin")).unwrap();
    let ckpt = synthetic(2, 4);
    store.save(&ckpt, None).unwrap();
    assert_eq!(store.durable_cycles().unwrap(), vec![1, 2]);
    let back = store.load_cycle(2, FP, None).unwrap();
    assert_eq!(back.analysis.states(), ckpt.analysis.states());
    assert_eq!(back.free_run.states(), ckpt.free_run.states());
    assert_eq!(back.truth, ckpt.truth);
    assert_eq!(back.cycle_digests, ckpt.cycle_digests);
    for entry in fs::read_dir(store.cycle_dir(2)).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        assert!(!name.ends_with(".tmp"), "staging file {name} left behind");
    }
}
