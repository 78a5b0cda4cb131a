//! Smoke tests for the figure-regeneration binaries: run the `--tiny`
//! sweeps end to end and check the CSV artifacts have the expected header
//! and the paper-consistent shape. The fig09 test additionally validates
//! the `--trace` Chrome-trace export against the binary's own
//! full-precision per-rank check CSV. The DES sweep binaries are held to
//! exit 0 and to the machine-readable lines their docs promise.

use enkf_trace::json;
use std::path::PathBuf;
use std::process::Command;

fn figures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/figures")
}

fn traces_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/traces")
}

fn run(bin: &str, args: &[&str]) {
    let status = Command::new(bin)
        .args(args)
        .status()
        .expect("spawn fig binary");
    assert!(status.success(), "{bin} {args:?} exited with {status}");
}

fn read_csv(name: &str) -> (String, Vec<Vec<String>>) {
    let text = std::fs::read_to_string(figures_dir().join(name)).expect("read csv");
    let mut lines = text.lines();
    let header = lines.next().expect("csv header").to_string();
    let rows = lines
        .map(|l| l.split(',').map(str::to_string).collect::<Vec<_>>())
        .collect::<Vec<_>>();
    (header, rows)
}

#[test]
fn fig01_tiny_writes_monotone_io_share() {
    run(env!("CARGO_BIN_EXE_fig01_penkf_io_fraction"), &["--tiny"]);
    let (header, rows) = read_csv("fig01.csv");
    assert_eq!(header, "processors,io_share,compute_share,runtime_s");
    assert_eq!(rows.len(), 3, "three tiny scaling points");
    let shares: Vec<f64> = rows
        .iter()
        .map(|r| r[1].trim_end_matches('%').parse::<f64>().expect("io share"))
        .collect();
    for w in shares.windows(2) {
        assert!(
            w[1] >= w[0],
            "Figure 1 shape: I/O share must be monotone non-decreasing in n_p, got {shares:?}"
        );
    }
}

/// Sum a Chrome-trace JSON's spans per rank into the four phase categories
/// (seconds), keyed by rank.
fn per_rank_sums(trace_path: &std::path::Path) -> std::collections::BTreeMap<usize, [f64; 4]> {
    let text = std::fs::read_to_string(trace_path).expect("read trace json");
    let top = json::parse(&text).expect("trace file must be valid JSON");
    let events = top
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    let mut sums: std::collections::BTreeMap<usize, [f64; 4]> = Default::default();
    for ev in events {
        let name = ev.get("name").and_then(|n| n.as_str()).expect("event name");
        let rank = ev.get("tid").and_then(|t| t.as_f64()).expect("event tid") as usize;
        let dur_s = ev.get("dur").and_then(|d| d.as_f64()).expect("event dur") / 1e6;
        let slot = match name.split(' ').next().unwrap() {
            "read" | "write" => 0,
            "send" => 1,
            "compute" => 2,
            "wait" => 3,
            other => panic!("unexpected event name {other:?}"),
        };
        sums.entry(rank).or_default()[slot] += dur_s;
    }
    sums
}

#[test]
fn fig09_tiny_trace_reproduces_phase_breakdown() {
    run(
        env!("CARGO_BIN_EXE_fig09_phase_breakdown"),
        &["--tiny", "--trace"],
    );
    let (header, rows) = read_csv("fig09.csv");
    assert_eq!(
        header,
        "config,rank class,read_s,comm_s,compute_s,wait_s,runtime_s"
    );
    assert_eq!(rows.len(), 3, "P compute + S compute + S io rows");
    assert!(rows[0][0].starts_with("P-EnKF@") && rows[1][0].starts_with("S-EnKF@"));

    // The full-precision per-rank sums the binary printed its table from.
    let (check_header, check_rows) = read_csv("fig09_trace_check.csv");
    assert_eq!(check_header, "label,rank,read_s,comm_s,compute_s,wait_s");
    assert!(!check_rows.is_empty());

    // The exported Chrome traces must reproduce them within 1e-9.
    for label in ["fig09-penkf-24", "fig09-senkf-24"] {
        let sums = per_rank_sums(&traces_dir().join(format!("{label}.json")));
        let expected: Vec<&Vec<String>> = check_rows.iter().filter(|r| r[0] == label).collect();
        assert_eq!(sums.len(), expected.len(), "{label}: rank count");
        for row in expected {
            let rank: usize = row[1].parse().unwrap();
            let got = sums
                .get(&rank)
                .unwrap_or_else(|| panic!("{label}: no spans for rank {rank}"));
            for (i, cell) in row[2..].iter().enumerate() {
                let want: f64 = cell.parse().unwrap();
                assert!(
                    (got[i] - want).abs() < 1e-9,
                    "{label} rank {rank} phase {i}: trace {} vs report {}",
                    got[i],
                    want
                );
            }
        }
    }
}

#[test]
fn des_sweeps_tiny_print_their_machine_readable_lines() {
    let cases: [(&str, &[&str]); 4] = [
        (env!("CARGO_BIN_EXE_campaign_mttr"), &["MTTR ", "PIPE "]),
        (env!("CARGO_BIN_EXE_scheduler_fairness"), &["SCHED "]),
        (env!("CARGO_BIN_EXE_batched_assimilation"), &["BATCH "]),
        (env!("CARGO_BIN_EXE_adaptive_degradation"), &["ADAPT "]),
    ];
    for (bin, prefixes) in cases {
        let out = Command::new(bin)
            .arg("--tiny")
            .output()
            .expect("spawn sweep binary");
        assert!(
            out.status.success(),
            "{bin} --tiny exited with {}",
            out.status
        );
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        for prefix in prefixes {
            assert!(
                stdout.lines().any(|l| l.starts_with(prefix)),
                "{bin} --tiny printed no `{prefix}` line"
            );
        }
    }
}
