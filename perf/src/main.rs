//! `perf` — the one performance ledger of the S-EnKF reproduction.
//!
//! ```text
//! perf --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!      [--smoke] [--scratch DIR] [--out FILE]
//! perf --compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]
//! ```
//!
//! One workload runs per process. `--trace 0` times the four executors'
//! assimilation cycles end to end, untraced; `--trace 1` runs the layer
//! pass. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; `--out` appends the full
//! run document (spread, sample counts, failures, `env`) as one line to a
//! file that `--compare` reads. See `README.md` beside this crate.

mod compare;
mod env;
mod json;
mod layers;
mod metrics;
mod spans;
mod stats;
mod workload;

use metrics::Ledger;
use spans::SpanLog;
use stats::{median, undisturbed, Summary};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workload::{Exec, Spec, Workload};

/// Set-up is repeated this many times in an end-to-end run and its median
/// reported, so one slow file-system moment does not decide `setup_s`.
const SETUP_REPEATS: usize = 3;
/// At most this many failure messages are kept verbatim.
const KEPT_FAILURES: usize = 8;

/// Operations attempted and failed. An operation is one executor cycle, one
/// campaign or one model call; it fails when it returns an error or does
/// not pass its check.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, operation: &str, failure: Option<&str>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            if self.failures.len() < KEPT_FAILURES {
                self.failures.push(format!("{operation}: {why}"));
            }
        }
    }
}

/// Command-line options of a measuring run.
#[derive(Debug, Clone)]
struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    scratch: PathBuf,
    out: Option<PathBuf>,
}

enum Command {
    Run(Options),
    Compare {
        a: PathBuf,
        b: PathBuf,
        benchmark: PathBuf,
    },
}

const USAGE: &str = "usage: perf --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] \
[--smoke] [--scratch DIR] [--out FILE]\n       perf --compare A B [--benchmark BENCHMARK.json]";

/// Directory beside the running executable: inside the build directory, so
/// inside the checkout and ignored by git. Scratch data must live on a real
/// disk (fsync is what `campaign_ckpt` measures), which rules out `/tmp`
/// on machines that mount it as tmpfs.
fn beside_exe(leaf: &str) -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
        .join(leaf)
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 11,
        seconds: 0.0,
        trace: false,
        smoke: false,
        scratch: beside_exe("perf-scratch"),
        out: None,
    };
    let mut seconds = None;
    let mut compare = None;
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let bad = |what: &str, v: &str| format!("{flag}: `{v}` is not {what}");
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => {
                let v = value()?;
                opts.seed = v.parse().map_err(|_| bad("a whole number", v))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad("a number", v))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("a non-negative number", v));
                }
                seconds = Some(s);
            }
            "--trace" => {
                let v = value()?;
                opts.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1", v)),
                };
            }
            "--smoke" => opts.smoke = true,
            "--scratch" => opts.scratch = PathBuf::from(value()?),
            "--out" => opts.out = Some(PathBuf::from(value()?)),
            "--benchmark" => benchmark = PathBuf::from(value()?),
            "--compare" => compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            _ => return Err(format!("unknown argument `{flag}`\n{USAGE}")),
        }
    }
    if let Some((a, b)) = compare {
        return Ok(Command::Compare { a, b, benchmark });
    }
    if opts.workload.is_empty() {
        if !opts.smoke {
            return Err(USAGE.to_string());
        }
        opts.workload = "all".into();
    }
    // A smoke run measures nothing worth waiting for.
    opts.seconds = seconds.unwrap_or(if opts.smoke { 0.0 } else { 15.0 });
    Ok(Command::Run(opts))
}

/// Everything one run produced.
struct RunDoc {
    tally: Tally,
    /// `(name, unit, value, spread)` in declaration order.
    metrics: Vec<(String, &'static str, f64, Option<Summary>)>,
    /// Declared metrics that were never measured (or are not finite).
    missing: Option<String>,
    bandwidth_bytes: usize,
}

/// Run the four executors once each, interleaved on the same inputs so
/// machine drift is shared. Successful operations' cycle times go to
/// `series`.
fn round(w: &mut Workload, tally: &mut Tally, mut series: Option<&mut [Vec<f64>; 4]>) {
    for exec in Exec::ALL {
        let outcome = w.run_op(exec, false);
        tally.record(exec.name(), outcome.failure.as_deref());
        if let (Some(series), None) = (series.as_deref_mut(), &outcome.failure) {
            series[exec.index()].push(outcome.cycle_s);
        }
    }
}

/// `--trace 0`: set-up (repeated, median reported), then closed-loop timed
/// rounds on one driver thread until `--seconds` have passed.
fn end_to_end(spec: Spec, opts: &Options) -> Result<RunDoc, String> {
    let mut tally = Tally::default();
    let repeats = if opts.smoke { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut prepared = None;
    for _ in 0..repeats {
        // Drop the previous inputs first so set-up always starts from an
        // empty scratch directory.
        drop(prepared.take());
        let t = Instant::now();
        let mut w = Workload::prepare(spec, opts.seed, &opts.scratch, false)?;
        for _ in 0..spec.warmup_rounds {
            round(&mut w, &mut tally, None);
        }
        setup_s.push(t.elapsed().as_secs_f64());
        prepared = Some(w);
    }
    let mut w = prepared.expect("set-up ran at least once");

    let mut series: [Vec<f64>; 4] = Default::default();
    // Whole rounds, everything between the calls included (checks, store
    // creation): what `cycles_per_s` is made of.
    let mut round_s = Vec::new();
    let started = Instant::now();
    while round_s.len() < spec.min_rounds || started.elapsed().as_secs_f64() < opts.seconds {
        let t = Instant::now();
        round(&mut w, &mut tally, Some(&mut series));
        round_s.push(t.elapsed().as_secs_f64());
    }

    let mut spread: BTreeMap<String, Summary> = BTreeMap::new();
    let mut ledger = Ledger::new(metrics::end_to_end());
    ledger.set("setup_s", median(&setup_s));
    spread.insert("setup_s".into(), Summary::of(&setup_s));
    for exec in Exec::ALL {
        let samples = &series[exec.index()];
        if !samples.is_empty() {
            let name = format!("{}_cycle_s", exec.name());
            ledger.set(&name, undisturbed(samples));
            spread.insert(name, Summary::of(samples));
        }
    }
    let cycles_per_round = (Exec::ALL.len() * w.cycles_per_op()) as f64;
    ledger.set("cycles_per_s", cycles_per_round / undisturbed(&round_s));
    Ok(finish(ledger, tally, spread, 0))
}

/// `--trace 1`: one set-up, traced rounds, then the direct per-layer calls;
/// the harness's own spans are written out at the end.
fn layer_pass(spec: Spec, opts: &Options) -> Result<RunDoc, String> {
    let mut tally = Tally::default();
    let mut spans = SpanLog::new(true);
    let mut ledger = Ledger::new(metrics::per_layer());
    let setup = spans.begin("setup");
    let mut w = Workload::prepare(spec, opts.seed, &opts.scratch, true)?;
    for _ in 0..spec.warmup_rounds {
        round(&mut w, &mut tally, None);
    }
    spans.end(setup);
    let mut ctx = layers::Ctx {
        ledger: &mut ledger,
        spans: &mut spans,
        smoke: opts.smoke,
    };
    let bandwidth_bytes = layers::run(&mut ctx, &mut w, opts.seconds, &mut tally)?;
    let path = beside_exe("perf-trace").join(format!("{}.trace.json", spec.name));
    spans
        .write(&path, spec.name)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("perf: {} harness spans in {}", spans.len(), path.display());
    Ok(finish(ledger, tally, BTreeMap::new(), bandwidth_bytes))
}

fn finish(
    ledger: Ledger,
    tally: Tally,
    mut spread: BTreeMap<String, Summary>,
    bandwidth_bytes: usize,
) -> RunDoc {
    let (metrics, missing) = match ledger.finish() {
        Ok(values) => (
            values
                .into_iter()
                .map(|(d, v)| (d.name.clone(), d.unit, v, spread.remove(&d.name)))
                .collect(),
            None,
        ),
        Err(missing) => (Vec::new(), Some(missing)),
    };
    RunDoc {
        tally,
        metrics,
        missing,
        bandwidth_bytes,
    }
}

impl RunDoc {
    fn correct(&self) -> bool {
        self.tally.failed == 0 && self.missing.is_none()
    }

    /// The result line the benchmark contract asks for.
    fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|(name, unit, value, _)| {
            (
                name,
                json::object([
                    ("value", json::number(*value)),
                    ("unit", json::string(unit)),
                ]),
            )
        });
        json::object([
            ("correct", self.correct().to_string()),
            ("attempted", self.tally.attempted.to_string()),
            ("failed", self.tally.failed.to_string()),
            ("metrics", json::object(metrics)),
        ])
    }

    /// The full run document: one line of the `--out` file.
    fn document(&self, opts: &Options) -> String {
        let metrics = self.metrics.iter().map(|(name, unit, value, summary)| {
            let mut fields = vec![
                ("value", json::number(*value)),
                ("unit", json::string(unit)),
            ];
            if let Some(s) = summary {
                fields.push(("samples", s.samples.to_string()));
                fields.push(("p10", json::number(s.p10)));
                fields.push(("median", json::number(s.median)));
                fields.push(("p90", json::number(s.p90)));
            }
            (name, json::object(fields))
        });
        let section = if opts.trace { "layers" } else { "end_to_end" };
        json::object([
            ("workload", json::string(&opts.workload)),
            ("trace", u8::from(opts.trace).to_string()),
            ("seconds", json::number(opts.seconds)),
            (section, json::object(metrics)),
            ("peak_rss_mb", json::number(env::peak_rss_mb())),
            ("ops_attempted", self.tally.attempted.to_string()),
            ("ops_failed", self.tally.failed.to_string()),
            (
                "failures",
                json::array(self.tally.failures.iter().map(|f| json::string(f))),
            ),
            (
                "env",
                env::block(opts.seed, &opts.scratch, opts.smoke, self.bandwidth_bytes),
            ),
        ])
    }
}

/// Run one workload in this process and print its result line.
fn run_one(opts: &Options) -> Result<bool, String> {
    let spec = workload::spec(&opts.workload, opts.smoke).ok_or_else(|| {
        format!(
            "unknown workload `{}` (expected one of {}, or all)",
            opts.workload,
            workload::NAMES.join(", ")
        )
    })?;
    std::fs::create_dir_all(&opts.scratch)
        .map_err(|e| format!("create {}: {e}", opts.scratch.display()))?;
    let doc = if opts.trace {
        layer_pass(spec, opts)?
    } else {
        end_to_end(spec, opts)?
    };
    for failure in &doc.tally.failures {
        eprintln!("perf: FAILED {failure}");
    }
    if let Some(missing) = &doc.missing {
        eprintln!("perf: metrics not measured: {missing}");
    }
    if let Some(out) = &opts.out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .map_err(|e| format!("open {}: {e}", out.display()))?;
        writeln!(file, "{}", doc.document(opts))
            .map_err(|e| format!("write {}: {e}", out.display()))?;
    }
    println!("{}", doc.result_line());
    Ok(doc.correct())
}

/// `--workload all`: every workload in a process of its own (so each one's
/// peak memory and page-cache history is its own), result lines collected
/// into one object keyed by workload.
fn run_all(opts: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut all_correct = true;
    let mut results = Vec::new();
    for name in workload::NAMES {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", name])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .arg("--scratch")
            .arg(&opts.scratch);
        if opts.smoke {
            cmd.arg("--smoke");
        }
        if let Some(out) = &opts.out {
            cmd.arg("--out").arg(out);
        }
        // `output` waits for the child; its stderr passes through.
        let output = cmd
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("start {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or("").trim().to_string();
        if !output.status.success() || line.is_empty() {
            all_correct = false;
        }
        results.push((name, if line.is_empty() { "null".into() } else { line }));
    }
    println!("{}", json::object(results));
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse(&args) {
        Ok(Command::Compare { a, b, benchmark }) => compare::run(&a, &b, &benchmark),
        Ok(Command::Run(opts)) if opts.workload == "all" => run_all(&opts),
        Ok(Command::Run(opts)) => run_one(&opts),
        Err(usage) => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::FAILURE
        }
    }
}
