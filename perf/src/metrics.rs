//! The ledger's vocabulary: every metric the harness may emit, with its
//! unit. `BENCHMARK.json` declares the same list plus each metric's direction
//! and bound (the smoke test holds the two equal), so a name that is not
//! here cannot be reported and a name that is here cannot be forgotten.

use std::collections::BTreeMap;

/// The four executors, in the order a round runs them.
pub const EXECS: [&str; 4] = ["senkf", "penkf", "lenkf", "denkf"];

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    pub name: String,
    pub unit: &'static str,
}

fn decl(name: impl Into<String>, unit: &'static str) -> Decl {
    Decl {
        name: name.into(),
        unit,
    }
}

/// What a user of the system sees: reported by `--trace 0`, gated by the
/// bounds in `BENCHMARK.json`.
pub fn end_to_end() -> Vec<Decl> {
    let mut out = vec![decl("setup_s", "s")];
    for e in EXECS {
        out.push(decl(format!("{e}_cycle_s"), "s"));
    }
    out.push(decl("cycles_per_s", "1/s"));
    out
}

/// One number per layer boundary: reported by `--trace 1`, never gated.
pub fn per_layer() -> Vec<Decl> {
    let mut out = Vec::new();
    let mut add = |name: &str, unit: &'static str| out.push(decl(name, unit));
    // enkf-linalg
    add("linalg.gemm_gflops", "GFLOP/s");
    add("linalg.gemm_ref_gflops", "GFLOP/s");
    add("linalg.peak_gflops", "GFLOP/s");
    add("linalg.mem_bw_gbps", "GB/s");
    add("linalg.gemm_peak_frac", "frac");
    add("linalg.eigen_s", "s");
    add("linalg.modchol_s", "s");
    add("linalg.chol_solve_s", "s");
    add("linalg.sherman_s", "s");
    add("linalg.convert_gbps", "GB/s");
    // enkf-core
    add("core.local_analysis_s", "s");
    add("core.points_per_s", "1/s");
    add("core.letkf_point_us", "us");
    add("core.prepare_s", "s");
    add("core.localize_us", "us");
    add("core.batched_transform_s", "s");
    add("core.serial_enkf_s", "s");
    // enkf-pfs
    add("pfs.read_bar_s", "s");
    add("pfs.read_bar_seeks", "count");
    add("pfs.read_bar_bytes", "bytes");
    add("pfs.read_block_s", "s");
    add("pfs.read_block_seeks", "count");
    add("pfs.read_block_bytes", "bytes");
    add("pfs.read_full_s", "s");
    add("pfs.read_gbps", "GB/s");
    add("pfs.readahead_s", "s");
    add("pfs.resilient_empty_overhead_frac", "frac");
    add("pfs.write_region_s", "s");
    add("pfs.write_member_durable_s", "s");
    add("pfs.write_gbps", "GB/s");
    // enkf-net
    add("net.pingpong_us", "us");
    add("net.bar_fanout_us", "us");
    add("net.bcast_us", "us");
    add("net.gather_us", "us");
    add("net.allreduce_us", "us");
    for e in EXECS {
        add(&format!("net.msgs_per_cycle.{e}"), "count");
        add(&format!("net.bytes_per_cycle.{e}"), "bytes");
    }
    // enkf-data
    add("data.scenario_build_s", "s");
    add("data.write_ensemble_s", "s");
    add("data.forecast_s", "s");
    // enkf-parallel (the traced pass)
    for e in EXECS {
        add(&format!("parallel.{e}.read_s"), "s");
        add(&format!("parallel.{e}.comm_s"), "s");
        add(&format!("parallel.{e}.compute_s"), "s");
        add(&format!("parallel.{e}.wait_s"), "s");
        add(&format!("parallel.{e}.seeks"), "count");
        add(&format!("parallel.{e}.bytes_read"), "bytes");
        add(&format!("parallel.{e}.cycle_p90_s"), "s");
        add(&format!("parallel.{e}.speedup_vs_serial"), "ratio");
        add(&format!("parallel.model_residual.{e}"), "frac");
    }
    add("parallel.senkf.io_read_s", "s");
    add("parallel.senkf.io_wait_s", "s");
    add("parallel.senkf.overlap_frac", "frac");
    add("parallel.writeback_s", "s");
    // enkf-ckpt
    add("ckpt.save_s", "s");
    add("ckpt.save_bytes", "bytes");
    add("ckpt.save_mbps", "MB/s");
    add("ckpt.load_latest_s", "s");
    add("ckpt.async_handover_us", "us");
    add("ckpt.drain_s", "s");
    add("ckpt.pipelined_cycle_s", "s");
    add("ckpt.exposed_s", "s");
    add("ckpt.hidden_s", "s");
    // enkf-trace
    add("trace.overhead_frac", "frac");
    add("trace.spans_per_cycle", "count");
    add("trace.digest_us", "us");
    add("trace.chrome_json_s", "s");
    // enkf-fault / enkf-health
    add("fault.empty_plan_overhead_frac", "frac");
    add("health.monitor_overhead_frac", "frac");
    add("health.end_cycle_us", "us");
    // enkf-sim
    add("sim.add_task_us", "us");
    add("sim.run_events_per_s", "1/s");
    for e in EXECS {
        add(&format!("sim.tasks.{e}"), "count");
        add(&format!("sim.host_us_per_task.{e}"), "us");
    }
    // enkf-tuning
    add("tuning.autotune_s", "s");
    add("tuning.t_total_s", "virtual_s");
    // enkf-sched
    add("sched.admission_us", "us");
    add("sched.admission_cached_us", "us");
    add("sched.simulate_s", "s");
    add("sched.fair_p99_over_solo", "ratio");
    // The modelled result of this workload (deterministic).
    add("model.senkf_virtual_s", "virtual_s");
    out
}

/// Units whose values are counts or virtual seconds: they must repeat
/// exactly from run to run of one commit on one seed.
pub fn is_exact_unit(unit: &str) -> bool {
    matches!(unit, "count" | "bytes" | "virtual_s")
}

/// Values collected against a declared list. Setting an undeclared name or
/// finishing with a declared name unset is a bug in the harness, reported
/// as such instead of silently emitting a partial ledger.
#[derive(Debug)]
pub struct Ledger {
    decls: Vec<Decl>,
    values: BTreeMap<String, f64>,
}

impl Ledger {
    pub fn new(decls: Vec<Decl>) -> Self {
        Ledger {
            decls,
            values: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            self.decls.iter().any(|d| d.name == name),
            "metric `{name}` is not declared in metrics.rs"
        );
        self.values.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        *self
            .values
            .get(name)
            .unwrap_or_else(|| panic!("metric `{name}` read before it was measured"))
    }

    /// Every declared metric with its value, in declaration order; `Err`
    /// names what is missing or not a finite number.
    pub fn finish(&self) -> Result<Vec<(&Decl, f64)>, String> {
        let mut out = Vec::with_capacity(self.decls.len());
        let mut bad = Vec::new();
        for d in &self.decls {
            match self.values.get(&d.name) {
                Some(v) if v.is_finite() => out.push((d, *v)),
                Some(v) => bad.push(format!("{} = {v}", d.name)),
                None => bad.push(format!("{} unset", d.name)),
            }
        }
        if bad.is_empty() {
            Ok(out)
        } else {
            Err(bad.join(", "))
        }
    }
}
