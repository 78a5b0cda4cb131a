//! A miniature strong-scaling study on the real (threaded) executor:
//! P-EnKF vs S-EnKF on actual files with growing rank counts, verifying the
//! analyses agree at every configuration.
//!
//! This is the laptop-scale version of Figure 13; the paper-scale version
//! runs on the discrete-event model (`cargo run --release --example
//! reproduce -- fig13`).
//!
//! ```text
//! cargo run --release --example scaling_study [-- --trace]
//! ```
//!
//! With `--trace`, each configuration's wall-clock execution trace is
//! exported as Chrome-trace JSON under `target/traces/` (open in
//! `chrome://tracing` or Perfetto).

use s_enkf::parallel::AssimilationSetup;
use s_enkf::prelude::*;

fn main() {
    let trace_on = std::env::args().any(|a| a == "--trace");
    let mesh = Mesh::new(64, 32);
    let members = 8;
    let scenario = ScenarioBuilder::new(mesh)
        .members(members)
        .observation_stride(2)
        .seed(11)
        .build();

    let scratch = ScratchDir::new("scaling-study").expect("scratch");
    let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8)).expect("store");
    write_ensemble(&store, &scenario.ensemble).expect("write");

    let radius = LocalizationRadius { xi: 2, eta: 2 };
    let setup = AssimilationSetup {
        store: &store,
        members,
        observations: &scenario.observations,
        analysis: LocalAnalysis::new(radius),
    };

    let reference =
        serial_enkf(&scenario.ensemble, &scenario.observations, radius).expect("serial");

    println!(
        "{:>18}  {:>9}  {:>9}  {:>8}",
        "configuration", "P-EnKF s", "S-EnKF s", "match"
    );
    let mut last: Option<(f64, f64)> = None;
    for (nsdx, nsdy, layers, ncg) in [(2, 2, 2, 2), (4, 2, 2, 2), (4, 4, 2, 4), (8, 4, 4, 4)] {
        let (p_analysis, p_rep, mut p_trace) =
            PEnkf { nsdx, nsdy }.run_traced(&setup).expect("P-EnKF");
        let senkf = SEnkf::new(Params {
            nsdx,
            nsdy,
            layers,
            ncg,
        });
        let (s_analysis, s_rep, mut s_trace) = senkf.run_traced(&setup).expect("S-EnKF");
        if trace_on {
            let dir = std::path::Path::new("target/traces");
            std::fs::create_dir_all(dir).expect("create traces dir");
            p_trace.set_label(format!("scaling-penkf-{nsdx}x{nsdy}"));
            s_trace.set_label(format!("scaling-senkf-{nsdx}x{nsdy}-L{layers}"));
            for t in [&p_trace, &s_trace] {
                let path = t.write_chrome_json(dir).expect("write trace");
                println!("[trace {}]", path.display());
            }
        }
        let ok = p_analysis.states().approx_eq(reference.states(), 1e-12)
            && s_analysis.states().approx_eq(reference.states(), 1e-12);
        println!(
            "{:>14}x{} L{}  {:>9.3}  {:>9.3}  {:>8}",
            nsdx,
            nsdy,
            layers,
            p_rep.wall_time,
            s_rep.wall_time,
            if ok { "exact" } else { "DIVERGED" }
        );
        assert!(ok, "parallel analyses must equal the serial reference");
        last = Some((p_rep.wall_time, s_rep.wall_time));
    }
    let (p, s) = last.expect("ran at least one configuration");
    println!(
        "\nnote: at laptop scale thread overheads dominate (P {p:.3}s vs S {s:.3}s); the\n\
         paper-scale contention effects live in the discrete-event model (see\n\
         `cargo run --release --example reproduce`)."
    );
}
