//! Regenerates the paper's evaluation on the modeled cluster: every row of
//! `s_enkf::reproduce::FIGURES`, or only the named ones, as a markdown table
//! between the marker comments EXPERIMENTS.md carries, each followed by its
//! verdict. Exits 1 when a verdict fails.
//!
//! ```text
//! cargo run --release --example reproduce -- [--tiny] [--trace] [figure…]
//! ```
//!
//! `--tiny` shrinks Fig. 12 and the campaign, scheduler and batched sweeps;
//! `--trace` writes a Chrome trace of every run of the shared scaling sweep
//! to `target/traces/`.

use s_enkf::reproduce::{Sweeps, FIGURES};
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |f: &str| args.iter().any(|a| a == f);
    let traces = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/traces");
    let sweeps = Sweeps::new(flag("--tiny"), flag("--trace").then_some(traces));
    let named = |name: &str| args.iter().any(|a| a == name);
    let all = args.iter().all(|a| a.starts_with("--"));
    let mut failed = false;
    for fig in FIGURES.iter().filter(|f| all || named(f.name)) {
        let (name, claim) = (fig.name, fig.claim);
        println!("\n## {name}: {claim}\n\n<!-- reproduce:{name} -->\n");
        let verdict = (fig.sweep)(&sweeps).and_then(|table| {
            println!("{table}");
            (fig.verdict)(&table)
        });
        println!("<!-- /reproduce -->\n");
        match &verdict {
            Ok(()) => println!("verdict: holds"),
            Err(why) => println!("verdict: FAILS: {why}"),
        }
        failed |= verdict.is_err();
    }
    std::process::exit(i32::from(failed));
}
