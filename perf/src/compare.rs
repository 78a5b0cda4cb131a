//! `perf --compare A B`: the regression gate. `A` and `B` are `--out` files
//! (one run document per line; several runs of a workload per file are
//! welcome and make the verdicts sharper). For every pairing of workload and
//! end-to-end metric, B's median is judged against A's with the bound
//! `BENCHMARK.json` fixes for that metric.

use crate::metrics::is_exact_unit;
use crate::stats::{median, quantile};
use enkf_trace::json::{parse, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// Values of one `(workload, metric)` pairing across the runs in a file,
/// plus the within-run spread of single-run files.
#[derive(Debug, Default)]
struct Series {
    values: Vec<f64>,
    /// `(p90 − p10) / median` of the samples inside a run, when recorded.
    within_run: Option<f64>,
    unit: String,
}

type Table = BTreeMap<(String, String), Series>;

/// Read an `--out` file into its end-to-end and layer tables.
fn load(path: &Path) -> Result<(Table, Table), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let (mut end_to_end, mut layers) = (Table::new(), Table::new());
    for (lineno, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), lineno + 1))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}:{}: no workload", path.display(), lineno + 1))?;
        for (section, table) in [("end_to_end", &mut end_to_end), ("layers", &mut layers)] {
            let Some(Json::Obj(members)) = doc.get(section) else {
                continue;
            };
            for (name, m) in members {
                let Some(value) = m.get("value").and_then(Json::as_f64) else {
                    continue;
                };
                let series = table
                    .entry((workload.to_string(), name.clone()))
                    .or_default();
                series.values.push(value);
                series.unit = m
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                let field = |k: &str| m.get(k).and_then(Json::as_f64);
                if let (Some(p10), Some(median), Some(p90)) =
                    (field("p10"), field("median"), field("p90"))
                {
                    series.within_run = Some((p90 - p10) / median);
                }
            }
        }
    }
    Ok((end_to_end, layers))
}

/// `name → (higher is better, bound)` from `BENCHMARK.json`.
fn bounds(path: &Path) -> Result<BTreeMap<String, (bool, f64)>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{}: no end_to_end list", path.display()))?;
    let mut out = BTreeMap::new();
    for m in list {
        let field = |k: &str| {
            m.get(k)
                .ok_or_else(|| format!("{}: metric without {k}", path.display()))
        };
        let name = field("name")?.as_str().unwrap_or_default().to_string();
        let higher = field("better")?.as_str() == Some("higher");
        let bound = field("bound")?.as_f64().unwrap_or(0.0);
        out.insert(name, (higher, bound));
    }
    Ok(out)
}

/// Run-to-run spread of a series: quartile distance over median across
/// runs, or the spread of the samples inside the one run there is.
fn spread(s: &Series) -> f64 {
    if s.values.len() >= 2 {
        (quantile(&s.values, 0.75) - quantile(&s.values, 0.25)) / median(&s.values)
    } else {
        s.within_run.unwrap_or(0.0)
    }
}

fn verdict(a: &Series, b: &Series, higher_is_better: bool, bound: f64) -> (&'static str, f64, f64) {
    let (ma, mb) = (median(&a.values), median(&b.values));
    // Positive = B is worse, as a share of A's median.
    let worse_by = if higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let noise = spread(a).max(spread(b));
    let better_than = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let b_dominates = b
        .values
        .iter()
        .all(|&vb| a.values.iter().all(|&va| better_than(vb, va)));
    let label = if noise > bound {
        if b_dominates {
            "better"
        } else {
            "unresolved"
        }
    } else if worse_by > bound {
        "worse"
    } else if -worse_by > noise && b_dominates {
        "better"
    } else {
        "within-bound"
    };
    (label, worse_by, noise)
}

/// Print one row per pairing; `Ok(false)` when any row reads `worse` or a
/// pairing is missing from one side.
pub fn run(a: &Path, b: &Path, benchmark: &Path) -> Result<bool, String> {
    let bounds = bounds(benchmark)?;
    let (a_e2e, a_layers) = load(a)?;
    let (b_e2e, b_layers) = load(b)?;
    let mut ok = true;
    println!(
        "{:<16} {:<16} {:>13} {:>13} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse%", "bound%", "spread%"
    );
    for (key, sa) in &a_e2e {
        let (workload, metric) = key;
        let Some(&(higher, bound)) = bounds.get(metric) else {
            continue;
        };
        let Some(sb) = b_e2e.get(key) else {
            println!("{workload:<16} {metric:<16} missing from B");
            ok = false;
            continue;
        };
        let (label, worse_by, noise) = verdict(sa, sb, higher, bound);
        println!(
            "{workload:<16} {metric:<16} {:>13.6} {:>13.6} {:>8.2} {:>7.1} {:>7.2}  {label}",
            median(&sa.values),
            median(&sb.values),
            100.0 * worse_by,
            100.0 * bound,
            100.0 * noise,
        );
        ok &= label != "worse";
    }
    for key in b_e2e.keys().filter(|k| !a_e2e.contains_key(*k)) {
        println!("{:<16} {:<16} missing from A", key.0, key.1);
        ok = false;
    }
    // Counts and virtual seconds must repeat exactly; a difference is a
    // change to the program's structure, reported but not judged.
    for (key, sa) in a_layers.iter().filter(|(_, s)| is_exact_unit(&s.unit)) {
        let Some(sb) = b_layers.get(key) else {
            continue;
        };
        let (va, vb) = (sa.values[0], sb.values[0]);
        let steady = |s: &Series| {
            s.values
                .iter()
                .all(|v| v.to_bits() == s.values[0].to_bits())
        };
        if !steady(sa) || !steady(sb) {
            println!("{:<16} {:<40} not repeatable within a file", key.0, key.1);
        } else if va.to_bits() != vb.to_bits() {
            println!(
                "{:<16} {:<40} changed {va} -> {vb} {}",
                key.0, key.1, sa.unit
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: &[f64]) -> Series {
        Series {
            values: values.to_vec(),
            within_run: None,
            unit: "s".into(),
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = series(&[1.00, 1.01, 0.99, 1.00]);
        assert_eq!(
            verdict(&a, &series(&[1.02, 1.03, 1.02]), false, 0.1).0,
            "within-bound"
        );
        assert_eq!(
            verdict(&a, &series(&[1.20, 1.21, 1.22]), false, 0.1).0,
            "worse"
        );
        assert_eq!(
            verdict(&a, &series(&[0.80, 0.81, 0.82]), false, 0.1).0,
            "better"
        );
        // Higher-is-better flips the direction.
        assert_eq!(
            verdict(&a, &series(&[0.80, 0.81, 0.82]), true, 0.1).0,
            "worse"
        );
        // Noise wider than the bound resolves nothing.
        let noisy = series(&[0.7, 1.0, 1.3, 1.0]);
        assert_eq!(
            verdict(&noisy, &series(&[1.25, 1.3]), false, 0.1).0,
            "unresolved"
        );
    }
}
