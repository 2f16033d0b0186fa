//! What the ledger writes: the driver's one-line result, the run file
//! under `bench-runs/`, and the human-readable table. JSON is written by
//! hand, as the repo's other bins do.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::host;
use crate::probes::Values;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::tally::Tally;

/// A calibrator spread above this stamps the run `"noisy": true`.
pub const NOISY_SPREAD: f64 = 1.10;

/// The per-layer values of one workload in `spec::PER_LAYER` order: its
/// own tally's, then the run-wide probes'. A metric nobody measured, or a
/// non-finite value, is an error — the table and the output must agree.
pub fn per_layer(tally: &Tally, probes: &Values) -> Result<Vec<(&'static str, f64)>, String> {
    let own = tally.layers();
    PER_LAYER
        .iter()
        .map(|m| match own.get(m.name).or_else(|| probes.get(m.name)) {
            Some(v) if v.is_finite() => Ok((m.name, *v)),
            Some(v) => Err(format!("{}@{}: value {v} is not finite", m.name, tally.workload)),
            None => Err(format!("{}@{}: nothing measured it", m.name, tally.workload)),
        })
        .collect()
}

/// The driver contract's last line of standard output.
pub fn driver_line(attempted: usize, failed: usize, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

fn summary_json(s: &Summary, unit: &str) -> String {
    format!(
        "{{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"unit\": \"{unit}\"}}",
        s.median, s.q1, s.q3, s.n
    )
}

/// One complete `ledger run` as JSON (schema `quda-ledger/v1`): what
/// `ledger compare` reads.
pub fn run_json(
    seed: u64,
    rounds: usize,
    total_wall_s: f64,
    tallies: &[Tally],
    layers: &[Vec<(&'static str, f64)>],
) -> String {
    let spread = tallies.iter().map(Tally::calibrator_spread).fold(1.0, f64::max);
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"quda-ledger/v1\",");
    let _ = writeln!(out, "  \"seed\": {seed}, \"rounds\": {rounds}, \"nproc\": {nproc},");
    let _ = writeln!(out, "  \"total_wall_s\": {total_wall_s},");
    let _ = writeln!(
        out,
        "  \"host\": {{\"l2_bytes_per_core\": {}, \"l3_bytes\": {}, \"triad_array_bytes\": {}}},",
        host::L2_BYTES,
        host::L3_BYTES,
        host::TRIAD_ELEMS * 8
    );
    let _ =
        writeln!(out, "  \"calibrator_spread\": {spread}, \"noisy\": {},", spread > NOISY_SPREAD);
    let _ = writeln!(out, "  \"workloads\": {{");
    for (i, (tally, layer)) in tallies.iter().zip(layers).enumerate() {
        let _ = writeln!(out, "    \"{}\": {{", tally.workload);
        let _ = writeln!(out, "      \"input_hash\": \"{:016x}\",", tally.input_hash);
        let _ = writeln!(
            out,
            "      \"attempted\": {}, \"succeeded\": {}, \"failed\": {},",
            tally.attempted(),
            tally.attempted() - tally.failed(),
            tally.failed()
        );
        let e2e: Vec<String> = tally
            .end_to_end()
            .iter()
            .zip(&END_TO_END)
            .map(|((name, s), m)| format!("        \"{name}\": {}", summary_json(s, m.unit)))
            .collect();
        let _ = writeln!(out, "      \"end_to_end\": {{\n{}\n      }},", e2e.join(",\n"));
        let per: Vec<String> =
            layer.iter().map(|(name, v)| format!("        \"{name}\": {v}")).collect();
        let _ = writeln!(out, "      \"per_layer\": {{\n{}\n      }}", per.join(",\n"));
        let _ = writeln!(out, "    }}{}", if i + 1 < tallies.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    out
}

/// The first free `<dir>/<seed>-<n>.json`, `n` counting from 1, so
/// repeated runs on one seed leave a trajectory.
pub fn next_run_path(dir: &Path, seed: u64) -> PathBuf {
    (1..).map(|n| dir.join(format!("{seed}-{n}.json"))).find(|p| !p.exists()).expect("unbounded")
}

/// Every metric by name with its unit, for a person.
pub fn print_table(tallies: &[Tally], layers: &[Vec<(&'static str, f64)>]) {
    for (tally, layer) in tallies.iter().zip(layers) {
        println!(
            "\n== {}: attempted {} succeeded {} failed {} (inputs {:016x})",
            tally.workload,
            tally.attempted(),
            tally.attempted() - tally.failed(),
            tally.failed(),
            tally.input_hash
        );
        for ((name, s), m) in tally.end_to_end().iter().zip(&END_TO_END) {
            println!(
                "  {name:<34} {:>14.6} {:<8} q1 {:.6} q3 {:.6} n {} spread {:.1}% ({} is better, bound {:.0}%)",
                s.median,
                m.unit,
                s.q1,
                s.q3,
                s.n,
                s.spread() * 100.0,
                m.better.as_str(),
                m.bound * 100.0
            );
        }
        for ((name, v), m) in layer.iter().zip(&PER_LAYER) {
            println!("  {name:<34} {v:>14.6} {:<8} -> {}", m.unit, m.moves);
        }
    }
}
