//! `ledger compare <a.json> <b.json>`: one row per workload × end-to-end
//! metric, judged against the benchmark's bound and the runs' own
//! quartile spread, then the per-layer deltas.

use serde_json::Value;

use crate::spec::{Better, END_TO_END, PER_LAYER, WORKLOADS};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    /// A run was stamped noisy, or its own quartile spread is wider than
    /// the bound: a bound-sized change cannot be told from the host.
    Unresolved,
}

/// Judge `b` against base `a`. `spread` is the wider of the two runs'
/// interquartile distances as a share of their medians.
pub fn verdict(a: f64, b: f64, better: Better, bound: f64, spread: f64, noisy: bool) -> Verdict {
    if noisy || spread > bound || !(a.is_finite() && b.is_finite()) || a == 0.0 {
        return Verdict::Unresolved;
    }
    let worsened = match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    if worsened > bound {
        Verdict::Worse
    } else if worsened < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

fn number(v: Option<&Value>) -> f64 {
    v.and_then(Value::as_f64).unwrap_or(f64::NAN)
}

fn spread_of(metric: Option<&Value>) -> f64 {
    let get = |k| number(metric.and_then(|m| m.get(k)));
    (get("q3") - get("q1")) / get("median").abs()
}

/// Print the comparison; returns how many rows came out `worse`.
pub fn compare(a: &Value, b: &Value) -> usize {
    let noisy = |run: &Value| run.get("noisy").and_then(Value::as_bool).unwrap_or(true);
    let either_noisy = noisy(a) || noisy(b);
    println!(
        "base (a): seed {} noisy {}   new (b): seed {} noisy {}",
        number(a.get("seed")),
        noisy(a),
        number(b.get("seed")),
        noisy(b)
    );
    println!(
        "{:<20} {:<15} {:>13} {:>13} {:>8} {:>8}  verdict",
        "workload", "metric", "a median", "b median", "b/a", "spread"
    );
    let mut worse = 0;
    let workload =
        |run: &'_ Value, name: &str| run.get("workloads").and_then(|w| w.get(name)).cloned();
    for w in &WORKLOADS {
        let (wa, wb) = (workload(a, w.name), workload(b, w.name));
        for m in &END_TO_END {
            let metric = |run: &Option<Value>| {
                run.as_ref().and_then(|r| r.get("end_to_end")).and_then(|e| e.get(m.name)).cloned()
            };
            let (ma, mb) = (metric(&wa), metric(&wb));
            let (va, vb) = (
                number(ma.as_ref().and_then(|x| x.get("median"))),
                number(mb.as_ref().and_then(|x| x.get("median"))),
            );
            let spread = spread_of(ma.as_ref()).max(spread_of(mb.as_ref()));
            let v = verdict(va, vb, m.better, m.bound, spread, either_noisy);
            worse += usize::from(v == Verdict::Worse);
            println!(
                "{:<20} {:<15} {va:>13.6} {vb:>13.6} {:>8.4} {:>7.1}%  {v:?} ({} is better, bound {:.0}% of a)",
                w.name,
                m.name,
                vb / va,
                spread * 100.0,
                m.better.as_str(),
                m.bound * 100.0
            );
        }
    }
    println!("\nper-layer deltas (b/a, base a; no bound applies):");
    for w in &WORKLOADS {
        println!("-- {}", w.name);
        let layer = |run: &Value, name: &str| {
            number(workload(run, w.name).as_ref().and_then(|x| x.get("per_layer")?.get(name)))
        };
        for m in &PER_LAYER {
            let (va, vb) = (layer(a, m.name), layer(b, m.name));
            let exact = if m.unit == "count" && va != vb { "  <- count differs" } else { "" };
            println!("   {:<34} {va:>14.6} {vb:>14.6} {:>8.4} {}{exact}", m.name, vb / va, m.unit);
        }
    }
    worse
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_respect_direction_bound_and_spread() {
        let v = |a, b, better| verdict(a, b, better, 0.10, 0.02, false);
        assert_eq!(v(1.0, 1.05, Better::Lower), Verdict::Unchanged);
        assert_eq!(v(1.0, 1.11, Better::Lower), Verdict::Worse);
        assert_eq!(v(1.0, 0.85, Better::Lower), Verdict::Better);
        assert_eq!(v(40.0, 35.0, Better::Higher), Verdict::Worse);
        assert_eq!(v(40.0, 45.0, Better::Higher), Verdict::Better);
        // A spread wider than the bound, or a noisy stamp, resolves nothing.
        assert_eq!(verdict(1.0, 1.5, Better::Lower, 0.10, 0.12, false), Verdict::Unresolved);
        assert_eq!(verdict(1.0, 1.5, Better::Lower, 0.10, 0.01, true), Verdict::Unresolved);
        assert_eq!(verdict(f64::NAN, 1.0, Better::Lower, 0.10, 0.01, false), Verdict::Unresolved);
    }

    #[test]
    fn compare_counts_worse_rows() {
        let run = |solve_s: f64| {
            let e2e = |m: f64| format!("{{\"median\": {m}, \"q1\": {m}, \"q3\": {m}, \"n\": 10}}");
            let w = format!(
                "{{\"end_to_end\": {{\"setup_s\": {}, \"solve_s\": {}, \"solves_per_s\": {}, \
                 \"latency_p50_ms\": {}}}, \"per_layer\": {{}}}}",
                e2e(1.0),
                e2e(solve_s),
                e2e(1.0 / solve_s),
                e2e(solve_s * 1e3)
            );
            let all: Vec<String> =
                WORKLOADS.iter().map(|s| format!("\"{}\": {w}", s.name)).collect();
            serde_json::from_str(&format!(
                "{{\"seed\": 1, \"noisy\": false, \"workloads\": {{{}}}}}",
                all.join(", ")
            ))
            .expect("valid")
        };
        assert_eq!(compare(&run(1.0), &run(1.02)), 0);
        // solve_s, solves_per_s and latency_p50_ms worsen on all four.
        assert_eq!(compare(&run(1.0), &run(1.4)), 12);
    }
}
