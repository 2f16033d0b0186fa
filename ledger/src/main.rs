//! `ledger` — the repo's measured performance ledger. See README.md.
//!
//! ```text
//! ledger --workload W --seed N --seconds S --trace 0|1   one workload, one JSON line
//! ledger run [--seed N] [--rounds R]                     all workloads, interleaved rounds
//! ledger compare <a.json> <b.json>                       judge run b against run a
//! ledger check [--print]                                 spec table vs BENCHMARK.json
//! ```

mod compare;
mod gates;
mod host;
mod inputs;
mod probes;
mod report;
mod spans;
mod spec;
mod stats;
mod tally;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

use quda_core::TraceConfig;

use spans::Spans;
use tally::Tally;
use workloads::Workload;

/// Set-ups per run; `setup_s` is their median. All but the last are torn
/// down again (through the same end-of-run gates).
const SETUPS: usize = 3;
/// A run never rests on fewer untraced rounds than this, whatever
/// `--seconds` says.
const MIN_ROUNDS: usize = 3;
/// Traced rounds per workload in `run`, after the untraced ones.
const TRACED_ROUNDS: usize = 3;
const DEFAULT_SEED: u64 = 2010;
const DEFAULT_ROUNDS: usize = 10;
/// Where run files and chrome traces go, relative to the repo root.
const RUNS_DIR: &str = "bench-runs";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        Some("check") => check(&args[1..]),
        Some(a) if a.starts_with("--") => run_one(&args),
        _ => Err("usage: ledger (--workload W --seed N --seconds S --trace 0|1 | run | compare \
                  A B | check)"
            .to_owned()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

/// The value following `--name`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == name) else { return Ok(None) };
    let raw = args.get(i + 1).ok_or_else(|| format!("{name} needs a value"))?;
    raw.parse().map(Some).map_err(|_| format!("{name}: cannot parse {raw:?}"))
}

fn required<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    flag(args, name)?.ok_or_else(|| format!("{name} is required"))
}

/// Set `name` up [`SETUPS`] times, tearing each earlier set-up down again;
/// the last one is the workload that gets measured.
fn set_up(name: &str, seed: u64, spans: &mut Spans) -> Result<(Box<dyn Workload>, Tally), String> {
    let once = |spans: &mut Spans| {
        workloads::setup(name, seed, spans).ok_or_else(|| format!("unknown workload {name:?}"))
    };
    let (mut w, first) = once(spans)?;
    let mut tally = Tally {
        workload: w.name(),
        input_hash: w.input_hash(),
        setup_s: vec![first],
        rounds: Vec::new(),
        calibrator_s: Vec::new(),
        finish: workloads::Finish { attempted: 0, failed: 0 },
    };
    for _ in 1..SETUPS {
        tear_down(w, &mut tally);
        let (next, s) = once(spans)?;
        w = next;
        tally.setup_s.push(s);
    }
    Ok((w, tally))
}

fn tear_down(w: Box<dyn Workload>, tally: &mut Tally) {
    let f = w.finish();
    tally.finish.attempted += f.attempted;
    tally.finish.failed += f.failed;
}

fn write_trace(spans: &Spans, stem: &str) -> Result<(), String> {
    let path = Path::new(RUNS_DIR).join(format!("{stem}.trace.json"));
    std::fs::create_dir_all(RUNS_DIR)
        .and_then(|()| std::fs::write(&path, spans.to_chrome_trace()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("ledger: {} harness spans -> {}", spans.len(), path.display());
    Ok(())
}

/// The driver's entry point: one workload, `--seconds` of measurement, one
/// JSON object as the last line of standard output.
fn run_one(args: &[String]) -> Result<bool, String> {
    let name: String = required(args, "--workload")?;
    let seed: u64 = required(args, "--seed")?;
    let seconds: f64 = required(args, "--seconds")?;
    let traced = match required::<u8>(args, "--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let mut spans = Spans::new();
    let (mut w, mut tally) = set_up(&name, seed, &mut spans)?;

    // With --trace 1 untraced and traced rounds alternate, so both see the
    // same host; the clock covers both.
    let start = spans.now();
    let mut n = 0;
    while n < MIN_ROUNDS * if traced { 2 } else { 1 } || spans.now() - start < seconds {
        let trace = if traced && n % 2 == 1 { TraceConfig::Summary } else { TraceConfig::Off };
        if traced {
            tally.calibrator_s.push(host::calibrator_seconds());
        }
        tally.rounds.push(w.round(trace, &mut spans));
        n += 1;
    }
    tear_down(w, &mut tally);

    let metrics: Vec<(&str, f64, &str)> = if traced {
        let mut probes = probes::run_all(seed, &mut spans);
        let gain = probes::service::batch_gain(seed, &mut spans)
            .ok_or("a gate failed inside the service.batch_gain probe")?;
        probes.insert("service.batch_gain", gain);
        write_trace(&spans, &format!("{name}-{seed}"))?;
        let values = report::per_layer(&tally, &probes)?;
        values.into_iter().zip(&spec::PER_LAYER).map(|((n, v), m)| (n, v, m.unit)).collect()
    } else {
        let e2e = tally.end_to_end();
        e2e.into_iter().zip(&spec::END_TO_END).map(|((n, s), m)| (n, s.median, m.unit)).collect()
    };
    println!("{}", report::driver_line(tally.attempted(), tally.failed(), &metrics));
    Ok(tally.failed() == 0)
}

/// `ledger run`: every workload in one process, rounds interleaved so a
/// slow host period hits all of them alike; then traced rounds, then the
/// probes. Prints every metric and writes `bench-runs/<seed>-<n>.json`.
fn run_all(args: &[String]) -> Result<bool, String> {
    let seed = flag(args, "--seed")?.unwrap_or(DEFAULT_SEED);
    let rounds = flag(args, "--rounds")?.unwrap_or(DEFAULT_ROUNDS);
    if rounds < 5 {
        return Err("--rounds below 5: cut rounds, never workloads, and never below 5".to_owned());
    }
    let mut spans = Spans::new();
    let mut live = Vec::new();
    let mut tallies = Vec::new();
    for spec in &spec::WORKLOADS {
        let (w, tally) = set_up(spec.name, seed, &mut spans)?;
        live.push(w);
        tallies.push(tally);
    }
    for r in 0..rounds + TRACED_ROUNDS {
        let trace = if r < rounds { TraceConfig::Off } else { TraceConfig::Summary };
        let calibrator = host::calibrator_seconds();
        for (w, tally) in live.iter_mut().zip(&mut tallies) {
            tally.calibrator_s.push(calibrator);
            tally.rounds.push(w.round(trace, &mut spans));
        }
        eprintln!("ledger: round {} of {} done", r + 1, rounds + TRACED_ROUNDS);
    }
    for (w, tally) in live.into_iter().zip(&mut tallies) {
        tear_down(w, tally);
    }

    let mut probes = probes::run_all(seed, &mut spans);
    let throughput = |name: &str| {
        let tally = tallies.iter().find(|t| t.workload == name).expect("all four ran");
        let e2e = tally.end_to_end();
        e2e.iter().find(|(metric, _)| *metric == "solves_per_s").expect("in the table").1.median
    };
    probes.insert("service.batch_gain", throughput("service_fused") / throughput("service_split"));

    let layers: Vec<_> =
        tallies.iter().map(|t| report::per_layer(t, &probes)).collect::<Result<_, _>>()?;
    report::print_table(&tallies, &layers);
    let total_wall_s = spans.now();
    let path = report::next_run_path(Path::new(RUNS_DIR), seed);
    let json = report::run_json(seed, rounds, total_wall_s, &tallies, &layers);
    std::fs::create_dir_all(RUNS_DIR)
        .and_then(|()| std::fs::write(&path, json))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    write_trace(&spans, &format!("run-{seed}"))?;
    let failed: usize = tallies.iter().map(Tally::failed).sum();
    println!(
        "\ntotal wall {total_wall_s:.1} s; {failed} failed operations; run file {}",
        path.display()
    );
    Ok(failed == 0)
}

fn read_json(path: &str) -> Result<serde_json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else { return Err("usage: ledger compare <a.json> <b.json>".to_owned()) };
    let worse = compare::compare(&read_json(a)?, &read_json(b)?);
    println!("\n{worse} end-to-end rows worse than the bound");
    Ok(worse == 0)
}

/// `ledger check`: the spec table against `./BENCHMARK.json`. With
/// `--print`, write the `BENCHMARK.json` the table implies instead.
fn check(args: &[String]) -> Result<bool, String> {
    if args.iter().any(|a| a == "--print") {
        print!("{}", spec::benchmark_json());
        return Ok(true);
    }
    let committed =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let errors = spec::check(&committed);
    for e in &errors {
        eprintln!("ledger check: {e}");
    }
    if errors.is_empty() {
        println!(
            "BENCHMARK.json matches the ledger: {} workloads, {} end-to-end, {} per-layer metrics",
            spec::WORKLOADS.len(),
            spec::END_TO_END.len(),
            spec::PER_LAYER.len()
        );
    }
    Ok(errors.is_empty())
}
