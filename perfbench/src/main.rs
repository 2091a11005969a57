//! ETAP benchmark: one workload per process.
//!
//! ```sh
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_read --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Prints a summary on stderr and, as the last line of stdout, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The traced run first runs the same workload untraced in
//! a child process, so it can report what tracing cost. Scratch stores,
//! exact counts and span dumps live under `.bench_build/perfbench/` in
//! the working directory. See `perfbench/README.md`.

mod client;
mod decompose;
mod pin;
mod pipeline;
mod plan;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// How far, in percent of the untraced `cycle_ms`, the sum of the traced
/// cycle's layers may lie from it. Measured residuals ran from −12% to
/// +11%; a decomposition that skipped the book build, most of a cycle,
/// would land far outside. The decomposed cycles' output is checked
/// exactly by the ingest check.
const CYCLE_RESIDUAL_BOUND_PCT: f64 = 50.0;

struct Args {
    workload: plan::Plan,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(plan::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Counts file for this program build, workload, seed and mode. Keyed by
/// the executable's bytes so that another version of the program
/// starts its own record instead of failing against this one's.
fn counts_path(root: &Path, args: &Args, trace: bool) -> PathBuf {
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .map(|b| etap_persist::fnv1a64(&b))
        .unwrap_or(0);
    root.join("counts").join(format!(
        "{}-seed{}-{exe:016x}-trace{}.txt",
        args.workload.name,
        args.seed,
        u8::from(trace)
    ))
}

fn render_counts(counts: &BTreeMap<String, (f64, &str)>) -> String {
    let mut s = String::new();
    for (k, (v, _)) in counts {
        let _ = writeln!(s, "{k}={v}");
    }
    s
}

fn parse_counts(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter_map(|l| l.split_once('='))
        .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
        .collect()
}

/// Compare this run's exact counts with the first run of the same
/// seed (recording them when this is the first).
fn check_counts(path: &Path, counts: &BTreeMap<String, (f64, &str)>) -> Result<(), String> {
    match std::fs::read_to_string(path) {
        Ok(prior) => {
            let prior = parse_counts(&prior);
            for (k, (v, _)) in counts {
                if prior.get(k) != Some(v) {
                    return Err(format!(
                        "count {k} = {v}, an earlier run of this seed had {:?}",
                        prior.get(k)
                    ));
                }
            }
            Ok(())
        }
        Err(_) => {
            let _ = std::fs::create_dir_all(path.parent().unwrap_or(Path::new(".")));
            std::fs::write(path, render_counts(counts)).map_err(|e| format!("write counts: {e}"))
        }
    }
}

/// End-to-end metric values from an untraced run's result line.
fn parse_metrics(line: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Some(metrics) = line.split_once("\"metrics\":") else {
        return out;
    };
    for part in metrics.1.split("}, ") {
        let Some((name, rest)) = part
            .trim_start_matches([' ', '{'])
            .split_once("\": {\"value\": ")
        else {
            continue;
        };
        let value = rest.split(',').next().and_then(|v| v.trim().parse().ok());
        if let Some(v) = value {
            out.insert(name.trim_matches('"').to_string(), v);
        }
    }
    out
}

/// Run this workload untraced in a child process and return its
/// end-to-end metrics.
fn untraced_child(args: &Args) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(exe)
        .args(["--workload", args.workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("untraced child: {e}"))?;
    if !output.status.success() {
        return Err(format!("untraced child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    Ok(parse_metrics(last))
}

fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

/// The traced run's metrics: per-layer times, the exact counts, and
/// what tracing cost against the untraced child's end-to-end figures.
fn traced_metrics(
    out: &pipeline::Outcome,
    reference: &BTreeMap<String, f64>,
) -> Vec<(String, f64, &'static str)> {
    let mut m = out.layers.clone();
    m.extend(
        out.counts
            .iter()
            .map(|(k, &(v, unit))| (k.clone(), v, unit)),
    );
    let traced: BTreeMap<&str, f64> = out.e2e.iter().map(|&(n, v, _)| (n, v)).collect();
    let untraced = |name: &str| reference.get(name).copied().unwrap_or(f64::NAN);
    let pct = |t: f64, u: f64| (t - u) / u * 100.0;
    // Throughput is inverted so every overhead is extra time.
    let overheads = [
        (
            "trace.train_overhead_pct",
            pct(traced["train_s"], untraced("train_s")),
        ),
        (
            "trace.scan_overhead_pct",
            pct(
                1.0 / traced["scan_docs_per_s"],
                1.0 / untraced("scan_docs_per_s"),
            ),
        ),
        (
            "trace.warm_overhead_pct",
            pct(traced["warm_start_ms"], untraced("warm_start_ms")),
        ),
        (
            "trace.cycle_overhead_pct",
            pct(traced["cycle_ms"], untraced("cycle_ms")),
        ),
    ];
    m.extend(overheads.into_iter().map(|(n, v)| (n.to_string(), v, "%")));
    let layers_ms = out
        .layers
        .iter()
        .find(|(n, _, _)| n == "trace.cycle_layers_ms")
        .map_or(0.0, |l| l.1);
    let cycle = untraced("cycle_ms");
    m.push((
        "trace.cycle_residual_pct".to_string(),
        (cycle - layers_ms) / cycle * 100.0,
        "%",
    ));
    m
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: --workload scan_batch|serve_read|watch_ingest --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    // One CPU, one thread: see `pin.rs` and `pipeline::THREADS`.
    if let Err(e) = pin::pin_to_one_cpu() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    std::env::set_var("ETAP_THREADS", pipeline::THREADS.to_string());

    let root = PathBuf::from(".bench_build").join("perfbench");
    let reference = if args.trace {
        match untraced_child(&args) {
            Ok(m) => Some(m),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        None
    };
    let workdir = root.join(format!("run-{}-{}", args.workload.name, std::process::id()));
    let result = pipeline::run(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        process_start,
        &workdir,
    );
    let _ = std::fs::remove_dir_all(&workdir);
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name);
            return ExitCode::from(2);
        }
    };

    // Exact counts repeat for a seed: across runs of one mode, and
    // between the traced run and its untraced child.
    if let Err(e) = check_counts(&counts_path(&root, &args, args.trace), &out.counts) {
        out.tally.check(false, &e);
    }
    if args.trace {
        let child = std::fs::read_to_string(counts_path(&root, &args, false))
            .map(|t| parse_counts(&t))
            .unwrap_or_default();
        let shared_equal = child
            .iter()
            .all(|(k, v)| out.counts.get(k).is_none_or(|(mine, _)| mine == v));
        out.tally.check(
            shared_equal,
            "counts differ between the traced and untraced run",
        );
    }

    let metrics = match &reference {
        Some(reference) => {
            let dir = root.join("traces");
            let _ = std::fs::create_dir_all(&dir);
            let _ = std::fs::write(
                dir.join(format!("{}-seed{}.tsv", args.workload.name, args.seed)),
                &out.spans,
            );
            let metrics = traced_metrics(&out, reference);
            let residual = metrics
                .iter()
                .find(|(n, _, _)| n == "trace.cycle_residual_pct")
                .map_or(f64::NAN, |m| m.1);
            out.tally.check(
                residual.abs() <= CYCLE_RESIDUAL_BOUND_PCT,
                &format!(
                    "trace: cycle layers leave a residual of {residual:.1}% of the untraced \
                     cycle_ms, outside ±{CYCLE_RESIDUAL_BOUND_PCT}%"
                ),
            );
            metrics
        }
        None => out
            .e2e
            .iter()
            .map(|(n, v, u)| ((*n).to_string(), *v, *u))
            .collect(),
    };

    let correct = out.tally.failed == 0;
    eprintln!(
        "perfbench {} seed {} ({} s, trace {}): {} operations, {} failed",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        out.tally.attempted,
        out.tally.failed
    );
    for f in &out.tally.failures {
        eprintln!("  FAILED {f}");
    }
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<36} {value:>14.4} {unit}");
    }
    println!(
        "{}",
        json_line(correct, out.tally.attempted, out.tally.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
