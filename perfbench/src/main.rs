//! `perfbench` — one seeded command that runs a workload of the SNAPLE
//! workspace and prints its end-to-end metrics (`--trace 0`) or, from a
//! separate traced run, its per-layer metrics (`--trace 1`).
//!
//! ```text
//! perfbench --workload batch-all|serve-point|serve-churn --seed N --seconds S --trace 0|1
//! perfbench --print-benchmark-json
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Everything the run
//! writes lives under `.bench_work/` in the current directory.

mod host;
mod inputs;
mod probes;
mod quiet;
mod registry;
mod report;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use snaple_core::ScorePlan;
use snaple_gas::ClusterSpec;

use inputs::{Inputs, QueryChoice, PLAN};
use report::{median, quantile, Kind, Report};
use trace::{durations, Span, Tracer};
use workloads::{Ctx, Outcome};

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = registry::RUN_SECONDS as f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--print-benchmark-json" {
            print!("{}", registry::benchmark_json());
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    registry::workload(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?
                        .name,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace,
    }))
}

fn generate(args: &Args) -> Inputs {
    match args.workload {
        "batch-all" => Inputs::generate(
            args.seed,
            QueryChoice::ByDegree,
            64,
            workloads::BATCH_UPDATES,
        ),
        "serve-point" => Inputs::generate(
            args.seed,
            QueryChoice::ByDegree,
            20_000,
            workloads::POINT_UPDATES,
        ),
        _ => Inputs::generate(args.seed, QueryChoice::Uniform, 20_000, 1_000),
    }
}

fn end_to_end(out: &Outcome) -> Report {
    let quiet = quiet::quiet(&out.windows);
    // serve-churn's updates run inside the window; the other workloads
    // apply theirs outside it, after each window slice and restart.
    let update_s = if quiet.update_s.is_empty() {
        &out.update_s
    } else {
        &quiet.update_s
    };
    let mut r = Report::new(Kind::EndToEnd);
    let setup = quiet::quietest(&out.setup_s);
    r.set("setup_s", median(&setup), Some(setup.len()));
    r.set(
        "predict_p50_ms",
        median(&quiet.predict_s) * 1e3,
        Some(quiet.predict_s.len()),
    );
    r.set(
        "rows_per_s",
        quiet.rows as f64 / quiet.seconds,
        Some(quiet.predict_s.len()),
    );
    r.set(
        "update_p50_ms",
        median(update_s) * 1e3,
        Some(update_s.len()),
    );
    let recover = quiet::quietest(&out.recover_s);
    r.set("recover_s", median(&recover), Some(recover.len()));
    r.set("peak_rss_mb", median(&out.peaks), Some(out.peaks.len()));
    r.set("recall", out.recall.value(), Some(out.recall.held as usize));
    r
}

/// Fills the span-derived per-layer metrics into `layers`.
fn per_layer(spans: &[Span], layers: &mut Report) {
    let ms = |name: &str| {
        let d = durations(spans, name);
        (median(&d) * 1e3, d.len())
    };
    let timed = [
        ("graph.open_ms", "graph.open"),
        ("graph.first_touch_ms", "graph.first_touch"),
        ("graph.to_csr_ms", "graph.to_csr"),
        ("graph.compact_ms", "graph.compact"),
        ("gas.deploy_ms", "gas.deploy"),
        ("gas.detach_ms", "gas.detach"),
        ("gas.apply_delta_first_ms", "gas.apply_delta_first"),
        ("gas.apply_delta_ms", "gas.apply_delta"),
        ("core.prepare_ms", "core.prepare"),
        ("core.execute_all_ms", "core.execute_all"),
        ("core.combined_ms", "core.combined"),
        ("core.execute_point_ms", "core.execute_point"),
        ("core.execute_floor_ms", "core.execute_floor"),
        ("core.fork_ms", "core.fork"),
        ("concurrent.submit_ms", "concurrent.submit"),
        ("concurrent.wait_ms", "concurrent.wait"),
        ("concurrent.update_ms", "concurrent.update"),
        ("store.seed_ms", "store.seed"),
        ("store.record_ms", "store.record"),
        ("store.recover_open_ms", "store.recover_open"),
        ("store.replay_ms", "store.replay"),
    ];
    for (metric, span) in timed {
        let (v, n) = ms(span);
        layers.set(metric, v, Some(n));
    }
    let ingest = durations(spans, "graph.ingest");
    layers.set("graph.ingest_s", median(&ingest), Some(ingest.len()));
    let standup = durations(spans, "shard.standup");
    layers.set("shard.standup_s", median(&standup), Some(standup.len()));

    let ratio = |num: &str, den: &str| ms(num).0 / ms(den).0;
    layers.set(
        "core.floor_share_of_execute",
        ratio("core.execute_floor", "core.execute_point"),
        Some(ms("core.execute_floor").1),
    );
    layers.set(
        "core.server_overhead_share",
        ratio("core.server_serve", "core.execute_bare") - 1.0,
        Some(ms("core.server_serve").1),
    );
    layers.set(
        "shard.route_overhead_share",
        ratio("shard.route_probe", "core.execute_inproc") - 1.0,
        Some(ms("shard.route_probe").1),
    );

    // Routed latency under the serve-point window's load where there is
    // one, else from the probe's sequential requests.
    let served = match durations(spans, "shard.serve") {
        d if d.is_empty() => durations(spans, "shard.route_probe"),
        d => d,
    };
    layers.set("shard.serve_ms", median(&served) * 1e3, Some(served.len()));
    layers.set(
        "shard.predict_p95_ms",
        quantile(&served, 0.95) * 1e3,
        Some(served.len()),
    );
    layers.set("shard.predict_samples", served.len() as f64, None);
    for (p95, samples, span) in [
        (
            "concurrent.predict_p95_ms",
            "concurrent.predict_samples",
            "concurrent.request",
        ),
        (
            "concurrent.update_p95_ms",
            "concurrent.update_samples",
            "concurrent.update",
        ),
    ] {
        let d = durations(spans, span);
        layers.set(p95, quantile(&d, 0.95) * 1e3, Some(d.len()));
        layers.set(samples, d.len() as f64, None);
    }
}

fn self_time_table(spans: &[Span]) -> String {
    let layers = trace::layer_self_seconds(spans);
    let total: f64 = layers.values().map(|(s, _)| s).sum();
    let mut out = format!(
        "{:<12} {:>8} {:>12} {:>8}\n",
        "layer", "spans", "self_s", "share"
    );
    for (layer, (secs, n)) in layers {
        out.push_str(&format!(
            "{layer:<12} {n:>8} {secs:>12.4} {:>8.3}\n",
            secs / total.max(1e-12)
        ));
    }
    out
}

/// Window wall time per operation of an untraced run of the same
/// workload and seed in a child process, for the tracing overhead.
fn untraced_seconds_per_op(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("untraced run: {e}"))?;
    if !output.status.success() {
        return Err(format!("untraced run exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("window: seconds_per_op="))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .ok_or_else(|| "untraced run printed no window line".to_owned())
}

/// Runs the workload in a scratch directory of its own, removed
/// afterwards whatever the outcome.
fn run(args: &Args) -> Result<String, String> {
    let baseline = if args.trace {
        Some(untraced_seconds_per_op(args)?)
    } else {
        None
    };
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = measure(args, baseline, work.clone());
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn measure(args: &Args, baseline: Option<f64>, work: PathBuf) -> Result<String, String> {
    let ticks = host::CpuTicks::now();
    let inputs = generate(args);
    // The generator's own copies are gone; what follows is the program.
    if let Err(e) = host::reset_peak_rss() {
        println!("peak_rss_reset: FAILED ({e}); peak_rss_mb includes input generation");
    } else {
        println!("peak_rss_reset: ok");
    }
    let ctx = Ctx {
        workload: args.workload,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        work,
        plan: ScorePlan::parse(PLAN).map_err(|e| e.to_string())?,
        cluster: ClusterSpec::type_ii(4),
        inputs,
    };
    let outcome = match args.workload {
        "batch-all" => workloads::batch_all(&ctx),
        "serve-point" => workloads::serve_point(&ctx),
        _ => workloads::serve_churn(&ctx),
    };
    let outcome = outcome?;
    let steal = host::CpuTicks::now().steal_share_since(&ticks);
    let seconds_per_op = outcome.window_s / outcome.window_ops.max(1) as f64;

    println!("{}", host::fingerprint(steal));
    println!(
        "operations: workload={} attempted={} failed={}",
        args.workload, outcome.tally.attempted, outcome.tally.failed
    );
    let quiet = quiet::quiet(&outcome.windows);
    println!(
        "window: seconds_per_op={seconds_per_op:.9} ops={} seconds={:.3} raw_p50_ms={:.3} \
         raw_rows_per_s={:.2} steal_share={:.4} quiet_blocks={}/{} quiet_steal_share={:.4}",
        outcome.window_ops,
        outcome.window_s,
        median(&outcome.predict_s) * 1e3,
        outcome.rows as f64 / outcome.window_s,
        quiet.all_steal,
        quiet.kept,
        quiet.blocks,
        quiet.kept_steal,
    );
    let report = if args.trace {
        let spans = ctx.tracer.spans();
        let trace_path = PathBuf::from(".bench_work")
            .join(format!("trace-{}-{}.json", args.workload, args.seed));
        trace::write_chrome_trace(&spans, &trace_path)
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        println!(
            "trace: {} spans written to {}",
            spans.len(),
            trace_path.display()
        );
        print!("{}", self_time_table(&spans));
        let mut layers = outcome.layers;
        per_layer(&spans, &mut layers);
        layers.set("host.steal_share", steal, None);
        let overhead = seconds_per_op / baseline.unwrap_or(seconds_per_op) - 1.0;
        layers.set("bench.trace_overhead_share", overhead, None);
        println!("bench.trace_overhead_share={overhead:.4}");
        layers
    } else {
        end_to_end(&outcome)
    };
    print!("{}", report.table());
    report.result_line(outcome.tally)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Metric names the workloads and probes set directly: every string
    /// literal passed as the first argument of a `.set(` call.
    fn names_set_in(source: &str) -> BTreeSet<String> {
        let mut names = BTreeSet::new();
        for chunk in source.split(".set(").skip(1) {
            let chunk = chunk.trim_start();
            if let Some(rest) = chunk.strip_prefix('"') {
                if let Some(end) = rest.find('"') {
                    names.insert(rest[..end].to_owned());
                }
            }
        }
        names
    }

    #[test]
    fn printed_names_and_the_registry_agree() {
        let mut layers = Report::new(Kind::PerLayer);
        per_layer(&[], &mut layers);
        layers.set("host.steal_share", 0.0, None);
        layers.set("bench.trace_overhead_share", 0.0, None);
        let direct = names_set_in(include_str!("workloads.rs"))
            .into_iter()
            .chain(names_set_in(include_str!("probes.rs")));
        for name in direct {
            assert!(
                registry::per_layer(&name).is_some(),
                "{name} is set but not registered"
            );
            layers.set(&name, 0.0, None);
        }
        for m in registry::PER_LAYER {
            assert!(
                layers.get(m.name).is_some(),
                "{} is registered but never set",
                m.name
            );
        }

        let e2e = end_to_end(&workloads::Outcome::new());
        for m in registry::END_TO_END {
            assert!(
                e2e.get(m.name).is_some(),
                "{} is registered but never set",
                m.name
            );
        }
    }
}
