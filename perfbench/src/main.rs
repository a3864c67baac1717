//! The repository's benchmark: three workloads, each a fixed, seeded list
//! of operations run in whole passes, timed from outside by calling each
//! layer's public functions (or, for serve-hot, the server's HTTP API).
//!
//! ```text
//! perfbench --spire <path to spire binary> --workload <name> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed`, and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer ones with `--trace 1`. The line before it is the run's
//! fingerprint. See README.md for every name and unit.

mod inproc;
mod matrix;
mod oracle;
mod passes;
mod serve;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use qcirc::json::Json;

use crate::inproc::Workload;
use crate::trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Where traced runs write their spans, relative to the checkout root.
const WORK_DIR: &str = ".perfbench-work";

/// The workloads, with the seconds one pass takes on the reference box
/// (2-core x86-64). A run is `ceil(seconds / pass_s)` whole passes: the op
/// list is fixed by `--seconds` and `--seed`, never cut by a timer.
const WORKLOADS: [(&str, f64); 3] = [
    ("compile-matrix", 0.7),
    ("circuit-passes", 0.65),
    ("serve-hot", 0.008),
];

const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Every per-layer metric, printed by every `--trace 1` run (0 where the
/// workload gives the layer no work).
const PER_LAYER: &[(&str, &str)] = &[
    ("tower.parse.busy_s", "s"),
    ("tower.inline.busy_s", "s"),
    ("tower.lower.busy_s", "s"),
    ("tower.typecheck.busy_s", "s"),
    ("spire.optimize.busy_s", "s"),
    ("spire.recheck.busy_s", "s"),
    ("spire.expand.busy_s", "s"),
    ("spire.layout.busy_s", "s"),
    ("spire.select.busy_s", "s"),
    ("spire.cost.busy_s", "s"),
    ("spire.emit.busy_s", "s"),
    ("tower.lower.core_stmts", "count"),
    ("spire.optimize.stmts_after", "count"),
    ("spire.layout.qubits", "count"),
    ("spire.select.instrs", "count"),
    ("spire.emit.mcx_gates", "count"),
    ("spire.cost.t_count", "count"),
    ("qcirc.decompose.busy_s", "s"),
    ("qcirc.decompose.clifford_t_gates", "count"),
    ("qopt.adjacent-cancel.busy_s", "s"),
    ("qopt.peephole.busy_s", "s"),
    ("qopt.phase-fold.busy_s", "s"),
    ("qopt.zx-graphlike.busy_s", "s"),
    ("qopt.feynman-tocliffordt.busy_s", "s"),
    ("qopt.feynman-mctexpand.busy_s", "s"),
    ("qopt.global-resynth.busy_s", "s"),
    ("qopt.adjacent-cancel.t_count_out", "count"),
    ("qopt.peephole.t_count_out", "count"),
    ("qopt.phase-fold.t_count_out", "count"),
    ("qopt.zx-graphlike.t_count_out", "count"),
    ("qopt.feynman-tocliffordt.t_count_out", "count"),
    ("qopt.feynman-mctexpand.t_count_out", "count"),
    ("qopt.global-resynth.t_count_out", "count"),
    ("verify.check_circuit.busy_s", "s"),
    ("verify.check_ancillas.busy_s", "s"),
    ("verify.t_bounds.busy_s", "s"),
    ("verify.check_compiled.busy_s", "s"),
    ("verify.diagnostics", "count"),
    ("qcirc.sim.busy_s", "s"),
    ("qcirc.sim.gates", "count"),
    ("serve.unattributed_share", "ratio"),
    ("serve.event_loop.busy_share", "ratio"),
    ("serve.event_loop.ticks_per_req", "count"),
    ("serve.server.latency_mean_us", "us"),
    ("serve.client.latency_mean_us", "us"),
    ("serve.memo.hit_share", "ratio"),
    ("serve.cache.hit_rate", "ratio"),
    ("serve.memory.resident_bytes", "bytes"),
    ("bench.failed_op_share", "ratio"),
    ("bench.layer_coverage", "ratio"),
    ("bench.trace_overhead", "ratio"),
];

struct Args {
    spire: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let workload = flag("--workload")?.to_string();
    if !WORKLOADS.iter().any(|(name, _)| *name == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    let trace = match flag("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(Args {
        spire: PathBuf::from(flag("--spire")?),
        workload,
        seed: flag("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: flag("--seconds")?
            .parse()
            .ok()
            .filter(|s: &f64| *s > 0.0)
            .ok_or("--seconds takes a positive number")?,
        trace,
    })
}

/// What a run reports.
struct Outcome {
    attempted: usize,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// The end-to-end metrics of one untraced run of whole passes of
/// `per_pass` ops each. `ops_per_s` is a pass's ops over the lower-quartile
/// pass wall time, which includes whatever concurrency the workload has;
/// host slowdowns only ever lengthen a pass, and the lower quartile holds
/// until they cover three quarters of a run. The percentiles are over
/// every op of every pass.
fn end_to_end(
    latencies_us: &[f64],
    pass_s: &[f64],
    per_pass: usize,
    peak_rss_mb: f64,
    setup_s: f64,
) -> BTreeMap<String, f64> {
    let mut all = latencies_us.to_vec();
    all.sort_by(f64::total_cmp);
    let mut passes = pass_s.to_vec();
    passes.sort_by(f64::total_cmp);
    BTreeMap::from([
        (
            "ops_per_s".to_string(),
            per_pass as f64 / util::percentile(&passes, 0.25),
        ),
        ("op_p50_us".to_string(), util::percentile(&all, 0.50)),
        ("op_p99_us".to_string(), util::percentile(&all, 0.99)),
        ("peak_rss_mb".to_string(), peak_rss_mb),
        ("setup_s".to_string(), setup_s),
    ])
}

fn write_trace(args: &Args, tracer: &Tracer) {
    let path = Path::new(WORK_DIR).join(format!("{}-seed{}.trace.json", args.workload, args.seed));
    let written = std::fs::create_dir_all(WORK_DIR)
        .and_then(|()| std::fs::write(&path, tracer.to_chrome_json()));
    match written {
        Ok(()) => eprintln!("trace written to {}", path.display()),
        Err(e) => eprintln!("writing {}: {e}", path.display()),
    }
}

fn run_inproc<W: Workload>(
    args: &Args,
    passes: usize,
    make: impl Fn() -> W,
) -> Result<Outcome, String> {
    let (mut w, setup_s, warm_failed) = inproc::set_up(SETUP_REPS, make);
    println!(
        "{}",
        Json::obj()
            .field(
                "fingerprint",
                util::fingerprint(
                    &args.workload,
                    args.seed,
                    &inproc::op_list_hash(&w),
                    passes * w.len()
                ),
            )
            .build()
    );
    if !args.trace {
        let m = inproc::measure(&mut w, passes, None);
        let rss = util::peak_rss_mb("self").ok_or("reading VmHWM")?;
        return Ok(Outcome {
            attempted: m.latencies_us.len(),
            failed: m.failed + warm_failed,
            metrics: end_to_end(&m.latencies_us, &m.pass_s, w.len(), rss, setup_s),
        });
    }
    let half = passes / 2;
    let plain = inproc::measure(&mut w, half, None);
    let mut tracer = Tracer::new();
    let traced = inproc::measure(&mut w, half, Some(&mut tracer));
    write_trace(args, &tracer);
    let mut metrics = inproc::per_layer(&tracer, half, traced.wall_s);
    metrics.insert(
        "bench.trace_overhead".to_string(),
        traced.wall_s / plain.wall_s - 1.0,
    );
    Ok(Outcome {
        attempted: plain.latencies_us.len() + traced.latencies_us.len(),
        failed: plain.failed + traced.failed + warm_failed,
        metrics,
    })
}

fn run_serve(args: &Args, passes: usize) -> Result<Outcome, String> {
    let seed = args.seed;
    // 2 closed-loop connections: one per core of the reference box.
    let run = serve::ServeRun::set_up(&args.spire, seed, 2, SETUP_REPS)?;
    let (hash, ops) = run.op_list_hash(passes);
    println!(
        "{}",
        Json::obj()
            .field(
                "fingerprint",
                util::fingerprint(&args.workload, seed, &hash, ops),
            )
            .build()
    );
    let outcome = if args.trace {
        let half = passes / 2;
        let plain = run.measure(half, false);
        let before = run.metrics()?;
        let traced = run.measure(half, true);
        let after = run.metrics()?;
        write_trace(args, &traced.tracer);
        let mut metrics = serve::per_layer(&before, &after, &traced);
        metrics.insert(
            "bench.trace_overhead".to_string(),
            traced.wall_s / plain.wall_s - 1.0,
        );
        Outcome {
            attempted: plain.latencies_us.len() + traced.latencies_us.len(),
            failed: plain.failed + traced.failed + run.warm_failed,
            metrics,
        }
    } else {
        let m = run.measure(passes, false);
        let rss = run.peak_rss_mb().ok_or("reading the server's VmHWM")?;
        Outcome {
            attempted: m.latencies_us.len(),
            failed: m.failed + run.warm_failed,
            metrics: end_to_end(&m.latencies_us, &m.pass_s, run.per_pass(), rss, run.setup_s),
        }
    };
    Ok(outcome)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let pass_s = WORKLOADS
        .iter()
        .find(|(name, _)| *name == args.workload)
        .map(|(_, s)| *s)
        .expect("validated workload");
    let passes = ((args.seconds / pass_s).ceil() as usize).max(1);
    // A traced run measures the same passes twice: untraced, then traced.
    let passes = if args.trace {
        2 * (passes / 2).max(1)
    } else {
        passes
    };
    let seed = args.seed;
    match args.workload.as_str() {
        "compile-matrix" => {
            let oracle = oracle::Oracle::load();
            run_inproc(args, passes, || matrix::CompileMatrix::new(seed, &oracle))
        }
        "circuit-passes" => {
            let oracle = oracle::Oracle::load();
            run_inproc(args, passes, || passes::CircuitPasses::new(seed, &oracle))
        }
        _ => run_serve(args, passes),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names: &[(&str, &str)] = if args.trace { PER_LAYER } else { &END_TO_END };
    if args.trace {
        let share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
        outcome
            .metrics
            .insert("bench.failed_op_share".to_string(), share);
    }
    let metrics = names.iter().map(|(name, unit)| {
        let value = outcome.metrics.get(*name).copied().unwrap_or(0.0);
        (
            (*name).to_string(),
            Json::obj()
                .field("value", value)
                .field("unit", *unit)
                .build(),
        )
    });
    let result = Json::obj()
        .field("correct", outcome.failed == 0)
        .field("attempted", outcome.attempted)
        .field("failed", outcome.failed)
        .field("metrics", Json::Object(metrics.collect()))
        .build();
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric and workload names printed here are the ones
    /// `BENCHMARK.json` declares, with the same units, in the same order.
    #[test]
    fn names_match_benchmark_json() {
        let doc = qcirc::json::parse(include_str!("../../BENCHMARK.json")).expect("parses");
        let list = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("array")
                .iter()
                .map(|m| {
                    m.get(field)
                        .and_then(Json::as_str)
                        .expect("string")
                        .to_string()
                })
                .collect()
        };
        let ours = |metrics: &[(&str, &str)], i: usize| -> Vec<String> {
            metrics.iter().map(|m| [m.0, m.1][i].to_string()).collect()
        };
        assert_eq!(list("end_to_end", "name"), ours(&END_TO_END, 0));
        assert_eq!(list("end_to_end", "unit"), ours(&END_TO_END, 1));
        assert_eq!(list("per_layer", "name"), ours(PER_LAYER, 0));
        assert_eq!(list("per_layer", "unit"), ours(PER_LAYER, 1));
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.0.to_string()).collect();
        assert_eq!(list("workloads", "name"), workloads);
    }
}
