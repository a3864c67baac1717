//! The in-process workloads' shared runner: a fixed, seeded op list run in
//! whole passes on the benchmark's own thread.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::trace::Tracer;
use crate::util::{self, ListHash};

/// One in-process workload: its op list, the product-path call per op,
/// the same call made stage by stage under spans, and the oracle.
pub trait Workload {
    type Output;
    /// Ops in one pass.
    fn len(&self) -> usize;
    /// A stable description of op `i`, hashed into the op-list fingerprint.
    fn describe(&self, i: usize) -> String;
    /// Op `i` through the public entry points a user calls.
    fn run(&self, i: usize) -> Result<Self::Output, String>;
    /// Op `i` with a span around each layer call.
    fn run_traced(&self, i: usize, t: &mut Tracer) -> Result<Self::Output, String>;
    /// Whether op `i`'s output is right; work counts go to `t` if given.
    fn check(&mut self, i: usize, out: &Self::Output, t: Option<&mut Tracer>) -> bool;
}

/// What a run of whole passes measured.
pub struct Measured {
    pub latencies_us: Vec<f64>,
    /// Wall time of each pass.
    pub pass_s: Vec<f64>,
    pub wall_s: f64,
    pub failed: u64,
}

/// Run `passes` whole passes; traced when `tracer` is given.
pub fn measure<W: Workload>(w: &mut W, passes: usize, mut tracer: Option<&mut Tracer>) -> Measured {
    let mut latencies_us = Vec::with_capacity(passes * w.len());
    let mut pass_s = Vec::with_capacity(passes);
    let mut failed = 0;
    let start = Instant::now();
    for _ in 0..passes {
        let pass_start = Instant::now();
        for i in 0..w.len() {
            let t0 = Instant::now();
            let out = match tracer.as_deref_mut() {
                Some(t) => t.op(|t| w.run_traced(i, t)),
                None => w.run(i),
            };
            latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let ok = match &out {
                Ok(out) => {
                    let ok = w.check(i, out, tracer.as_deref_mut());
                    if !ok {
                        eprintln!("op {} gave a wrong answer", w.describe(i));
                    }
                    ok
                }
                Err(e) => {
                    eprintln!("op {} failed: {e}", w.describe(i));
                    false
                }
            };
            failed += u64::from(!ok);
            std::hint::black_box(out.is_ok());
        }
        pass_s.push(pass_start.elapsed().as_secs_f64());
    }
    Measured {
        latencies_us,
        pass_s,
        wall_s: start.elapsed().as_secs_f64(),
        failed,
    }
}

pub fn op_list_hash<W: Workload>(w: &W) -> String {
    let mut hash = ListHash::new();
    for i in 0..w.len() {
        hash.add(&w.describe(i));
    }
    hash.hex()
}

/// Set-up, repeated `reps` times with the median reported: build the
/// inputs, then one untimed warm pass. Returns the last set-up's workload.
pub fn set_up<W: Workload>(reps: usize, make: impl Fn() -> W) -> (W, f64, u64) {
    let mut times = Vec::new();
    let mut last = None;
    let mut warm_failed = 0;
    for _ in 0..reps {
        // One set of inputs at a time: free the previous set-up's first.
        drop(last.take());
        let start = Instant::now();
        let mut w = make();
        warm_failed = measure(&mut w, 1, None).failed;
        times.push(start.elapsed().as_secs_f64());
        last = Some(w);
    }
    (
        last.expect("at least one set-up"),
        util::median(&times),
        warm_failed,
    )
}

/// The per-layer numbers of a traced run, per pass: each span's self time
/// as `<span>.busy_s` and each work counter under its own name.
pub fn per_layer(tracer: &Tracer, passes: usize, traced_wall_s: f64) -> BTreeMap<String, f64> {
    let per_pass = passes as f64;
    let mut out = BTreeMap::new();
    for (name, seconds) in tracer.self_seconds() {
        if name != crate::trace::OP {
            out.insert(format!("{name}.busy_s"), seconds / per_pass);
        }
    }
    for (name, count) in tracer.counts() {
        out.insert((*name).to_string(), *count as f64 / per_pass);
    }
    out.insert(
        "bench.layer_coverage".to_string(),
        tracer.layer_seconds() / traced_wall_s,
    );
    out
}
