//! `serve-hot`: `spire serve` in its own process, driven over HTTP by
//! closed-loop keep-alive connections from this process.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Barrier;
use std::time::Instant;

use bench_suite::programs::all_benchmarks;
use qcirc::json::{self, Json};
use spire_serve::http::client_roundtrip_keepalive;

use crate::oracle::Oracle;
use crate::trace::Tracer;
use crate::util::{seeded_order, ListHash};

/// The loadtest's `/simulate` probe program.
const COUNT_SOURCE: &str = r"
fun count[n](acc: uint, flag: bool) -> uint {
    if flag {
        let r <- acc + 1;
        let out <- count[n-1](r, flag);
    } else {
        let out <- acc;
    }
    return out;
}
";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Compile,
    Check,
    Simulate,
}

/// One request and what its response must say.
pub struct Request {
    kind: Kind,
    describe: String,
    body: String,
    /// `/compile`: (MCX, T) from Table 1.
    counts: (Option<u64>, u64),
    /// `/check`: the golden report.
    report: Option<Json>,
}

impl Request {
    fn span(&self) -> &'static str {
        match self.kind {
            Kind::Compile => "client.compile",
            Kind::Check => "client.check",
            Kind::Simulate => "client.simulate",
        }
    }

    fn path(&self) -> &'static str {
        match self.kind {
            Kind::Compile => "/compile",
            Kind::Check => "/check",
            Kind::Simulate => "/simulate",
        }
    }
}

fn body(source: &str, entry: &str, depth: i64, optimized: bool) -> Json {
    Json::obj()
        .field("source", source)
        .field("entry", entry)
        .field("depth", depth)
        .field("opt", if optimized { "spire" } else { "none" })
        .build()
}

fn compile_request(
    oracle: &Oracle,
    name: &str,
    source: &str,
    entry: &str,
    depth: i64,
    optimized: bool,
) -> Request {
    let row = oracle.table1(name);
    Request {
        kind: Kind::Compile,
        describe: format!("compile {name} {depth} spire={optimized}"),
        body: body(source, entry, depth, optimized).to_string(),
        counts: (row.mcx(depth, optimized), row.t(depth, optimized)),
        report: None,
    }
}

fn check_request(oracle: &Oracle, name: &str, source: &str, entry: &str, depth: i64) -> Request {
    Request {
        kind: Kind::Check,
        describe: format!("check {name} {depth}"),
        body: body(source, entry, depth, true).to_string(),
        counts: (None, 0),
        report: Some(oracle.golden_report(name).clone()),
    }
}

/// serve-hot's one pass, cycled by every run: the 12 benchmarks at depth
/// 3 (`pop_front` at 0), each 8× on `/compile` (80%) and once on `/check`
/// (10%), plus 12 `/simulate`s of `count` at depth 4 (10%), in composition
/// order.
pub fn hot_pass(oracle: &Oracle) -> Vec<Request> {
    let mut requests = Vec::new();
    for b in all_benchmarks() {
        let depth = if b.constant { 0 } else { 3 };
        for _ in 0..8 {
            requests.push(compile_request(
                oracle, b.name, &b.source, b.entry, depth, true,
            ));
        }
        requests.push(check_request(oracle, b.name, &b.source, b.entry, depth));
        let simulate = Json::obj()
            .field("source", COUNT_SOURCE)
            .field("entry", "count")
            .field("depth", 4i64)
            .field("inputs", Json::obj().field("flag", 1u64).field("acc", 0u64))
            .build();
        requests.push(Request {
            kind: Kind::Simulate,
            describe: "simulate count 4".to_string(),
            body: simulate.to_string(),
            counts: (None, 0),
            report: None,
        });
    }
    requests
}

/// A `spire serve` child process; killed and reaped on drop.
struct Server {
    child: Child,
    addr: String,
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Start the server with its default configuration and block until it
    /// prints its `listening on` line.
    fn start(spire: &Path) -> Result<Server, String> {
        let mut child = Command::new(spire)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", spire.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        loop {
            line.clear();
            if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("server exited before listening".to_string());
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                let addr = rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
                return Ok(Server {
                    child,
                    addr,
                    _stdout: stdout,
                });
            }
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn metrics(&self) -> Result<Json, String> {
        let mut conn = TcpStream::connect(&self.addr).map_err(|e| e.to_string())?;
        let (status, body, _) = client_roundtrip_keepalive(&mut conn, "GET", "/metrics", None)
            .map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("/metrics answered {status}"));
        }
        json::parse(&String::from_utf8_lossy(&body)).map_err(|e| format!("/metrics: {e:?}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What one closed-loop run measured.
pub struct Measured {
    pub latencies_us: Vec<f64>,
    /// Wall time of each pass, from the moment every connection starts it
    /// to the moment the last one has its final reply.
    pub pass_s: Vec<f64>,
    pub wall_s: f64,
    pub failed: u64,
    /// Responses whose `served` is not `compiled`.
    pub memo_hits: u64,
    pub tracer: Tracer,
}

fn check_response(
    r: &Request,
    status: u16,
    body: &[u8],
    sim: &mut Option<Json>,
) -> Result<bool, String> {
    if status != 200 {
        return Err(format!("{} answered {status}", r.describe));
    }
    let doc = json::parse(&String::from_utf8_lossy(body)).map_err(|e| format!("{e:?}"))?;
    let hit = doc.get("served").and_then(Json::as_str) != Some("compiled");
    let ok = match r.kind {
        Kind::Compile => {
            let mcx = doc.get("mcx_complexity").and_then(Json::as_u64);
            r.counts.0.is_none_or(|expected| mcx == Some(expected))
                && doc.get("t_complexity").and_then(Json::as_u64) == Some(r.counts.1)
        }
        Kind::Check => doc.get("report").map(crate::oracle::entry_only) == r.report,
        // A classical input on a classical program: one basis state, and
        // the same answer every time.
        Kind::Simulate => match doc.get("vars") {
            Some(vars) => {
                doc.get("support").and_then(Json::as_u64) == Some(1)
                    && sim.get_or_insert_with(|| vars.clone()) == vars
            }
            None => false,
        },
    };
    if !ok {
        return Err(format!("{} gave a wrong answer", r.describe));
    }
    Ok(hit)
}

/// One connection's share of a run: its replies' latencies, and when it
/// began and finished each pass (seconds since the run's start).
struct Connection {
    latencies_us: Vec<f64>,
    spans: Vec<(f64, f64)>,
    failed: u64,
    memo_hits: u64,
    tracer: Tracer,
}

/// Run `passes` passes of `pass` over `conns` keep-alive connections, each
/// closed-loop: request `i` of a pass goes to connection `i % conns`, which
/// sends it once its previous reply is in. All connections start a pass
/// together.
fn drive(addr: &str, pass: &[Request], passes: usize, conns: usize, traced: bool) -> Measured {
    let start = Instant::now();
    let barrier = Barrier::new(conns);
    let results: Vec<Connection> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..conns)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut m = Connection {
                        latencies_us: Vec::new(),
                        spans: Vec::new(),
                        failed: 0,
                        memo_hits: 0,
                        tracer: Tracer::on_thread(start, c as u64 + 1),
                    };
                    let mut sim = None;
                    let mut conn: Option<TcpStream> = None;
                    for _ in 0..passes {
                        barrier.wait();
                        let begin = start.elapsed().as_secs_f64();
                        for r in pass.iter().skip(c).step_by(conns) {
                            let stream = match conn.as_mut() {
                                Some(stream) => stream,
                                None => match TcpStream::connect(addr) {
                                    Ok(stream) => {
                                        let _ = stream.set_nodelay(true);
                                        conn.insert(stream)
                                    }
                                    Err(e) => {
                                        eprintln!("connect: {e}");
                                        m.failed += 1;
                                        continue;
                                    }
                                },
                            };
                            let t0 = Instant::now();
                            let reply = if traced {
                                m.tracer.op(|t| {
                                    t.span(r.span(), |_| {
                                        client_roundtrip_keepalive(
                                            stream,
                                            "POST",
                                            r.path(),
                                            Some(&r.body),
                                        )
                                    })
                                })
                            } else {
                                client_roundtrip_keepalive(stream, "POST", r.path(), Some(&r.body))
                            };
                            m.latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
                            let verdict = match reply {
                                Ok((status, body, keep_alive)) => {
                                    if !keep_alive {
                                        conn = None;
                                    }
                                    check_response(r, status, &body, &mut sim)
                                }
                                Err(e) => {
                                    conn = None;
                                    Err(format!("{}: {e}", r.describe))
                                }
                            };
                            match verdict {
                                Ok(hit) => m.memo_hits += u64::from(hit),
                                Err(e) => {
                                    eprintln!("{e}");
                                    m.failed += 1;
                                }
                            }
                        }
                        m.spans.push((begin, start.elapsed().as_secs_f64()));
                    }
                    m
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let pass_s = (0..passes)
        .map(|k| {
            let begin = results
                .iter()
                .map(|m| m.spans[k].0)
                .fold(f64::INFINITY, f64::min);
            let end = results.iter().map(|m| m.spans[k].1).fold(0.0, f64::max);
            end - begin
        })
        .collect();
    let mut measured = Measured {
        latencies_us: Vec::new(),
        pass_s,
        wall_s,
        failed: 0,
        memo_hits: 0,
        tracer: Tracer::new(),
    };
    for m in results {
        measured.latencies_us.extend(m.latencies_us);
        measured.failed += m.failed;
        measured.memo_hits += m.memo_hits;
        measured.tracer.merge(m.tracer);
    }
    measured
}

/// serve-hot, set up and ready to measure.
pub struct ServeRun {
    server: Server,
    pass: Vec<Request>,
    conns: usize,
    pub setup_s: f64,
    pub warm_failed: u64,
}

impl ServeRun {
    /// Set up `reps` times (fresh server, warm pass that touches every key)
    /// and keep the last one; `setup_s` is the median. The server is ready
    /// when it prints its `listening on` line: no sleeps, no polling, no
    /// connect retries. The warm pass runs in composition order, whatever
    /// the seed, so the keys are compiled, and the server's memory laid
    /// out, the same way in every run; the measured passes then run in the
    /// seeded order.
    pub fn set_up(spire: &Path, seed: u64, conns: usize, reps: usize) -> Result<ServeRun, String> {
        let mut times = Vec::new();
        let mut last = None;
        for _ in 0..reps {
            // One server at a time: stop the previous set-up's first.
            drop(last.take());
            let start = Instant::now();
            let mut pass = hot_pass(&Oracle::load());
            let server = Server::start(spire)?;
            let warm_failed = drive(&server.addr, &pass, 1, 1, false).failed;
            seeded_order(&mut pass, seed);
            times.push(start.elapsed().as_secs_f64());
            last = Some(ServeRun {
                server,
                pass,
                conns,
                setup_s: 0.0,
                warm_failed,
            });
        }
        let mut run = last.expect("at least one set-up");
        run.setup_s = crate::util::median(&times);
        Ok(run)
    }

    /// The hash of one pass's requests, in run order, and how many
    /// requests `passes` passes hold.
    pub fn op_list_hash(&self, passes: usize) -> (String, usize) {
        let mut hash = ListHash::new();
        for r in &self.pass {
            hash.add(&r.describe);
        }
        (hash.hex(), passes * self.pass.len())
    }

    pub fn per_pass(&self) -> usize {
        self.pass.len()
    }

    /// Run `passes` more whole passes.
    pub fn measure(&self, passes: usize, traced: bool) -> Measured {
        drive(&self.server.addr, &self.pass, passes, self.conns, traced)
    }

    pub fn peak_rss_mb(&self) -> Option<f64> {
        crate::util::peak_rss_mb(&self.server.pid())
    }

    pub fn metrics(&self) -> Result<Json, String> {
        self.server.metrics()
    }
}

fn number(doc: &Json, path: &[&str]) -> f64 {
    let mut node = Some(doc);
    for key in path {
        node = node.and_then(|n| n.get(key));
    }
    node.and_then(Json::as_f64).unwrap_or(0.0)
}

/// The serve layers' numbers over one traced run: `/metrics` deltas
/// (`before` → `after`) against the client's own timing.
pub fn per_layer(before: &Json, after: &Json, m: &Measured) -> BTreeMap<String, f64> {
    let delta = |path: &[&str]| number(after, path) - number(before, path);
    let latency_sum =
        |doc: &Json| number(doc, &["latency", "count"]) * number(doc, &["latency", "mean_us"]);
    let server_us = latency_sum(after) - latency_sum(before);
    let server_requests = delta(&["latency", "count"]);
    let client_us: f64 = m.latencies_us.iter().sum();
    let requests = m.latencies_us.len() as f64;
    let hits = delta(&["cache", "hits"]);
    let misses = delta(&["cache", "misses"]);
    let mut out = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        out.insert(name.to_string(), value);
    };
    put("serve.unattributed_share", 1.0 - server_us / client_us);
    put("bench.layer_coverage", server_us / client_us);
    put(
        "serve.server.latency_mean_us",
        server_us / server_requests.max(1.0),
    );
    put(
        "serve.client.latency_mean_us",
        client_us / requests.max(1.0),
    );
    put(
        "serve.event_loop.busy_share",
        delta(&["event_loop", "busy_ns"]) / (m.wall_s * 1e9),
    );
    put(
        "serve.event_loop.ticks_per_req",
        delta(&["event_loop", "ticks"]) / requests.max(1.0),
    );
    put(
        "serve.memo.hit_share",
        m.memo_hits as f64 / requests.max(1.0),
    );
    put("serve.cache.hit_rate", hits / (hits + misses).max(1.0));
    put(
        "serve.memory.resident_bytes",
        number(after, &["memory", "resident_bytes"]),
    );
    out
}
