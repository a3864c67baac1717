//! `circuit-passes`: the circuit layers on inputs compiled during set-up —
//! decomposition to Clifford+T, the seven `qopt` passes (the paper's
//! §8.3/Fig. 15b comparison), `check_compiled`, and sparse simulation.

use bench_suite::programs::all_benchmarks;
use bench_suite::sim_bench::{structured_workload, support_heavy_workload};
use qcirc::decompose::{mcx_to_toffoli, to_clifford_t};
use qcirc::sim::{Simulator, SparseState, SparseState256};
use qcirc::Circuit;
use qopt::CircuitOptimizer;
use spire::{check_compiled, compile_source, Compiled};
use spire_verify::{
    bound_function, bound_violations, check_ancillas, check_circuit, AncillaSpec, FunctionBounds,
    Report,
};
use tower::WordConfig;

use crate::inproc::Workload;
use crate::matrix::options;
use crate::oracle::Oracle;
use crate::trace::Tracer;
use crate::util::seeded_order;

/// Hadamards in the support-heavy simulation: the final support is
/// 2^(h + h/2) amplitudes. h = 10 (32768 amplitudes) takes ≈3 ms per run
/// on the reference box, inside the 10 ms op cap; h = 12 takes ≈39 ms.
const SUPPORT_HEAVY_H: u32 = 10;
const SUPPORT_HEAVY_QUBITS: u32 = 20;
const STRUCTURED_QUBITS: u32 = 192;

#[derive(Clone, Copy)]
enum Op {
    Decompose(usize),
    Optimize { pass: usize, input: usize },
    Verify(usize),
    Simulate(usize),
}

struct DecomposeInput {
    label: String,
    circuit: Circuit,
    t: u64,
}

struct OptimizeInput {
    label: String,
    circuit: Circuit,
    /// T count of the plain Clifford+T decomposition: no pass may exceed it.
    t_in: u64,
    /// `BENCH_optimizer.json`'s T count per pass, where it has one.
    pinned: bool,
}

struct VerifyInput {
    label: String,
    compiled: Compiled,
    entry: &'static str,
    expected: qcirc::json::Json,
}

struct SimInput {
    label: String,
    circuit: Circuit,
    support: usize,
}

pub enum Output {
    Gates { len: u64, t: u64 },
    Report(Report),
    State { norm: f64, support: usize },
}

pub struct CircuitPasses {
    ops: Vec<Op>,
    passes: Vec<Box<dyn CircuitOptimizer>>,
    pass_spans: Vec<(&'static str, &'static str)>,
    decompose: Vec<DecomposeInput>,
    optimize: Vec<OptimizeInput>,
    /// Per (pass, input): the BENCH_optimizer pin, else the first output.
    optimize_t: Vec<Vec<Option<u64>>>,
    verify: Vec<VerifyInput>,
    /// Whether the traced run's stage-by-stage verification reproduced
    /// `check_compiled`'s report on every input during set-up; if not, the
    /// traced run times `check_compiled` as a whole.
    verify_staged: bool,
    simulate: Vec<SimInput>,
}

fn compile(source: &str, entry: &str, depth: i64, optimized: bool) -> Compiled {
    compile_source(
        source,
        entry,
        depth,
        WordConfig::paper_default(),
        &options(optimized),
    )
    .unwrap_or_else(|e| panic!("set-up compile of {entry} at depth {depth}: {e}"))
}

impl CircuitPasses {
    pub fn new(seed: u64, oracle: &Oracle) -> CircuitPasses {
        let benches = all_benchmarks();
        let source = |name: &str| {
            let b = benches
                .iter()
                .find(|b| b.name == name)
                .expect("known benchmark");
            (b.source.as_str(), b.entry)
        };

        // Decomposition: every benchmark at depth 3, both configurations.
        // Set benchmarks run at depth 1: `insert` under `none` takes ≈84 ms
        // at depth 2 on the reference box, twice the next-largest op.
        let mut decompose = Vec::new();
        for bench in &benches {
            let depth = if bench.constant {
                0
            } else if bench.group == "Set" {
                1
            } else {
                3
            };
            for optimized in [true, false] {
                let circuit = compile(&bench.source, bench.entry, depth, optimized).emit();
                decompose.push(DecomposeInput {
                    label: format!("{} {depth} spire={optimized}", bench.name),
                    circuit,
                    t: oracle.table1(bench.name).t(depth, optimized),
                });
            }
        }

        // qopt: baseline circuits, the Fig. 15b programs at small sizes.
        let mut optimize_inputs: Vec<(&str, i64)> =
            (2..=10).map(|d| ("length-simple", d)).collect();
        optimize_inputs.extend([("pop_front", 0), ("length", 2), ("sum", 2)]);
        let optimize: Vec<OptimizeInput> = optimize_inputs
            .into_iter()
            .map(|(name, depth)| {
                let (src, entry) = source(name);
                let compiled = compile(src, entry, depth, false);
                OptimizeInput {
                    label: format!("{name} {depth}"),
                    circuit: compiled.emit(),
                    t_in: compiled.t_complexity(),
                    pinned: name == "length-simple" && depth == 10,
                }
            })
            .collect();
        let passes = qopt::registry();
        let pass_spans = passes
            .iter()
            .map(|p| {
                // Span and counter names are `&'static str`; these seven
                // live for the whole run anyway.
                let leak = |s: String| -> &'static str { Box::leak(s.into_boxed_str()) };
                (
                    leak(format!("qopt.{}", p.name())),
                    leak(format!("qopt.{}.t_count_out", p.name())),
                )
            })
            .collect();
        let optimize_t = passes
            .iter()
            .map(|p| {
                optimize
                    .iter()
                    .map(|input| input.pinned.then(|| oracle.optimizer_t(p.name())))
                    .collect()
            })
            .collect();

        // Verification: list, queue and string benchmarks at depth 3 against
        // the golden reports, and `contains` at depth 2 against Table 1.
        let mut verify = Vec::new();
        for bench in benches.iter().filter(|b| b.group != "Set") {
            let depth = if bench.constant { 0 } else { 3 };
            verify.push(VerifyInput {
                label: format!("{} {depth}", bench.name),
                compiled: compile(&bench.source, bench.entry, depth, true),
                entry: bench.entry,
                expected: oracle.golden_report(bench.name).clone(),
            });
        }
        let (src, entry) = source("contains");
        let t = oracle.table1("contains").t(2, true);
        verify.push(VerifyInput {
            label: "contains 2".to_string(),
            compiled: compile(src, entry, 2, true),
            entry,
            expected: Report {
                diagnostics: Vec::new(),
                functions: vec![FunctionBounds {
                    name: entry.to_string(),
                    min: t,
                    max: t,
                    actual: t,
                }],
            }
            .to_json(),
        });
        let verify_staged = verify.iter().all(|v| {
            check_staged(&mut Tracer::new(), &v.compiled, v.entry)
                == check_compiled(&v.compiled, v.entry)
        });

        let h = SUPPORT_HEAVY_H;
        let simulate = vec![
            SimInput {
                label: format!("structured-{STRUCTURED_QUBITS}"),
                circuit: structured_workload(STRUCTURED_QUBITS),
                support: 2,
            },
            SimInput {
                label: format!("support-heavy-{SUPPORT_HEAVY_QUBITS}-{h}"),
                circuit: support_heavy_workload(SUPPORT_HEAVY_QUBITS, h),
                support: 1 << (h + h / 2),
            },
        ];

        let mut ops: Vec<Op> = (0..decompose.len()).map(Op::Decompose).collect();
        for pass in 0..passes.len() {
            ops.extend((0..optimize.len()).map(|input| Op::Optimize { pass, input }));
        }
        ops.extend((0..verify.len()).map(Op::Verify));
        ops.extend((0..simulate.len()).map(Op::Simulate));
        seeded_order(&mut ops, seed);

        CircuitPasses {
            ops,
            passes,
            pass_spans,
            decompose,
            optimize,
            optimize_t,
            verify,
            verify_staged,
            simulate,
        }
    }

    fn simulate(input: &SimInput) -> Result<Output, String> {
        let n = input.circuit.num_qubits();
        let (norm, support) = if n <= 64 {
            let mut state = SparseState::zeroed(n).map_err(|e| e.to_string())?;
            state.run(&input.circuit).map_err(|e| e.to_string())?;
            (state.norm(), state.support())
        } else {
            let mut state = SparseState256::zeroed(n).map_err(|e| e.to_string())?;
            state.run(&input.circuit).map_err(|e| e.to_string())?;
            (state.norm(), state.support())
        };
        Ok(Output::State { norm, support })
    }
}

/// `check_compiled`, one analysis at a time under spans: emit, the
/// well-formedness audit, ancilla discipline at the MCX and Toffoli levels,
/// and the static T bounds.
fn check_staged(t: &mut Tracer, compiled: &Compiled, function: &str) -> Report {
    let mut report = Report::default();
    let circuit = t.span("spire.emit", |_| compiled.emit());
    t.span("verify.check_circuit", |_| {
        report
            .diagnostics
            .extend(check_circuit(&circuit, Some(compiled.layout.total_qubits)));
    });
    t.span("verify.check_ancillas", |_| {
        report
            .diagnostics
            .extend(check_ancillas(&circuit, &scratch_spec(&compiled.layout)));
        let toffoli = mcx_to_toffoli(&circuit);
        if toffoli.num_qubits() > circuit.num_qubits() {
            let mut spec = AncillaSpec::default();
            for q in circuit.num_qubits()..toffoli.num_qubits() {
                spec.push(q, format!("decomposition ancilla {q}"));
            }
            report.diagnostics.extend(check_ancillas(&toffoli, &spec));
        }
    });
    t.span("verify.t_bounds", |_| {
        let actual = compiled.t_complexity();
        let (min, max) = match bound_function(&compiled.ir, &compiled.types, &compiled.table) {
            Ok(bound) => (bound.min, bound.max),
            Err(_) => (0, u64::MAX),
        };
        report.functions.push(FunctionBounds {
            name: function.to_string(),
            min,
            max,
            actual,
        });
        let violations = bound_violations(&report.functions);
        report.diagnostics.extend(violations);
    });
    report
}

/// The layout's scratch region, as `check_compiled` labels it.
fn scratch_spec(layout: &spire::Layout) -> AncillaSpec {
    let mut spec = AncillaSpec::default();
    let carries = layout.scratch_carries();
    for i in 0..carries.width {
        spec.push(carries.bit(i), format!("carry scratch bit {i}"));
    }
    spec.push(
        layout.scratch_cuccaro(),
        "Cuccaro adder ancilla".to_string(),
    );
    let product = layout.scratch_product();
    for i in 0..product.width {
        spec.push(product.bit(i), format!("product scratch bit {i}"));
    }
    let dup = layout.scratch_dup();
    for i in 0..dup.width {
        spec.push(dup.bit(i), format!("operand-duplication scratch bit {i}"));
    }
    spec.push(layout.scratch_qram_match(), "qRAM match bit".to_string());
    spec
}

impl Workload for CircuitPasses {
    type Output = Output;

    fn len(&self) -> usize {
        self.ops.len()
    }

    fn describe(&self, i: usize) -> String {
        match self.ops[i] {
            Op::Decompose(k) => format!("decompose {}", self.decompose[k].label),
            Op::Optimize { pass, input } => {
                format!(
                    "{} {}",
                    self.passes[pass].name(),
                    self.optimize[input].label
                )
            }
            Op::Verify(k) => format!("verify {}", self.verify[k].label),
            Op::Simulate(k) => format!("simulate {}", self.simulate[k].label),
        }
    }

    fn run(&self, i: usize) -> Result<Output, String> {
        match self.ops[i] {
            Op::Decompose(k) => {
                let out = to_clifford_t(&self.decompose[k].circuit).map_err(|e| e.to_string())?;
                Ok(Output::Gates {
                    len: out.len() as u64,
                    t: out.t_count(),
                })
            }
            Op::Optimize { pass, input } => {
                let out = self.passes[pass].optimize(&self.optimize[input].circuit);
                Ok(Output::Gates {
                    len: out.len() as u64,
                    t: out.t_count(),
                })
            }
            Op::Verify(k) => {
                let v = &self.verify[k];
                Ok(Output::Report(check_compiled(&v.compiled, v.entry)))
            }
            Op::Simulate(k) => Self::simulate(&self.simulate[k]),
        }
    }

    fn run_traced(&self, i: usize, t: &mut Tracer) -> Result<Output, String> {
        match self.ops[i] {
            Op::Decompose(_) => t.span("qcirc.decompose", |_| self.run(i)),
            Op::Optimize { pass, .. } => t.span(self.pass_spans[pass].0, |_| self.run(i)),
            Op::Verify(k) if self.verify_staged => {
                let v = &self.verify[k];
                Ok(Output::Report(check_staged(t, &v.compiled, v.entry)))
            }
            Op::Verify(_) => t.span("verify.check_compiled", |_| self.run(i)),
            Op::Simulate(_) => t.span("qcirc.sim", |_| self.run(i)),
        }
    }

    fn check(&mut self, i: usize, out: &Output, t: Option<&mut Tracer>) -> bool {
        let (ok, work) = match (self.ops[i], out) {
            (Op::Decompose(k), Output::Gates { len, t: t_out }) => (
                *t_out == self.decompose[k].t,
                ("qcirc.decompose.clifford_t_gates", *len),
            ),
            (Op::Optimize { pass, input }, Output::Gates { t: t_out, .. }) => {
                let expected = self.optimize_t[pass][input].get_or_insert(*t_out);
                let ok = *t_out == *expected && *t_out <= self.optimize[input].t_in;
                (ok, (self.pass_spans[pass].1, *t_out))
            }
            (Op::Verify(k), Output::Report(report)) => (
                report.to_json() == self.verify[k].expected,
                ("verify.diagnostics", report.diagnostics.len() as u64),
            ),
            (Op::Simulate(k), Output::State { norm, support }) => {
                let input = &self.simulate[k];
                let ok = (norm - 1.0).abs() < 1e-9 && *support == input.support;
                (ok, ("qcirc.sim.gates", input.circuit.len() as u64))
            }
            _ => return false,
        };
        if let Some(t) = t {
            t.count(work.0, work.1);
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inproc::measure;

    #[test]
    fn every_op_passes_the_oracle_on_both_paths() {
        let oracle = Oracle::load();
        let mut w = CircuitPasses::new(3, &oracle);
        assert!(
            w.verify_staged,
            "staged verification reproduces check_compiled"
        );
        assert_eq!(measure(&mut w, 1, None).failed, 0);
        let mut t = Tracer::new();
        assert_eq!(measure(&mut w, 1, Some(&mut t)).failed, 0);
        assert_eq!(t.counts()["verify.diagnostics"], 0);
    }
}
