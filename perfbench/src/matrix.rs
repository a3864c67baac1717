//! `compile-matrix`: the paper's own matrix — all 12 benchmarks × {`spire`,
//! `none`} × depths — through `compile_source`, `histogram` and `emit`.

use bench_suite::programs::{all_benchmarks, Benchmark};
use qcirc::{Circuit, GateHistogram};
use spire::{compile_source, CompileOptions, Compiled, SpireError};
use tower::{
    inline, lower_block, parse, typecheck_with, NameGen, Strictness, Symbol, TowerError, TypeTable,
    WordConfig,
};

use crate::inproc::Workload;
use crate::oracle::Oracle;
use crate::trace::Tracer;
use crate::util::seeded_order;

/// Depths per benchmark. Set benchmarks stop at 6: `insert` takes ≈36 ms
/// per op at depth 6 and ≈170 ms at depth 10 on the reference box, and one
/// op that large would set the tail on its own.
fn depths(bench: &Benchmark) -> Vec<i64> {
    if bench.constant {
        vec![0]
    } else if bench.group == "Set" {
        (2..=6).collect()
    } else {
        (2..=10).collect()
    }
}

struct CompileOp {
    bench: usize,
    depth: i64,
    optimized: bool,
    mcx: Option<u64>,
    t: u64,
}

pub struct CompileMatrix {
    benches: Vec<Benchmark>,
    ops: Vec<CompileOp>,
}

/// What one compile op yields: the counts the oracle checks.
pub struct Counts {
    mcx: u64,
    t: u64,
    emitted: u64,
}

pub fn options(optimized: bool) -> CompileOptions {
    if optimized {
        CompileOptions::spire()
    } else {
        CompileOptions::baseline()
    }
}

impl CompileMatrix {
    pub fn new(seed: u64, oracle: &Oracle) -> CompileMatrix {
        let benches = all_benchmarks();
        let mut ops = Vec::new();
        for (b, bench) in benches.iter().enumerate() {
            let row = oracle.table1(bench.name);
            for depth in depths(bench) {
                for optimized in [true, false] {
                    ops.push(CompileOp {
                        bench: b,
                        depth,
                        optimized,
                        mcx: row.mcx(depth, optimized),
                        t: row.t(depth, optimized),
                    });
                }
            }
        }
        seeded_order(&mut ops, seed);
        CompileMatrix { benches, ops }
    }
}

impl Workload for CompileMatrix {
    type Output = Counts;

    fn len(&self) -> usize {
        self.ops.len()
    }

    fn describe(&self, i: usize) -> String {
        let op = &self.ops[i];
        let opt = if op.optimized { "spire" } else { "none" };
        format!("compile {} {} {opt}", self.benches[op.bench].name, op.depth)
    }

    fn run(&self, i: usize) -> Result<Counts, String> {
        let op = &self.ops[i];
        let bench = &self.benches[op.bench];
        let compiled = compile_source(
            &bench.source,
            bench.entry,
            op.depth,
            WordConfig::paper_default(),
            &options(op.optimized),
        )
        .map_err(|e| e.to_string())?;
        let hist = compiled.histogram();
        let circuit = compiled.emit();
        Ok(Counts {
            mcx: hist.mcx_complexity(),
            t: hist.t_complexity(),
            emitted: circuit.len() as u64,
        })
    }

    fn run_traced(&self, i: usize, t: &mut Tracer) -> Result<Counts, String> {
        let op = &self.ops[i];
        let bench = &self.benches[op.bench];
        let (_, hist, circuit) = compile_staged(
            t,
            &bench.source,
            bench.entry,
            op.depth,
            &options(op.optimized),
        )
        .map_err(|e| e.to_string())?;
        let emitted = circuit.len() as u64;
        // Freeing the circuit is part of the emit layer's cost.
        t.span("spire.emit", |_| drop(circuit));
        Ok(Counts {
            mcx: hist.mcx_complexity(),
            t: hist.t_complexity(),
            emitted,
        })
    }

    fn check(&mut self, i: usize, out: &Counts, _: Option<&mut Tracer>) -> bool {
        let op = &self.ops[i];
        op.mcx.is_none_or(|mcx| mcx == out.mcx) && out.t == op.t && out.emitted == out.mcx
    }
}

/// `compile_source` → `histogram` → `emit`, one public stage call at a time
/// (parse → inline → lower → typecheck → optimize → recheck → expand →
/// layout → select → cost → emit), each under a span named after its layer
/// and with its work counted. The equivalence test pins this path to the
/// product path.
pub fn compile_staged(
    t: &mut Tracer,
    source: &str,
    entry: &str,
    depth: i64,
    options: &CompileOptions,
) -> Result<(Compiled, GateHistogram, Circuit), SpireError> {
    let program = t.span("tower.parse", |_| parse(source))?;
    let entry_sym = Symbol::new(entry);
    let fun = program
        .fun(&entry_sym)
        .ok_or_else(|| TowerError::UnknownFun {
            name: entry_sym.clone(),
        })?;
    let mut table = TypeTable::new(WordConfig::paper_default());
    for def in &program.types {
        table.define(def.name.clone(), def.ty.clone())?;
    }
    let mut names = NameGen::new();
    let body = t.span("tower.inline", |_| {
        inline(&program, &entry_sym, depth, &mut names)
    })?;
    let core = t.span("tower.lower", |_| lower_block(&body, &mut names))?;
    t.count("tower.lower.core_stmts", core.size() as u64);
    let inputs = fun.params.clone();
    t.span("tower.typecheck", |_| {
        typecheck_with(&core, &inputs, &table, Strictness::Relaxed)
    })?;

    let ir = t.span("spire.optimize", |_| {
        spire::optimize(&core, options.opt, &mut names)
    });
    t.count("spire.optimize.stmts_after", ir.size() as u64);
    let types = t
        .span("spire.recheck", |_| {
            typecheck_with(&ir, &inputs, &table, Strictness::Relaxed)
        })
        .map_err(SpireError::Front)?;
    let expanded = t.span("spire.expand", |_| ir.expand_with());
    let layout = t.span("spire.layout", |_| {
        spire::layout::layout(&expanded, &inputs, &types, &table, options.policy)
    })?;
    t.count("spire.layout.qubits", u64::from(layout.total_qubits));
    let instrs = t.span("spire.select", |_| {
        spire::select(&expanded, &layout, &types, &table)
    })?;
    t.count("spire.select.instrs", instrs.len() as u64);
    let compiled = Compiled {
        ir,
        layout,
        instrs,
        inputs,
        ret_var: fun.ret_var.clone(),
        table,
        types,
    };
    let hist = t.span("spire.cost", |_| compiled.histogram());
    t.count("spire.cost.t_count", hist.t_complexity());
    let circuit = t.span("spire.emit", |_| compiled.emit());
    t.count("spire.emit.mcx_gates", circuit.len() as u64);
    Ok((compiled, hist, circuit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inproc::measure;

    /// The traced run's stage-by-stage path must compute exactly what the
    /// product path computes, for every op of the matrix, so the per-layer
    /// numbers measure the product path.
    #[test]
    fn staged_path_equals_compile_source_on_every_op() {
        let oracle = Oracle::load();
        let matrix = CompileMatrix::new(1, &oracle);
        let mut t = Tracer::new();
        for op in &matrix.ops {
            let bench = &matrix.benches[op.bench];
            let opts = options(op.optimized);
            let product = compile_source(
                &bench.source,
                bench.entry,
                op.depth,
                WordConfig::paper_default(),
                &opts,
            )
            .expect("product path compiles");
            let (staged, hist, circuit) =
                compile_staged(&mut t, &bench.source, bench.entry, op.depth, &opts)
                    .expect("staged path compiles");
            let what = format!("{} depth {} spire={}", bench.name, op.depth, op.optimized);
            assert_eq!(hist, product.histogram(), "histogram: {what}");
            assert_eq!(staged.qubits(), product.qubits(), "qubits: {what}");
            assert_eq!(
                circuit.content_hash(),
                product.emit().content_hash(),
                "content hash: {what}"
            );
        }
    }

    #[test]
    fn matrix_has_184_ops_and_passes_the_oracle() {
        let oracle = Oracle::load();
        let mut matrix = CompileMatrix::new(7, &oracle);
        assert_eq!(matrix.len(), 184);
        assert_eq!(measure(&mut matrix, 1, None).failed, 0);
        let mut t = Tracer::new();
        assert_eq!(measure(&mut matrix, 1, Some(&mut t)).failed, 0);
    }
}
