//! The output oracle: every op's result is checked against files the
//! repository already commits, so a wrong answer counts as a failed op.
//!
//! * compile ops: T counts against the Table 1 polynomials in
//!   `reports/table1.json` ("T before" for `none`, "T after" for `spire`),
//!   and MCX counts for `none`, the configuration Table 1 counts MCX for;
//! * verify ops at depth 3: the report against
//!   `tests/golden/check_benchmarks.json`;
//! * `qopt` on `length-simple` at depth 10: the output T count against
//!   `BENCH_optimizer.json`.

use qcirc::json::{self, Json};

const TABLE1: &str = include_str!("../../reports/table1.json");
const GOLDEN_CHECK: &str = include_str!("../../tests/golden/check_benchmarks.json");
const BENCH_OPTIMIZER: &str = include_str!("../../BENCH_optimizer.json");

/// `c_k·n^k + … + c_0`, as Table 1 prints it after the `=`.
#[derive(Debug, Clone)]
struct Poly(Vec<(i64, u32)>);

impl Poly {
    /// Parse `"O(n^2) = 3094n^2+7448n+280"`, `"O(d^2) = 6172d^2+11611d"`,
    /// or `"O(1) = 970"`.
    fn parse(cell: &str) -> Poly {
        let expr = cell.split('=').nth(1).expect("table cell has `=`").trim();
        let mut terms = Vec::new();
        let mut rest = expr;
        while !rest.is_empty() {
            let sign = if rest.starts_with('-') { -1 } else { 1 };
            rest = rest.trim_start_matches(['+', '-']);
            let end = rest.find(['+', '-']).unwrap_or(rest.len());
            let term = &rest[..end];
            rest = &rest[end..];
            let digits = term
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(term.len());
            let coeff: i64 = term[..digits].parse().expect("coefficient");
            let power = match &term[digits..] {
                "" => 0,
                var if var.len() == 1 => 1,
                var => var[2..].parse().expect("exponent after `^`"),
            };
            terms.push((sign * coeff, power));
        }
        Poly(terms)
    }

    fn at(&self, n: i64) -> u64 {
        let value: i64 = self.0.iter().map(|&(c, k)| c * n.pow(k)).sum();
        u64::try_from(value).expect("gate counts are non-negative")
    }
}

/// One benchmark's Table 1 row.
#[derive(Debug, Clone)]
pub struct Table1Row {
    mcx: Poly,
    t_before: Poly,
    t_after: Poly,
}

impl Table1Row {
    /// MCX count; Table 1 gives it for `none` only.
    pub fn mcx(&self, depth: i64, optimized: bool) -> Option<u64> {
        (!optimized).then(|| self.mcx.at(depth))
    }

    /// T count under `spire` (`optimized`) or `none`.
    pub fn t(&self, depth: i64, optimized: bool) -> u64 {
        if optimized {
            self.t_after.at(depth)
        } else {
            self.t_before.at(depth)
        }
    }
}

pub struct Oracle {
    table1: Vec<(String, Table1Row)>,
    golden: Vec<(String, Json)>,
    optimizer_t: Vec<(String, u64)>,
}

impl Oracle {
    pub fn load() -> Oracle {
        let table = json::parse(TABLE1).expect("reports/table1.json parses");
        let table1 = table
            .get("rows")
            .and_then(Json::as_array)
            .expect("table1 rows")
            .iter()
            .map(|row| {
                let cell = |i| row.item(i).and_then(Json::as_str).expect("table1 cell");
                let name = cell(0).split('/').nth(1).expect("Group/name").to_string();
                let parsed = Table1Row {
                    mcx: Poly::parse(cell(2)),
                    t_before: Poly::parse(cell(4)),
                    t_after: Poly::parse(cell(6)),
                };
                (name, parsed)
            })
            .collect();

        let golden = json::parse(GOLDEN_CHECK).expect("check_benchmarks.json parses");
        let golden = golden
            .get("benchmarks")
            .and_then(Json::as_array)
            .expect("golden benchmarks")
            .iter()
            .map(|b| {
                let name = b.get("name").and_then(Json::as_str).expect("name");
                let report = b.get("report").expect("report").clone();
                (name.to_string(), entry_only(&report))
            })
            .collect();

        let bench = json::parse(BENCH_OPTIMIZER).expect("BENCH_optimizer.json parses");
        let optimizer_t = bench
            .get("current")
            .and_then(|c| c.get("entries"))
            .and_then(Json::as_array)
            .expect("BENCH_optimizer current entries")
            .iter()
            .filter(|e| {
                e.get("benchmark").and_then(Json::as_str) == Some("length-simplified")
                    && e.get("depth").and_then(Json::as_i64) == Some(10)
            })
            .map(|e| {
                let pass = e
                    .get("optimizer")
                    .and_then(Json::as_str)
                    .expect("optimizer");
                let t = e.get("t_count").and_then(Json::as_u64).expect("t_count");
                (pass.to_string(), t)
            })
            .collect();
        Oracle {
            table1,
            golden,
            optimizer_t,
        }
    }

    pub fn table1(&self, benchmark: &str) -> &Table1Row {
        &self
            .table1
            .iter()
            .find(|(name, _)| name == benchmark)
            .unwrap_or_else(|| panic!("no Table 1 row for {benchmark}"))
            .1
    }

    /// The golden `check` report of `benchmark` at its golden depth, cut to
    /// the entry function's row (the golden file also carries rows for
    /// sibling functions, which `check_compiled` does not produce).
    pub fn golden_report(&self, benchmark: &str) -> &Json {
        &self
            .golden
            .iter()
            .find(|(name, _)| name == benchmark)
            .unwrap_or_else(|| panic!("no golden report for {benchmark}"))
            .1
    }

    /// `BENCH_optimizer.json`'s T count for `pass` on `length-simple` at
    /// depth 10.
    pub fn optimizer_t(&self, pass: &str) -> u64 {
        self.optimizer_t
            .iter()
            .find(|(name, _)| name == pass)
            .unwrap_or_else(|| panic!("no BENCH_optimizer entry for {pass}"))
            .1
    }
}

/// A report with only its first (entry) function row.
pub fn entry_only(report: &Json) -> Json {
    let Some(fields) = report.as_object() else {
        return report.clone();
    };
    Json::Object(
        fields
            .iter()
            .map(|(key, value)| {
                let value = match (key.as_str(), value.as_array()) {
                    ("functions", Some(rows)) => {
                        Json::Array(rows.iter().take(1).cloned().collect())
                    }
                    _ => value.clone(),
                };
                (key.clone(), value)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_polynomials_evaluate() {
        let oracle = Oracle::load();
        assert_eq!(oracle.table1("length").t(10, true), 53732);
        assert_eq!(
            oracle.table1("length").t(10, false),
            3094 * 100 + 74480 + 280
        );
        assert_eq!(
            oracle.table1("length-simple").t(2, false),
            336 * 4 - 336 + 252
        );
        assert_eq!(oracle.table1("pop_front").mcx(0, false), Some(970));
        assert_eq!(oracle.table1("insert").t(3, true), 357_056);
        assert_eq!(oracle.optimizer_t("global-resynth"), 3212);
        let golden = oracle.golden_report("insert");
        assert_eq!(
            golden
                .get("functions")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(1)
        );
    }
}
