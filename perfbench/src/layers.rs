//! The traced run's layer calls: each statement is replayed through the
//! public functions of the layers it exercises, each call timed as a
//! span under the operation's root span.

use std::collections::BTreeMap;
use std::sync::Mutex;

use cvopt_core::estimate::estimate_with;
use cvopt_core::{
    budget_for_rows, compute_betas, estimate_avg_with_error, linf_allocation, lp_allocation,
    problem_for_query, sqrt_allocation, Norm, StratifiedSample, StratumStatistics,
};
use cvopt_table::{
    hash_join, sql, AggKind, ExecOptions, GroupByQuery, GroupIndex, GroupStrategy, Table,
};

use crate::trace::Tracer;

/// The sampling rate the engine derives query budgets from (its default).
pub const RATE: f64 = 0.01;

/// Non-time per-layer observations (row counts, strata, rates), keyed by
/// metric name.
#[derive(Debug, Default)]
pub struct Facts(Mutex<BTreeMap<&'static str, Vec<f64>>>);

impl Facts {
    /// Record one observation.
    pub fn add(&self, name: &'static str, value: f64) {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).entry(name).or_default().push(value);
    }

    /// Every observation of `name`.
    pub fn get(&self, name: &str) -> Vec<f64> {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).get(name).cloned().unwrap_or_default()
    }
}

/// Where a replayed call's span goes.
#[derive(Debug, Clone, Copy)]
pub struct At<'a> {
    /// The recorder.
    pub tracer: &'a Tracer,
    /// The operation's root span.
    pub root: Option<u64>,
    /// The operation id.
    pub op: u64,
}

impl At<'_> {
    /// Time `f` as span `name`; returns its result and seconds taken.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let (out, ns) = self.tracer.time(name, self.root, self.op, f);
        (out, ns as f64 / 1e9)
    }
}

/// A compiled statement: the query and its JOIN clause, if any.
pub type Compiled = (GroupByQuery, Option<sql::JoinClause>);

/// Compile `sql` into a query.
pub fn compile(sql_text: &str) -> Result<Compiled, String> {
    select(sql::parse_statement(sql_text))
}

/// [`compile`], timing the parse as `sql.parse`.
pub fn parse(at: At, sql_text: &str) -> Result<Compiled, String> {
    select(at.time("sql.parse", || sql::parse_statement(sql_text)).0)
}

fn select(parsed: cvopt_table::Result<sql::Statement>) -> Result<Compiled, String> {
    let stmt = match parsed.map_err(|e| e.to_string())? {
        sql::Statement::Select(s) | sql::Statement::Explain(s) => s,
    };
    let join = stmt.join.clone();
    Ok((stmt.into_query().map_err(|e| e.to_string())?, join))
}

/// Replay an approximate statement's preparation and answer over `table`
/// through the layers the engine runs on a miss: group index, statistics
/// pass, allocation, draw + materialize, estimate, confidence intervals.
pub fn sampling(
    at: At,
    facts: &Facts,
    table: &Table,
    query: &GroupByQuery,
    exec: &ExecOptions,
    seed: u64,
) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let budget = budget_for_rows(table.num_rows(), RATE).map_err(|e| err(&e))?;
    let problem = problem_for_query(query, budget).map_err(|e| err(&e))?;
    let strata = problem.finest_stratification();
    let (strategy, _) = GroupIndex::strategy_for(table, &strata);
    let (index, _) = at
        .time("groupby.build", || GroupIndex::build_with_strategy(table, &strata, exec, strategy));
    let index = index.map_err(|e| err(&e))?;
    facts.add("groupby.strata", index.num_groups() as f64);
    facts.add("groupby.sort_share", f64::from(u8::from(strategy == GroupStrategy::Sort)));

    let columns = problem.aggregate_columns();
    let (stats, secs) =
        at.time("stats.collect", || StratumStatistics::collect_with(table, &index, &columns, exec));
    let stats = stats.map_err(|e| err(&e))?;
    facts.add("stats.rows_per_s", table.num_rows() as f64 / secs.max(1e-9));

    let (allocation, _) = at.time("alloc.solve", || -> Result<_, String> {
        Ok(match problem.norm {
            Norm::L2 => {
                let betas = compute_betas(&problem, &index, &stats).map_err(|e| err(&e))?;
                sqrt_allocation(&betas, &stats.populations, budget as u64, problem.min_per_stratum)
            }
            Norm::Lp(p) => {
                let betas = compute_betas(&problem, &index, &stats).map_err(|e| err(&e))?;
                lp_allocation(&betas, &stats.populations, budget as u64, problem.min_per_stratum, p)
            }
            Norm::LInf => {
                linf_allocation(&stats, 0, budget as u64, problem.min_per_stratum, problem.variance)
                    .map_err(|e| err(&e))?
            }
        })
    });
    let allocation = allocation?;

    let (sample, _) = at.time("sample.draw", || {
        StratifiedSample::draw(&index, &allocation.sizes, seed, exec).materialize(table)
    });
    facts.add("sample.rows", sample.len() as f64);

    at.time("estimate", || estimate_with(&sample, query, exec)).0.map_err(|e| err(&e))?;
    for agg in query.aggregates.iter().filter(|a| a.kind == AggKind::Avg) {
        let Some(input) = &agg.input else { continue };
        at.time("confidence", || {
            estimate_avg_with_error(&sample, &query.group_by, input, query.predicate.as_ref())
        })
        .0
        .map_err(|e| err(&e))?;
    }
    Ok(())
}

/// Replay an exact statement's scan over `table` (`exact.scan`).
pub fn exact(
    at: At,
    facts: &Facts,
    table: &Table,
    query: &GroupByQuery,
    exec: &ExecOptions,
) -> Result<(), String> {
    let (out, secs) = at.time("exact.scan", || query.execute_with(table, exec));
    out.map_err(|e| e.to_string())?;
    facts.add("exact.rows_per_s", table.num_rows() as f64 / secs.max(1e-9));
    Ok(())
}

/// Replay a JOIN's build and probe (`join.build`).
pub fn join(
    at: At,
    facts: &Facts,
    fact: &Table,
    dim: &Table,
    clause: &sql::JoinClause,
    exec: &ExecOptions,
) -> Result<(), String> {
    let (joined, _) =
        at.time("join.build", || hash_join(fact, dim, &clause.fact_key, &clause.dim_key, exec));
    facts.add("join.output_rows", joined.map_err(|e| e.to_string())?.num_rows() as f64);
    Ok(())
}
