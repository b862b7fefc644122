//! The engine's table layouts: [`CatalogTable`] and every pass that
//! depends on one (index, statistics, draw, exact scan, append, retention,
//! JOIN inputs, EXPLAIN strategy and topology). This is the only module
//! that dispatches on a layout. Fresh preparation is one pipeline for all
//! of them: `CatalogTable::prepare` runs index → statistics →
//! `CvOptSampler::allocate` → draw.

use std::borrow::Cow;
use std::sync::Arc;

use cvopt_table::agg::AggState;
use cvopt_table::exec::{partition_rows, ExecOptions};
use cvopt_table::groupby::{choose_strategy, estimate_keys};
use cvopt_table::{
    hash_join, hash_join_sharded, sql, GroupByQuery, GroupIndex, GroupStrategy, QueryResult,
    ScalarExpr, Schema, ShardSet, ShardedTable, Table,
};

use crate::engine::{ExplainReport, QueryMode, ReuseInfo};
use crate::error::CvError;
use crate::framework::{note_draw, CvOptOutcome, CvOptSampler};
use crate::sample::StratifiedSample;
use crate::spec::{Fingerprinter, SamplingProblem};
use crate::stats::{self, StratumStatistics};
use crate::Result;

/// A catalog entry: one contiguous table, a locally sharded one, or a set
/// of shards answering over the shard-pass surface (local, remote, or
/// mixed). All kinds answer every query identically — scatter-gather passes
/// are byte-identical to their single-table counterparts — so the choice is
/// purely a deployment concern (ingest layout, which box owns the rows).
///
/// [`Engine::register`](crate::Engine::register) takes anything that
/// converts into a `CatalogTable`: a bare [`Table`], [`ShardedTable`], or
/// [`ShardSet`] picks its kind through the `From` impls.
#[derive(Debug, Clone)]
pub enum CatalogTable {
    /// One contiguous in-memory table.
    Single(Table),
    /// A table split across independently-owned shards, served by
    /// scatter-gather passes.
    Sharded(ShardedTable),
    /// A table whose shards answer through [`ShardReader`]s — possibly in
    /// another process, over the wire.
    ///
    /// [`ShardReader`]: cvopt_table::ShardReader
    Remote(ShardSet),
}

impl From<Table> for CatalogTable {
    fn from(table: Table) -> Self {
        CatalogTable::Single(table)
    }
}

impl From<ShardedTable> for CatalogTable {
    fn from(table: ShardedTable) -> Self {
        CatalogTable::Sharded(table)
    }
}

impl From<ShardSet> for CatalogTable {
    fn from(set: ShardSet) -> Self {
        CatalogTable::Remote(set)
    }
}

/// The error a local-only pass returns for a remote layout (whose rows the
/// shard servers own: append and retention run there).
fn remote_error(pass: &str) -> CvError {
    CvError::invalid(format!("{pass} needs local rows, but the table answers from remote shards"))
}

/// Per-row keep decisions for a retention cutoff: `true` where the window
/// column (an `INT64`/`TIMESTAMP` column validated at registration) is at
/// or past `cutoff`.
fn keep_mask(table: &Table, window: &str, cutoff: i64) -> Result<Vec<bool>> {
    let idx = table.schema().index_of(window)?;
    match table.column(idx) {
        cvopt_table::Column::Int64(v) | cvopt_table::Column::Timestamp(v) => {
            Ok(v.iter().map(|&t| t >= cutoff).collect())
        }
        other => Err(CvError::invalid(format!(
            "window column '{window}' must be INT64 or TIMESTAMP, found {:?}",
            other.data_type()
        ))),
    }
}

impl CatalogTable {
    /// The table's schema (shared by every shard).
    pub fn schema(&self) -> &Schema {
        match self {
            CatalogTable::Single(t) => t.schema(),
            CatalogTable::Sharded(t) => t.schema(),
            CatalogTable::Remote(s) => s.schema(),
        }
    }

    /// Total logical rows.
    pub fn num_rows(&self) -> usize {
        match self {
            CatalogTable::Single(t) => t.num_rows(),
            CatalogTable::Sharded(t) => t.num_rows(),
            CatalogTable::Remote(s) => s.num_rows(),
        }
    }

    /// Per-shard row counts for sharded and remote entries, `None` for
    /// single tables.
    fn shard_rows(&self) -> Option<Vec<usize>> {
        match self {
            CatalogTable::Single(_) => None,
            CatalogTable::Sharded(t) => Some(t.shard_rows()),
            CatalogTable::Remote(s) => Some(s.shard_rows()),
        }
    }

    /// Shard count for sharded and remote entries, `None` for single
    /// tables.
    pub fn num_shards(&self) -> Option<usize> {
        self.shard_rows().map(|rows| rows.len())
    }

    /// Shard count for remote entries only (`None` for single and locally
    /// sharded tables) — the `/explain` topology marker.
    pub fn remote_shards(&self) -> Option<usize> {
        match self {
            CatalogTable::Remote(s) => Some(s.num_shards()),
            _ => None,
        }
    }

    /// The contiguous table behind a single-table entry.
    pub(crate) fn as_table(&self) -> Option<&Table> {
        match self {
            CatalogTable::Single(t) => Some(t),
            _ => None,
        }
    }

    /// Fold the shard layout into `base` so cache keys distinguish a table
    /// from a re-sharded version of itself: byte-identical results make
    /// that distinction unnecessary for correctness of *answers*, but plan
    /// reports (shard counts, per-shard partitions) hang off the cache key
    /// and must never describe a stale layout.
    ///
    /// Remote sets fold **identically** to local sharded tables: where the
    /// shards live never changes the answer bytes, so it must not change
    /// the cache key either — a sample prepared locally is exactly the
    /// sample a remote layout of the same shape would prepare.
    ///
    /// Public so reuse tests can pin the converse: two catalog entries
    /// with different shard layouts fold the same problem to different
    /// keys, so the reuse planner can never match across layouts.
    pub fn layout_fingerprint(&self, base: u64) -> u64 {
        let Some(shard_rows) = self.shard_rows() else { return base };
        let mut fp = Fingerprinter::new();
        fp.write_tag(b'S');
        fp.write_u64(base);
        fp.write_u64(shard_rows.len() as u64);
        for rows in shard_rows {
            fp.write_u64(rows as u64);
        }
        fp.finish()
    }

    /// The group index over `exprs`, built by the layout's own scatter
    /// pass; every layout yields the concatenated table's index.
    pub(crate) fn build_index(
        &self,
        exprs: &[ScalarExpr],
        exec: &ExecOptions,
    ) -> Result<GroupIndex> {
        Ok(match self {
            CatalogTable::Single(t) => GroupIndex::build_with(t, exprs, exec)?,
            CatalogTable::Sharded(t) => GroupIndex::build_sharded(t, exprs, exec)?,
            CatalogTable::Remote(s) => s.build_group_index(exprs, exec)?,
        })
    }

    /// Statistics partials for the global partitions `from_partition..`
    /// (see [`stats::tail_partials`]). Remote tables are never maintained:
    /// they cannot declare a window, so they never reach here.
    pub(crate) fn tail_partials(
        &self,
        index: &GroupIndex,
        columns: &[ScalarExpr],
        exec: &ExecOptions,
        from_partition: usize,
    ) -> Result<Vec<Vec<Vec<AggState>>>> {
        match self {
            CatalogTable::Single(t) => {
                stats::tail_partials(t, index, columns, exec, from_partition)
            }
            CatalogTable::Sharded(t) => {
                stats::tail_partials_sharded(t, index, columns, exec, from_partition)
            }
            CatalogTable::Remote(_) => Err(remote_error("incremental maintenance")),
        }
    }

    /// Prepare a fresh CVOPT sample of this table for `problem`: build the
    /// finest-stratification index, collect the statistics (one pass),
    /// then allocate and draw. The outcome is byte-identical to
    /// [`CvOptSampler::sample`] over the concatenated table with the same
    /// seed, for any layout and thread count.
    pub(crate) fn prepare(
        &self,
        problem: &SamplingProblem,
        seed: u64,
        exec: &ExecOptions,
    ) -> Result<Arc<CvOptOutcome>> {
        problem.validate()?;
        let strata_exprs = problem.finest_stratification();
        let index = self.build_index(&strata_exprs, exec)?;
        let columns = problem.aggregate_columns();
        let stats = match self {
            CatalogTable::Single(t) => StratumStatistics::collect_with(t, &index, &columns, exec)?,
            CatalogTable::Sharded(t) => {
                StratumStatistics::collect_sharded(t, &index, &columns, exec)?
            }
            CatalogTable::Remote(s) => StratumStatistics::collect_set(s, &index, &columns, exec)?,
        };
        self.allocate_and_draw(problem, strata_exprs, &index, stats, seed, exec)
    }

    /// The back half every preparation shares — fresh, maintained, or
    /// appended: solve the allocation for `stats`, draw on the (global)
    /// group index, and materialize the drawn rows from this layout.
    pub(crate) fn allocate_and_draw(
        &self,
        problem: &SamplingProblem,
        strata_exprs: Vec<ScalarExpr>,
        index: &GroupIndex,
        stats: StratumStatistics,
        seed: u64,
        exec: &ExecOptions,
    ) -> Result<Arc<CvOptOutcome>> {
        let sampler = CvOptSampler::new(problem.clone()).with_seed(seed).with_exec(*exec);
        let plan = sampler.allocate(strata_exprs, index, stats)?;
        assert_eq!(index.num_rows(), self.num_rows(), "index must cover the table's rows");
        note_draw();
        let drawn = StratifiedSample::draw(index, &plan.allocation.sizes, seed, exec);
        let sample = match self {
            CatalogTable::Single(t) => drawn.materialize(t),
            CatalogTable::Sharded(t) => drawn.materialize_sharded(t),
            CatalogTable::Remote(s) => drawn.materialize_set(s)?,
        };
        Ok(Arc::new(CvOptOutcome { sample, plan }))
    }

    /// Answer `query` exactly with a full scan.
    pub(crate) fn execute(
        &self,
        query: &GroupByQuery,
        exec: &ExecOptions,
    ) -> Result<Vec<QueryResult>> {
        Ok(match self {
            CatalogTable::Single(t) => query.execute_with(t, exec)?,
            CatalogTable::Sharded(t) => query.execute_sharded(t, exec)?,
            CatalogTable::Remote(s) => query.execute_set(s, exec)?,
        })
    }

    /// This table with `batch` appended (sharded layouts append into their
    /// live — last — shard). Remote tables reject the call: their rows
    /// live at the shard servers, which own the wire-level append pass.
    pub(crate) fn extended(&self, batch: &Table) -> Result<CatalogTable> {
        Ok(match self {
            CatalogTable::Single(t) => CatalogTable::Single(t.extended(batch)?),
            CatalogTable::Sharded(t) => CatalogTable::Sharded(t.extended(batch)?),
            CatalogTable::Remote(_) => return Err(remote_error("append")),
        })
    }

    /// This table without the rows whose `window` value is below `cutoff`
    /// (the retention rotation). Sharded layouts compact shard by shard,
    /// so a shard whose rows all age out falls off the layout.
    pub(crate) fn retained(&self, window: &str, cutoff: i64) -> Result<CatalogTable> {
        Ok(match self {
            CatalogTable::Single(t) => {
                let keep = keep_mask(t, window, cutoff)?;
                let kept: Vec<usize> = (0..t.num_rows()).filter(|&i| keep[i]).collect();
                CatalogTable::Single(t.take(&kept))
            }
            CatalogTable::Sharded(t) => {
                let mut keep = Vec::with_capacity(t.num_rows());
                for shard in t.shards() {
                    keep.extend(keep_mask(shard, window, cutoff)?);
                }
                CatalogTable::Sharded(t.retained(|i| keep[i]))
            }
            CatalogTable::Remote(_) => return Err(remote_error("rotation")),
        })
    }

    /// Materialize `self ⋈ dim` on the clause's keys. The fact side joins
    /// per shard in shard order (global row order), so the output is
    /// identical for any shard layout and any thread count. Both sides
    /// need local rows.
    pub(crate) fn join(
        &self,
        dim: &CatalogTable,
        clause: &sql::JoinClause,
        exec: &ExecOptions,
    ) -> Result<Table> {
        let dim = match dim {
            CatalogTable::Single(t) => Cow::Borrowed(t),
            CatalogTable::Sharded(t) => Cow::Owned(t.to_table()),
            CatalogTable::Remote(_) => return Err(remote_error("a JOIN")),
        };
        Ok(match self {
            CatalogTable::Single(t) => hash_join(t, &dim, &clause.fact_key, &clause.dim_key, exec)?,
            CatalogTable::Sharded(t) => {
                hash_join_sharded(t, &dim, &clause.fact_key, &clause.dim_key, exec)?
            }
            CatalogTable::Remote(_) => return Err(remote_error("a JOIN")),
        })
    }

    /// The group-index interning strategy the execution layer will choose
    /// for `group_by` over this table, with its reason — reported by
    /// `EXPLAIN`. Sharded tables build shard-locally, so the report
    /// summarizes at table scale with the widest per-shard key estimate;
    /// remote shards choose on their side of the wire.
    pub(crate) fn group_strategy(&self, group_by: &[ScalarExpr]) -> (GroupStrategy, String) {
        if group_by.is_empty() {
            return (GroupStrategy::Hash, "no grouping dimensions".into());
        }
        match self {
            CatalogTable::Single(t) => GroupIndex::strategy_for(t, group_by),
            CatalogTable::Sharded(t) => {
                let mut estimate = Some(0u64);
                for shard in t.shards() {
                    estimate = match (estimate, estimate_keys(shard, group_by)) {
                        (Some(acc), Some(e)) => Some(acc.max(e)),
                        _ => None,
                    };
                    if estimate.is_none() {
                        break;
                    }
                }
                choose_strategy(t.num_rows(), estimate)
            }
            CatalogTable::Remote(_) => {
                let (strategy, _) = choose_strategy(self.num_rows(), None);
                (
                    strategy,
                    "remote shards intern on the serving side; hash build unless forced".into(),
                )
            }
        }
    }

    /// A plan report for a statement over this table, with the topology
    /// fields (rows, partitions, threads, shard layout) filled in from the
    /// table and `exec`, and every cache and join field empty.
    pub(crate) fn report(
        &self,
        table: &str,
        exec: &ExecOptions,
        mode: QueryMode,
        reason: &'static str,
        (strategy, group_by_reason): (GroupStrategy, String),
    ) -> ExplainReport {
        let table_rows = self.num_rows();
        ExplainReport {
            table: table.to_string(),
            table_rows,
            mode,
            reason,
            join: None,
            group_by_strategy: strategy.name(),
            group_by_reason,
            reuse: ReuseInfo::None,
            cache_hit: None,
            fingerprint: None,
            budget: None,
            strata: None,
            sample_rows: None,
            partitions: partition_rows(table_rows).len(),
            threads: exec.threads(),
            shards: self.num_shards(),
            shard_partitions: self
                .shard_rows()
                .map(|rows| rows.iter().map(|&r| partition_rows(r).len()).collect()),
            remote_shards: self.remote_shards(),
        }
    }
}
