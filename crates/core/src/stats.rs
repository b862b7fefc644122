//! One-pass per-stratum statistics (the paper's "first pass").
//!
//! For each stratum of the finest stratification and each aggregation
//! column, we accumulate count/mean/M2 with Welford's algorithm. Because the
//! accumulators merge exactly, the statistics of any *coarser* group
//! `a = ∪ {c ∈ C(a)}` (the paper's `Π`-projections) are derived by merging —
//! no second scan.
//!
//! The pass runs on the shared chunk-parallel driver
//! ([`cvopt_table::exec::run_partitioned`]): per-partition accumulators are
//! merged in partition order, so the collected statistics are bit-identical
//! for any thread count.

use std::sync::atomic::{AtomicU64, Ordering};

use cvopt_table::agg::AggState;
use cvopt_table::exec::{self, ExecOptions};
use cvopt_table::expr::BoundExpr;
use cvopt_table::groupby::GroupProjection;
use cvopt_table::{
    ColumnValues, GroupIndex, ScalarExpr, ShardColumn, ShardSegment, ShardSet, ShardedTable, Table,
};

use crate::spec::VarianceKind;
use crate::Result;

/// Process-wide count of statistics passes (every `collect*` entry point,
/// whatever engine or sampler triggered it). The counter is atomic so a
/// serving layer's `/stats` endpoint can read it live, while passes run on
/// other threads.
static TOTAL_PASSES: AtomicU64 = AtomicU64::new(0);

/// Statistics passes run by this process so far (all engines, all
/// samplers). Monotonic; never reset.
pub fn total_stats_passes() -> u64 {
    TOTAL_PASSES.load(Ordering::Relaxed)
}

/// Record one statistics pass. Called by every collector after its
/// column binding succeeds (failed preparations never scanned anything)
/// and before the scan itself, so a pass in flight is already visible to
/// live readers. Also called by the incremental-maintenance build, whose
/// initial partial computation is a full scan; maintenance *updates* scan
/// only appended rows and are deliberately not counted as passes.
pub(crate) fn record_pass() {
    TOTAL_PASSES.fetch_add(1, Ordering::Relaxed);
}

/// The single-table per-partition statistics kernel shared by
/// [`StratumStatistics::collect_with`] and the incremental-maintenance
/// partial computation: counting-sort the partition's rows by stratum,
/// gather each stratum's value run densely, and push it through the
/// lane-merge slice kernel. A pure function of (bound columns, group ids,
/// range) — which is what lets maintenance cache a partition's result and
/// replay it bit-identically instead of rescanning.
fn partition_states(
    bound: &[BoundExpr<'_>],
    gids: &[u32],
    num_groups: usize,
    ncols: usize,
    range: exec::RowRange,
) -> Vec<Vec<AggState>> {
    let mut states = vec![vec![AggState::default(); ncols]; num_groups];
    if range.is_empty() {
        return states;
    }
    // Partition-local stable counting sort (row ids relative to the
    // partition): stratum runs come out in ascending row order, the order
    // the scalar pass would feed each stratum's accumulator.
    let local = exec::bucket_rows_sequential(&gids[range.start..range.end], num_groups);

    // Gather each run's values densely and push them through the lane
    // kernel; `Float64` identity columns gather straight from the column
    // slice.
    let dense: Vec<Option<&[f64]>> = bound.iter().map(|e| e.f64_slice()).collect();
    let mut buf: Vec<f64> = Vec::new();
    for g in 0..num_groups {
        let run = local.bucket(g);
        if run.is_empty() {
            continue;
        }
        for ((slot, expr), values) in states[g].iter_mut().zip(bound).zip(&dense) {
            buf.clear();
            match values {
                Some(values) => {
                    buf.extend(run.iter().map(|&r| values[range.start + r as usize]));
                }
                None => {
                    buf.extend(run.iter().filter_map(|&r| expr.f64_at(range.start + r as usize)));
                }
            }
            slot.update_slice(&buf);
        }
    }
    states
}

/// One column's partition values in global row order: a plain `f64` buffer
/// when every shard backs the column densely, `Option` per row otherwise.
enum Gathered {
    Dense(Vec<f64>),
    Sparse(Vec<Option<f64>>),
}

/// The segmented per-partition kernel behind every multi-shard statistics
/// pass ([`StratumStatistics::collect_sharded`],
/// [`StratumStatistics::collect_set`] and [`tail_partials_sharded`]):
/// identical to [`partition_states`] except values gather through the
/// shard segments covering the (global) partition. `columns[shard][column]`
/// reads each shard, whether through bound expressions or shipped values.
fn partition_states_segmented<C: ShardColumn>(
    segments: &[ShardSegment],
    columns: &[Vec<C>],
    gids: &[u32],
    num_groups: usize,
    range: exec::RowRange,
) -> Vec<Vec<AggState>> {
    let ncols = columns[0].len();
    let mut states = vec![vec![AggState::default(); ncols]; num_groups];
    if range.is_empty() {
        return states;
    }
    // Gather each column's values for the whole partition, one contiguous
    // copy per shard segment. A column gathers densely only when *every*
    // shard backs it with a dense slice; the choice depends on the schema
    // alone, so it is the same choice the single-table pass makes.
    let gathered: Vec<Gathered> = (0..ncols)
        .map(|c| {
            if columns.iter().all(|shard| shard[c].dense().is_some()) {
                let mut col: Vec<f64> = Vec::with_capacity(range.len());
                for seg in segments {
                    let values = columns[seg.shard][c].dense().expect("dense column");
                    col.extend_from_slice(&values[seg.local.start..seg.local.end]);
                }
                Gathered::Dense(col)
            } else {
                let mut col: Vec<Option<f64>> = Vec::with_capacity(range.len());
                for seg in segments {
                    let column = &columns[seg.shard][c];
                    col.extend(seg.local.rows().map(|r| column.get(r)));
                }
                Gathered::Sparse(col)
            }
        })
        .collect();

    let local = exec::bucket_rows_sequential(&gids[range.start..range.end], num_groups);
    let mut buf: Vec<f64> = Vec::new();
    for g in 0..num_groups {
        let run = local.bucket(g);
        if run.is_empty() {
            continue;
        }
        for (slot, col) in states[g].iter_mut().zip(&gathered) {
            buf.clear();
            match col {
                Gathered::Dense(values) => {
                    buf.extend(run.iter().map(|&r| values[r as usize]));
                }
                Gathered::Sparse(values) => {
                    buf.extend(run.iter().filter_map(|&r| values[r as usize]));
                }
            }
            slot.update_slice(&buf);
        }
    }
    states
}

/// Every shard's columns bound as local expressions (`[shard][column]`).
fn bind_shards<'a>(
    table: &'a ShardedTable,
    columns: &[ScalarExpr],
) -> Result<Vec<Vec<BoundExpr<'a>>>> {
    Ok(table
        .shards()
        .iter()
        .map(|shard| columns.iter().map(|c| c.bind(shard)).collect::<std::result::Result<_, _>>())
        .collect::<std::result::Result<_, _>>()?)
}

/// The segmented statistics pass folded in partition order — the body of
/// both multi-shard collectors.
fn segmented_states<C: ShardColumn>(
    num_rows: usize,
    segments: impl Fn(exec::RowRange) -> Vec<ShardSegment> + Sync,
    columns: &[Vec<C>],
    index: &GroupIndex,
    options: &ExecOptions,
) -> Vec<Vec<AggState>> {
    let (gids, num_groups) = (index.row_groups(), index.num_groups());
    exec::fold_partitioned(
        num_rows,
        options,
        |_, range| partition_states_segmented(&segments(range), columns, gids, num_groups, range),
        |acc, partial| exec::merge_state_tables(acc, partial, |a, b| a.merge(b)),
    )
}

/// Per-partition state tables (`partials[partition][group][column]`) for
/// the global partitions `from_partition..` of `table`, computed with the
/// exact [`collect_with`](StratumStatistics::collect_with) kernel. The
/// incremental-maintenance path calls this with `from_partition = 0` at
/// build time (one full scan) and with the first *dirty* partition on
/// append (only the tail containing new rows is rescanned); either way a
/// returned partial is bit-identical to the one a fresh full collect would
/// compute for that partition. Does not count a statistics pass.
pub(crate) fn tail_partials(
    table: &Table,
    index: &GroupIndex,
    columns: &[ScalarExpr],
    options: &ExecOptions,
    from_partition: usize,
) -> Result<Vec<Vec<Vec<AggState>>>> {
    let bound: Vec<_> =
        columns.iter().map(|c| c.bind(table)).collect::<std::result::Result<_, _>>()?;
    let ncols = columns.len();
    let num_groups = index.num_groups();
    let gids = index.row_groups();
    let partitions = exec::partition_rows(table.num_rows());
    let tail: Vec<exec::RowRange> = partitions.into_iter().skip(from_partition).collect();
    Ok(exec::run_indexed(tail.len(), options, |i| {
        partition_states(&bound, gids, num_groups, ncols, tail[i])
    }))
}

/// [`tail_partials`] over a [`ShardedTable`]: the same global-partition
/// segmented kernel as [`collect_sharded`](StratumStatistics::collect_sharded),
/// so a partial never depends on where shard boundaries fall.
pub(crate) fn tail_partials_sharded(
    table: &ShardedTable,
    index: &GroupIndex,
    columns: &[ScalarExpr],
    options: &ExecOptions,
    from_partition: usize,
) -> Result<Vec<Vec<Vec<AggState>>>> {
    let bound = bind_shards(table, columns)?;
    let (gids, num_groups) = (index.row_groups(), index.num_groups());
    let partitions = exec::partition_rows(table.num_rows());
    let tail: Vec<exec::RowRange> = partitions.into_iter().skip(from_partition).collect();
    Ok(exec::run_indexed(tail.len(), options, |i| {
        partition_states_segmented(&table.segments(tail[i]), &bound, gids, num_groups, tail[i])
    }))
}

/// Per-stratum, per-column statistics over a table.
#[derive(Debug, Clone)]
pub struct StratumStatistics {
    /// Names of the tracked aggregation columns, in order.
    pub column_names: Vec<String>,
    /// `states[stratum][column]`.
    pub states: Vec<Vec<AggState>>,
    /// Stratum populations (`n_c`), from the group index.
    pub populations: Vec<u64>,
}

impl StratumStatistics {
    /// Collect statistics in a single sequential pass (the reference
    /// implementation: one accumulator stream, no partition merges).
    pub fn collect(table: &Table, index: &GroupIndex, columns: &[ScalarExpr]) -> Result<Self> {
        let bound: Vec<_> =
            columns.iter().map(|c| c.bind(table)).collect::<std::result::Result<_, _>>()?;
        record_pass();
        let mut states = vec![vec![AggState::default(); columns.len()]; index.num_groups()];
        for row in 0..table.num_rows() {
            let gid = index.group_of(row) as usize;
            for (slot, expr) in states[gid].iter_mut().zip(&bound) {
                if let Some(v) = expr.f64_at(row) {
                    slot.update(v);
                }
            }
        }
        Ok(Self::from_states(index, columns, states))
    }

    /// Collect statistics with `threads` worker threads (convenience
    /// wrapper over [`StratumStatistics::collect_with`]).
    pub fn collect_parallel(
        table: &Table,
        index: &GroupIndex,
        columns: &[ScalarExpr],
        threads: usize,
    ) -> Result<Self> {
        Self::collect_with(table, index, columns, &ExecOptions::new(threads))
    }

    /// Collect statistics on the shared chunk-parallel driver with the
    /// vectorized per-partition kernel: each partition counting-sorts its
    /// rows by stratum (partition-local histogram + stable scatter), then
    /// feeds every stratum's contiguous value run to the lane-merge slice
    /// kernel ([`AggState::update_slice`]). Partition boundaries are fixed
    /// by the row count, the lane schedule is fixed by the run contents,
    /// and partial accumulators merge in partition order, so the result is
    /// **bit-identical for any thread count**. It may differ from the
    /// purely scalar [`StratumStatistics::collect`] in the last ulps of
    /// mean/M2 (lane-merged vs. single-chain Welford rounding); both are
    /// deterministic.
    pub fn collect_with(
        table: &Table,
        index: &GroupIndex,
        columns: &[ScalarExpr],
        options: &ExecOptions,
    ) -> Result<Self> {
        let bound: Vec<_> =
            columns.iter().map(|c| c.bind(table)).collect::<std::result::Result<_, _>>()?;
        record_pass();
        let ncols = columns.len();
        let num_groups = index.num_groups();
        let gids = index.row_groups();

        let states = exec::fold_partitioned(
            table.num_rows(),
            options,
            |_, range| partition_states(&bound, gids, num_groups, ncols, range),
            |acc, partial| exec::merge_state_tables(acc, partial, |a, b| a.merge(b)),
        );
        Ok(Self::from_states(index, columns, states))
    }

    /// Collect statistics over a [`ShardedTable`], given the sharded group
    /// index ([`GroupIndex::build_sharded`]) over the same logical rows.
    ///
    /// Partials are whole **global** partitions, exactly as in
    /// [`StratumStatistics::collect_with`]: each partition gathers its
    /// values from the shard segments that cover it (dense segment copies
    /// when every shard exposes a `f64` slice for the column, per-row
    /// evaluation otherwise), counting-sorts its rows by stratum, and feeds
    /// each run to the lane kernel. Because the per-partition inputs and
    /// the partition-order fold are identical to the single-table pass, the
    /// result is **bit-identical to `collect_with` on the concatenated
    /// table** — for any shard layout (shard boundaries never move
    /// partition boundaries) and any thread count.
    pub fn collect_sharded(
        table: &ShardedTable,
        index: &GroupIndex,
        columns: &[ScalarExpr],
        options: &ExecOptions,
    ) -> Result<Self> {
        let bound = bind_shards(table, columns)?;
        record_pass();
        let segments = |range| table.segments(range);
        let states = segmented_states(table.num_rows(), segments, &bound, index, options);
        Ok(Self::from_states(index, columns, states))
    }

    /// Collect statistics over a [`ShardSet`] — [`collect_sharded`] over
    /// the shard-pass surface, so shards may be local or remote.
    ///
    /// One `expr_values` request per shard fetches every column's per-row
    /// values (dense `f64` buffers exactly when the shard-side expression
    /// exposes a slice — a schema-only property, so every shard agrees with
    /// the single-table pass); the same segmented kernel as
    /// [`collect_sharded`] then reads the fetched buffers instead of bound
    /// expressions. The result is **bit-identical to `collect_sharded` on a local table
    /// with the same layout**, for any thread count.
    ///
    /// [`collect_sharded`]: StratumStatistics::collect_sharded
    pub fn collect_set(
        set: &ShardSet,
        index: &GroupIndex,
        columns: &[ScalarExpr],
        options: &ExecOptions,
    ) -> Result<Self> {
        let exprs: Vec<Option<ScalarExpr>> = columns.iter().map(|c| Some(c.clone())).collect();
        let values: Vec<Vec<ColumnValues>> = set
            .fetch_values(&exprs, options)?
            .into_iter()
            .map(|cols| cols.into_iter().map(|c| c.expect("Some expression")).collect())
            .collect();
        record_pass();
        let segments = |range| set.segments(range);
        let states = segmented_states(set.num_rows(), segments, &values, index, options);
        Ok(Self::from_states(index, columns, states))
    }

    pub(crate) fn from_states(
        index: &GroupIndex,
        columns: &[ScalarExpr],
        states: Vec<Vec<AggState>>,
    ) -> Self {
        StratumStatistics {
            column_names: columns.iter().map(|c| c.display_name()).collect(),
            states,
            populations: index.sizes().to_vec(),
        }
    }

    /// Fold cached per-partition partials (see [`tail_partials`]) into the
    /// statistics a fresh [`collect_with`](StratumStatistics::collect_with)
    /// over the same rows would produce. The fold is the same strict
    /// ascending-partition left fold `fold_partitioned` runs, over
    /// bit-identical partials, so the result is **bit-identical to a full
    /// re-collect** — without touching a single row. Partials must all be
    /// padded to `index.num_groups()` groups (a partition that predates a
    /// stratum holds default accumulators for it, exactly what a fresh
    /// kernel computes for a stratum with no rows in the partition).
    pub(crate) fn from_partials(
        index: &GroupIndex,
        columns: &[ScalarExpr],
        partials: &[Vec<Vec<AggState>>],
    ) -> Self {
        let mut iter = partials.iter();
        let mut acc = iter.next().cloned().unwrap_or_default();
        for partial in iter {
            exec::merge_state_tables(&mut acc, partial.clone(), |a, b| a.merge(b));
        }
        Self::from_states(index, columns, acc)
    }

    /// Number of strata.
    pub fn num_strata(&self) -> usize {
        self.states.len()
    }

    /// Number of tracked columns.
    pub fn num_columns(&self) -> usize {
        self.column_names.len()
    }

    /// Population `n_c` of stratum `c`.
    pub fn population(&self, stratum: usize) -> u64 {
        self.populations[stratum]
    }

    /// Mean `μ_{c,ℓ}`.
    pub fn mean(&self, stratum: usize, column: usize) -> f64 {
        self.states[stratum][column].mean
    }

    /// Variance `σ²_{c,ℓ}` under the chosen estimator.
    pub fn variance(&self, stratum: usize, column: usize, kind: VarianceKind) -> f64 {
        match kind {
            VarianceKind::Sample => self.states[stratum][column].sample_variance(),
            VarianceKind::Population => self.states[stratum][column].population_variance(),
        }
    }

    /// Coefficient of variation `σ/μ` (infinite if the mean is zero but the
    /// variance is not; zero for constant-zero groups).
    pub fn cv(&self, stratum: usize, column: usize, kind: VarianceKind) -> f64 {
        let mean = self.mean(stratum, column);
        let sd = self.variance(stratum, column, kind).sqrt();
        if sd == 0.0 {
            0.0
        } else if mean == 0.0 {
            f64::INFINITY
        } else {
            sd / mean.abs()
        }
    }

    /// Merge stratum statistics onto a coarser grouping: returns
    /// `[coarse group][column]` accumulators (the statistics of the paper's
    /// groups `a ∈ A_i` derived from the finest strata).
    pub fn coarsen(&self, projection: &GroupProjection) -> Vec<Vec<AggState>> {
        let mut coarse =
            vec![vec![AggState::default(); self.num_columns()]; projection.num_groups()];
        for (fine_gid, states) in self.states.iter().enumerate() {
            let cid = projection.coarse_of(fine_gid as u32) as usize;
            for (slot, s) in coarse[cid].iter_mut().zip(states) {
                slot.merge(s);
            }
        }
        coarse
    }

    /// Coarse populations under a projection.
    pub fn coarsen_populations(&self, projection: &GroupProjection) -> Vec<u64> {
        let mut pops = vec![0u64; projection.num_groups()];
        for (fine_gid, &n) in self.populations.iter().enumerate() {
            pops[projection.coarse_of(fine_gid as u32) as usize] += n;
        }
        pops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvopt_table::{DataType, TableBuilder, Value};

    fn table() -> Table {
        let mut b = TableBuilder::new(&[
            ("g", DataType::Str),
            ("h", DataType::Str),
            ("x", DataType::Float64),
            ("y", DataType::Float64),
        ]);
        let rows = [
            ("a", "p", 1.0, 10.0),
            ("a", "p", 3.0, 10.0),
            ("a", "q", 5.0, 20.0),
            ("b", "p", 100.0, 0.5),
            ("b", "q", 200.0, 1.5),
            ("b", "q", 300.0, 2.5),
        ];
        for (g, h, x, y) in rows {
            b.push_row(&[Value::str(g), Value::str(h), Value::Float64(x), Value::Float64(y)])
                .unwrap();
        }
        b.finish()
    }

    fn index(t: &Table) -> GroupIndex {
        GroupIndex::build(t, &[ScalarExpr::col("g"), ScalarExpr::col("h")]).unwrap()
    }

    #[test]
    fn collect_per_stratum() {
        let t = table();
        let idx = index(&t);
        let stats =
            StratumStatistics::collect(&t, &idx, &[ScalarExpr::col("x"), ScalarExpr::col("y")])
                .unwrap();
        assert_eq!(stats.num_strata(), 4);
        assert_eq!(stats.num_columns(), 2);
        // Stratum (a,p): x values 1,3.
        let ap = (0..4)
            .find(|&g| {
                idx.key(g as u32)[0].to_string() == "a" && idx.key(g as u32)[1].to_string() == "p"
            })
            .unwrap();
        assert_eq!(stats.population(ap), 2);
        assert!((stats.mean(ap, 0) - 2.0).abs() < 1e-12);
        assert!((stats.variance(ap, 0, VarianceKind::Sample) - 2.0).abs() < 1e-12);
        assert!((stats.variance(ap, 0, VarianceKind::Population) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cv_edge_cases() {
        let t = table();
        let idx = index(&t);
        let stats = StratumStatistics::collect(&t, &idx, &[ScalarExpr::col("y")]).unwrap();
        // Stratum (a,p) has constant y=10 → cv 0.
        let ap = (0..4)
            .find(|&g| {
                idx.key(g as u32)[0].to_string() == "a" && idx.key(g as u32)[1].to_string() == "p"
            })
            .unwrap();
        assert_eq!(stats.cv(ap, 0, VarianceKind::Sample), 0.0);
    }

    #[test]
    fn coarsen_matches_direct() {
        let t = table();
        let idx = index(&t);
        let stats = StratumStatistics::collect(&t, &idx, &[ScalarExpr::col("x")]).unwrap();
        let proj = idx.project(&[0]);
        let coarse = stats.coarsen(&proj);
        let pops = stats.coarsen_populations(&proj);

        // Compare against a direct single-level index.
        let direct_idx = GroupIndex::build(&t, &[ScalarExpr::col("g")]).unwrap();
        let direct = StratumStatistics::collect(&t, &direct_idx, &[ScalarExpr::col("x")]).unwrap();
        for cid in 0..proj.num_groups() {
            let key = proj.key(cid as u32);
            let dg = (0..direct_idx.num_groups() as u32)
                .find(|&g| direct_idx.key(g) == key)
                .unwrap() as usize;
            assert_eq!(pops[cid], direct.population(dg));
            assert!((coarse[cid][0].mean - direct.mean(dg, 0)).abs() < 1e-12);
            assert!(
                (coarse[cid][0].sample_variance() - direct.variance(dg, 0, VarianceKind::Sample))
                    .abs()
                    < 1e-9
            );
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        // Build a bigger table so the parallel path actually splits.
        let mut b = TableBuilder::new(&[("g", DataType::Int64), ("x", DataType::Float64)]);
        for i in 0..20_000i64 {
            b.push_row(&[Value::Int64(i % 7), Value::Float64((i as f64).sin() * 100.0)]).unwrap();
        }
        let t = b.finish();
        let idx = GroupIndex::build(&t, &[ScalarExpr::col("g")]).unwrap();
        let cols = [ScalarExpr::col("x")];
        let seq = StratumStatistics::collect(&t, &idx, &cols).unwrap();
        let par = StratumStatistics::collect_parallel(&t, &idx, &cols, 4).unwrap();
        for g in 0..idx.num_groups() {
            assert_eq!(seq.population(g), par.population(g));
            assert!((seq.mean(g, 0) - par.mean(g, 0)).abs() < 1e-9);
            assert!(
                (seq.variance(g, 0, VarianceKind::Sample)
                    - par.variance(g, 0, VarianceKind::Sample))
                .abs()
                    < 1e-6
            );
        }
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        // Spans multiple partitions, so partial merges actually happen; the
        // fixed partitioning must make rounding identical for any thread
        // count.
        let n = 2 * cvopt_table::exec::CHUNK_ROWS + 7777;
        let mut b = TableBuilder::new(&[("g", DataType::Int64), ("x", DataType::Float64)]);
        for i in 0..n as i64 {
            b.push_row(&[Value::Int64(i % 23), Value::Float64((i as f64 * 0.7).sin() * 1e3)])
                .unwrap();
        }
        let t = b.finish();
        let idx = GroupIndex::build(&t, &[ScalarExpr::col("g")]).unwrap();
        let cols = [ScalarExpr::col("x")];
        let reference =
            StratumStatistics::collect_with(&t, &idx, &cols, &ExecOptions::sequential()).unwrap();
        for threads in [2usize, 3, 8] {
            let par = StratumStatistics::collect_with(&t, &idx, &cols, &ExecOptions::new(threads))
                .unwrap();
            for g in 0..idx.num_groups() {
                assert_eq!(
                    par.mean(g, 0).to_bits(),
                    reference.mean(g, 0).to_bits(),
                    "mean differs at threads={threads}"
                );
                assert_eq!(
                    par.states[g][0].m2.to_bits(),
                    reference.states[g][0].m2.to_bits(),
                    "m2 differs at threads={threads}"
                );
            }
        }
    }

    #[test]
    fn sharded_collect_is_bit_identical_for_any_layout() {
        // Float64 (dense gather) and Int64 (per-row evaluation) columns;
        // shard boundaries both inside and across partition boundaries,
        // plus an empty shard.
        let n = cvopt_table::exec::CHUNK_ROWS + 2345;
        let mut b = TableBuilder::new(&[
            ("g", DataType::Int64),
            ("x", DataType::Float64),
            ("i", DataType::Int64),
        ]);
        for i in 0..n as i64 {
            b.push_row(&[
                Value::Int64(i % 19),
                Value::Float64((i as f64 * 0.37).sin() * 1e3),
                Value::Int64(i % 101),
            ])
            .unwrap();
        }
        let t = b.finish();
        let cols = [ScalarExpr::col("x"), ScalarExpr::col("i")];
        let idx = GroupIndex::build_with(&t, &[ScalarExpr::col("g")], &ExecOptions::sequential())
            .unwrap();
        let reference =
            StratumStatistics::collect_with(&t, &idx, &cols, &ExecOptions::sequential()).unwrap();

        let empty = TableBuilder::from_schema(t.schema().clone()).finish();
        let layouts: Vec<ShardedTable> = vec![
            ShardedTable::split(&t, 1).unwrap(),
            ShardedTable::split(&t, 3).unwrap(),
            ShardedTable::from_tables(vec![
                t.take(&(0..777).collect::<Vec<_>>()),
                empty,
                t.take(&(777..n).collect::<Vec<_>>()),
            ])
            .unwrap(),
        ];
        for (layout, sharded) in layouts.iter().enumerate() {
            let sidx =
                GroupIndex::build_sharded(sharded, &[ScalarExpr::col("g")], &ExecOptions::new(2))
                    .unwrap();
            assert_eq!(sidx.row_groups(), idx.row_groups(), "layout {layout}");
            for threads in [1usize, 4] {
                let got = StratumStatistics::collect_sharded(
                    sharded,
                    &sidx,
                    &cols,
                    &ExecOptions::new(threads),
                )
                .unwrap();
                assert_eq!(got.populations, reference.populations);
                for g in 0..idx.num_groups() {
                    for c in 0..cols.len() {
                        assert_eq!(
                            got.mean(g, c).to_bits(),
                            reference.mean(g, c).to_bits(),
                            "layout {layout}, threads {threads}, g {g}, c {c}: mean"
                        );
                        assert_eq!(
                            got.states[g][c].m2.to_bits(),
                            reference.states[g][c].m2.to_bits(),
                            "layout {layout}, threads {threads}, g {g}, c {c}: m2"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_small_table_falls_back() {
        let t = table();
        let idx = index(&t);
        let stats =
            StratumStatistics::collect_parallel(&t, &idx, &[ScalarExpr::col("x")], 8).unwrap();
        assert_eq!(stats.num_strata(), 4);
    }
}
