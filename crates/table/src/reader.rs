//! The shard-pass surface: what a shard must answer for scatter-gather.
//!
//! [`ShardedTable`] (see [`crate::shard`]) proved that only four things
//! ever cross a shard boundary: a shard-local group index, a shard-local
//! predicate bitmap, per-row expression values, and gathered rows. This
//! module extracts that surface into the [`ShardReader`] trait so a shard
//! can live anywhere — [`LocalShard`] wraps an in-process [`Table`], and a
//! remote implementation can answer the same four questions over a wire —
//! and [`ShardSet`] runs the scatter-gather passes over any mix of them.
//!
//! The determinism contract is inherited unchanged: every pass over a
//! `ShardSet` merges shard answers in **fixed shard order** (global row
//! order) and anchors float accumulation to global partitions, so the
//! result is byte-identical to the same pass over the concatenated single
//! table — and therefore to a local [`ShardedTable`] with the same layout —
//! for any thread count. For that to hold, an implementation must answer
//! each request exactly as `LocalShard` would: the same first-seen group
//! interning, the same bitmap bits, bit-equal `f64` values.

use std::sync::Arc;

use crate::bitmap::Bitmap;
use crate::error::TableError;
use crate::exec::{self, ExecOptions, RowRange};
use crate::expr::{BoundExpr, ScalarExpr};
use crate::groupby::GroupIndex;
use crate::predicate::Predicate;
use crate::schema::Schema;
use crate::shard::{self, ShardSegment, ShardedTable};
use crate::table::{Table, TableBuilder};
use crate::Result;

/// Per-row values of one expression over a whole shard, as shipped across
/// the pass boundary. `Dense` is the contiguous-`f64`-column fast path
/// (exactly when the shard-side expression exposes a
/// [`f64_slice`](crate::expr::BoundExpr::f64_slice)); `Sparse` carries the
/// per-row [`f64_at`](crate::expr::BoundExpr::f64_at) outputs, missing
/// values included. Which variant arrives is a property of the schema and
/// expression alone, never of the data, so every shard of a set agrees.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnValues {
    /// One value per row; the expression is a plain `Float64` column.
    Dense(Vec<f64>),
    /// One optional value per row (non-numeric rows are `None`).
    Sparse(Vec<Option<f64>>),
}

impl ColumnValues {
    /// Whether this is the dense (plain `Float64` column) representation.
    pub fn is_dense(&self) -> bool {
        matches!(self, ColumnValues::Dense(_))
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        match self {
            ColumnValues::Dense(v) => v.len(),
            ColumnValues::Sparse(v) => v.len(),
        }
    }

    /// Whether the column covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// How a segmented scatter-gather pass reads one column of one shard: a
/// locally bound expression ([`BoundExpr`]) or values shipped across the
/// pass boundary ([`ColumnValues`]). Both answer bit-identically for the
/// same shard rows, so one kernel serves local and remote layouts alike.
pub trait ShardColumn: Sync {
    /// The whole shard column as a contiguous `f64` slice, when the column
    /// is a plain `Float64` column (a schema-only property).
    fn dense(&self) -> Option<&[f64]>;

    /// Value at shard-local `row` (`None` for a missing value).
    fn get(&self, row: usize) -> Option<f64>;
}

impl ShardColumn for BoundExpr<'_> {
    fn dense(&self) -> Option<&[f64]> {
        self.f64_slice()
    }

    #[inline]
    fn get(&self, row: usize) -> Option<f64> {
        self.f64_at(row)
    }
}

impl ShardColumn for ColumnValues {
    fn dense(&self) -> Option<&[f64]> {
        match self {
            ColumnValues::Dense(v) => Some(v),
            ColumnValues::Sparse(_) => None,
        }
    }

    /// Matches the shard-side `f64_at` bit for bit.
    #[inline]
    fn get(&self, row: usize) -> Option<f64> {
        match self {
            ColumnValues::Dense(v) => Some(v[row]),
            ColumnValues::Sparse(v) => v[row],
        }
    }
}

/// One shard's answers to the four scatter-gather pass requests.
///
/// Implementations must be *deterministic mirrors* of [`LocalShard`]: for
/// the same shard contents, every method returns the identical value
/// (bit-equal floats included), because the coordinator's merges assume
/// shard answers are interchangeable with in-process ones.
pub trait ShardReader: std::fmt::Debug + Send + Sync {
    /// The shard's schema.
    fn schema(&self) -> &Schema;

    /// Number of rows the shard owns.
    fn num_rows(&self) -> usize;

    /// Human-readable location for error messages and `/explain`
    /// (e.g. `local` or `127.0.0.1:7000/t/0`).
    fn location(&self) -> String;

    /// Shard-local group index over `exprs` (sequential build order).
    fn group_index(&self, exprs: &[ScalarExpr]) -> Result<GroupIndex>;

    /// Shard-local predicate bitmap over all rows.
    fn predicate_bitmap(&self, predicate: &Predicate) -> Result<Bitmap>;

    /// Per-row values for each expression (`None` entries pass through,
    /// for aggregates like `COUNT(*)` with no input).
    fn expr_values(&self, exprs: &[Option<ScalarExpr>]) -> Result<Vec<Option<ColumnValues>>>;

    /// Copy the shard-local `rows`, in the given order, into a table.
    fn take_rows(&self, rows: &[u32]) -> Result<Table>;
}

/// An in-process [`ShardReader`] over an owned [`Table`] — the reference
/// implementation every other one must match bit for bit.
#[derive(Debug, Clone)]
pub struct LocalShard {
    table: Table,
}

impl LocalShard {
    /// Wrap an owned table.
    pub fn new(table: Table) -> LocalShard {
        LocalShard { table }
    }

    /// The wrapped table.
    pub fn table(&self) -> &Table {
        &self.table
    }
}

impl ShardReader for LocalShard {
    fn schema(&self) -> &Schema {
        self.table.schema()
    }

    fn num_rows(&self) -> usize {
        self.table.num_rows()
    }

    fn location(&self) -> String {
        "local".to_string()
    }

    fn group_index(&self, exprs: &[ScalarExpr]) -> Result<GroupIndex> {
        // Sequential inside the shard: the shard level is where the
        // coordinator parallelizes, and the build is thread-count
        // invariant anyway.
        GroupIndex::build_with(&self.table, exprs, &ExecOptions::sequential())
    }

    fn predicate_bitmap(&self, predicate: &Predicate) -> Result<Bitmap> {
        Ok(predicate
            .bind(&self.table)?
            .eval_bitmap_with(self.table.num_rows(), &ExecOptions::sequential()))
    }

    fn expr_values(&self, exprs: &[Option<ScalarExpr>]) -> Result<Vec<Option<ColumnValues>>> {
        let n = self.table.num_rows();
        exprs
            .iter()
            .map(|expr| {
                let Some(expr) = expr else { return Ok(None) };
                let bound = expr.bind(&self.table)?;
                Ok(Some(match bound.f64_slice() {
                    Some(values) => ColumnValues::Dense(values.to_vec()),
                    None => ColumnValues::Sparse((0..n).map(|row| bound.f64_at(row)).collect()),
                }))
            })
            .collect()
    }

    fn take_rows(&self, rows: &[u32]) -> Result<Table> {
        let n = self.table.num_rows();
        if let Some(&bad) = rows.iter().find(|&&r| r as usize >= n) {
            return Err(TableError::invalid(format!(
                "take_rows row {bad} out of range for a {n}-row shard"
            )));
        }
        let rows: Vec<usize> = rows.iter().map(|&r| r as usize).collect();
        Ok(self.table.take(&rows))
    }
}

/// A set of [`ShardReader`]s with one logical row space — the coordinator's
/// counterpart of [`ShardedTable`], generalized over where shards live.
///
/// Offset layout, row location, and segment math are identical to
/// `ShardedTable`'s, so a pass over a `ShardSet` of [`LocalShard`]s is the
/// same computation as the corresponding `*_sharded` pass.
#[derive(Debug, Clone)]
pub struct ShardSet {
    readers: Vec<Arc<dyn ShardReader>>,
    /// `offsets[s]` is the global row id of shard `s`'s first row;
    /// `offsets[num_shards]` is the total row count.
    offsets: Vec<usize>,
}

impl ShardSet {
    /// Assemble a set from schema-identical readers (empty shards allowed;
    /// at least one reader required so the schema is defined).
    pub fn new(readers: Vec<Arc<dyn ShardReader>>) -> Result<ShardSet> {
        let Some(first) = readers.first() else {
            return Err(TableError::invalid("a shard set needs at least one shard"));
        };
        for (s, reader) in readers.iter().enumerate().skip(1) {
            if reader.schema() != first.schema() {
                return Err(TableError::invalid(format!(
                    "shard {s} ({}) schema differs from shard 0's ({})",
                    reader.location(),
                    first.location()
                )));
            }
        }
        let mut offsets = Vec::with_capacity(readers.len() + 1);
        let mut total = 0usize;
        offsets.push(0);
        for reader in &readers {
            total += reader.num_rows();
            offsets.push(total);
        }
        Ok(ShardSet { readers, offsets })
    }

    /// Wrap every shard of a [`ShardedTable`] in a [`LocalShard`].
    pub fn from_sharded(table: &ShardedTable) -> ShardSet {
        let readers: Vec<Arc<dyn ShardReader>> =
            table.shards().iter().map(|t| Arc::new(LocalShard::new(t.clone())) as _).collect();
        ShardSet::new(readers).expect("sharded table shards are schema-identical")
    }

    /// The shared schema.
    pub fn schema(&self) -> &Schema {
        self.readers[0].schema()
    }

    /// Number of shards (including empty ones).
    pub fn num_shards(&self) -> usize {
        self.readers.len()
    }

    /// Total logical rows across all shards.
    pub fn num_rows(&self) -> usize {
        *self.offsets.last().expect("offsets never empty")
    }

    /// Reader for shard `s`.
    pub fn reader(&self, s: usize) -> &Arc<dyn ShardReader> {
        &self.readers[s]
    }

    /// All readers in shard order.
    pub fn readers(&self) -> &[Arc<dyn ShardReader>] {
        &self.readers
    }

    /// Global row id of shard `s`'s first row (and the total row count at
    /// index `num_shards`) — same layout as [`ShardedTable::offsets`].
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Per-shard row counts, in shard order (the shard *layout*; folded
    /// into engine fingerprints, identically to a local sharded table's).
    pub fn shard_rows(&self) -> Vec<usize> {
        self.readers.iter().map(|r| r.num_rows()).collect()
    }

    /// Per-shard locations, in shard order (for `/explain` and errors).
    pub fn locations(&self) -> Vec<String> {
        self.readers.iter().map(|r| r.location()).collect()
    }

    /// The shard containing global `row`, and the row's shard-local id —
    /// the offset math of [`ShardedTable::locate`].
    pub fn locate(&self, row: usize) -> (usize, usize) {
        shard::locate(&self.offsets, row)
    }

    /// The shard segments covering the global row range, in shard order —
    /// the offset math of [`ShardedTable::segments`].
    pub fn segments(&self, range: RowRange) -> Vec<ShardSegment> {
        shard::segments(&self.offsets, range)
    }

    /// Build the group index over the set's logical row space: one
    /// scatter-window request per shard (in parallel), merged **in shard
    /// order** — the same merge as [`GroupIndex::build_sharded`], so the
    /// result is identical to building over the concatenated table.
    pub fn build_group_index(
        &self,
        exprs: &[ScalarExpr],
        options: &ExecOptions,
    ) -> Result<GroupIndex> {
        let dim_names: Vec<String> = exprs.iter().map(|e| e.display_name()).collect();
        let n = self.num_rows();
        if exprs.is_empty() {
            // Same early return as the local builds: one group, no shard
            // round-trips needed.
            return GroupIndex::from_parts(dim_names, vec![0; n], vec![Vec::new()], vec![n as u64]);
        }
        let locals: Vec<GroupIndex> =
            exec::run_indexed(self.num_shards(), options, |s| self.readers[s].group_index(exprs))
                .into_iter()
                .collect::<Result<_>>()?;
        for (s, local) in locals.iter().enumerate() {
            if local.num_rows() != self.readers[s].num_rows() {
                return Err(TableError::invalid(format!(
                    "shard {s} ({}) returned a {}-row scatter window for {} rows",
                    self.readers[s].location(),
                    local.num_rows(),
                    self.readers[s].num_rows()
                )));
            }
        }
        Ok(GroupIndex::merge_shard_locals(dim_names, &locals, n))
    }

    /// Per-shard predicate bitmaps, in shard order — the counterpart of
    /// [`Predicate::eval_sharded`].
    pub fn eval_predicate(
        &self,
        predicate: &Predicate,
        options: &ExecOptions,
    ) -> Result<Vec<Bitmap>> {
        let bitmaps: Vec<Bitmap> = exec::run_indexed(self.num_shards(), options, |s| {
            self.readers[s].predicate_bitmap(predicate)
        })
        .into_iter()
        .collect::<Result<_>>()?;
        for (s, bm) in bitmaps.iter().enumerate() {
            if bm.len() != self.readers[s].num_rows() {
                return Err(TableError::invalid(format!(
                    "shard {s} ({}) returned a {}-row bitmap for {} rows",
                    self.readers[s].location(),
                    bm.len(),
                    self.readers[s].num_rows()
                )));
            }
        }
        Ok(bitmaps)
    }

    /// Per-shard expression values (outer index: shard; inner: expression),
    /// fetched in parallel.
    pub fn fetch_values(
        &self,
        exprs: &[Option<ScalarExpr>],
        options: &ExecOptions,
    ) -> Result<Vec<Vec<Option<ColumnValues>>>> {
        let per_shard: Vec<Vec<Option<ColumnValues>>> =
            exec::run_indexed(self.num_shards(), options, |s| self.readers[s].expr_values(exprs))
                .into_iter()
                .collect::<Result<_>>()?;
        for (s, columns) in per_shard.iter().enumerate() {
            if columns.len() != exprs.len() {
                return Err(TableError::invalid(format!(
                    "shard {s} ({}) returned {} value columns for {} expressions",
                    self.readers[s].location(),
                    columns.len(),
                    exprs.len()
                )));
            }
            let rows = self.readers[s].num_rows();
            for (c, col) in columns.iter().enumerate() {
                if let Some(col) = col {
                    if col.len() != rows {
                        return Err(TableError::invalid(format!(
                            "shard {s} ({}) returned {} values for column {c} over {rows} rows",
                            self.readers[s].location(),
                            col.len()
                        )));
                    }
                }
            }
        }
        Ok(per_shard)
    }

    /// Copy the rows with global ids in `rows` (in the given order) into a
    /// standalone [`Table`] — byte-identical to [`ShardedTable::gather`]
    /// over the same layout. Rows are fetched per shard in one batch each,
    /// then reassembled in request order.
    pub fn gather(&self, rows: &[usize]) -> Result<Table> {
        let num_shards = self.num_shards();
        let mut located = Vec::with_capacity(rows.len());
        let mut per_shard: Vec<Vec<u32>> = vec![Vec::new(); num_shards];
        for &row in rows {
            if row >= self.num_rows() {
                return Err(TableError::invalid(format!(
                    "gather row {row} out of range for a {}-row shard set",
                    self.num_rows()
                )));
            }
            let (shard, local) = self.locate(row);
            located.push(shard);
            per_shard[shard].push(local as u32);
        }
        let fetched: Vec<Option<Table>> = (0..num_shards)
            .map(|s| {
                if per_shard[s].is_empty() {
                    Ok(None)
                } else {
                    self.readers[s].take_rows(&per_shard[s]).map(Some)
                }
            })
            .collect::<Result<_>>()?;
        for (s, t) in fetched.iter().enumerate() {
            if let Some(t) = t {
                if t.num_rows() != per_shard[s].len() || t.schema() != self.schema() {
                    return Err(TableError::invalid(format!(
                        "shard {s} ({}) returned a mismatched gather batch",
                        self.readers[s].location()
                    )));
                }
            }
        }

        // Reassemble in request order: rows were appended to each shard's
        // batch in request order too, so a per-shard cursor walks each
        // batch front to back. The push_row sequence is exactly the one
        // `ShardedTable::gather` performs.
        let mut b = TableBuilder::from_schema(self.schema().clone());
        b.reserve(rows.len());
        let mut cursors = vec![0usize; num_shards];
        for &shard in &located {
            let t = fetched[shard].as_ref().expect("fetched batch for a located shard");
            let values = t.row(cursors[shard]);
            cursors[shard] += 1;
            b.push_row(&values)?;
        }
        Ok(b.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{DataType, Value};

    fn table(n: usize) -> Table {
        let mut b = TableBuilder::new(&[
            ("g", DataType::Str),
            ("x", DataType::Float64),
            ("i", DataType::Int64),
        ]);
        for i in 0..n {
            b.push_row(&[
                Value::str(format!("g{}", i % 7)),
                Value::Float64((i as f64 * 0.37).sin()),
                Value::Int64((i % 11) as i64),
            ])
            .unwrap();
        }
        b.finish()
    }

    fn uneven_set(t: &Table) -> (ShardedTable, ShardSet) {
        let empty = TableBuilder::from_schema(t.schema().clone()).finish();
        let n = t.num_rows();
        let sharded = ShardedTable::from_tables(vec![
            t.take(&(0..n / 5).collect::<Vec<_>>()),
            empty,
            t.take(&(n / 5..n).collect::<Vec<_>>()),
        ])
        .unwrap();
        let set = ShardSet::from_sharded(&sharded);
        (sharded, set)
    }

    #[test]
    fn offsets_locate_segments_match_sharded_table() {
        let t = table(500);
        let (sharded, set) = uneven_set(&t);
        assert_eq!(set.offsets(), sharded.offsets());
        assert_eq!(set.shard_rows(), sharded.shard_rows());
        for row in [0usize, 99, 100, 101, 499] {
            assert_eq!(set.locate(row), sharded.locate(row));
        }
        for range in [RowRange { start: 0, end: 500 }, RowRange { start: 50, end: 321 }] {
            assert_eq!(set.segments(range), sharded.segments(range));
        }
    }

    #[test]
    fn group_index_matches_sharded_build() {
        let t = table(500);
        let (sharded, set) = uneven_set(&t);
        let exprs = [ScalarExpr::col("g"), ScalarExpr::col("i")];
        let reference =
            GroupIndex::build_sharded(&sharded, &exprs, &ExecOptions::sequential()).unwrap();
        for threads in [1usize, 4] {
            let got = set.build_group_index(&exprs, &ExecOptions::new(threads)).unwrap();
            assert_eq!(got.row_groups(), reference.row_groups(), "threads {threads}");
            assert_eq!(got.sizes(), reference.sizes());
            for g in 0..reference.num_groups() as u32 {
                assert_eq!(got.key(g), reference.key(g));
            }
        }
        // Empty expression list: one group, no shard round trips.
        let gi = set.build_group_index(&[], &ExecOptions::sequential()).unwrap();
        assert_eq!(gi.num_groups(), 1);
        assert_eq!(gi.size(0), 500);
    }

    #[test]
    fn predicate_bitmaps_match_sharded_eval() {
        use crate::predicate::CmpOp;
        let t = table(500);
        let (sharded, set) = uneven_set(&t);
        let pred = Predicate::cmp("x", CmpOp::Gt, 0.0);
        let reference = pred.eval_sharded(&sharded, &ExecOptions::sequential()).unwrap();
        let got = set.eval_predicate(&pred, &ExecOptions::new(4)).unwrap();
        assert_eq!(got, reference);
    }

    #[test]
    fn expr_values_agree_with_bound_expressions() {
        let t = table(100);
        let shard = LocalShard::new(t.clone());
        let exprs = [
            Some(ScalarExpr::col("x")),
            Some(ScalarExpr::col("i")),
            None,
            Some(ScalarExpr::col("g")),
        ];
        let cols = shard.expr_values(&exprs).unwrap();
        assert!(cols[0].as_ref().unwrap().is_dense());
        assert!(!cols[1].as_ref().unwrap().is_dense());
        assert!(cols[2].is_none());
        let bx = ScalarExpr::col("x").bind(&t).unwrap();
        let bi = ScalarExpr::col("i").bind(&t).unwrap();
        for row in 0..100 {
            assert_eq!(cols[0].as_ref().unwrap().get(row), bx.f64_at(row));
            assert_eq!(cols[1].as_ref().unwrap().get(row), bi.f64_at(row));
            // Strings have no f64 value.
            assert_eq!(cols[3].as_ref().unwrap().get(row), None);
        }
    }

    #[test]
    fn gather_matches_sharded_gather() {
        let t = table(200);
        let (sharded, set) = uneven_set(&t);
        let rows = [199usize, 0, 40, 39, 150, 41];
        let got = set.gather(&rows).unwrap();
        let reference = sharded.gather(&rows);
        assert_eq!(got.num_rows(), reference.num_rows());
        for i in 0..rows.len() {
            assert_eq!(got.row(i), reference.row(i));
        }
        assert!(set.gather(&[500]).is_err());
    }

    #[test]
    fn new_rejects_schema_mismatch_and_emptiness() {
        let a = LocalShard::new(table(5));
        let mut b = TableBuilder::new(&[("other", DataType::Int64)]);
        b.push_row(&[Value::Int64(1)]).unwrap();
        let err =
            ShardSet::new(vec![Arc::new(a), Arc::new(LocalShard::new(b.finish()))]).unwrap_err();
        assert!(err.to_string().contains("schema"), "{err}");
        assert!(ShardSet::new(Vec::new()).is_err());
    }

    #[test]
    fn take_rows_validates_bounds() {
        let shard = LocalShard::new(table(10));
        assert!(shard.take_rows(&[0, 9]).is_ok());
        assert!(shard.take_rows(&[10]).is_err());
    }
}
