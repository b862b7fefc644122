//! Sharded tables: one logical row space over independently-owned shards.
//!
//! A [`ShardedTable`] is a list of schema-identical [`Table`]s whose rows
//! concatenate, in shard order, into one logical table. Every scatter-gather
//! pass in the workspace treats a shard as a *coarser partition*: work runs
//! per shard (and per fixed-size partition within each shard), and partials
//! merge in **fixed shard order, then partition order** — the same ordered
//! merge discipline the execution layer uses for partitions, lifted one
//! level. The contract that falls out is the one the rest of the stack
//! relies on:
//!
//! > Every pass over a `ShardedTable` is **byte-identical** to the same
//! > pass over the concatenated single table, for any shard layout
//! > (uneven or empty shards included) and any thread count.
//!
//! Integer passes (group-index interning, predicate bitmaps) get this from
//! ordered merges alone, and the stratified draw then runs on the merged
//! global index like any single table's. Float passes (statistics,
//! exact aggregation) get it by anchoring their partition boundaries to the
//! *global* row space (see [`ShardedTable::segments`]): a partial is always
//! a whole global partition, assembled from the shard segments that cover
//! it, so the accumulation chain never depends on where shard boundaries
//! fall.
//!
//! A shard owns its column storage outright — nothing is shared with its
//! siblings — so a future remote shard is just one whose segments arrive
//! over the wire.
//!
//! The contract, demonstrated (note the *uneven* split and the exact
//! float equality):
//!
//! ```
//! use cvopt_table::{sql, DataType, ShardedTable, TableBuilder, Value};
//!
//! let mut b = TableBuilder::new(&[("g", DataType::Str), ("x", DataType::Float64)]);
//! for i in 0..1000u32 {
//!     let g = ["a", "b", "c"][(i % 3) as usize];
//!     b.push_row(&[Value::str(g), Value::Float64((i as f64 * 0.7).sin())]).unwrap();
//! }
//! let table = b.finish();
//! let sharded = ShardedTable::from_tables(vec![
//!     table.take(&(0..137).collect::<Vec<_>>()),      // uneven...
//!     table.take(&(137..137).collect::<Vec<_>>()),    // ...empty...
//!     table.take(&(137..1000).collect::<Vec<_>>()),   // ...and the rest
//! ]).unwrap();
//!
//! let stmt = "SELECT g, AVG(x), SUM(x) FROM t GROUP BY g";
//! let single = sql::run(&table, stmt).unwrap();
//! let scatter = sql::run_sharded(&sharded, stmt).unwrap();
//! assert_eq!(single[0].keys, scatter[0].keys);
//! assert_eq!(single[0].values, scatter[0].values); // exact f64 equality
//! ```

use crate::error::TableError;
use crate::exec::RowRange;
use crate::table::{Table, TableBuilder};
use crate::Result;

/// One contiguous piece of a shard covering part of a global row range.
///
/// Produced by [`ShardedTable::segments`]: a global range is covered by one
/// segment per overlapped shard, in shard order, so `global_start` values
/// are ascending and the segments concatenate back into the range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSegment {
    /// Index of the shard the rows live in.
    pub shard: usize,
    /// Shard-local rows covered, as a half-open range.
    pub local: RowRange,
    /// Global row id of `local.start`.
    pub global_start: usize,
}

impl ShardSegment {
    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.local.len()
    }

    /// Whether the segment covers no rows.
    pub fn is_empty(&self) -> bool {
        self.local.is_empty()
    }
}

/// The shard containing global `row` under the offset layout `offsets`
/// (`offsets[s]` is shard `s`'s first global row, the last entry the total
/// row count), and the row's shard-local id. Shared by [`ShardedTable`] and
/// [`ShardSet`](crate::ShardSet), so both locate rows identically.
pub(crate) fn locate(offsets: &[usize], row: usize) -> (usize, usize) {
    let total = *offsets.last().expect("offsets never empty");
    debug_assert!(row < total, "row {row} out of range");
    // `partition_point` lands on the last shard *starting* at or before
    // `row`; skip back over empty shards that share the same offset.
    let shard = offsets.partition_point(|&o| o <= row) - 1;
    let shard = (0..=shard).rev().find(|&s| offsets[s + 1] > row).expect("row in range");
    (shard, row - offsets[shard])
}

/// The shard segments covering the global row range `range` under the
/// offset layout `offsets`, in shard order; empty shards contribute no
/// segment. Shared by [`ShardedTable`] and [`ShardSet`](crate::ShardSet).
pub(crate) fn segments(offsets: &[usize], range: RowRange) -> Vec<ShardSegment> {
    let mut out = Vec::new();
    for (s, bounds) in offsets.windows(2).enumerate() {
        let start = range.start.max(bounds[0]);
        let end = range.end.min(bounds[1]);
        if start < end {
            out.push(ShardSegment {
                shard: s,
                local: RowRange { start: start - bounds[0], end: end - bounds[0] },
                global_start: start,
            });
        }
    }
    out
}

/// A table split into independently-owned shards with a single logical row
/// space (shard 0's rows first, then shard 1's, …).
#[derive(Debug, Clone)]
pub struct ShardedTable {
    shards: Vec<Table>,
    /// `offsets[s]` is the global row id of shard `s`'s first row;
    /// `offsets[num_shards]` is the total row count.
    offsets: Vec<usize>,
}

impl ShardedTable {
    /// Assemble a sharded table from schema-identical shards (empty shards
    /// allowed; at least one shard required so the schema is defined).
    pub fn from_tables(shards: Vec<Table>) -> Result<ShardedTable> {
        let Some(first) = shards.first() else {
            return Err(TableError::invalid("a sharded table needs at least one shard"));
        };
        for (s, shard) in shards.iter().enumerate().skip(1) {
            if shard.schema() != first.schema() {
                return Err(TableError::invalid(format!(
                    "shard {s} schema differs from shard 0's"
                )));
            }
        }
        let mut offsets = Vec::with_capacity(shards.len() + 1);
        let mut total = 0usize;
        offsets.push(0);
        for shard in &shards {
            total += shard.num_rows();
            offsets.push(total);
        }
        Ok(ShardedTable { shards, offsets })
    }

    /// Split `table` into `num_shards` contiguous shards of near-equal row
    /// counts (the first `n % num_shards` shards get one extra row). Row
    /// order is preserved: concatenating the shards reproduces `table`.
    pub fn split(table: &Table, num_shards: usize) -> Result<ShardedTable> {
        if num_shards == 0 {
            return Err(TableError::invalid("cannot split a table into 0 shards"));
        }
        let n = table.num_rows();
        let base = n / num_shards;
        let extra = n % num_shards;
        let mut shards = Vec::with_capacity(num_shards);
        let mut start = 0usize;
        for s in 0..num_shards {
            let len = base + usize::from(s < extra);
            let rows: Vec<usize> = (start..start + len).collect();
            shards.push(table.take(&rows));
            start += len;
        }
        Self::from_tables(shards)
    }

    /// The shared schema.
    pub fn schema(&self) -> &crate::schema::Schema {
        self.shards[0].schema()
    }

    /// Number of shards (including empty ones).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total logical rows across all shards.
    pub fn num_rows(&self) -> usize {
        *self.offsets.last().expect("offsets never empty")
    }

    /// Shard `s`.
    pub fn shard(&self, s: usize) -> &Table {
        &self.shards[s]
    }

    /// All shards in order.
    pub fn shards(&self) -> &[Table] {
        &self.shards
    }

    /// Global row id of shard `s`'s first row (and one past the last shard's
    /// end at index `num_shards`).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Per-shard row counts, in shard order (the shard *layout*; folded
    /// into engine fingerprints so a re-layout is a different cache key).
    pub fn shard_rows(&self) -> Vec<usize> {
        self.shards.iter().map(Table::num_rows).collect()
    }

    /// The shard containing global `row`, and the row's shard-local id.
    pub fn locate(&self, row: usize) -> (usize, usize) {
        locate(&self.offsets, row)
    }

    /// The shard segments covering the global row range `[range.start,
    /// range.end)`, in shard order. Empty shards contribute no segment.
    pub fn segments(&self, range: RowRange) -> Vec<ShardSegment> {
        segments(&self.offsets, range)
    }

    /// Copy the rows with global ids in `rows` (in the given order) into a
    /// standalone [`Table`] — the sharded counterpart of [`Table::take`].
    pub fn gather(&self, rows: &[usize]) -> Table {
        let mut b = TableBuilder::from_schema(self.schema().clone());
        b.reserve(rows.len());
        for &row in rows {
            let (shard, local) = self.locate(row);
            let values = self.shards[shard].row(local);
            b.push_row(&values).expect("schema-compatible row");
        }
        b.finish()
    }

    /// Concatenate every shard back into one [`Table`] (global row order).
    pub fn to_table(&self) -> Table {
        let all: Vec<usize> = (0..self.num_rows()).collect();
        self.gather(&all)
    }

    /// A new layout with `batch`'s rows appended to the **last** shard (the
    /// live shard of an ingesting table). Earlier shards are shared
    /// unchanged; only the last shard is rebuilt via [`Table::extended`],
    /// so the logical row stream is the old rows followed by the batch —
    /// identical to appending to the concatenated single table.
    pub fn extended(&self, batch: &Table) -> Result<ShardedTable> {
        let mut shards = self.shards.clone();
        let last = shards.last_mut().expect("at least one shard");
        *last = last.extended(batch)?;
        Self::from_tables(shards)
    }

    /// A new layout keeping only the rows `keep` selects (in global row
    /// order) — time-windowed retention. Each shard is compacted
    /// independently; shards left with zero rows are **dropped** from the
    /// layout (the "oldest shard falls off" of a rotation), except that the
    /// final layout always keeps at least one (possibly empty) shard so the
    /// schema stays defined.
    pub fn retained(&self, keep: impl Fn(usize) -> bool) -> ShardedTable {
        let mut shards = Vec::new();
        for (s, shard) in self.shards.iter().enumerate() {
            let offset = self.offsets[s];
            let rows: Vec<usize> =
                (0..shard.num_rows()).filter(|&local| keep(offset + local)).collect();
            if rows.len() == shard.num_rows() {
                shards.push(shard.clone());
            } else if !rows.is_empty() {
                shards.push(shard.take(&rows));
            }
        }
        if shards.is_empty() {
            shards.push(TableBuilder::from_schema(self.schema().clone()).finish());
        }
        Self::from_tables(shards).expect("schema-identical compacted shards")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::CHUNK_ROWS;
    use crate::types::{DataType, Value};
    use proptest::prelude::*;

    fn table(n: usize) -> Table {
        let mut b = TableBuilder::new(&[("g", DataType::Str), ("x", DataType::Float64)]);
        for i in 0..n {
            b.push_row(&[Value::str(format!("g{}", i % 7)), Value::Float64(i as f64 * 0.5)])
                .unwrap();
        }
        b.finish()
    }

    #[test]
    fn split_balances_and_preserves_order() {
        let t = table(103);
        let st = ShardedTable::split(&t, 4).unwrap();
        assert_eq!(st.num_shards(), 4);
        assert_eq!(st.num_rows(), 103);
        assert_eq!(st.shard_rows(), vec![26, 26, 26, 25]);
        let round = st.to_table();
        for row in 0..103 {
            assert_eq!(round.row(row), t.row(row));
        }
    }

    #[test]
    fn split_with_more_shards_than_rows_leaves_empty_shards() {
        let t = table(3);
        let st = ShardedTable::split(&t, 5).unwrap();
        assert_eq!(st.shard_rows(), vec![1, 1, 1, 0, 0]);
        assert_eq!(st.num_rows(), 3);
        assert_eq!(st.locate(2), (2, 0));
    }

    #[test]
    fn from_tables_rejects_schema_mismatch_and_emptiness() {
        let a = table(5);
        let mut b = TableBuilder::new(&[("other", DataType::Int64)]);
        b.push_row(&[Value::Int64(1)]).unwrap();
        let err = ShardedTable::from_tables(vec![a, b.finish()]).unwrap_err();
        assert!(err.to_string().contains("schema"), "{err}");
        assert!(ShardedTable::from_tables(vec![]).is_err());
    }

    #[test]
    fn locate_skips_empty_shards() {
        let t = table(10);
        let empty = TableBuilder::from_schema(t.schema().clone()).finish();
        let st = ShardedTable::from_tables(vec![
            t.take(&[0, 1, 2]),
            empty.clone(),
            empty,
            t.take(&(3..10).collect::<Vec<_>>()),
        ])
        .unwrap();
        assert_eq!(st.num_rows(), 10);
        assert_eq!(st.locate(0), (0, 0));
        assert_eq!(st.locate(2), (0, 2));
        assert_eq!(st.locate(3), (3, 0));
        assert_eq!(st.locate(9), (3, 6));
    }

    #[test]
    fn segments_cover_range_in_shard_order() {
        let t = table(100);
        let st = ShardedTable::split(&t, 3).unwrap(); // 34, 33, 33
        let segs = st.segments(RowRange { start: 30, end: 70 });
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].shard, 0);
        assert_eq!(segs[0].local, RowRange { start: 30, end: 34 });
        assert_eq!(segs[0].global_start, 30);
        assert_eq!(segs[1].shard, 1);
        assert_eq!(segs[1].local, RowRange { start: 0, end: 33 });
        assert_eq!(segs[1].global_start, 34);
        assert_eq!(segs[2].shard, 2);
        assert_eq!(segs[2].local, RowRange { start: 0, end: 3 });
        assert_eq!(segs[2].global_start, 67);
        let covered: usize = segs.iter().map(ShardSegment::len).sum();
        assert_eq!(covered, 40);
    }

    #[test]
    fn segments_of_empty_range_are_empty() {
        let t = table(10);
        let st = ShardedTable::split(&t, 2).unwrap();
        assert!(st.segments(RowRange { start: 4, end: 4 }).is_empty());
    }

    #[test]
    fn gather_matches_take_on_concatenation() {
        let t = table(57);
        let st = ShardedTable::split(&t, 3).unwrap();
        let rows = [56usize, 0, 20, 19, 41];
        let gathered = st.gather(&rows);
        let taken = t.take(&rows);
        for i in 0..rows.len() {
            assert_eq!(gathered.row(i), taken.row(i));
        }
    }

    #[test]
    fn segments_at_partition_scale() {
        // A shard range spanning several execution partitions still maps to
        // exactly one segment when it lies inside one shard.
        let t = table(2 * CHUNK_ROWS / 64); // keep the fixture fast
        let st = ShardedTable::split(&t, 2).unwrap();
        let segs = st.segments(RowRange { start: 0, end: t.num_rows() });
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].global_start, 0);
        assert_eq!(segs[1].global_start, t.num_rows() / 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Splitting into k shards round-trips: concatenation reproduces
        /// the table row for row, for any k (more shards than rows ⇒ empty
        /// shards).
        #[test]
        fn split_round_trips(n in 0usize..200, k in 1usize..=5) {
            let t = table(n);
            let st = ShardedTable::split(&t, k).unwrap();
            prop_assert_eq!(st.num_shards(), k);
            prop_assert_eq!(st.num_rows(), n);
            let round = st.to_table();
            for row in 0..n {
                prop_assert_eq!(round.row(row), t.row(row));
            }
        }

        /// `locate` inverts the offset layout for arbitrary (possibly
        /// empty) shard size lists.
        #[test]
        fn locate_inverts_offsets(sizes in proptest::collection::vec(0usize..20, 1..6)) {
            let total: usize = sizes.iter().sum();
            let t = table(total);
            let mut shards = Vec::new();
            let mut start = 0;
            for &len in &sizes {
                shards.push(t.take(&(start..start + len).collect::<Vec<_>>()));
                start += len;
            }
            let st = ShardedTable::from_tables(shards).unwrap();
            for row in 0..total {
                let (s, local) = st.locate(row);
                prop_assert_eq!(st.offsets()[s] + local, row);
                prop_assert!(local < st.shard(s).num_rows());
            }
        }
    }
}
