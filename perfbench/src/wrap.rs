//! Counting and timing wrappers around program interfaces.

use std::io::{self, Write};
use std::sync::Arc;

use cvopt_table::{
    Bitmap, ColumnValues, GroupIndex, Predicate, ScalarExpr, Schema, ShardReader, Table,
};

use crate::trace::Tracer;

/// A sink that counts the `write` calls made on it and the bytes they
/// carry. Passed to `Response::write_to`, it records how many writes one
/// response costs — each one a separate send on an unbuffered socket.
#[derive(Debug, Default)]
pub struct CountingWrite {
    /// `write` calls made.
    pub writes: u64,
    /// Bytes written.
    pub bytes: u64,
}

impl Write for CountingWrite {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A [`ShardReader`] that forwards to another one and records each pass
/// as a span (`net.group_index`, `net.predicate_bitmap`,
/// `net.expr_values`, `net.take_rows`) under the tracer's operation in
/// flight. Wrapping each `RemoteShard` this way times every wire round
/// trip the coordinator makes, from outside the program.
#[derive(Debug)]
pub struct TimingShardReader {
    inner: Arc<dyn ShardReader>,
    tracer: Arc<Tracer>,
}

impl TimingShardReader {
    /// Wrap `inner`, recording into `tracer`.
    pub fn new(inner: Arc<dyn ShardReader>, tracer: Arc<Tracer>) -> TimingShardReader {
        TimingShardReader { inner, tracer }
    }

    fn pass<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match self.tracer.current() {
            Some((op, root)) if self.tracer.enabled() => {
                self.tracer.time(name, Some(root), op, f).0
            }
            _ => f(),
        }
    }
}

impl ShardReader for TimingShardReader {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn num_rows(&self) -> usize {
        self.inner.num_rows()
    }

    fn location(&self) -> String {
        self.inner.location()
    }

    fn group_index(&self, exprs: &[ScalarExpr]) -> cvopt_table::Result<GroupIndex> {
        self.pass("net.group_index", || self.inner.group_index(exprs))
    }

    fn predicate_bitmap(&self, predicate: &Predicate) -> cvopt_table::Result<Bitmap> {
        self.pass("net.predicate_bitmap", || self.inner.predicate_bitmap(predicate))
    }

    fn expr_values(
        &self,
        exprs: &[Option<ScalarExpr>],
    ) -> cvopt_table::Result<Vec<Option<ColumnValues>>> {
        self.pass("net.expr_values", || self.inner.expr_values(exprs))
    }

    fn take_rows(&self, rows: &[u32]) -> cvopt_table::Result<Table> {
        self.pass("net.take_rows", || self.inner.take_rows(rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvopt_table::{DataType, LocalShard, TableBuilder, Value};

    #[test]
    fn counting_write_counts_calls_and_bytes() {
        let mut w = CountingWrite::default();
        write!(w, "a{}b", 12).unwrap();
        w.write_all(b"xyz").unwrap();
        assert_eq!(w.bytes, 7);
        assert!(w.writes >= 2);
    }

    #[test]
    fn timing_reader_records_passes_under_the_current_op() {
        let mut b = TableBuilder::new(&[("g", DataType::Str)]);
        for g in ["a", "b", "a"] {
            b.push_row(&[Value::str(g)]).unwrap();
        }
        let tracer = Arc::new(Tracer::new());
        let reader = TimingShardReader::new(Arc::new(LocalShard::new(b.finish())), tracer.clone());
        let exprs = [ScalarExpr::col("g")];
        reader.group_index(&exprs).unwrap();
        assert!(tracer.spans().is_empty(), "no span while disabled");
        tracer.set_enabled(true);
        tracer.set_current(9, 42);
        let index = reader.group_index(&exprs).unwrap();
        assert_eq!(index.num_groups(), 2);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].name, spans[0].op, spans[0].parent), ("net.group_index", 9, Some(42)));
    }
}
