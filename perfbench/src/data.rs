//! Input generation: every table the benchmark feeds the program is a
//! pure function of the seed.

use cvopt_datagen::{generate_openaq, OpenAqConfig};
use cvopt_serve::Json;
use cvopt_table::{DataType, Table, TableBuilder, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::schedule::{BATCH_ROWS, DIM_ROWS, STREAM_BATCHES, TABLE};

/// Seconds between consecutive rows of the ingest stream.
const STREAM_STEP: i64 = 60;

/// The OpenAQ-shaped fact table.
pub fn fact(seed: u64, rows: usize) -> Table {
    generate_openaq(&OpenAqConfig { rows, seed, ..Default::default() })
}

/// The 400-row dimension table keyed by `location`, with a `region` and
/// an elevation `band` per location.
pub fn dim(seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1D1);
    let mut b = TableBuilder::new(&[
        ("location", DataType::Str),
        ("region", DataType::Str),
        ("band", DataType::Str),
        ("elevation", DataType::Float64),
    ]);
    for i in 0..DIM_ROWS {
        let elevation = rng.random::<f64>() * 3000.0;
        b.push_row(&[
            Value::str(format!("L{i:04}")),
            Value::str(format!("R{}", rng.random_range(0..9u32))),
            Value::str(format!("B{}", (elevation / 750.0) as u32)),
            Value::Float64(elevation),
        ])
        .expect("schema-consistent row");
    }
    b.finish()
}

/// The windowed table's base rows and its ingest stream.
#[derive(Debug)]
pub struct Window {
    /// Base rows in `local_time` order, timestamps strictly increasing.
    pub base: Table,
    /// Rows to ingest, timestamps strictly increasing past the base.
    pub stream: Table,
    /// `local_time` of base rows then stream rows: the rotation cutoff
    /// that retires exactly the first `i` rows is `times[i]`.
    pub times: Vec<i64>,
}

/// Generate the windowed base (`rows` rows, sorted by time) and a
/// monotone ingest stream of [`STREAM_BATCHES`] batches.
pub fn window(seed: u64, rows: usize) -> Window {
    let raw = fact(seed, rows);
    let time_col = raw.schema().index_of("local_time").expect("openaq has local_time");
    let t = |row: usize| raw.column(time_col).i64_at(row).expect("timestamp");
    let mut order: Vec<usize> = (0..rows).collect();
    order.sort_by_key(|&r| (t(r), r));
    let mut times = Vec::with_capacity(rows + STREAM_BATCHES * BATCH_ROWS);
    let mut b = TableBuilder::from_schema(raw.schema().clone());
    b.reserve(rows);
    for &r in &order {
        let mut row = raw.row(r);
        let ts = times.last().map_or(t(r), |&prev: &i64| t(r).max(prev + 1));
        row[time_col] = Value::Timestamp(ts);
        times.push(ts);
        b.push_row(&row).expect("schema-consistent row");
    }
    let base = b.finish();

    let extra = fact(seed.wrapping_add(0x5EED), STREAM_BATCHES * BATCH_ROWS);
    let mut b = TableBuilder::from_schema(extra.schema().clone());
    b.reserve(extra.num_rows());
    let start = *times.last().expect("non-empty base");
    for r in 0..extra.num_rows() {
        let mut row = extra.row(r);
        let ts = start + STREAM_STEP * (r as i64 + 1);
        row[time_col] = Value::Timestamp(ts);
        times.push(ts);
        b.push_row(&row).expect("schema-consistent row");
    }
    Window { base, stream: b.finish(), times }
}

impl Window {
    /// Stream batch `batch` as a table.
    pub fn batch(&self, batch: usize) -> Table {
        let rows: Vec<usize> = (batch * BATCH_ROWS..(batch + 1) * BATCH_ROWS).collect();
        self.stream.take(&rows)
    }

    /// The rows alive after `retired` rows were rotated away and
    /// `batches` batches ingested, in table order.
    pub fn surviving(&self, retired: usize, batches: usize) -> Table {
        let base_rows = self.base.num_rows();
        let from_base: Vec<usize> = (retired.min(base_rows)..base_rows).collect();
        let from_stream: Vec<usize> =
            (retired.saturating_sub(base_rows)..batches * BATCH_ROWS).collect();
        self.base.take(&from_base).extended(&self.stream.take(&from_stream)).expect("same schema")
    }
}

/// The `/ingest` request body for `batch`, one array per row in schema
/// order.
pub fn ingest_body(batch: &Table) -> String {
    let rows = (0..batch.num_rows())
        .map(|r| {
            Json::Array(
                batch
                    .row(r)
                    .into_iter()
                    .map(|v| match v {
                        Value::Int64(i) | Value::Timestamp(i) => Json::Int(i),
                        Value::Float64(f) => Json::Number(f),
                        Value::Bool(b) => Json::Bool(b),
                        Value::Str(s) => Json::string(s.as_ref()),
                        Value::Null => Json::Null,
                    })
                    .collect(),
            )
        })
        .collect();
    Json::object(vec![("table", Json::string(TABLE)), ("rows", Json::Array(rows))]).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_times_are_strictly_increasing_and_survivors_line_up() {
        let w = window(3, 5_000);
        assert!(w.times.windows(2).all(|p| p[0] < p[1]));
        assert_eq!(w.times.len(), 5_000 + STREAM_BATCHES * BATCH_ROWS);
        let alive = w.surviving(2_000, 3);
        assert_eq!(alive.num_rows(), 5_000 - 2_000 + 3 * BATCH_ROWS);
        let col = alive.schema().index_of("local_time").unwrap();
        assert_eq!(alive.column(col).i64_at(0), Some(w.times[2_000]));
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        assert_eq!(format!("{:?}", dim(5)), format!("{:?}", dim(5)));
        assert_ne!(format!("{:?}", dim(5)), format!("{:?}", dim(6)));
        let body = ingest_body(&window(1, 2_000).batch(0));
        assert!(body.starts_with("{\"table\":\"openaq\",\"rows\":[["));
    }
}
