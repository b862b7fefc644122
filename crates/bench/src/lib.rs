//! # cvopt-bench
//!
//! Criterion benchmarks for the hot paths (statistics pass, allocation,
//! reservoirs, group-by engine, estimation, end-to-end sampling) and the
//! [`reproduce`](../src/bin/reproduce.rs) binary that regenerates every
//! table and figure of the paper.

/// Shared fixture sizes for benches, kept here so all benches agree.
pub mod fixtures {
    use cvopt_datagen::{generate_openaq, OpenAqConfig};
    use cvopt_table::Table;

    /// Rows used by micro benches.
    pub const BENCH_ROWS: usize = 200_000;

    /// Rows used by the thread-scaling benches (spans 16+ partitions of
    /// the execution layer).
    pub const SCALING_ROWS: usize = 1_048_576;

    /// Thread counts every scaling bench sweeps, so `BENCH_*.json` tracks
    /// the speedup curve PR over PR.
    pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

    /// The standard bench table.
    pub fn openaq() -> Table {
        generate_openaq(&OpenAqConfig::with_rows(BENCH_ROWS))
    }

    /// A ≥1M-row zipf-skewed table for multi-thread scaling runs.
    pub fn openaq_large() -> Table {
        generate_openaq(&OpenAqConfig::with_rows(SCALING_ROWS))
    }
}
