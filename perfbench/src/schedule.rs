//! Workloads, statement pools and seeded schedules.
//!
//! Everything here is a pure function of `(workload, seed)`: the pools are
//! constants, and each client's operation stream is drawn from a seeded
//! RNG. A scheduled operation carries its [`Class`] — the pool it came
//! from — so an operation's class never depends on what the engine
//! decided (cache hit, derived answer, miss); a cache-policy change moves
//! a class's latency but never its membership.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The catalog name of the fact table every workload reads.
pub const TABLE: &str = "openaq";

/// Rows of the fact table in the serving workloads.
pub const SERVE_ROWS: usize = 1_000_000;
/// Rows of the benchmark-generated dimension table the JOIN reads.
pub const DIM_ROWS: usize = 400;
/// Base rows of the windowed table in `ingest-window`.
pub const WINDOW_ROWS: usize = 600_000;
/// Rows per `/ingest` batch.
pub const BATCH_ROWS: usize = 1_000;
/// Reads sent after each ingest batch.
pub const READS_PER_BATCH: usize = 4;
/// Batches between two `/rotate` calls; each rotation retires exactly the
/// rows those batches added, so the live window returns to
/// [`WINDOW_ROWS`].
pub const ROTATE_EVERY: usize = 2;
/// Batches the generated ingest stream holds (more than any run uses).
pub const STREAM_BATCHES: usize = 240;
/// One block of the cold workloads' schedule, before its seeded shuffle:
/// the latency slot of each operation (0 main, 1 side, 2 third). Five cold
/// statements carry the main slot's p90; the side slot gets two per block
/// because its statements are cheap, the third (a JOIN on `serve-cold`)
/// one.
const BLOCK: [usize; 8] = [0, 0, 0, 0, 0, 1, 1, 2];
/// Shards in `remote-shards`.
pub const SHARDS: usize = 4;
/// Shard servers the shards are placed on, round-robin.
pub const PEERS: usize = 2;
/// The cache budget of the cold workloads is the pool's bytes divided by
/// this.
pub const BUDGET_DIVISOR: u64 = 4;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Prepared-sample hits, WHERE-variants and derived answers over HTTP.
    ServeHot,
    /// A pool of distinct sampling problems larger than the sample cache,
    /// interleaved with exact scans and a JOIN.
    ServeCold,
    /// Ingest batches, reads from the maintained sample, and rotations.
    IngestWindow,
    /// The cold pool over four remote shards on two shard servers.
    RemoteShards,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] =
        [Workload::ServeHot, Workload::ServeCold, Workload::IngestWindow, Workload::RemoteShards];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve-hot",
            Workload::ServeCold => "serve-cold",
            Workload::IngestWindow => "ingest-window",
            Workload::RemoteShards => "remote-shards",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop clients driving the server.
    pub fn clients(self) -> usize {
        match self {
            Workload::ServeHot => 2,
            _ => 1,
        }
    }

    /// Operations per client in the counter window: the fixed schedule
    /// prefix whose engine and net counter deltas are reported, so they
    /// repeat exactly between runs of the same seed.
    pub fn counter_window(self) -> usize {
        match self {
            Workload::ServeHot => 40,
            Workload::ServeCold => 28,
            Workload::IngestWindow => 24,
            Workload::RemoteShards => 24,
        }
    }

    /// The three latency slots the end-to-end metrics report, in order
    /// `main` (p50 and p90), `side` (p50) and `third` (p50).
    pub fn slots(self) -> [Class; 3] {
        match self {
            Workload::ServeHot => [Class::Hot, Class::Derived, Class::Where],
            Workload::ServeCold => [Class::Cold, Class::Exact, Class::Join],
            Workload::IngestWindow => [Class::FreshRead, Class::Ingest, Class::Rotate],
            Workload::RemoteShards => {
                [Class::RemoteCold, Class::RemoteExact, Class::RemoteFiltered]
            }
        }
    }
}

/// Which pool a scheduled operation came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// Exact-fingerprint repeat of a prepared hot problem.
    Hot,
    /// WHERE-variant of a prepared hot problem.
    Where,
    /// A grouping no prepared problem has, subsumed by a durable sample.
    Derived,
    /// A problem from the cold pool.
    Cold,
    /// An exact full scan.
    Exact,
    /// An exact `fact JOIN dim` statement.
    Join,
    /// A `POST /ingest` batch.
    Ingest,
    /// A read the maintained sample answers.
    FreshRead,
    /// A `POST /rotate` retention cut.
    Rotate,
    /// A cold-pool problem over remote shards.
    RemoteCold,
    /// An exact full scan over remote shards.
    RemoteExact,
    /// An exact scan with a WHERE clause over remote shards.
    RemoteFiltered,
}

impl Class {
    /// The metric-name stem of the class.
    pub fn name(self) -> &'static str {
        match self {
            Class::Hot => "hot",
            Class::Where => "where",
            Class::Derived => "derived",
            Class::Cold => "cold",
            Class::Exact => "exact",
            Class::Join => "join",
            Class::Ingest => "ingest",
            Class::FreshRead => "fresh_read",
            Class::Rotate => "rotate",
            Class::RemoteCold => "remote_cold",
            Class::RemoteExact => "remote_exact",
            Class::RemoteFiltered => "remote_filtered",
        }
    }

    /// Whether operations of this class are approximate `/query` calls.
    pub fn approximate(self) -> bool {
        matches!(
            self,
            Class::Hot
                | Class::Where
                | Class::Derived
                | Class::Cold
                | Class::FreshRead
                | Class::RemoteCold
        )
    }
}

/// What one scheduled operation sends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// `POST /query`; `stmt` indexes [`statements`] of the workload.
    Query {
        /// Index into the workload's statement list.
        stmt: usize,
    },
    /// `POST /ingest` of stream batch `batch`.
    Ingest {
        /// Batch number in the ingest stream.
        batch: usize,
    },
    /// `POST /rotate` retiring the first `retire` rows of the combined
    /// base-plus-stream row sequence.
    Rotate {
        /// Rows retired in total once this rotation has run.
        retire: usize,
    },
}

/// One scheduled operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// The pool it came from.
    pub class: Class,
    /// What it sends.
    pub action: Action,
}

/// A statement the workload may send, with its `/query` mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Statement {
    /// The SQL text.
    pub sql: String,
    /// `true` for `"approximate"`, `false` for `"exact"`.
    pub approximate: bool,
    /// The pool the statement belongs to.
    pub class: Class,
}

const HOT: [&str; 5] = [
    "SELECT country, AVG(value) FROM openaq GROUP BY country",
    "SELECT parameter, AVG(value) FROM openaq GROUP BY parameter",
    "SELECT country, parameter, AVG(value) FROM openaq GROUP BY country, parameter",
    // The 2,800-stratum problem.
    "SELECT location, parameter, AVG(value) FROM openaq GROUP BY location, parameter",
    "SELECT country, YEAR(local_time), AVG(value) FROM openaq GROUP BY country, YEAR(local_time)",
];

const WHERE: [&str; 4] = [
    "SELECT country, AVG(value) FROM openaq WHERE parameter = 'pm25' GROUP BY country",
    "SELECT parameter, AVG(value) FROM openaq WHERE unit = 'ug_m3' GROUP BY parameter",
    "SELECT country, parameter, AVG(value) FROM openaq WHERE latitude > 0 GROUP BY country, parameter",
    "SELECT location, parameter, AVG(value) FROM openaq WHERE parameter = 'no2' GROUP BY location, parameter",
];

// Small answers only: the serving path's latency depends on the response
// size, so a class mixing small and large answers would put its median on
// the boundary between the two.
const DERIVED: [&str; 3] = [
    "SELECT YEAR(local_time), AVG(value) FROM openaq GROUP BY YEAR(local_time)",
    "SELECT parameter, YEAR(local_time), AVG(value) FROM openaq GROUP BY parameter, YEAR(local_time)",
    "SELECT YEAR(local_time), AVG(value) FROM openaq WHERE parameter = 'pm25' GROUP BY YEAR(local_time)",
];

/// Grouping sets of the cold pool: 1–3 keys over country, parameter,
/// unit, location and YEAR/HOUR(local_time).
const COLD_GROUPS: [&str; 12] = [
    "country",
    "parameter",
    "unit",
    "location",
    "YEAR(local_time)",
    "HOUR(local_time)",
    "country, unit",
    "parameter, unit",
    "country, YEAR(local_time)",
    "parameter, HOUR(local_time)",
    "location, parameter",
    "country, parameter, unit",
];

/// Aggregate lists of the cold pool; each grouping set appears once with
/// each, so every pool entry is a distinct sampling problem.
const COLD_AGGS: [&str; 2] = ["AVG(value)", "AVG(latitude), SUM(value)"];

const EXACT: [&str; 3] = [
    "SELECT country, SUM(value), COUNT(*) FROM openaq GROUP BY country",
    "SELECT parameter, MIN(value), MAX(value) FROM openaq GROUP BY parameter",
    "SELECT YEAR(local_time), AVG(value) FROM openaq GROUP BY YEAR(local_time)",
];

/// The JOIN statement of `serve-cold`.
pub const JOIN: [&str; 1] = [
    "SELECT region, AVG(value), COUNT(*) FROM openaq JOIN dim ON openaq.location = dim.location GROUP BY region",
];

/// The filtered exact statements of `remote-shards`.
pub const FILTERED: [&str; 2] = [
    "SELECT country, AVG(value) FROM openaq WHERE parameter = 'pm25' GROUP BY country",
    "SELECT country, AVG(value) FROM openaq WHERE parameter = 'no2' GROUP BY country",
];

/// Statements the warm-up of `ingest-window` logs before `/reoptimize`:
/// the shapes the consolidated, maintained sample is built from.
pub const WINDOW_SHAPES: [&str; 3] = [
    "SELECT country, AVG(value) FROM openaq GROUP BY country",
    "SELECT parameter, AVG(value) FROM openaq GROUP BY parameter",
    "SELECT country, parameter, AVG(value) FROM openaq GROUP BY country, parameter",
];

const FRESH_READS: [&str; 5] = [
    "SELECT country, AVG(value) FROM openaq GROUP BY country",
    "SELECT parameter, AVG(value) FROM openaq GROUP BY parameter",
    "SELECT country, parameter, AVG(value) FROM openaq GROUP BY country, parameter",
    "SELECT country, AVG(value) FROM openaq WHERE parameter = 'pm25' GROUP BY country",
    "SELECT parameter, AVG(value) FROM openaq WHERE latitude > 0 GROUP BY parameter",
];

fn pool(class: Class, sqls: &[&str], approximate: bool) -> Vec<Statement> {
    sqls.iter().map(|s| Statement { sql: s.to_string(), approximate, class }).collect()
}

/// The cold pool: every grouping set with every aggregate list.
pub fn cold_pool(class: Class) -> Vec<Statement> {
    let mut out = Vec::with_capacity(COLD_GROUPS.len() * COLD_AGGS.len());
    for aggs in COLD_AGGS {
        for group in COLD_GROUPS {
            out.push(Statement {
                sql: format!("SELECT {group}, {aggs} FROM openaq GROUP BY {group}"),
                approximate: true,
                class,
            });
        }
    }
    out
}

/// The statements of a workload; [`Action::Query`] indexes this list.
pub fn statements(workload: Workload) -> Vec<Statement> {
    match workload {
        Workload::ServeHot => [
            pool(Class::Hot, &HOT, true),
            pool(Class::Where, &WHERE, true),
            pool(Class::Derived, &DERIVED, true),
        ]
        .concat(),
        Workload::ServeCold => [
            cold_pool(Class::Cold),
            pool(Class::Exact, &EXACT, false),
            pool(Class::Join, &JOIN, false),
        ]
        .concat(),
        Workload::IngestWindow => pool(Class::FreshRead, &FRESH_READS, true),
        Workload::RemoteShards => [
            cold_pool(Class::RemoteCold),
            pool(Class::RemoteExact, &EXACT, false),
            pool(Class::RemoteFiltered, &FILTERED, false),
        ]
        .concat(),
    }
}

/// The hot statements `serve-hot` prepares during set-up.
pub fn hot_statements() -> Vec<String> {
    HOT.iter().map(|s| s.to_string()).collect()
}

/// Indices into `stmts` of the statements of `class`.
fn members(stmts: &[Statement], class: Class) -> Vec<usize> {
    stmts.iter().enumerate().filter(|(_, s)| s.class == class).map(|(i, _)| i).collect()
}

/// The RNG of client `client` under `seed`.
fn client_rng(seed: u64, client: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(client as u64 + 1)))
}

/// The first `len` operations of client `client` under `seed`. A pure
/// function of its arguments; a longer schedule extends a shorter one.
pub fn schedule(workload: Workload, seed: u64, client: usize, len: usize) -> Vec<Op> {
    let stmts = statements(workload);
    let mut rng = client_rng(seed, client);
    let query = |class: Class, stmt: usize| Op { class, action: Action::Query { stmt } };
    let mut ops = Vec::with_capacity(len);
    match workload {
        Workload::ServeHot => {
            let hot = members(&stmts, Class::Hot);
            let wher = members(&stmts, Class::Where);
            let derived = members(&stmts, Class::Derived);
            while ops.len() < len {
                let (class, pool) = match rng.random_range(0..4u32) {
                    0 | 1 => (Class::Hot, &hot),
                    2 => (Class::Where, &wher),
                    _ => (Class::Derived, &derived),
                };
                ops.push(query(class, pool[rng.random_range(0..pool.len())]));
            }
        }
        Workload::ServeCold | Workload::RemoteShards => {
            let [cold, second, third] = workload.slots();
            let cold_pool = members(&stmts, cold);
            let second_pool = members(&stmts, second);
            let third_pool = members(&stmts, third);
            // Each block is `BLOCK` shuffled by the seed. The cold statements
            // walk a fresh seeded permutation of the pool each cycle; the
            // other two pools are taken in turn, so every run sends them in
            // the same proportions whatever the seed.
            let mut order: Vec<usize> = Vec::new();
            let mut turns = [0usize; 3];
            while ops.len() < len {
                let mut block = BLOCK;
                shuffle(&mut block, &mut rng);
                for slot in block {
                    let op = match slot {
                        1 => query(second, second_pool[turns[1] % second_pool.len()]),
                        2 => query(third, third_pool[turns[2] % third_pool.len()]),
                        _ => {
                            if order.is_empty() {
                                order = cold_pool.clone();
                                shuffle(&mut order, &mut rng);
                                order.reverse();
                            }
                            query(cold, order.pop().expect("refilled above"))
                        }
                    };
                    turns[slot] += 1;
                    ops.push(op);
                }
            }
            ops.truncate(len);
        }
        Workload::IngestWindow => {
            let reads = members(&stmts, Class::FreshRead);
            let mut batch = 0;
            while ops.len() < len && batch < STREAM_BATCHES {
                ops.push(Op { class: Class::Ingest, action: Action::Ingest { batch } });
                for _ in 0..READS_PER_BATCH {
                    ops.push(query(Class::FreshRead, reads[rng.random_range(0..reads.len())]));
                }
                batch += 1;
                if batch % ROTATE_EVERY == 0 {
                    ops.push(Op {
                        class: Class::Rotate,
                        action: Action::Rotate { retire: batch * BATCH_ROWS },
                    });
                }
            }
            ops.truncate(len);
        }
    }
    ops
}

/// Fisher–Yates with the workload RNG.
fn shuffle(items: &mut [usize], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_a_pure_function_of_the_seed() {
        for w in Workload::ALL {
            for client in 0..w.clients() {
                assert_eq!(schedule(w, 7, client, 300), schedule(w, 7, client, 300));
                assert_ne!(schedule(w, 7, client, 300), schedule(w, 8, client, 300), "{w:?}");
                let long = schedule(w, 7, client, 500);
                assert_eq!(&long[..300], &schedule(w, 7, client, 300)[..], "prefix {w:?}");
            }
        }
        assert_ne!(
            schedule(Workload::ServeHot, 7, 0, 100),
            schedule(Workload::ServeHot, 7, 1, 100)
        );
    }

    #[test]
    fn a_class_is_the_pool_of_its_statement() {
        // The class is fixed by the schedule: it is the class of the
        // statement's pool, never something the engine reports.
        for w in Workload::ALL {
            let stmts = statements(w);
            for op in schedule(w, 11, 0, 400) {
                assert!(w.slots().contains(&op.class), "{w:?} schedules {:?}", op.class);
                match op.action {
                    Action::Query { stmt } => {
                        assert_eq!(stmts[stmt].class, op.class);
                        assert_eq!(stmts[stmt].approximate, op.class.approximate());
                    }
                    Action::Ingest { .. } => assert_eq!(op.class, Class::Ingest),
                    Action::Rotate { .. } => assert_eq!(op.class, Class::Rotate),
                }
            }
        }
    }

    #[test]
    fn the_cold_pool_is_distinct_and_cycles_before_repeating() {
        let pool = cold_pool(Class::Cold);
        assert!(pool.len() >= 24);
        let mut sqls: Vec<&str> = pool.iter().map(|s| s.sql.as_str()).collect();
        sqls.sort_unstable();
        sqls.dedup();
        assert_eq!(sqls.len(), pool.len());
        let stmts = statements(Workload::ServeCold);
        let cold: Vec<usize> = schedule(Workload::ServeCold, 3, 0, 200)
            .into_iter()
            .filter(|op| op.class == Class::Cold)
            .map(|op| match op.action {
                Action::Query { stmt } => stmt,
                _ => unreachable!(),
            })
            .collect();
        let mut first: Vec<usize> = cold[..pool.len()].to_vec();
        first.sort_unstable();
        first.dedup();
        assert_eq!(first.len(), pool.len(), "one full cycle before any repeat");
        assert!(cold.iter().all(|&i| stmts[i].class == Class::Cold));
    }

    #[test]
    fn ingest_rotations_keep_the_window_size() {
        let ops = schedule(Workload::IngestWindow, 5, 0, 200);
        let mut live = WINDOW_ROWS;
        let mut retired = 0;
        for op in ops {
            match op.action {
                Action::Ingest { .. } => live += BATCH_ROWS,
                Action::Rotate { retire } => {
                    live -= retire - retired;
                    retired = retire;
                    assert_eq!(live, WINDOW_ROWS);
                }
                Action::Query { .. } => {}
            }
        }
    }
}
