//! Probes for the layers a workload's own schedule does not reach.
//!
//! Every per-layer metric is reported on every workload. Where the
//! schedule never calls a layer (a JOIN on `serve-hot`, remote passes on
//! `serve-cold`, ingest maintenance outside `ingest-window`), the traced
//! run times that layer after the main phase on the workload's own
//! inputs, under a `probe` root span, so the figure is the layer's cost
//! on this workload's data rather than a missing value.

use std::sync::Arc;

use cvopt_core::{budget_for_rows, problem_for_query, Engine, ExecOptions, QueryMode};
use cvopt_table::Table;

use crate::layers::{self, At, Facts, RATE};
use crate::run::{remote_set, Args, Inputs, Res};
use crate::schedule::{self, Class, BATCH_ROWS, TABLE, WINDOW_SHAPES};
use crate::trace::{Span, Tracer};

/// Operation id of probe spans.
pub const PROBE_OP: u64 = 1 << 63;
/// Repeats of each probed call.
const REPEATS: usize = 3;
/// Fact rows uploaded to the shard servers of the net probe.
const NET_PROBE_ROWS: usize = 200_000;

/// Run a probe for every layer span the run left without samples.
pub fn fill_gaps(args: Args, inputs: &Inputs, tracer: &Arc<Tracer>, facts: &Facts) -> Res<()> {
    let have = |names: &[&str]| {
        let spans = tracer.spans();
        names.iter().all(|n| spans.iter().any(|s| s.name == *n))
    };
    let exec = ExecOptions::new(1);
    tracer.set_enabled(true);
    let result = (|| {
        if !have(&["exact.scan"]) {
            let (query, _) = layers::compile(&schedule::statements(args.workload)[0].sql)?;
            probe(tracer, "probe.exact", |at| {
                (0..REPEATS).try_for_each(|_| layers::exact(at, facts, &inputs.fact, &query, &exec))
            })?;
        }
        if !have(&["join.build"]) {
            let (_, join) = layers::compile(schedule::JOIN[0])?;
            let clause = join.ok_or("probe JOIN lost its clause")?;
            probe(tracer, "probe.join", |at| {
                (0..REPEATS).try_for_each(|_| {
                    layers::join(at, facts, &inputs.fact, &inputs.dim, &clause, &exec)
                })
            })?;
        }
        if !have(&["maintain.ingest", "maintain.rotate"]) {
            probe(tracer, "probe.maintain", |at| maintain(at, args.seed, &inputs.fact, &exec))?;
        }
        if !have(&["net.group_index", "net.predicate_bitmap", "net.expr_values", "net.take_rows"]) {
            net(tracer, args.seed, &inputs.fact)?;
        }
        Ok(())
    })();
    tracer.set_enabled(false);
    result
}

/// Run `f` under a fresh root span named `name`.
fn probe(tracer: &Tracer, name: &'static str, f: impl FnOnce(At) -> Res<()>) -> Res<()> {
    let root = tracer.next_id();
    let start = tracer.now();
    let out = f(At { tracer, root: Some(root), op: PROBE_OP });
    tracer.record(Span { id: root, parent: None, op: PROBE_OP, name, start, end: tracer.now() });
    out
}

/// Ingest maintenance on a windowed copy of `fact`: one maintained sample,
/// [`REPEATS`] appended batches, one rotation.
fn maintain(at: At, seed: u64, fact: &Table, exec: &ExecOptions) -> Res<()> {
    let err = |e: cvopt_core::CvError| e.to_string();
    let mut engine = Engine::new().with_seed(seed).with_exec(*exec);
    engine.register_windowed(TABLE, fact.clone(), "local_time").map_err(err)?;
    let (query, _) = layers::compile(WINDOW_SHAPES[0])?;
    let budget = budget_for_rows(fact.num_rows(), RATE).map_err(err)?;
    engine.prepare(TABLE, problem_for_query(&query, budget).map_err(err)?).map_err(err)?;
    let batch = fact.take(&(0..BATCH_ROWS).collect::<Vec<_>>());
    for _ in 0..REPEATS {
        at.time("maintain.ingest", || engine.ingest(TABLE, &batch)).0.map_err(err)?;
    }
    let col = fact.schema().index_of("local_time").map_err(|e| e.to_string())?;
    let oldest = (0..fact.num_rows())
        .filter_map(|r| fact.column(col).i64_at(r))
        .min()
        .ok_or("empty fact table")?;
    at.time("maintain.rotate", || engine.rotate(TABLE, oldest + 86_400)).0.map_err(err)?;
    Ok(())
}

/// The remote passes over a four-shard copy of the first fact rows: one
/// approximate cold statement (group index, statistic partials, row
/// gather) and one filtered exact scan (predicate bitmap).
fn net(tracer: &Arc<Tracer>, seed: u64, fact: &Table) -> Res<()> {
    let (peers, set) = remote_set(fact, tracer, NET_PROBE_ROWS)?;
    let mut engine = Engine::new().with_seed(seed).with_exec(ExecOptions::new(1));
    engine.register(TABLE, set);
    let cold = &schedule::cold_pool(Class::RemoteCold)[0].sql;
    let result = probe(tracer, "probe.net", |at| {
        let root = at.root.expect("probe spans have a root");
        tracer.set_current(PROBE_OP, root);
        engine.query(cold, QueryMode::Approximate).map_err(|e| e.to_string())?;
        engine.query(schedule::FILTERED[0], QueryMode::Exact).map_err(|e| e.to_string())?;
        Ok(())
    });
    drop(engine);
    drop(peers);
    result
}
