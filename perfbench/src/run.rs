//! Set-up, the closed-loop run, and the answer checks of one workload.
//!
//! A run has two phases. The **counter window** replays a fixed prefix
//! of every client's schedule; the engine, server and net counters are
//! read as deltas over it, so on the one-client workloads they repeat
//! exactly between runs of a seed. The **main phase** continues the same
//! schedules until `--seconds` of measurement have passed and every
//! reported percentile has enough samples. In a traced run the main phase
//! also replays each operation, right after its round trip, through the
//! layers' public functions on shadow engines that were set up like the
//! server and have seen the same operations, so they hold the same cache
//! state.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::Cursor;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use cvopt_core::{budget_for_rows, problem_for_query, Engine, QueryMode};
use cvopt_eval::metrics::relative_errors;
use cvopt_net::{Peer, RemoteShard, Shardd};
use cvopt_serve::client::parse_response;
use cvopt_serve::http::{read_request, ReadOutcome};
use cvopt_serve::{api, ApiState, Client, Json, Request, Server, ServerConfig, SharedEngine};
use cvopt_table::{ExecOptions, ShardReader, ShardSet, ShardedTable, Table};

use crate::data::{self, Window};
use crate::layers::{self, At, Facts, RATE};
use crate::schedule::{
    self, cold_pool, hot_statements, Action, Class, Op, Statement, Workload, BUDGET_DIVISOR, PEERS,
    SERVE_ROWS, SHARDS, TABLE, WINDOW_ROWS, WINDOW_SHAPES,
};
use crate::stats::samples_needed;
use crate::trace::{Span, Tracer};
use crate::wrap::{CountingWrite, TimingShardReader};

/// Result type of the harness: failures carry a message.
pub type Res<T> = Result<T, String>;

/// Times a `503` is retried before the operation counts as failed.
const MAX_ATTEMPTS: u64 = 50;
/// Operations generated per client (more than any run reaches).
const MAX_OPS: usize = 20_000;
/// Largest request body the replayed HTTP parser accepts.
const MAX_BODY: usize = 16 << 20;
/// A run stops extending for missing samples at this multiple of
/// `--seconds`.
const CAP_FACTOR: u32 = 3;

/// Command-line settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input and schedule seed.
    pub seed: u64,
    /// Measurement length.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// The generated inputs.
#[derive(Debug)]
pub struct Inputs {
    /// The fact table (the windowed base for `ingest-window`).
    pub fact: Table,
    /// The JOIN's dimension table.
    pub dim: Table,
    /// Base rows and ingest stream of `ingest-window`.
    pub window: Option<Window>,
}

impl Inputs {
    /// Generate every input of `w` from `seed`.
    pub fn generate(w: Workload, seed: u64) -> Inputs {
        let dim = data::dim(seed);
        if w == Workload::IngestWindow {
            let window = data::window(seed, WINDOW_ROWS);
            Inputs { fact: window.base.clone(), dim, window: Some(window) }
        } else {
            Inputs { fact: data::fact(seed, SERVE_ROWS), dim, window: None }
        }
    }

    fn window(&self) -> &Window {
        self.window.as_ref().expect("ingest-window inputs")
    }
}

/// The program under test after one set-up.
pub struct Stack {
    /// The HTTP server.
    pub server: Server,
    /// Shard servers of `remote-shards` (empty otherwise).
    peers: Vec<Shardd>,
    /// The remote shard set, shared with the shadow engines.
    remote: Option<ShardSet>,
    /// The sample-cache budget the server runs under.
    budget: Option<u64>,
}

impl Stack {
    /// Stop the server and the shard servers, waiting for their threads.
    pub fn shutdown(self) {
        self.server.shutdown();
        drop(self.remote);
        drop(self.peers);
    }
}

fn server_config() -> ServerConfig {
    ServerConfig { workers: 2, thread_budget: 2, ..ServerConfig::default() }
}

fn mode(approximate: bool) -> QueryMode {
    if approximate {
        QueryMode::Approximate
    } else {
        QueryMode::Exact
    }
}

fn query_body(stmt: &Statement) -> String {
    let mode = if stmt.approximate { "approximate" } else { "exact" };
    Json::object(vec![("sql", Json::string(&stmt.sql)), ("mode", Json::string(mode))]).to_string()
}

/// The cold workloads' cache budget: a quarter of the pool's bytes, sized
/// from the bytes one prepared pool problem holds on `reference` (a query
/// draws a non-durable sample, which no later answer depends on).
fn cache_budget(w: Workload, reference: &Engine) -> Res<Option<u64>> {
    if !matches!(w, Workload::ServeCold | Workload::RemoteShards) {
        return Ok(None);
    }
    let pool = cold_pool(Class::Cold);
    let before = reference.cache_bytes_held();
    reference.query(&pool[0].sql, QueryMode::Approximate).map_err(|e| e.to_string())?;
    let bytes = reference.cache_bytes_held().saturating_sub(before);
    Ok(Some(bytes * pool.len() as u64 / BUDGET_DIVISOR))
}

/// An engine with the workload's catalog registered (and, for
/// `serve-hot`, the hot problems prepared), before any warm-up query.
fn base_engine(
    w: Workload,
    inputs: &Inputs,
    seed: u64,
    budget: Option<u64>,
    remote: Option<ShardSet>,
) -> Res<Engine> {
    let mut engine = Engine::new().with_seed(seed).with_cache_bytes(budget);
    match (w, remote) {
        (Workload::RemoteShards, Some(set)) => {
            engine.register(TABLE, set);
        }
        (Workload::IngestWindow, _) => {
            engine
                .register_windowed(TABLE, inputs.fact.clone(), "local_time")
                .map_err(|e| e.to_string())?;
        }
        _ => {
            engine.register(TABLE, inputs.fact.clone());
            engine.register("dim", inputs.dim.clone());
        }
    }
    if w == Workload::ServeHot {
        let budget = budget_for_rows(inputs.fact.num_rows(), RATE).map_err(|e| e.to_string())?;
        for sql_text in hot_statements() {
            let (query, _) = layers::compile(&sql_text)?;
            let problem = problem_for_query(&query, budget).map_err(|e| e.to_string())?;
            engine.prepare(TABLE, problem).map_err(|e| e.to_string())?;
        }
    }
    Ok(engine)
}

/// The warm-up statements logged before `/reoptimize`, if the workload
/// re-optimizes.
fn warm_up(w: Workload) -> Option<Vec<String>> {
    match w {
        Workload::ServeHot => Some(hot_statements()),
        Workload::IngestWindow => Some(WINDOW_SHAPES.iter().map(|s| s.to_string()).collect()),
        _ => None,
    }
}

fn warm_http(w: Workload, addr: SocketAddr) -> Res<()> {
    let Some(stmts) = warm_up(w) else { return Ok(()) };
    let mut client = Client::new(addr);
    let mut post = |path: &str, body: String| -> Res<()> {
        match client.post(path, &body) {
            Ok((200, _)) => Ok(()),
            Ok((status, text)) => Err(format!("warm-up {path}: {status} {text}")),
            Err(e) => Err(format!("warm-up {path}: {e}")),
        }
    };
    for sql_text in stmts {
        post(
            "/query",
            query_body(&Statement { sql: sql_text, approximate: true, class: Class::Hot }),
        )?;
    }
    post("/reoptimize", format!(r#"{{"table":"{TABLE}"}}"#))
}

fn warm_engine(w: Workload, engine: &Engine) -> Res<()> {
    let Some(stmts) = warm_up(w) else { return Ok(()) };
    for sql_text in stmts {
        engine.query(&sql_text, QueryMode::Approximate).map_err(|e| e.to_string())?;
    }
    engine.reoptimize(TABLE).map_err(|e| e.to_string())?;
    Ok(())
}

/// Start the shard servers, upload the shards of the first `rows` fact rows
/// round-robin, and wrap every remote shard in a timing reader.
pub fn remote_set(fact: &Table, tracer: &Arc<Tracer>, rows: usize) -> Res<(Vec<Shardd>, ShardSet)> {
    let peers: Vec<Shardd> = (0..PEERS)
        .map(|_| Shardd::bind("127.0.0.1:0", 1).map_err(|e| e.to_string()))
        .collect::<Res<_>>()?;
    let handles: Vec<Arc<Peer>> = peers
        .iter()
        .map(|p| Peer::connect(p.addr().to_string()).map(Arc::new).map_err(|e| e.to_string()))
        .collect::<Res<_>>()?;
    let table = if rows < fact.num_rows() {
        fact.take(&(0..rows).collect::<Vec<_>>())
    } else {
        fact.clone()
    };
    let sharded = ShardedTable::split(&table, SHARDS).map_err(|e| e.to_string())?;
    let mut readers: Vec<Arc<dyn ShardReader>> = Vec::with_capacity(SHARDS);
    for (s, shard) in sharded.shards().iter().enumerate() {
        let remote =
            RemoteShard::register(Arc::clone(&handles[s % PEERS]), format!("{TABLE}/{s}"), shard)
                .map_err(|e| e.to_string())?;
        readers.push(Arc::new(TimingShardReader::new(Arc::new(remote), Arc::clone(tracer))));
    }
    Ok((peers, ShardSet::new(readers).map_err(|e| e.to_string())?))
}

/// One set-up: shard upload, registration, server start, warm-up and
/// `/reoptimize`. This is what `setup_s` times.
pub fn setup(
    w: Workload,
    inputs: &Inputs,
    seed: u64,
    budget: Option<u64>,
    tracer: &Arc<Tracer>,
) -> Res<Stack> {
    let (peers, remote) = if w == Workload::RemoteShards {
        let (peers, set) = remote_set(&inputs.fact, tracer, usize::MAX)?;
        (peers, Some(set))
    } else {
        (Vec::new(), None)
    };
    let engine = base_engine(w, inputs, seed, budget, remote.clone())?;
    let server = Server::start(engine, server_config()).map_err(|e| e.to_string())?;
    warm_http(w, server.addr())?;
    Ok(Stack { server, peers, remote, budget })
}

/// Engines that replay the schedule beside the server in a traced run.
struct Shadows {
    /// Answers the replayed HTTP requests through `api::handle`.
    api: ApiState,
    /// Answers the replayed statements through `Engine::query`,
    /// `Engine::ingest` and `Engine::rotate`.
    engine: RwLock<Engine>,
}

fn shadows(w: Workload, inputs: &Inputs, seed: u64, stack: &Stack) -> Res<Shadows> {
    let make = || -> Res<Engine> {
        let engine = base_engine(w, inputs, seed, stack.budget, stack.remote.clone())?
            .with_exec(ExecOptions::new(server_config().request_threads()));
        warm_engine(w, &engine)?;
        Ok(engine)
    };
    let config = server_config();
    let api = ApiState {
        engine: SharedEngine::new(make()?),
        queue_depth: Arc::new(AtomicUsize::new(0)),
        queue_capacity: config.queue_capacity,
        workers: config.workers,
        request_threads: config.request_threads(),
        requests_served: AtomicU64::new(0),
        requests_rejected: Arc::new(AtomicU64::new(0)),
        keepalive_reuses: AtomicU64::new(0),
        admission_rejections: Arc::new(AtomicU64::new(0)),
    };
    Ok(Shadows { api, engine: RwLock::new(make()?) })
}

/// The engine answers are checked against: the workload's catalog over
/// local rows, set up like the server, with an unbounded cache.
fn reference_engine(w: Workload, inputs: &Inputs, seed: u64) -> Res<Engine> {
    let local = if w == Workload::RemoteShards { Workload::ServeCold } else { w };
    let engine = base_engine(local, inputs, seed, None, None)?;
    warm_engine(w, &engine)?;
    Ok(engine)
}

/// One finished operation.
#[derive(Debug, Clone)]
pub struct Rec {
    /// The operation's class.
    pub class: Class,
    /// Client round trip, milliseconds (including 503 retries).
    pub ms: f64,
    /// 200 with a well-formed body, and (after the checks) a correct
    /// answer.
    pub ok: bool,
    /// Hash of the `results` and `confidence` bytes of a query answer.
    pub hash: Option<u64>,
    /// `503` answers absorbed by retrying.
    pub rejected: u64,
    /// Inside the counter window.
    pub window: bool,
    /// Traced: `api::handle` on the shadow, milliseconds.
    pub handle_ms: Option<f64>,
    /// Traced: the shadow engine call, milliseconds.
    pub engine_ms: Option<f64>,
    /// What the operation did, for the ingest-window check.
    pub action: Action,
}

impl Rec {
    /// The statement a query sent.
    pub fn stmt(&self) -> Option<usize> {
        match self.action {
            Action::Query { stmt } => Some(stmt),
            _ => None,
        }
    }
}

/// Counter snapshot: the `/stats` document (read in-process through
/// `api::handle`, so the probe is not itself a request on the wire) and
/// the `cvopt_net` process counters.
struct Snap {
    stats: Json,
    net: [u64; 5],
}

fn snapshot(server: &Server) -> Res<Snap> {
    let req = Request {
        method: "GET".into(),
        path: "/stats".into(),
        query: Vec::new(),
        body: Vec::new(),
        close: false,
    };
    let stats = Json::parse(&api::handle(server.state(), &req).body).map_err(|e| e.to_string())?;
    Ok(Snap {
        stats,
        net: [
            cvopt_net::net_requests(),
            cvopt_net::net_retries(),
            cvopt_net::net_circuit_opens(),
            cvopt_net::net_bytes_sent(),
            cvopt_net::net_bytes_received(),
        ],
    })
}

impl Snap {
    fn get(&self, field: &str) -> f64 {
        self.stats.get(field).and_then(Json::as_u64).unwrap_or(0) as f64
    }
}

/// Counter deltas over the counter window, as `(name, value)` pairs in
/// report order.
fn counters(a: &Snap, b: &Snap, recs: &[Rec], ingest: (u64, u64)) -> Vec<(&'static str, f64)> {
    let d = |f: &str| b.get(f) - a.get(f);
    let ops = recs.len().max(1) as f64;
    let approx = recs.iter().filter(|r| r.class.approximate()).count().max(1) as f64;
    let lookups = d("cache_hits") + d("cache_misses");
    let net = |i: usize| (b.net[i] - a.net[i]) as f64;
    let ratio = |x: f64, y: f64| if y > 0.0 { x / y } else { 0.0 };
    vec![
        ("serve.keepalive_reuse_ratio", ratio(d("keepalive_reuses"), d("requests_served"))),
        ("serve.rejected_503", d("requests_rejected") + d("admission_rejections")),
        ("engine.cache_hit_ratio", ratio(d("cache_hits"), lookups)),
        ("engine.cache_evictions", d("cache_evictions")),
        ("engine.cache_bytes_held", b.get("cache_bytes_held")),
        ("engine.draws_avoided_ratio", d("draws_avoided") / approx),
        ("engine.stats_passes_per_op", d("stats_passes") / ops),
        ("maintain.stats_passes_per_batch", ratio(ingest.0 as f64, ingest.1 as f64)),
        ("net.requests_per_op", net(0) / ops),
        ("net.retries", net(1)),
        ("net.circuit_opens", net(2)),
        ("net.bytes_per_op", (net(3) + net(4)) / ops),
    ]
}

/// When the main phase stops.
#[derive(Debug, Clone, Copy)]
struct Stop {
    deadline: Instant,
    cap: Instant,
}

/// Shared state of the load clients.
struct Load<'a> {
    args: Args,
    stmts: Vec<Statement>,
    inputs: &'a Inputs,
    addr: SocketAddr,
    server: &'a SharedEngine,
    tracer: &'a Tracer,
    shadows: Option<&'a Shadows>,
    planner: &'a Engine,
    facts: &'a Facts,
    /// Operations finished per latency slot.
    slot_counts: [AtomicUsize; 3],
    /// Samples each slot needs before the run may stop.
    needs: [usize; 3],
    /// Statistics passes run by ingest operations in the counter window,
    /// and the ingest operations there.
    ingest_passes: AtomicU64,
    ingest_ops: AtomicU64,
}

/// What an operation sends.
struct Prepared {
    path: &'static str,
    body: String,
    batch: Option<Table>,
    cutoff: Option<i64>,
}

impl Load<'_> {
    fn prepare(&self, op: &Op) -> Prepared {
        match op.action {
            Action::Query { stmt } => Prepared {
                path: "/query",
                body: query_body(&self.stmts[stmt]),
                batch: None,
                cutoff: None,
            },
            Action::Ingest { batch } => {
                let table = self.inputs.window().batch(batch);
                Prepared {
                    path: "/ingest",
                    body: data::ingest_body(&table),
                    batch: Some(table),
                    cutoff: None,
                }
            }
            Action::Rotate { retire } => {
                let cutoff = self.inputs.window().times[retire];
                Prepared {
                    path: "/rotate",
                    body: format!(r#"{{"table":"{TABLE}","cutoff":{cutoff}}}"#),
                    batch: None,
                    cutoff: Some(cutoff),
                }
            }
        }
    }

    fn slot(&self, class: Class) -> Option<usize> {
        self.args.workload.slots().iter().position(|&c| c == class)
    }

    fn stopped(&self, stop: &Stop) -> bool {
        let now = Instant::now();
        if now >= stop.cap {
            return true;
        }
        now >= stop.deadline
            && self
                .slot_counts
                .iter()
                .zip(self.needs)
                .all(|(n, need)| n.load(Ordering::SeqCst) >= need)
    }

    /// Run schedule positions `first..last` of every client, each client on
    /// its own thread with its own connection.
    fn clients(
        &self,
        conns: &mut [Client],
        schedules: &[Vec<Op>],
        first: usize,
        last: usize,
        stop: Option<Stop>,
    ) -> Vec<Rec> {
        std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .zip(schedules)
                .enumerate()
                .map(|(c, (conn, ops))| {
                    let ops = &ops[first.min(ops.len())..last.min(ops.len())];
                    s.spawn(move || self.drive(conn, c, ops, first, stop))
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
        })
    }

    /// Run `ops` (schedule positions `first..`) on `client` in a closed
    /// loop. `stop` is `None` in the counter window, which runs to its
    /// end; in a traced run the main phase replays every operation.
    fn drive(
        &self,
        client: &mut Client,
        c: usize,
        ops: &[Op],
        first: usize,
        stop: Option<Stop>,
    ) -> Vec<Rec> {
        let window = stop.is_none();
        let traced = !window && self.shadows.is_some();
        let mut out = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            if stop.as_ref().is_some_and(|s| self.stopped(s)) {
                break;
            }
            let op_id = ((c as u64) << 32) | (first + i) as u64;
            let prepared = self.prepare(op);
            let root = self.tracer.next_id();
            if traced {
                self.tracer.set_current(op_id, root);
            }
            let counted_ingest = window && matches!(op.action, Action::Ingest { .. });
            let passes_before = counted_ingest.then(|| self.server.counters().stats_passes);
            let start_ns = self.tracer.now();
            let started = Instant::now();
            let mut rejected = 0;
            let result = loop {
                match client.request_raw("POST", prepared.path, Some(&prepared.body)) {
                    Ok(raw) => match parse_response(&raw) {
                        Ok((503, _)) if rejected + 1 < MAX_ATTEMPTS => {
                            rejected += 1;
                            std::thread::sleep(Duration::from_millis(2 * rejected));
                        }
                        other => break other,
                    },
                    Err(e) => break Err(e),
                }
            };
            let ms = started.elapsed().as_secs_f64() * 1e3;
            let end_ns = self.tracer.now();
            if traced {
                let span = Span {
                    id: root,
                    parent: None,
                    op: op_id,
                    name: "client.round_trip",
                    start: start_ns,
                    end: end_ns,
                };
                self.tracer.record(span);
            }
            if let Some(before) = passes_before {
                let after = self.server.counters().stats_passes;
                self.ingest_passes.fetch_add(after - before, Ordering::SeqCst);
                self.ingest_ops.fetch_add(1, Ordering::SeqCst);
            }
            let (mut ok, hash) = match result {
                Ok((200, text)) => match op.action {
                    Action::Query { .. } => match answer_hash(&text) {
                        Some(h) => (true, Some(h)),
                        None => {
                            eprintln!("perfbench: malformed answer: {}", clip(&text));
                            (false, None)
                        }
                    },
                    _ => (true, None),
                },
                Ok((status, text)) => {
                    eprintln!("perfbench: {} answered {status}: {}", prepared.path, clip(&text));
                    (false, None)
                }
                Err(e) => {
                    eprintln!("perfbench: {} failed: {e}", prepared.path);
                    (false, None)
                }
            };
            if let Some(s) = self.slot(op.class) {
                self.slot_counts[s].fetch_add(1, Ordering::SeqCst);
            }
            let (mut handle_ms, mut engine_ms) = (None, None);
            if traced {
                let at = At { tracer: self.tracer, root: Some(root), op: op_id };
                match self.replay(at, op, &prepared) {
                    Ok((h, e)) => (handle_ms, engine_ms) = (Some(h), Some(e)),
                    Err(e) => {
                        eprintln!("perfbench: replay of {:?} failed: {e}", op.action);
                        ok = false;
                    }
                }
            }
            out.push(Rec {
                class: op.class,
                ms,
                ok,
                hash,
                rejected,
                window,
                handle_ms,
                engine_ms,
                action: op.action.clone(),
            });
        }
        out
    }

    /// Replay one operation through the layers; returns the shadow's
    /// `api::handle` and engine-call times in milliseconds.
    fn replay(&self, at: At, op: &Op, prepared: &Prepared) -> Res<(f64, f64)> {
        let shadows = self.shadows.expect("traced runs have shadows");
        let wire = format!(
            "POST {} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\r\n{}",
            prepared.path,
            self.addr,
            prepared.body.len(),
            prepared.body
        );
        let (read, _) = at.time("serve.http.read", || {
            read_request(&mut Cursor::new(wire.as_bytes()), Vec::new(), MAX_BODY)
        });
        let req = match read.map_err(|e| e.to_string())? {
            ReadOutcome::Request(req) => req,
            other => return Err(format!("replayed request did not parse: {other:?}")),
        };
        at.time("serve.json.parse", || Json::parse(&prepared.body)).0.map_err(|e| e.to_string())?;
        let (resp, handle_s) = at.time("serve.api.handle", || api::handle(&shadows.api, &req));
        if resp.status != 200 {
            return Err(format!("shadow answered {}: {}", resp.status, clip(&resp.body)));
        }
        let mut sink = CountingWrite::default();
        at.time("serve.http.write", || resp.write_to(&mut sink)).0.map_err(|e| e.to_string())?;
        self.facts.add("serve.http.writes_per_response", sink.writes as f64);

        let exec = ExecOptions::new(server_config().request_threads());
        let engine_s = match op.action {
            Action::Query { stmt } => {
                let stmt = &self.stmts[stmt];
                let (query, join) = layers::parse(at, &stmt.sql)?;
                at.time("engine.plan", || {
                    self.planner.explain_mode(&stmt.sql, mode(stmt.approximate))
                })
                .0
                .map_err(|e| e.to_string())?;
                let engine =
                    shadows.engine.read().expect("a client panicked holding the shadow engine");
                let (answer, secs) =
                    at.time("engine.query", || engine.query(&stmt.sql, mode(stmt.approximate)));
                let answer = answer.map_err(|e| e.to_string())?;
                let (text, _) =
                    at.time("serve.json.render", || api::answer_json(&answer).to_string());
                self.facts.add("serve.json.response_bytes", text.len() as f64);
                let table = match self.args.workload {
                    Workload::IngestWindow => {
                        engine.table(TABLE).ok_or("windowed table missing")?
                    }
                    _ => &self.inputs.fact,
                };
                match (join, stmt.approximate) {
                    (Some(clause), _) => {
                        layers::join(at, self.facts, table, &self.inputs.dim, &clause, &exec)?
                    }
                    (None, true) => {
                        layers::sampling(at, self.facts, table, &query, &exec, self.args.seed)?
                    }
                    (None, false) => layers::exact(at, self.facts, table, &query, &exec)?,
                }
                secs
            }
            Action::Ingest { .. } => {
                let batch = prepared.batch.as_ref().expect("ingest carries its batch");
                let mut engine =
                    shadows.engine.write().expect("a client panicked holding the shadow engine");
                let (out, secs) = at.time("maintain.ingest", || engine.ingest(TABLE, batch));
                out.map_err(|e| e.to_string())?;
                secs
            }
            Action::Rotate { .. } => {
                let cutoff = prepared.cutoff.expect("rotate carries its cutoff");
                let mut engine =
                    shadows.engine.write().expect("a client panicked holding the shadow engine");
                let (out, secs) = at.time("maintain.rotate", || engine.rotate(TABLE, cutoff));
                out.map_err(|e| e.to_string())?;
                secs
            }
        };
        Ok((handle_s * 1e3, engine_s * 1e3))
    }

    /// Bring the shadows up to the server's state after the counter
    /// window: replay, untimed, every operation that changes engine state
    /// (approximate queries, ingests, rotations).
    fn catch_up(&self, schedules: &[Vec<Op>], window: usize) -> Res<()> {
        let shadows = self.shadows.expect("traced runs have shadows");
        for ops in schedules {
            for op in &ops[..window.min(ops.len())] {
                let prepared = self.prepare(op);
                let changes_state = match op.action {
                    Action::Query { stmt } => self.stmts[stmt].approximate,
                    _ => true,
                };
                if !changes_state {
                    continue;
                }
                let req = Request {
                    method: "POST".into(),
                    path: prepared.path.into(),
                    query: Vec::new(),
                    body: prepared.body.clone().into_bytes(),
                    close: false,
                };
                let status = api::handle(&shadows.api, &req).status;
                if status != 200 {
                    return Err(format!("shadow catch-up answered {status}"));
                }
                let mut engine =
                    shadows.engine.write().expect("a client panicked holding the shadow engine");
                let result = match (&op.action, prepared.batch, prepared.cutoff) {
                    (Action::Query { stmt }, _, _) => {
                        engine.query(&self.stmts[*stmt].sql, QueryMode::Approximate).map(drop)
                    }
                    (Action::Ingest { .. }, Some(batch), _) => {
                        engine.ingest(TABLE, &batch).map(drop)
                    }
                    (Action::Rotate { .. }, _, Some(cutoff)) => {
                        engine.rotate(TABLE, cutoff).map(drop)
                    }
                    _ => unreachable!("prepared matches its action"),
                };
                result.map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }
}

/// Hash of an answer's `results` and `confidence` members: the bytes
/// from `,"results":` to the end. The `report` member before them, with
/// its cache and reuse flags, is excluded.
pub fn answer_hash(body: &str) -> Option<u64> {
    let at = body.find(",\"results\":")?;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    body[at..].hash(&mut h);
    Some(h.finish())
}

fn clip(text: &str) -> &str {
    &text[..text.len().min(200)]
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Every timed operation plus, for `ingest-window`, the final check
    /// reads.
    pub recs: Vec<Rec>,
    /// Set-up durations, seconds.
    pub setup_s: Vec<f64>,
    /// Measured seconds (counter window plus main phase).
    pub measured_s: f64,
    /// Counter deltas over the counter window.
    pub counters: Vec<(&'static str, f64)>,
    /// Mean relative error of the approximate answers, with the number
    /// of answers scored.
    pub approx_err: (f64, usize),
    /// Recorded spans (traced runs).
    pub spans: Vec<Span>,
    /// Non-time layer observations (traced runs).
    pub facts: Facts,
    /// Peak resident set, MiB.
    pub rss_peak_mb: f64,
}

/// Set up three times, run the workload once, check every answer.
pub fn run(args: Args, inputs: &Inputs) -> Res<Outcome> {
    let w = args.workload;
    let tracer = Arc::new(Tracer::new());
    let planner = reference_engine(w, inputs, args.seed)?;
    let budget = cache_budget(w, &planner)?;
    let mut setup_s = Vec::new();
    let mut stack = None;
    for _ in 0..3 {
        if let Some(old) = stack.take() {
            Stack::shutdown(old);
        }
        let started = Instant::now();
        stack = Some(setup(w, inputs, args.seed, budget, &tracer)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let stack = stack.expect("set up above");
    let result = measure(args, inputs, &stack, &planner, &tracer, setup_s);
    stack.shutdown();
    result
}

fn measure(
    args: Args,
    inputs: &Inputs,
    stack: &Stack,
    planner: &Engine,
    tracer: &Arc<Tracer>,
    setup_s: Vec<f64>,
) -> Res<Outcome> {
    let w = args.workload;
    let shadows = if args.trace { Some(shadows(w, inputs, args.seed, stack)?) } else { None };
    let facts = Facts::default();
    let load = Load {
        args,
        stmts: schedule::statements(w),
        inputs,
        addr: stack.server.addr(),
        server: stack.server.engine(),
        tracer,
        shadows: shadows.as_ref(),
        planner,
        facts: &facts,
        slot_counts: Default::default(),
        // A traced run only needs every slot replayed at least once; its
        // latencies feed the tracing overhead, not the gated metrics.
        needs: if args.trace {
            [1; 3]
        } else {
            [samples_needed(90.0), samples_needed(50.0), samples_needed(50.0)]
        },
        ingest_passes: AtomicU64::new(0),
        ingest_ops: AtomicU64::new(0),
    };
    let clients = w.clients();
    let window = w.counter_window();
    let schedules: Vec<Vec<Op>> =
        (0..clients).map(|c| schedule::schedule(w, args.seed, c, MAX_OPS)).collect();
    let mut conns: Vec<Client> = (0..clients).map(|_| Client::new(stack.server.addr())).collect();

    // Counter window. Free heap left over from set-up is returned to the
    // system and the peak-RSS mark reset here, so `rss_peak_mb` covers the
    // load phase rather than how much of the set-up garbage the allocator
    // happened to keep.
    trim_heap();
    reset_rss_peak();
    let before = snapshot(&stack.server)?;
    let started = Instant::now();
    let mut recs = load.clients(&mut conns, &schedules, 0, window, None);
    let window_s = started.elapsed().as_secs_f64();
    let after = snapshot(&stack.server)?;
    let ingest =
        (load.ingest_passes.load(Ordering::SeqCst), load.ingest_ops.load(Ordering::SeqCst));
    let counters = counters(&before, &after, &recs, ingest);

    // Main phase.
    if args.trace {
        load.catch_up(&schedules, window)?;
        tracer.set_enabled(true);
    }
    let main_started = Instant::now();
    let remaining =
        Duration::from_secs(args.seconds).saturating_sub(Duration::from_secs_f64(window_s));
    let stop = Stop {
        deadline: main_started + remaining,
        cap: main_started
            + Duration::from_secs(args.seconds * u64::from(CAP_FACTOR))
                .saturating_sub(Duration::from_secs_f64(window_s)),
    };
    let more = load.clients(&mut conns, &schedules, window, MAX_OPS, Some(stop));
    let measured_s = window_s + main_started.elapsed().as_secs_f64();
    let rss_peak_mb = rss_peak_mb();
    tracer.set_enabled(false);
    recs.extend(more);
    drop(conns);

    let approx_err = if w == Workload::IngestWindow {
        check_window(args, inputs, stack, &mut recs)?
    } else {
        check_answers(&load, planner, &mut recs)?
    };
    if args.trace {
        crate::probe::fill_gaps(args, inputs, tracer, &facts)?;
    }
    Ok(Outcome {
        recs,
        setup_s,
        measured_s,
        counters,
        approx_err,
        spans: tracer.spans(),
        facts,
        rss_peak_mb,
    })
}

/// Compare each answer with the reference engine's rendering of the same
/// statement, and score the approximate ones against exact answers.
/// Answers are pure functions of (table, durable samples, problem, seed),
/// so one reference answer per distinct statement serves every
/// operation that sent it.
fn check_answers(load: &Load, reference: &Engine, recs: &mut [Rec]) -> Res<(f64, usize)> {
    let mut expected: HashMap<usize, (Option<u64>, Option<f64>)> = HashMap::new();
    let mut errs = Vec::new();
    for rec in recs.iter_mut() {
        let Some(stmt) = rec.stmt() else { continue };
        let (want, err) = match expected.get(&stmt) {
            Some(v) => *v,
            None => {
                let s = &load.stmts[stmt];
                let answer =
                    reference.query(&s.sql, mode(s.approximate)).map_err(|e| e.to_string())?;
                let want = answer_hash(&api::answer_json(&answer).to_string());
                let err = if s.approximate {
                    let truth =
                        reference.query(&s.sql, QueryMode::Exact).map_err(|e| e.to_string())?;
                    let all: Vec<f64> =
                        relative_errors(&truth.results[0], &answer.results[0], 0.0).concat();
                    crate::stats::mean(&all)
                } else {
                    None
                };
                expected.insert(stmt, (want, err));
                (want, err)
            }
        };
        if rec.ok && rec.hash != want {
            eprintln!("perfbench: answer mismatch for {}", load.stmts[stmt].sql);
            rec.ok = false;
        }
        if let Some(e) = err {
            errs.push(e);
        }
    }
    Ok((crate::stats::mean(&errs).unwrap_or(0.0), errs.len()))
}

/// `ingest-window`'s check: after the run, read every fresh-read
/// statement from the server and compare with a fresh engine registered
/// over the surviving rows and set up the same way. The check reads are
/// operations of their own (counted as attempted, failed on mismatch).
fn check_window(
    args: Args,
    inputs: &Inputs,
    stack: &Stack,
    recs: &mut Vec<Rec>,
) -> Res<(f64, usize)> {
    let mut retired = 0;
    let mut batches = 0;
    for rec in recs.iter().filter(|r| r.ok) {
        match rec.action {
            Action::Ingest { batch } => batches = batches.max(batch + 1),
            Action::Rotate { retire } => retired = retired.max(retire),
            Action::Query { .. } => {}
        }
    }
    let mut fresh = Engine::new().with_seed(args.seed);
    fresh
        .register_windowed(TABLE, inputs.window().surviving(retired, batches), "local_time")
        .map_err(|e| e.to_string())?;
    warm_engine(Workload::IngestWindow, &fresh)?;
    let stmts = schedule::statements(Workload::IngestWindow);
    let mut client = Client::new(stack.server.addr());
    let mut errs = Vec::new();
    for (i, stmt) in stmts.iter().enumerate() {
        let started = Instant::now();
        let got = client.post("/query", &query_body(stmt));
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let answer = fresh.query(&stmt.sql, QueryMode::Approximate).map_err(|e| e.to_string())?;
        let want = answer_hash(&api::answer_json(&answer).to_string());
        let hash = match got {
            Ok((200, text)) => answer_hash(&text),
            _ => None,
        };
        let ok = hash.is_some() && hash == want;
        if !ok {
            eprintln!("perfbench: fresh-engine check failed for {}", stmt.sql);
        }
        let truth = fresh.query(&stmt.sql, QueryMode::Exact).map_err(|e| e.to_string())?;
        let all: Vec<f64> = relative_errors(&truth.results[0], &answer.results[0], 0.0).concat();
        errs.extend(crate::stats::mean(&all));
        recs.push(Rec {
            class: Class::FreshRead,
            ms,
            ok,
            hash,
            rejected: 0,
            window: false,
            handle_ms: None,
            engine_ms: None,
            action: Action::Query { stmt: i },
        });
    }
    Ok((crate::stats::mean(&errs).unwrap_or(0.0), errs.len()))
}

/// Return free heap memory to the system (glibc `malloc_trim`).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` has no preconditions; it takes the allocator's
    // own locks, and Rust's global allocator on this target is glibc malloc.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

/// Reset the kernel's peak-RSS mark (`VmHWM`) to the current resident
/// set. Best effort: without `/proc`, the peak covers the whole process.
fn reset_rss_peak() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set (`VmHWM`), MiB.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
