//! The engine's prepared-sample cache. [`SampleCache`] owns every piece
//! of cache state — the entries keyed by `(table, layout-folded
//! fingerprint)`, the in-flight runs concurrent misses coalesce onto, the
//! byte ledger, the eviction counter, the LRU clock and the budget — so
//! the ledger is credited in exactly one place ([`SampleCache::publish`])
//! and debited only by invalidation and eviction.

use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use crate::catalog::CatalogTable;
use crate::framework::CvOptOutcome;
use crate::spec::SamplingProblem;
use crate::Result;

/// The cache key: lowercased catalog name + layout-folded problem
/// fingerprint.
pub(crate) type CacheKey = (String, u64);

/// One prepared sample plus the problem it was prepared for. The problem
/// is kept so a fingerprint collision is detected by structural equality
/// and costs only a redundant preparation, never a wrong answer.
///
/// The economy fields feed eviction: `bytes` is what the entry costs to
/// hold, `passes_saved` is what it has earned (each cache hit is one
/// statistics pass + draw the engine did not re-run), and `last_used`
/// breaks ties LRU-wise. The atomics are bumped under the cache **read**
/// lock, so hits never serialize.
#[derive(Debug)]
pub(crate) struct CachedSample {
    problem: SamplingProblem,
    outcome: Arc<CvOptOutcome>,
    /// Approximate bytes held by the outcome (pure function of the data).
    bytes: u64,
    /// Statistics passes this entry has saved (cache hits served).
    passes_saved: AtomicU64,
    /// Logical clock stamp of the most recent use.
    last_used: AtomicU64,
    /// Whether the reuse planner may answer *other* problems from this
    /// entry. Only entries published (or later exact-hit) by an explicit
    /// [`Engine::prepare`](crate::Engine::prepare) or
    /// [`Engine::reoptimize`](crate::Engine::reoptimize) are reusable:
    /// those operations are application-serialized, so the reusable set —
    /// unlike the full cache under concurrent queries — changes at
    /// well-defined points, keeping every reuse decision a pure function of
    /// (catalog, reusable set, problem) and never of query timing.
    reusable: AtomicBool,
}

/// The eviction rank of a cache entry: entries are evicted in ascending
/// order of `(bytes × passes-saved, last-used stamp)`.
///
/// The product is the sampling-algebra view of a cached sample's worth —
/// the re-draw work it has saved, weighted by what it costs to hold — so
/// an entry that never earned a hit (`passes_saved == 0`) ranks at zero
/// and goes first, and among equals the least-recently-used entry goes
/// first. The rank is a **pure function** of the three inputs (pinned by a
/// property test), which is what makes eviction order — and therefore the
/// `cache_evictions` counter — deterministic for a serialized workload.
pub fn eviction_rank(bytes: u64, passes_saved: u64, last_used: u64) -> (u128, u64) {
    ((bytes as u128) * (passes_saved as u128), last_used)
}

/// Approximate bytes a cached [`CvOptOutcome`] holds: the materialized
/// sample (columns, weights, origins, stratum ids) plus flat per-stratum
/// charges for the plan. Pure function of the data — fixed per-element
/// widths, never `size_of` — so the `cache_bytes_held` counter is
/// identical on every platform and safe to snapshot into bench diffs.
fn outcome_bytes(outcome: &CvOptOutcome) -> u64 {
    /// Flat charge per stratum for plan metadata (key, statistics,
    /// allocation slot).
    const STRATUM_OVERHEAD: u64 = 64;
    let sample = &outcome.sample;
    let rows = sample.len() as u64;
    sample.table.approx_bytes()
        + 8 * rows // weights
        + 4 * rows // origin row ids
        + 4 * sample.row_stratum.len() as u64
        + outcome.plan.num_strata() as u64 * STRATUM_OVERHEAD
        + 8 * outcome.plan.betas.len() as u64
}

/// One in-flight sample preparation that concurrent cache misses for the
/// same `(table, fingerprint, problem)` coalesce onto: exactly one caller
/// runs the statistics pass and the draw (inside the cell's
/// `get_or_init`), every other caller blocks on the cell and shares the
/// outcome. The `bool` is `true` when the value came from a fresh scan
/// (as opposed to a cache entry that appeared while we were queueing).
#[derive(Debug)]
struct PendingRun {
    problem: SamplingProblem,
    cell: OnceLock<Result<(Arc<CvOptOutcome>, bool)>>,
}

/// A reuse decision: the subsuming cached sample that will answer, and
/// the fingerprint the report names it by.
pub(crate) struct ReusePlan {
    pub(crate) source_fingerprint: u64,
    pub(crate) outcome: Arc<CvOptOutcome>,
}

/// The prepared-sample cache (see the module docs). The default is empty
/// and unbounded.
#[derive(Debug, Default)]
pub(crate) struct SampleCache {
    entries: RwLock<HashMap<CacheKey, Vec<CachedSample>>>,
    pending: Mutex<HashMap<CacheKey, Vec<Arc<PendingRun>>>>,
    /// Byte budget; `None` is unbounded.
    budget: Option<u64>,
    /// The byte ledger: approximate bytes currently held by entries.
    bytes: AtomicU64,
    /// Entries evicted to stay under the budget.
    evictions: AtomicU64,
    /// Logical clock for LRU stamps (bumped on every hit and insert).
    clock: AtomicU64,
}

impl SampleCache {
    /// This cache re-bounded to `budget` bytes.
    pub(crate) fn with_budget(mut self, budget: Option<u64>) -> Self {
        self.budget = budget;
        self
    }

    /// The configured byte budget.
    pub(crate) fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Approximate bytes currently held.
    pub(crate) fn bytes_held(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Entries evicted so far to stay under the budget.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of entries held.
    pub(crate) fn len(&self) -> usize {
        self.read().values().map(Vec::len).sum()
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, HashMap<CacheKey, Vec<CachedSample>>> {
        self.entries.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, HashMap<CacheKey, Vec<CachedSample>>> {
        self.entries.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Next LRU stamp. Stamps start at 1 and are unique (atomic counter),
    /// so no two entries ever tie on `last_used`.
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Probe (read lock only) for a structurally equal problem. A hit
    /// credits the entry one saved statistics pass and freshens its LRU
    /// stamp — both atomics, so hits never serialize on the write lock.
    /// `mark_reusable` upgrades the entry to a reuse candidate: an explicit
    /// prepare that exact-hits a query-drawn entry adopts it into the
    /// durable set.
    ///
    /// Returns the outcome plus whether the entry is (now) a durable reuse
    /// candidate — the planner's Auto decision may only depend on the
    /// durable bit, never on mere presence.
    pub(crate) fn probe(
        &self,
        key: &CacheKey,
        problem: &SamplingProblem,
        mark_reusable: bool,
    ) -> Option<(Arc<CvOptOutcome>, bool)> {
        let entries = self.read();
        let entry = entries.get(key)?.iter().find(|e| &e.problem == problem)?;
        entry.passes_saved.fetch_add(1, Ordering::Relaxed);
        entry.last_used.store(self.tick(), Ordering::Relaxed);
        if mark_reusable {
            entry.reusable.store(true, Ordering::Relaxed);
        }
        let durable = mark_reusable || entry.reusable.load(Ordering::Relaxed);
        Some((Arc::clone(&entry.outcome), durable))
    }

    /// Insert `outcome` under `key` unless a structurally equal problem is
    /// already held, charging its bytes to the ledger. Returns whether the
    /// entry was inserted. Never evicts: callers run
    /// [`SampleCache::enforce_budget`] once their publishes are done.
    pub(crate) fn publish(
        &self,
        key: &CacheKey,
        problem: &SamplingProblem,
        outcome: &Arc<CvOptOutcome>,
        reusable: bool,
    ) -> bool {
        let mut entries = self.write();
        let bucket = entries.entry(key.clone()).or_default();
        if bucket.iter().any(|e| &e.problem == problem) {
            return false;
        }
        let bytes = outcome_bytes(outcome);
        bucket.push(CachedSample {
            problem: problem.clone(),
            outcome: Arc::clone(outcome),
            bytes,
            passes_saved: AtomicU64::new(0),
            last_used: AtomicU64::new(self.tick()),
            reusable: AtomicBool::new(reusable),
        });
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        true
    }

    /// The cached outcome for `problem` under `key`, or a fresh one from
    /// `prepare`. Returns the outcome and whether it counts as a cache hit.
    ///
    /// Concurrent misses for the same problem **coalesce**: exactly one
    /// caller runs `prepare`, the rest block on the in-flight run and share
    /// its outcome (as hits — they cost no scan of their own). The caller
    /// that ran it publishes the outcome (`durable` marks it a reuse
    /// candidate), retires the run, and then runs the budget pass. A
    /// failed preparation is shared by its coalescers and never cached, so
    /// a later call retries.
    pub(crate) fn get_or_prepare(
        &self,
        key: &CacheKey,
        problem: SamplingProblem,
        durable: bool,
        prepare: impl FnOnce(&SamplingProblem) -> Result<Arc<CvOptOutcome>>,
    ) -> Result<(Arc<CvOptOutcome>, bool)> {
        if let Some((outcome, _)) = self.probe(key, &problem, durable) {
            return Ok((outcome, true));
        }

        // Miss: join the pending run for this exact problem, creating it
        // if we are first. Structural equality guards the (astronomically
        // unlikely) fingerprint collision exactly as the entries do.
        let run = {
            let mut pending = self.pending.lock().unwrap_or_else(|e| e.into_inner());
            let bucket = pending.entry(key.clone()).or_default();
            match bucket.iter().find(|r| r.problem == problem) {
                Some(run) => Arc::clone(run),
                None => {
                    let run = Arc::new(PendingRun { problem, cell: OnceLock::new() });
                    bucket.push(Arc::clone(&run));
                    run
                }
            }
        };
        let mut ran_here = false;
        let result = run.cell.get_or_init(|| {
            ran_here = true;
            // The cache may have been filled between our probe and this
            // run becoming the key's pending entry; a fresh scan would be
            // wasted work, so re-probe before scanning.
            if let Some((outcome, _)) = self.probe(key, &run.problem, durable) {
                return Ok((outcome, false));
            }
            prepare(&run.problem).map(|outcome| (outcome, true))
        });
        if ran_here {
            // Leader duties: publish the outcome, then retire the pending
            // entry (in that order, so a late arrival always finds one of
            // the two).
            let published = match result {
                Ok((outcome, true)) => self.publish(key, &run.problem, outcome, durable),
                _ => false,
            };
            {
                let mut pending = self.pending.lock().unwrap_or_else(|e| e.into_inner());
                if let Some(bucket) = pending.get_mut(key) {
                    bucket.retain(|r| !Arc::ptr_eq(r, &run));
                    if bucket.is_empty() {
                        pending.remove(key);
                    }
                }
            }
            // Budget pass runs after the pending entry is retired, so a
            // zero/tiny budget can evict even the entry just published —
            // late coalescers read the outcome from the run cell, never
            // the cache, so this costs nothing but a future re-prepare.
            if published {
                self.enforce_budget();
            }
        }
        match result {
            Ok((outcome, fresh)) => Ok((Arc::clone(outcome), !(ran_here && *fresh))),
            Err(e) => Err(e.clone()),
        }
    }

    /// The reuse planner: scan `table_key`'s entries for a **durable** one
    /// whose problem subsumes `problem` under `base`'s current layout.
    /// Candidates are ranked by `(budget desc, fingerprint asc)` — a total,
    /// timing-free order — so which sample answers is a pure function of
    /// the reusable set. Returns the captured outcome plus the groups the
    /// estimator will merge away.
    pub(crate) fn find_subsuming(
        &self,
        table_key: &str,
        base: &CatalogTable,
        problem: &SamplingProblem,
    ) -> Option<(ReusePlan, Vec<String>)> {
        let requested: HashSet<String> =
            problem.finest_stratification().iter().map(|e| e.display_name()).collect();
        let entries = self.read();
        let mut best: Option<((Reverse<usize>, u64), &CachedSample)> = None;
        for ((_, folded), bucket) in entries.iter().filter(|((name, _), _)| name == table_key) {
            for entry in bucket {
                // Never match across layouts: the stored key folds the
                // shard layout, so an entry from a superseded layout (which
                // registration invalidates anyway) re-folds differently.
                let candidate = entry.reusable.load(Ordering::Relaxed)
                    && base.layout_fingerprint(entry.problem.fingerprint()) == *folded
                    && entry.problem.subsumes(problem);
                let rank = (Reverse(entry.problem.budget), *folded);
                if candidate && best.as_ref().is_none_or(|(b, _)| rank < *b) {
                    best = Some((rank, entry));
                }
            }
        }
        let ((_, source_fingerprint), entry) = best?;
        // A derived answer is a use: it earns the source its keep exactly
        // like an exact hit would.
        entry.passes_saved.fetch_add(1, Ordering::Relaxed);
        entry.last_used.store(self.tick(), Ordering::Relaxed);
        let coarsened: Vec<String> = entry
            .problem
            .finest_stratification()
            .iter()
            .map(|e| e.display_name())
            .filter(|name| !requested.contains(name))
            .collect();
        Some((ReusePlan { source_fingerprint, outcome: Arc::clone(&entry.outcome) }, coarsened))
    }

    /// Drop every entry of table `table_key`, debiting their bytes.
    /// Invalidation, not eviction: the eviction counter tracks only budget
    /// pressure.
    pub(crate) fn forget_table(&self, table_key: &str) {
        let mut freed = 0u64;
        self.write().retain(|(t, _), bucket| {
            if t == table_key {
                freed += bucket.iter().map(|e| e.bytes).sum::<u64>();
                false
            } else {
                true
            }
        });
        self.bytes.fetch_sub(freed, Ordering::Relaxed);
    }

    /// Evict until the held bytes fit the budget: repeatedly remove the
    /// entry with the smallest [`eviction_rank`] — cheapest to re-earn
    /// first, LRU tie-break — debiting the ledger and crediting the
    /// eviction counter. Keys with an in-flight coalesced run are
    /// protected (the loop stops if only they remain): evicting under a
    /// leader mid-publish would let the same problem occupy two
    /// generations of bytes and double-count evictions.
    ///
    /// Lock order is entries → pending, matching every other path (no path
    /// takes the entries lock while holding the pending lock), so this
    /// cannot deadlock.
    pub(crate) fn enforce_budget(&self) {
        let Some(budget) = self.budget else { return };
        if self.bytes_held() <= budget {
            return;
        }
        let mut entries = self.write();
        let protected: HashSet<CacheKey> = {
            let pending = self.pending.lock().unwrap_or_else(|e| e.into_inner());
            pending.keys().cloned().collect()
        };
        while self.bytes_held() > budget {
            let mut victim: Option<((u128, u64), CacheKey, usize)> = None;
            for (key, bucket) in entries.iter().filter(|(key, _)| !protected.contains(*key)) {
                for (idx, entry) in bucket.iter().enumerate() {
                    let rank = eviction_rank(
                        entry.bytes,
                        entry.passes_saved.load(Ordering::Relaxed),
                        entry.last_used.load(Ordering::Relaxed),
                    );
                    if victim.as_ref().is_none_or(|(best, _, _)| rank < *best) {
                        victim = Some((rank, key.clone(), idx));
                    }
                }
            }
            let Some((_, key, idx)) = victim else { break };
            let bucket = entries.get_mut(&key).expect("victim key present");
            let evicted = bucket.remove(idx);
            if bucket.is_empty() {
                entries.remove(&key);
            }
            self.bytes.fetch_sub(evicted.bytes, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
impl SampleCache {
    /// Hold a hand-built entry with arbitrary economy state under `key`,
    /// charging `bytes` to the ledger (the outcome is irrelevant to
    /// eviction).
    pub(crate) fn hold(
        &self,
        key: CacheKey,
        problem: SamplingProblem,
        outcome: Arc<CvOptOutcome>,
        (bytes, passes_saved, last_used): (u64, u64, u64),
    ) {
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.write().entry(key).or_default().push(CachedSample {
            problem,
            outcome,
            bytes,
            passes_saved: AtomicU64::new(passes_saved),
            last_used: AtomicU64::new(last_used),
            reusable: AtomicBool::new(false),
        });
    }

    /// Mark `key` as having an in-flight run, which protects it from
    /// eviction.
    pub(crate) fn hold_pending(&self, key: CacheKey) {
        self.pending.lock().unwrap_or_else(|e| e.into_inner()).entry(key).or_default();
    }

    /// The keys currently held, sorted.
    pub(crate) fn keys(&self) -> Vec<CacheKey> {
        let mut keys: Vec<CacheKey> = self.read().keys().cloned().collect();
        keys.sort_unstable();
        keys
    }

    /// Entry count and the sum of [`outcome_bytes`] recomputed over every
    /// held entry — what the ledger must equal if every publish and every
    /// debit kept it honest.
    pub(crate) fn recount(&self) -> (usize, u64) {
        let entries = self.read();
        let held = entries.values().flatten();
        (held.clone().count(), held.map(|e| outcome_bytes(&e.outcome)).sum())
    }
}
