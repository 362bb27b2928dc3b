//! A sharded, bounded memo cache over `(PDN, scenario) → evaluation`.
//!
//! Design-space exploration answers many *overlapping* queries: every
//! figure kernel, the crossover bisection, and predictor training evaluate
//! the same `(PDN, lattice point)` pairs over and over. [`MemoCache`]
//! eliminates that redundancy without changing a single reported value:
//!
//! * **Keys** pair a PDN identity token ([`crate::topology::Pdn::memo_token`],
//!   a hash of the topology kind and its full parameter set) with a
//!   [`crate::scenario::Scenario::fingerprint`] — exact `f64` bit patterns,
//!   no rounding — so two lookups collide only when every input a power
//!   model reads is numerically identical, and the cached value is the very
//!   value a recomputation would produce, bit for bit.
//! * **Each key input is hashed once**: a topology fixes its token at
//!   construction; the batch engine fingerprints each row once for all its
//!   PDN tasks, the crossover bisection each probe once for both PDNs; a
//!   scenario constructor hashes the SoC once per staging-cache lookup.
//! * **Persisted**: [`Scenario::fingerprint`] and [`ModelParams::fingerprint`]
//!   values live in exported [`MemoEntry`]s and so in `pdn-serve`
//!   snapshots; changing either turns every stored entry into a dead key.
//! * **Sharding**: keys are striped over independently locked shards so
//!   parallel batch workers rarely contend on the same mutex.
//! * **Bounded capacity**: each shard evicts in FIFO order past its
//!   capacity share, keeping memory flat on unbounded query streams.
//! * Only `Ok` evaluations are cached; errors always propagate fresh.
//!
//! Wrap any [`Pdn`] with [`MemoCache::wrap`] to thread caching through
//! code that only knows the trait.

use crate::error::PdnError;
use crate::etee::{PdnEvaluation, RowStage};
use crate::params::ModelParams;
use crate::scenario::Scenario;
use crate::topology::{OffchipRail, Pdn, PdnKind};
use pdn_proc::SocSpec;
use pdn_workload::codec::Fnv1a;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The `(PDN identity, scenario fingerprint)` cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct MemoKey {
    pdn: u64,
    scenario: u64,
}

impl MemoKey {
    fn mixed(self) -> u64 {
        let mut h = Fnv1a::new();
        h.u64(self.pdn);
        h.u64(self.scenario);
        h.finish()
    }
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<MemoKey, PdnEvaluation>,
    order: VecDeque<MemoKey>,
}

/// Locks a shard; a poisoned shard still holds only complete entries.
fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Counter snapshot of a [`MemoCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a real evaluation.
    pub misses: u64,
    /// Entries dropped by the bounded-capacity FIFO policy.
    pub evictions: u64,
    /// Evaluations that skipped the cache because the PDN declares no
    /// identity token.
    pub bypasses: u64,
}

impl MemoStats {
    /// Total cacheable lookups (hits + misses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of cacheable lookups answered from the cache (0 when no
    /// lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// Default number of independently locked shards
/// ([`MemoCache::new`] / [`MemoCache::with_capacity`]).
pub const DEFAULT_SHARDS: usize = 16;

/// Default total entry capacity of [`MemoCache::new`].
pub const DEFAULT_CAPACITY: usize = 8192;

/// One exported cache entry — the raw key pair plus the cached value.
///
/// Produced by [`MemoCache::export`] and consumed by
/// [`MemoCache::import`]; the key fields are the exact
/// [`crate::topology::Pdn::memo_token`] and
/// [`crate::scenario::Scenario::fingerprint`] values, so an entry
/// re-imported into any cache (regardless of shard count) lands via the
/// same deterministic FNV-1a striping and is indistinguishable from a
/// fresh insertion.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoEntry {
    /// The PDN identity token half of the key.
    pub pdn_token: u64,
    /// The scenario fingerprint half of the key.
    pub scenario_fingerprint: u64,
    /// The cached evaluation.
    pub value: PdnEvaluation,
}

/// A lock-striped, bounded memo cache of PDN evaluations (see the module
/// docs for the key and determinism contract).
///
/// # Examples
///
/// ```
/// use pdn_units::{ApplicationRatio, Watts};
/// use pdn_workload::WorkloadType;
/// use pdnspot::{memo::MemoCache, IvrPdn, ModelParams, Pdn, Scenario};
///
/// let pdn = IvrPdn::new(ModelParams::paper_defaults());
/// let soc = pdn_proc::client_soc(Watts::new(18.0));
/// let s = Scenario::active_budget(
///     &soc,
///     WorkloadType::MultiThread,
///     ApplicationRatio::new(0.6)?,
///     pdn.params(),
/// )?;
/// let cache = MemoCache::new();
/// let first = cache.evaluate(&pdn, &s)?;
/// let second = cache.evaluate(&pdn, &s)?;
/// assert_eq!(first, second);
/// assert_eq!(cache.stats().hits, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct MemoCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    bypasses: AtomicU64,
}

impl MemoCache {
    /// A cache bounded at [`DEFAULT_CAPACITY`] entries.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A cache bounded at `capacity` total entries over
    /// [`DEFAULT_SHARDS`] shards (capacity rounded up to a multiple of
    /// the shard count; at least one entry per shard).
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_shards(DEFAULT_SHARDS, capacity)
    }

    /// A cache with an explicit shard count and total entry capacity —
    /// the constructor `EngineConfig` uses. `shards` is clamped to at
    /// least 1; the capacity is rounded up to a multiple of the shard
    /// count with at least one entry per shard.
    pub fn with_shards(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            capacity_per_shard: capacity.div_ceil(shards).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
        }
    }

    /// Number of independently locked shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total entry capacity (the per-shard budget times the shard count).
    pub fn capacity(&self) -> usize {
        self.capacity_per_shard * self.shards.len()
    }

    /// The locked shard `key` stripes to.
    fn shard_of(&self, key: MemoKey) -> MutexGuard<'_, Shard> {
        lock(&self.shards[(key.mixed() % self.shards.len() as u64) as usize])
    }

    /// Evaluates `pdn` on `scenario` through the cache.
    ///
    /// # Errors
    ///
    /// Propagates the underlying evaluation error (never cached).
    pub fn evaluate(&self, pdn: &dyn Pdn, scenario: &Scenario) -> Result<PdnEvaluation, PdnError> {
        // Only a keyed lookup reads the fingerprint; a bypass skips it.
        let fingerprint = pdn.memo_token().map_or(0, |_| scenario.fingerprint());
        self.evaluate_fingerprinted(pdn, scenario, fingerprint)
    }

    /// [`MemoCache::evaluate`] with `scenario`'s
    /// [`Scenario::fingerprint`] supplied by the caller, so one
    /// fingerprint serves every PDN evaluated at the same scenario.
    pub(crate) fn evaluate_fingerprinted(
        &self,
        pdn: &dyn Pdn,
        scenario: &Scenario,
        fingerprint: u64,
    ) -> Result<PdnEvaluation, PdnError> {
        let Some(token) = pdn.memo_token() else {
            self.bypasses.fetch_add(1, Ordering::Relaxed);
            return pdn.evaluate(scenario);
        };
        let key = MemoKey { pdn: token, scenario: fingerprint };
        let hit = self.shard_of(key).map.get(&key).cloned();
        if let Some(hit) = hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = pdn.evaluate(scenario)?;
        self.insert(key, value.clone());
        Ok(value)
    }

    /// Inserts one evaluation under `key`, evicting the shard's oldest
    /// entry past its capacity. Returns whether the entry was added.
    ///
    /// A racing worker may have inserted the same key; both computed
    /// identical bits, so keeping the first insertion is safe.
    fn insert(&self, key: MemoKey, value: PdnEvaluation) -> bool {
        let mut shard = self.shard_of(key);
        if shard.map.contains_key(&key) {
            return false;
        }
        if shard.order.len() >= self.capacity_per_shard {
            if let Some(oldest) = shard.order.pop_front() {
                shard.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.order.push_back(key);
        shard.map.insert(key, value);
        true
    }

    /// Evaluates a whole lattice row through the cache with one bulk
    /// lookup.
    ///
    /// Rows whose every point is cached return without touching the
    /// kernel at all — the warm-sweep fast path. A row with any miss runs
    /// [`Pdn::evaluate_row`] over the *full* row (the row kernel's staged
    /// front-half amortises across the row, so re-running cached points
    /// costs less than splitting the row) and inserts the previously
    /// missing `Ok` results. Hit/miss/bypass counters advance per point,
    /// exactly as the same sweep would count through
    /// [`MemoCache::evaluate`].
    pub fn evaluate_row(
        &self,
        pdn: &dyn Pdn,
        scenarios: &[Scenario],
        row: &RowStage,
    ) -> Vec<Result<PdnEvaluation, PdnError>> {
        let keyed = if pdn.memo_token().is_some() { scenarios } else { &[] };
        let fingerprints: Vec<u64> = keyed.iter().map(Scenario::fingerprint).collect();
        self.evaluate_row_fingerprinted(pdn, scenarios, &fingerprints, row)
    }

    /// [`MemoCache::evaluate_row`] with each scenario's
    /// [`Scenario::fingerprint`] supplied by the caller (index-aligned
    /// with `scenarios`), so every PDN evaluating the same row shares one
    /// set. `fingerprints` may be empty for a PDN without a token.
    pub(crate) fn evaluate_row_fingerprinted(
        &self,
        pdn: &dyn Pdn,
        scenarios: &[Scenario],
        fingerprints: &[u64],
        row: &RowStage,
    ) -> Vec<Result<PdnEvaluation, PdnError>> {
        let Some(token) = pdn.memo_token() else {
            self.bypasses.fetch_add(scenarios.len() as u64, Ordering::Relaxed);
            return pdn.evaluate_row(scenarios, row);
        };
        assert_eq!(scenarios.len(), fingerprints.len(), "one fingerprint per scenario");
        let keys: Vec<MemoKey> =
            fingerprints.iter().map(|&fp| MemoKey { pdn: token, scenario: fp }).collect();
        let cached: Vec<Option<PdnEvaluation>> =
            keys.iter().map(|key| self.shard_of(*key).map.get(key).cloned()).collect();
        let n_hits = cached.iter().filter(|c| c.is_some()).count();
        self.hits.fetch_add(n_hits as u64, Ordering::Relaxed);
        self.misses.fetch_add((scenarios.len() - n_hits) as u64, Ordering::Relaxed);
        if n_hits == scenarios.len() {
            return cached.into_iter().map(|c| Ok(c.expect("all points hit"))).collect();
        }
        let results = pdn.evaluate_row(scenarios, row);
        for ((&key, hit), result) in keys.iter().zip(&cached).zip(&results) {
            if let (None, Ok(value)) = (hit, result) {
                self.insert(key, value.clone());
            }
        }
        results
    }

    /// Current number of cached evaluations across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).map.len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exports every cached entry in deterministic order: shard index
    /// ascending, then insertion (FIFO) order within each shard. The
    /// snapshot path in `pdn-serve` writes this list to disk so a
    /// restarted daemon can [`MemoCache::import`] it and serve hot.
    pub fn export(&self) -> Vec<MemoEntry> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = lock(shard);
            for key in &shard.order {
                if let Some(value) = shard.map.get(key) {
                    out.push(MemoEntry {
                        pdn_token: key.pdn,
                        scenario_fingerprint: key.scenario,
                        value: value.clone(),
                    });
                }
            }
        }
        out
    }

    /// Re-inserts previously [`export`](MemoCache::export)ed entries.
    ///
    /// Entries are striped over this cache's shards by the same
    /// deterministic FNV-1a mix used at evaluation time, so the shard
    /// count of the exporting cache does not need to match. Imports do
    /// not count as hits or misses; entries past the capacity budget
    /// evict in FIFO order exactly as live insertions do. Returns the
    /// number of entries actually added (duplicates are kept-first, like
    /// racing live insertions).
    pub fn import<I: IntoIterator<Item = MemoEntry>>(&self, entries: I) -> usize {
        entries
            .into_iter()
            .map(|e| {
                self.insert(MemoKey { pdn: e.pdn_token, scenario: e.scenario_fingerprint }, e.value)
            })
            .filter(|&added| added)
            .count()
    }

    /// Snapshot of the hit/miss/eviction/bypass counters.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
        }
    }

    /// Wraps a PDN so every [`Pdn::evaluate`] call routes through this
    /// cache — the plumbing used by figure kernels that only know the
    /// trait.
    pub fn wrap<'a>(&'a self, inner: &'a dyn Pdn) -> MemoPdn<'a> {
        MemoPdn { cache: self, inner }
    }
}

impl Default for MemoCache {
    fn default() -> Self {
        Self::new()
    }
}

/// A [`Pdn`] adaptor that routes evaluations through a [`MemoCache`],
/// delegating everything else (kind, params, rail sizing, identity token)
/// to the wrapped topology.
#[derive(Debug, Clone, Copy)]
pub struct MemoPdn<'a> {
    cache: &'a MemoCache,
    inner: &'a dyn Pdn,
}

impl Pdn for MemoPdn<'_> {
    fn kind(&self) -> PdnKind {
        self.inner.kind()
    }

    fn params(&self) -> &ModelParams {
        self.inner.params()
    }

    fn evaluate(&self, scenario: &Scenario) -> Result<PdnEvaluation, PdnError> {
        self.cache.evaluate(self.inner, scenario)
    }

    fn memo_token(&self) -> Option<u64> {
        self.inner.memo_token()
    }

    fn offchip_rails(&self, soc: &SocSpec) -> Result<Vec<OffchipRail>, PdnError> {
        // Preserve any override (e.g. FlexWatts sizes rails for the union
        // of its modes) instead of re-running the trait default.
        self.inner.offchip_rails(soc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{IvrPdn, MbvrPdn};
    use pdn_proc::{client_soc, PackageCState};
    use pdn_units::{ApplicationRatio, Watts};
    use pdn_workload::WorkloadType;

    fn scenario(tdp: f64, ar: f64) -> Scenario {
        let soc = client_soc(Watts::new(tdp));
        Scenario::active_fixed_tdp_frequency(
            &soc,
            WorkloadType::MultiThread,
            ApplicationRatio::new(ar).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn hit_returns_the_identical_evaluation() {
        let pdn = IvrPdn::new(ModelParams::paper_defaults());
        let s = scenario(18.0, 0.6);
        let cache = MemoCache::new();
        let miss = cache.evaluate(&pdn, &s).unwrap();
        let hit = cache.evaluate(&pdn, &s).unwrap();
        assert_eq!(miss, hit);
        assert_eq!(miss.input_power.get().to_bits(), hit.input_power.get().to_bits());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_pdns_and_scenarios_do_not_collide() {
        let params = ModelParams::paper_defaults();
        let ivr = IvrPdn::new(params.clone());
        let mbvr = MbvrPdn::new(params);
        let s18 = scenario(18.0, 0.6);
        let s50 = scenario(50.0, 0.6);
        let cache = MemoCache::new();
        let a = cache.evaluate(&ivr, &s18).unwrap();
        let b = cache.evaluate(&mbvr, &s18).unwrap();
        let c = cache.evaluate(&ivr, &s50).unwrap();
        assert_ne!(a.input_power, b.input_power, "different PDNs must not share entries");
        assert_ne!(a.input_power, c.input_power, "different scenarios must not share entries");
        assert_eq!(cache.stats().misses, 3);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn capacity_is_bounded_with_fifo_eviction() {
        let pdn = IvrPdn::new(ModelParams::paper_defaults());
        let cache = MemoCache::with_capacity(16); // one entry per shard
        let soc = client_soc(Watts::new(18.0));
        for i in 0..40 {
            let ar = 0.40 + 0.01 * i as f64;
            let s = Scenario::active_fixed_tdp_frequency(
                &soc,
                WorkloadType::MultiThread,
                ApplicationRatio::new(ar).unwrap(),
            )
            .unwrap();
            cache.evaluate(&pdn, &s).unwrap();
        }
        assert!(cache.len() <= 16, "cache must stay bounded: {}", cache.len());
        let stats = cache.stats();
        assert_eq!(stats.misses, 40);
        assert_eq!(stats.evictions as usize, 40 - cache.len());
    }

    #[test]
    fn evicted_entries_recompute_identically() {
        let pdn = IvrPdn::new(ModelParams::paper_defaults());
        let unbounded = MemoCache::new();
        let tiny = MemoCache::with_capacity(1);
        let soc = client_soc(Watts::new(18.0));
        let scenarios: Vec<Scenario> = (0..8)
            .map(|i| {
                Scenario::active_fixed_tdp_frequency(
                    &soc,
                    WorkloadType::MultiThread,
                    ApplicationRatio::new(0.40 + 0.05 * i as f64).unwrap(),
                )
                .unwrap()
            })
            .collect();
        for _ in 0..2 {
            for s in &scenarios {
                let a = unbounded.evaluate(&pdn, s).unwrap();
                let b = tiny.evaluate(&pdn, s).unwrap();
                assert_eq!(a.input_power.get().to_bits(), b.input_power.get().to_bits());
                assert_eq!(a.etee.get().to_bits(), b.etee.get().to_bits());
            }
        }
        assert!(tiny.stats().evictions > 0, "the tiny cache must have evicted");
    }

    #[test]
    fn idle_and_active_fingerprints_differ() {
        let soc = client_soc(Watts::new(18.0));
        let active = scenario(18.0, 0.6);
        let idle = Scenario::idle(&soc, PackageCState::C8);
        assert_ne!(active.fingerprint(), idle.fingerprint());
        let c6 = Scenario::idle(&soc, PackageCState::C6);
        assert_ne!(idle.fingerprint(), c6.fingerprint());
    }

    #[test]
    fn export_import_round_trips_and_reshards() {
        let pdn = IvrPdn::new(ModelParams::paper_defaults());
        let warm = MemoCache::new();
        let scenarios: Vec<Scenario> =
            (0..6).map(|i| scenario(18.0, 0.40 + 0.05 * i as f64)).collect();
        for s in &scenarios {
            warm.evaluate(&pdn, s).unwrap();
        }
        let entries = warm.export();
        assert_eq!(entries.len(), warm.len());

        // Restore into a cache with a different shard count: every entry
        // must land, and lookups must hit without re-evaluating.
        let cold = MemoCache::with_shards(4, 64);
        assert_eq!(cold.import(entries.clone()), entries.len());
        assert_eq!(cold.len(), entries.len());
        for s in &scenarios {
            let a = warm.evaluate(&pdn, s).unwrap();
            let b = cold.evaluate(&pdn, s).unwrap();
            assert_eq!(a.input_power.get().to_bits(), b.input_power.get().to_bits());
        }
        let stats = cold.stats();
        assert_eq!(stats.hits, scenarios.len() as u64, "restored entries must hit");
        assert_eq!(stats.misses, 0);

        // Duplicate import is kept-first (no double insertion).
        assert_eq!(cold.import(entries), 0);

        // Export order is deterministic for an identical rebuild.
        let rebuilt = MemoCache::new();
        for s in &scenarios {
            rebuilt.evaluate(&pdn, s).unwrap();
        }
        assert_eq!(warm.export(), rebuilt.export());
    }

    #[test]
    fn row_evaluation_matches_per_point_and_serves_warm_rows() {
        let pdn = IvrPdn::new(ModelParams::paper_defaults());
        let row: Vec<Scenario> = (0..5).map(|i| scenario(18.0, 0.40 + 0.08 * i as f64)).collect();

        let per_point = MemoCache::new();
        let expected: Vec<PdnEvaluation> =
            row.iter().map(|s| per_point.evaluate(&pdn, s).unwrap()).collect();

        let bulk = MemoCache::new();
        let stage = RowStage::new();
        let cold: Vec<PdnEvaluation> =
            bulk.evaluate_row(&pdn, &row, &stage).into_iter().map(|r| r.unwrap()).collect();
        for (a, b) in expected.iter().zip(&cold) {
            assert_eq!(a.input_power.get().to_bits(), b.input_power.get().to_bits());
            assert_eq!(a.etee.get().to_bits(), b.etee.get().to_bits());
        }
        let stats = bulk.stats();
        assert_eq!((stats.hits, stats.misses), (0, 5));

        // The warm pass answers the whole row from the cache.
        let warm_stage = RowStage::new();
        let warm: Vec<PdnEvaluation> =
            bulk.evaluate_row(&pdn, &row, &warm_stage).into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(cold, warm);
        let stats = bulk.stats();
        assert_eq!((stats.hits, stats.misses), (5, 5));
    }

    #[test]
    fn wrapped_pdn_delegates_identity_and_caches() {
        let pdn = IvrPdn::new(ModelParams::paper_defaults());
        let cache = MemoCache::new();
        let wrapped = cache.wrap(&pdn);
        assert_eq!(wrapped.kind(), pdn.kind());
        assert_eq!(wrapped.memo_token(), pdn.memo_token());
        assert_eq!(wrapped.params(), pdn.params());
        let s = scenario(18.0, 0.6);
        let direct = pdn.evaluate(&s).unwrap();
        let through = wrapped.evaluate(&s).unwrap();
        let again = wrapped.evaluate(&s).unwrap();
        assert_eq!(direct, through);
        assert_eq!(through, again);
        assert_eq!(cache.stats().hits, 1);
        let soc = client_soc(Watts::new(18.0));
        assert_eq!(wrapped.offchip_rails(&soc).unwrap(), pdn.offchip_rails(&soc).unwrap());
    }
}
