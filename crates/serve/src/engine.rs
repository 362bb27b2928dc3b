//! The daemon's evaluation core: five resident PDN topologies, a
//! trained mode predictor, per-tenant memo caches, and one handler
//! that answers every protocol request.
//!
//! Tenancy model: each tenant id owns a private [`MemoCache`] sized by
//! the engine's [`EngineConfig::memo_capacity`] — the tenant's
//! *eviction budget*. A noisy tenant can only evict its own entries;
//! hit/miss/eviction counters are likewise per tenant. The topology
//! tables, resident surfaces, and predictor are immutable after boot
//! and shared by all tenants.
//!
//! Bit-identity: every served value is computed by the same library
//! entry points a direct caller would use ([`Scenario`] constructors,
//! [`MemoCache::evaluate`], [`pdnspot::sweep::surfaces`],
//! [`pdnspot::sweep::crossover`], [`EteeSurface::sample`]), so a
//! response carries exactly the bits the library returns. The
//! served-vs-library integration tests enforce this per request type.

use crate::protocol::{
    PdnId, PointSpec, RequestBody, ResponseBody, ServeError, ServerStats, TenantStats,
};
use crate::snapshot::{self, Snapshot, SnapshotError};
use flexwatts::{FlexWattsAuto, ModePredictor};
use pdn_proc::client_soc;
use pdn_units::{ApplicationRatio, Watts};
use pdn_workload::codec::Fnv1a;
use pdn_workload::WorkloadType;
use pdnspot::memo::MemoEntry;
use pdnspot::sweep::{self, EteeSurface};
use pdnspot::{
    ClientSoc, EngineConfig, ErrorCode, IPlusMbvrPdn, IvrPdn, LdoPdn, MbvrPdn, MemoCache,
    ModelParams, Pdn, PdnError, PdnEvaluation, Scenario, SweepGrid,
};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Duration;

/// The TDP axis of the daemon's resident surfaces and predictor tables
/// (the paper's client design points).
pub const SERVE_TDPS: [f64; 7] = pdn_proc::PAPER_TDPS;

/// The AR axis of the daemon's resident surfaces and predictor tables.
pub const SERVE_ARS: [f64; 9] = [0.40, 0.45, 0.50, 0.56, 0.60, 0.65, 0.70, 0.75, 0.80];

/// One tenant's private slice of the daemon.
#[derive(Debug)]
pub struct TenantState {
    /// The tenant's memo cache; its capacity is the eviction budget.
    pub cache: MemoCache,
}

/// How many caught panics on one bit-exact request body it takes to
/// quarantine it: the first panic is retryable ([`ErrorCode::Internal`]);
/// from the second on, the body is answered [`ErrorCode::Poisoned`]
/// (terminal) without re-entering the engine.
pub(crate) const POISON_THRESHOLD: u32 = 2;

/// A deterministic fingerprint of a request body, independent of the
/// tenant and correlation id — the quarantine's "bit-exact key".
/// FNV-1a over the body's discriminant and parameter bit patterns.
#[must_use]
pub(crate) fn poison_key(body: &RequestBody) -> u64 {
    let mut h = Fnv1a::new();
    match body {
        RequestBody::Ping => h.u8(0),
        RequestBody::Eval { pdn, point } => {
            h.u8(1);
            h.u8(pdn.to_wire());
            let (a, b, c, d) = point.key();
            h.u8(a);
            h.u64(b);
            h.u8(c);
            h.u64(d);
        }
        RequestBody::Sample { pdn, workload, tdp, ar } => {
            h.u8(2);
            h.u8(pdn.to_wire());
            h.u8(workload.tag());
            h.f64(*tdp);
            h.f64(*ar);
        }
        RequestBody::Sweep { pdns, tdps, workloads, ars } => {
            h.u8(3);
            for p in pdns {
                h.u8(p.to_wire());
            }
            h.u8(0xFF);
            for &t in tdps {
                h.f64(t);
            }
            h.u8(0xFF);
            for w in workloads {
                h.u8(w.tag());
            }
            h.u8(0xFF);
            for &a in ars {
                h.f64(a);
            }
        }
        RequestBody::Crossover { a, b, workload, ar, range } => {
            h.u8(4);
            h.u8(a.to_wire());
            h.u8(b.to_wire());
            h.u8(workload.tag());
            h.f64(*ar);
            h.f64(range.0);
            h.f64(range.1);
        }
        RequestBody::Stats => h.u8(5),
        RequestBody::Snapshot => h.u8(6),
        RequestBody::Shutdown => h.u8(7),
    }
    h.finish()
}

/// A fault the chaos harness injects ahead of real evaluation.
#[derive(Debug, Clone)]
pub(crate) enum InjectedFault {
    /// Panic with this message (exercises `catch_unwind` isolation and
    /// the poison quarantine).
    Panic(String),
    /// Answer with this error instead of evaluating.
    Error(ServeError),
    /// Sleep this long before evaluating (stalls a worker).
    DelayMs(u64),
}

/// A chaos hook: inspects `(tenant, body)` before evaluation and may
/// inject a fault. `None` lets the request through untouched.
pub(crate) type FaultInjector = dyn Fn(u32, &RequestBody) -> Option<InjectedFault> + Send + Sync;

/// The multi-tenant evaluation engine behind every transport.
pub struct ServeEngine {
    config: EngineConfig,
    pdns: Vec<Box<dyn Pdn>>,
    surfaces: Vec<EteeSurface>,
    predictor: ModePredictor,
    tenants: Mutex<BTreeMap<u32, Arc<TenantState>>>,
    snapshot_path: Option<PathBuf>,
    shutdown: AtomicBool,
    requests: AtomicU64,
    coalesced: AtomicU64,
    // Resilience counters (the v2 ServerStats block).
    shed: AtomicU64,
    deadline_expired: AtomicU64,
    panics: AtomicU64,
    quarantine_hits: AtomicU64,
    evictions: AtomicU64,
    /// Caught-panic counts per bit-exact request fingerprint.
    poison_log: Mutex<HashMap<u64, u32>>,
    /// Chaos hook, consulted at the top of [`ServeEngine::handle`].
    injector: RwLock<Option<Arc<FaultInjector>>>,
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("config", &self.config)
            .field("requests", &self.requests.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl ServeEngine {
    /// Boots a cold engine: builds the five topologies, trains the mode
    /// predictor, and tabulates the resident sample surfaces over
    /// [`SERVE_TDPS`] × [`SERVE_ARS`]. Training and surface building
    /// share one boot-time memo cache so overlapping lattice points are
    /// evaluated once.
    ///
    /// # Errors
    ///
    /// Propagates PDNspot evaluation errors from training or surface
    /// tabulation.
    pub fn new(config: EngineConfig) -> Result<Self, PdnError> {
        let params = ModelParams::paper_defaults();
        let boot_memo = config.memo_cache();
        let predictor =
            ModePredictor::train_with(&params, &SERVE_TDPS, &SERVE_ARS, Some(&boot_memo))?;
        Self::boot(config, params, predictor, &boot_memo, BTreeMap::new())
    }

    /// Boots a warm engine from a [`Snapshot`]: the predictor comes
    /// from its persisted firmware images (no retraining) and each
    /// tenant's memo cache is re-imported, so the first requests after
    /// a restart hit the cache.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::Wire`] with [`ErrorCode::Snapshot`] if a
    /// firmware image is malformed, and propagates surface-tabulation
    /// errors.
    pub fn from_snapshot(config: EngineConfig, snap: &Snapshot) -> Result<Self, PdnError> {
        let params = ModelParams::paper_defaults();
        let predictor = ModePredictor::from_firmware(&snap.ivr_firmware, &snap.ldo_firmware)
            .map_err(|e| PdnError::Wire {
                code: ErrorCode::Snapshot,
                message: format!("snapshot predictor firmware: {e}"),
            })?;
        let mut tenants = BTreeMap::new();
        for (tenant, entries) in &snap.tenants {
            let cache = config.memo_cache();
            cache.import(entries.clone());
            tenants.insert(*tenant, Arc::new(TenantState { cache }));
        }
        let boot_memo = config.memo_cache();
        Self::boot(config, params, predictor, &boot_memo, tenants)
    }

    fn boot(
        config: EngineConfig,
        params: ModelParams,
        predictor: ModePredictor,
        boot_memo: &MemoCache,
        tenants: BTreeMap<u32, Arc<TenantState>>,
    ) -> Result<Self, PdnError> {
        let pdns: Vec<Box<dyn Pdn>> = vec![
            Box::new(IvrPdn::new(params.clone())),
            Box::new(MbvrPdn::new(params.clone())),
            Box::new(LdoPdn::new(params.clone())),
            Box::new(IPlusMbvrPdn::new(params.clone())),
            Box::new(FlexWattsAuto::new(params)),
        ];
        let refs: Vec<&dyn Pdn> = pdns.iter().map(Box::as_ref).collect();
        let grid = SweepGrid::active(&SERVE_TDPS, &WorkloadType::ACTIVE_TYPES, &SERVE_ARS)?;
        let (surfaces, _) = sweep::surfaces(&refs, &grid, &ClientSoc, &config, Some(boot_memo))?;
        Ok(Self {
            config,
            pdns,
            surfaces,
            predictor,
            tenants: Mutex::new(tenants),
            snapshot_path: None,
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            quarantine_hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            poison_log: Mutex::new(HashMap::new()),
            injector: RwLock::new(None),
        })
    }

    /// Sets the file the Snapshot request persists to.
    #[must_use]
    pub fn with_snapshot_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.snapshot_path = Some(path.into());
        self
    }

    /// The engine's configuration.
    #[must_use]
    pub(crate) fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The resident topology for a wire id.
    #[must_use]
    pub fn pdn(&self, id: PdnId) -> &dyn Pdn {
        self.pdns[id.index()].as_ref()
    }

    /// Whether a Shutdown request has been accepted.
    #[must_use]
    pub(crate) fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Requests a graceful shutdown (also reachable via the protocol).
    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Records `n` eval queries answered by coalescing (they are also
    /// counted as admitted requests).
    pub(crate) fn note_coalesced(&self, n: u64) {
        self.coalesced.fetch_add(n, Ordering::Relaxed);
        self.requests.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one request shed by queue age or tenant budget.
    pub(crate) fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one request answered `DeadlineExceeded`.
    pub(crate) fn note_deadline_expired(&self) {
        self.deadline_expired.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one connection evicted by the slow-client defense.
    pub(crate) fn note_eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one quarantined request answered `Poisoned`.
    pub(crate) fn note_quarantine_hit(&self) {
        self.quarantine_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a caught evaluation panic against the request's
    /// fingerprint, returning the total panics now logged for it.
    pub(crate) fn note_panic(&self, poison: u64) -> u32 {
        self.panics.fetch_add(1, Ordering::Relaxed);
        let mut log = self.poison_log.lock().unwrap_or_else(PoisonError::into_inner);
        let count = log.entry(poison).or_insert(0);
        *count += 1;
        *count
    }

    /// Whether a request fingerprint has panicked [`POISON_THRESHOLD`]
    /// or more times and is quarantined.
    #[must_use]
    pub(crate) fn is_quarantined(&self, poison: u64) -> bool {
        self.poison_log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&poison)
            .is_some_and(|&count| count >= POISON_THRESHOLD)
    }

    /// Installs (or clears) the chaos fault injector.
    pub(crate) fn set_fault_injector(&self, injector: Option<Arc<FaultInjector>>) {
        *self.injector.write().unwrap_or_else(PoisonError::into_inner) = injector;
    }

    /// The tenant's state, created on first contact.
    #[must_use]
    pub fn tenant(&self, id: u32) -> Arc<TenantState> {
        let mut map = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            map.entry(id)
                .or_insert_with(|| Arc::new(TenantState { cache: self.config.memo_cache() })),
        )
    }

    /// Builds the scenario a [`PointSpec`] describes — the same
    /// constructors a direct library caller would use, so served
    /// evaluations are bit-identical.
    ///
    /// # Errors
    ///
    /// Propagates scenario-construction errors.
    pub fn scenario_for(point: &PointSpec) -> Result<Scenario, PdnError> {
        match *point {
            PointSpec::Active { tdp, workload, ar } => {
                let soc = client_soc(Watts::new(tdp));
                let ar = ApplicationRatio::new(ar).map_err(PdnError::Units)?;
                Scenario::active_fixed_tdp_frequency(&soc, workload, ar)
            }
            PointSpec::Idle { tdp, state } => {
                Ok(Scenario::idle(&client_soc(Watts::new(tdp)), state))
            }
        }
    }

    /// Evaluates one PDN at one point through the tenant's memo cache.
    ///
    /// # Errors
    ///
    /// Propagates scenario and evaluation errors.
    pub fn eval_point(
        &self,
        tenant: u32,
        pdn: PdnId,
        point: &PointSpec,
    ) -> Result<PdnEvaluation, PdnError> {
        let tenant = self.tenant(tenant);
        let scenario = Self::scenario_for(point)?;
        tenant.cache.evaluate(self.pdn(pdn), &scenario)
    }

    /// The resident surface for a (topology, active workload) pair.
    #[must_use]
    pub fn surface(&self, pdn: PdnId, workload: WorkloadType) -> Option<&EteeSurface> {
        let name = self.pdn(pdn).kind().to_string();
        self.surfaces.iter().find(|s| s.pdn == name && s.workload_type == workload)
    }

    /// Answers one request. Eval requests normally arrive through the
    /// admission queue's coalescing batcher, which funnels back into
    /// [`ServeEngine::eval_point`]; handling them here too keeps the
    /// engine usable without a transport (tests, warm-restart replay).
    pub fn handle(&self, tenant: u32, body: &RequestBody) -> ResponseBody {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let injected = self
            .injector
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
            .and_then(|injector| injector(tenant, body));
        if let Some(fault) = injected {
            match fault {
                InjectedFault::Panic(what) => panic!("injected fault: {what}"),
                InjectedFault::Error(err) => return ResponseBody::Error(err),
                InjectedFault::DelayMs(ms) => std::thread::sleep(Duration::from_millis(ms)),
            }
        }
        match body {
            RequestBody::Ping => ResponseBody::Pong,
            RequestBody::Eval { pdn, point } => match self.eval_point(tenant, *pdn, point) {
                Ok(eval) => ResponseBody::Eval(eval),
                Err(e) => ResponseBody::Error(ServeError::from_pdn(&e)),
            },
            RequestBody::Sample { pdn, workload, tdp, ar } => match self.surface(*pdn, *workload) {
                Some(surface) => ResponseBody::Sample(surface.sample(*tdp, *ar)),
                None => ResponseBody::Error(ServeError::new(
                    ErrorCode::Unsupported,
                    format!("no resident surface for {pdn} / {workload}"),
                )),
            },
            RequestBody::Sweep { pdns, tdps, workloads, ars } => {
                self.sweep(tenant, pdns, tdps, workloads, ars)
            }
            RequestBody::Crossover { a, b, workload, ar, range } => {
                self.crossover(tenant, *a, *b, *workload, *ar, *range)
            }
            RequestBody::Stats => self.stats(tenant),
            RequestBody::Snapshot => match &self.snapshot_path {
                Some(path) => match self.write_snapshot(path) {
                    Ok((bytes, entries)) => ResponseBody::SnapshotDone { bytes, entries },
                    Err(e) => {
                        ResponseBody::Error(ServeError::new(ErrorCode::Snapshot, e.to_string()))
                    }
                },
                None => ResponseBody::Error(ServeError::new(
                    ErrorCode::Snapshot,
                    "daemon started without a snapshot path",
                )),
            },
            RequestBody::Shutdown => {
                self.request_shutdown();
                ResponseBody::ShuttingDown
            }
        }
    }

    fn sweep(
        &self,
        tenant: u32,
        pdns: &[PdnId],
        tdps: &[f64],
        workloads: &[WorkloadType],
        ars: &[f64],
    ) -> ResponseBody {
        let tenant = self.tenant(tenant);
        let refs: Vec<&dyn Pdn> = pdns.iter().map(|id| self.pdn(*id)).collect();
        let result = SweepGrid::active(tdps, workloads, ars).and_then(|grid| {
            sweep::surfaces(&refs, &grid, &ClientSoc, &self.config, Some(&tenant.cache))
        });
        match result {
            Ok((surfaces, _)) => ResponseBody::Sweep(surfaces),
            Err(e) => ResponseBody::Error(ServeError::from_pdn(&e)),
        }
    }

    fn crossover(
        &self,
        tenant: u32,
        a: PdnId,
        b: PdnId,
        workload: WorkloadType,
        ar: f64,
        range: (f64, f64),
    ) -> ResponseBody {
        let tenant = self.tenant(tenant);
        let result = ApplicationRatio::new(ar).map_err(PdnError::Units).and_then(|ar| {
            sweep::crossover(
                self.pdn(a),
                self.pdn(b),
                workload,
                ar,
                range,
                &ClientSoc,
                &self.config,
                Some(&tenant.cache),
            )
        });
        match result {
            Ok(verdict) => ResponseBody::Crossover(verdict),
            Err(e) => ResponseBody::Error(ServeError::from_pdn(&e)),
        }
    }

    fn stats(&self, tenant: u32) -> ResponseBody {
        let state = self.tenant(tenant);
        let memo = state.cache.stats();
        let tenants = self.tenants.lock().unwrap_or_else(PoisonError::into_inner).len() as u64;
        ResponseBody::Stats {
            tenant: TenantStats {
                hits: memo.hits,
                misses: memo.misses,
                evictions: memo.evictions,
                bypasses: memo.bypasses,
                entries: state.cache.len() as u64,
                capacity: state.cache.capacity() as u64,
            },
            server: ServerStats {
                requests: self.requests.load(Ordering::Relaxed),
                coalesced: self.coalesced.load(Ordering::Relaxed),
                tenants,
                shed: self.shed.load(Ordering::Relaxed),
                deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
                panics: self.panics.load(Ordering::Relaxed),
                quarantined: self.quarantine_hits.load(Ordering::Relaxed),
                evictions: self.evictions.load(Ordering::Relaxed),
            },
        }
    }

    /// Captures the warm state: predictor firmware plus every tenant's
    /// memo entries in deterministic (tenant-ascending, shard-then-FIFO)
    /// order.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let [ivr, ldo] = self.predictor.firmware_images();
        let tenants: Vec<(u32, Vec<MemoEntry>)> = self
            .tenants
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(id, state)| (*id, state.cache.export()))
            .collect();
        Snapshot {
            ivr_firmware: ivr.as_bytes().to_vec(),
            ldo_firmware: ldo.as_bytes().to_vec(),
            tenants,
        }
    }

    /// Persists [`ServeEngine::snapshot`] to `path` (crash-safe:
    /// temp + fsync + rename, rotating the previous
    /// [`snapshot::DEFAULT_KEEP`] generations), returning the file
    /// size and total memo entries captured.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] on I/O failure.
    pub(crate) fn write_snapshot(&self, path: &Path) -> Result<(u64, u64), SnapshotError> {
        let snap = self.snapshot();
        let entries = snap.tenants.iter().map(|(_, e)| e.len() as u64).sum();
        let bytes = snapshot::write_file_rotated(path, &snap, snapshot::DEFAULT_KEEP)?;
        Ok((bytes, entries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config() -> EngineConfig {
        EngineConfig::builder()
            .workers(pdnspot::Workers::Serial)
            .memo_capacity(1 << 12)
            .build()
            .expect("valid config")
    }

    #[test]
    fn served_eval_matches_direct_library_call() {
        let engine = ServeEngine::new(test_config()).expect("engine boots");
        let point = PointSpec::Active { tdp: 15.0, workload: WorkloadType::MultiThread, ar: 0.56 };
        let served = engine.eval_point(7, PdnId::Ivr, &point).expect("serves");
        let scenario = ServeEngine::scenario_for(&point).expect("scenario");
        let direct = engine.pdn(PdnId::Ivr).evaluate(&scenario).expect("direct");
        assert_eq!(served.input_power.get().to_bits(), direct.input_power.get().to_bits());
        assert_eq!(served.etee.get().to_bits(), direct.etee.get().to_bits());
    }

    #[test]
    fn tenants_have_isolated_caches_and_stats() {
        let engine = ServeEngine::new(test_config()).expect("engine boots");
        let point = PointSpec::Active { tdp: 15.0, workload: WorkloadType::MultiThread, ar: 0.56 };
        engine.eval_point(1, PdnId::Ldo, &point).expect("tenant 1 eval");
        engine.eval_point(1, PdnId::Ldo, &point).expect("tenant 1 warm eval");
        engine.eval_point(2, PdnId::Ldo, &point).expect("tenant 2 eval");
        let t1 = engine.tenant(1).cache.stats();
        let t2 = engine.tenant(2).cache.stats();
        assert_eq!(t1.hits, 1, "tenant 1 second eval hits its own cache");
        assert_eq!(t2.hits, 0, "tenant 2 never hits tenant 1's entries");
        assert_eq!(t2.misses, 1);
    }

    #[test]
    fn snapshot_restore_serves_hot() {
        let engine = ServeEngine::new(test_config()).expect("engine boots");
        let point = PointSpec::Active { tdp: 25.0, workload: WorkloadType::Graphics, ar: 0.6 };
        let cold = engine.eval_point(3, PdnId::FlexWatts, &point).expect("cold eval");
        let snap = engine.snapshot();
        assert!(!snap.ivr_firmware.is_empty());

        let warm = ServeEngine::from_snapshot(test_config(), &snap).expect("warm boot");
        let served = warm.eval_point(3, PdnId::FlexWatts, &point).expect("warm eval");
        assert_eq!(served.input_power.get().to_bits(), cold.input_power.get().to_bits());
        let stats = warm.tenant(3).cache.stats();
        assert_eq!(stats.hits, 1, "restored cache answers without re-evaluating");
        assert_eq!(stats.misses, 0);
    }
}
