//! One validated configuration object for the evaluation engine.
//!
//! Before this module, the engine's knobs were free-floating parameters
//! scattered across call sites: a [`Workers`] argument here, a memo
//! capacity there, and (with `pdn-serve`) an admission-queue depth that
//! had nowhere to live at all. [`EngineConfig`] consolidates them — the
//! worker pool, memo shards and capacity, admission depth, queue-age
//! shedding, and the per-connection write buffer and deadline — behind one
//! builder-style API with a validated [`build`](EngineConfigBuilder::build):
//! every consumer — the unified [`crate::batch::evaluate`] entry point,
//! the sweep helpers, and the serve daemon — reads the same struct, and
//! an invalid combination is rejected once, at construction, instead of
//! panicking mid-campaign.
//!
//! ```
//! use pdnspot::prelude::*;
//!
//! let cfg = EngineConfig::builder()
//!     .workers(Workers::Fixed(4))
//!     .memo_capacity(1 << 14)
//!     .build()?;
//! assert_eq!(cfg.workers(), Workers::Fixed(4));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::batch::Workers;
use crate::error::PdnError;
use crate::memo::{MemoCache, DEFAULT_CAPACITY, DEFAULT_SHARDS};

/// Default bound on the serve daemon's admission queue
/// ([`EngineConfig::admission_depth`]).
pub(crate) const DEFAULT_ADMISSION_DEPTH: usize = 1024;

/// Default queue-age shedding threshold in milliseconds
/// ([`EngineConfig::shed_age_ms`]).
pub(crate) const DEFAULT_SHED_AGE_MS: u64 = 2_000;

/// Default per-connection response buffer, in responses
/// ([`EngineConfig::write_buffer`]).
pub(crate) const DEFAULT_WRITE_BUFFER: usize = 128;

/// Default per-connection write deadline in milliseconds
/// ([`EngineConfig::write_timeout_ms`]).
pub(crate) const DEFAULT_WRITE_TIMEOUT_MS: u64 = 2_000;

/// Validated engine configuration (see the module docs).
///
/// Construct with [`EngineConfig::builder`]; [`EngineConfig::default`]
/// is the validated all-defaults configuration. The struct is plain data
/// — cloning is cheap and it is `Send + Sync`, so one instance can be
/// shared by every worker of a daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    workers: Workers,
    memo_shards: usize,
    memo_capacity: usize,
    admission_depth: usize,
    shed_age_ms: u64,
    write_buffer: usize,
    write_timeout_ms: u64,
}

impl EngineConfig {
    /// Starts a builder preloaded with the defaults.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder::default()
    }

    /// Worker-pool sizing for batch runs (default [`Workers::Auto`]).
    pub fn workers(&self) -> Workers {
        self.workers
    }

    /// Lock-stripe count of memo caches built from this config (default
    /// 16).
    pub fn memo_shards(&self) -> usize {
        self.memo_shards
    }

    /// Total entry budget of memo caches built from this config —
    /// doubling as the per-tenant eviction budget in `pdn-serve`
    /// (default 8192).
    pub fn memo_capacity(&self) -> usize {
        self.memo_capacity
    }

    /// Bound on the serve daemon's admission queue; requests beyond it
    /// are shed with an `Overloaded` error (default
    /// 1024).
    pub fn admission_depth(&self) -> usize {
        self.admission_depth
    }

    /// Queue-age load-shedding threshold in milliseconds: the serve
    /// dispatcher sheds (answers `Overloaded` with a `RetryAfter` hint)
    /// any admitted request that waited longer than this before being
    /// dispatched, instead of burning capacity on work the client has
    /// likely given up on. `0` disables age shedding (default
    /// 2000).
    pub fn shed_age_ms(&self) -> u64 {
        self.shed_age_ms
    }

    /// The per-tenant admission budget for a queue of `depth`, the most
    /// requests one tenant may hold in the admission queue at once:
    /// `max(1, depth / 4)` — one noisy tenant can fill at most a quarter
    /// of the queue before being shed, leaving room for everyone else.
    pub fn tenant_quota_for(&self, depth: usize) -> usize {
        (depth / 4).max(1)
    }

    /// Bound on one connection's buffered responses (the slow-client
    /// defense): the dispatcher never blocks on a stalled client —
    /// past this many undelivered responses the connection is evicted
    /// (default 128).
    pub fn write_buffer(&self) -> usize {
        self.write_buffer
    }

    /// Per-connection socket write deadline in milliseconds; a client
    /// that stalls a single frame write longer than this is evicted
    /// (default 2000).
    pub fn write_timeout_ms(&self) -> u64 {
        self.write_timeout_ms
    }

    /// Builds a [`MemoCache`] with this config's shard count and
    /// capacity budget.
    pub fn memo_cache(&self) -> MemoCache {
        MemoCache::with_shards(self.memo_shards, self.memo_capacity)
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfigBuilder::default().build().expect("defaults are valid")
    }
}

/// Builder for [`EngineConfig`]; see the module docs.
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    workers: Workers,
    memo_shards: usize,
    memo_capacity: usize,
    admission_depth: usize,
    shed_age_ms: u64,
    write_buffer: usize,
    write_timeout_ms: u64,
}

impl Default for EngineConfigBuilder {
    fn default() -> Self {
        Self {
            workers: Workers::Auto,
            memo_shards: DEFAULT_SHARDS,
            memo_capacity: DEFAULT_CAPACITY,
            admission_depth: DEFAULT_ADMISSION_DEPTH,
            shed_age_ms: DEFAULT_SHED_AGE_MS,
            write_buffer: DEFAULT_WRITE_BUFFER,
            write_timeout_ms: DEFAULT_WRITE_TIMEOUT_MS,
        }
    }
}

impl EngineConfigBuilder {
    /// Sets the worker-pool sizing.
    pub fn workers(mut self, workers: Workers) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the memo-cache shard count (must be ≥ 1).
    pub fn memo_shards(mut self, shards: usize) -> Self {
        self.memo_shards = shards;
        self
    }

    /// Sets the memo-cache total entry budget (must be ≥ 1).
    pub fn memo_capacity(mut self, capacity: usize) -> Self {
        self.memo_capacity = capacity;
        self
    }

    /// Sets the admission-queue bound (must be ≥ 1).
    pub fn admission_depth(mut self, depth: usize) -> Self {
        self.admission_depth = depth;
        self
    }

    /// Sets the queue-age shedding threshold in milliseconds (`0`
    /// disables age shedding).
    pub fn shed_age_ms(mut self, ms: u64) -> Self {
        self.shed_age_ms = ms;
        self
    }

    /// Sets the per-connection response buffer bound (must be ≥ 1).
    pub fn write_buffer(mut self, responses: usize) -> Self {
        self.write_buffer = responses;
        self
    }

    /// Sets the per-connection write deadline in milliseconds (must be
    /// ≥ 1).
    pub fn write_timeout_ms(mut self, ms: u64) -> Self {
        self.write_timeout_ms = ms;
        self
    }

    /// Validates and freezes the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::Scenario`] naming the offending knob when a
    /// value is out of range (`Fixed(0)` workers, zero memo shards or
    /// capacity, a zero admission depth, write buffer or write timeout).
    pub fn build(self) -> Result<EngineConfig, PdnError> {
        if self.workers == Workers::Fixed(0) {
            return Err(PdnError::Scenario(
                "EngineConfig: workers must be Fixed(n >= 1), Serial, or Auto".into(),
            ));
        }
        if self.memo_shards == 0 {
            return Err(PdnError::Scenario("EngineConfig: memo_shards must be >= 1".into()));
        }
        if self.memo_capacity == 0 {
            return Err(PdnError::Scenario("EngineConfig: memo_capacity must be >= 1".into()));
        }
        if self.admission_depth == 0 {
            return Err(PdnError::Scenario("EngineConfig: admission_depth must be >= 1".into()));
        }
        if self.write_buffer == 0 {
            return Err(PdnError::Scenario("EngineConfig: write_buffer must be >= 1".into()));
        }
        if self.write_timeout_ms == 0 {
            return Err(PdnError::Scenario("EngineConfig: write_timeout_ms must be >= 1".into()));
        }
        Ok(EngineConfig {
            workers: self.workers,
            memo_shards: self.memo_shards,
            memo_capacity: self.memo_capacity,
            admission_depth: self.admission_depth,
            shed_age_ms: self.shed_age_ms,
            write_buffer: self.write_buffer,
            write_timeout_ms: self.write_timeout_ms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ErrorCode;

    #[test]
    fn defaults_build_and_expose_every_knob() {
        let cfg = EngineConfig::default();
        assert_eq!(cfg.workers(), Workers::Auto);
        assert_eq!(cfg.memo_shards(), DEFAULT_SHARDS);
        assert_eq!(cfg.memo_capacity(), DEFAULT_CAPACITY);
        assert_eq!(cfg.admission_depth(), DEFAULT_ADMISSION_DEPTH);
        assert_eq!(cfg.shed_age_ms(), DEFAULT_SHED_AGE_MS);
        assert_eq!(cfg.write_buffer(), DEFAULT_WRITE_BUFFER);
        assert_eq!(cfg.write_timeout_ms(), DEFAULT_WRITE_TIMEOUT_MS);
        let cache = cfg.memo_cache();
        assert_eq!(cache.capacity(), DEFAULT_CAPACITY);
    }

    #[test]
    fn builder_round_trips_every_knob() {
        let cfg = EngineConfig::builder()
            .workers(Workers::Fixed(3))
            .memo_shards(8)
            .memo_capacity(256)
            .admission_depth(32)
            .shed_age_ms(500)
            .write_buffer(16)
            .write_timeout_ms(250)
            .build()
            .unwrap();
        assert_eq!(cfg.workers(), Workers::Fixed(3));
        assert_eq!(cfg.memo_shards(), 8);
        assert_eq!(cfg.memo_capacity(), 256);
        assert_eq!(cfg.admission_depth(), 32);
        assert_eq!(cfg.shed_age_ms(), 500);
        assert_eq!(cfg.write_buffer(), 16);
        assert_eq!(cfg.write_timeout_ms(), 250);
    }

    #[test]
    fn invalid_knobs_are_rejected_by_name() {
        let cases: Vec<(EngineConfigBuilder, &str)> = vec![
            (EngineConfig::builder().workers(Workers::Fixed(0)), "workers"),
            (EngineConfig::builder().memo_shards(0), "memo_shards"),
            (EngineConfig::builder().memo_capacity(0), "memo_capacity"),
            (EngineConfig::builder().admission_depth(0), "admission_depth"),
            (EngineConfig::builder().write_buffer(0), "write_buffer"),
            (EngineConfig::builder().write_timeout_ms(0), "write_timeout_ms"),
        ];
        for (builder, knob) in cases {
            let err = builder.build().unwrap_err();
            assert_eq!(err.code(), ErrorCode::Scenario);
            assert!(err.to_string().contains(knob), "{err} should name {knob}");
        }
    }

    #[test]
    fn tenant_quota_derivation_and_clamping() {
        let auto = EngineConfig::default();
        assert_eq!(auto.tenant_quota_for(1024), 256, "auto = depth / 4");
        assert_eq!(auto.tenant_quota_for(2), 1, "auto never reaches zero");
    }
}
