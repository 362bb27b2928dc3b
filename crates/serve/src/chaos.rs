//! A seeded, deterministic chaos campaign for the daemon.
//!
//! `pdn-serve chaos` boots a real in-process daemon on a loopback
//! socket and throws scripted misbehaving clients at it: mid-frame
//! disconnects, stalled and byte-split writes, garbage frames, request
//! floods past the admission depth, slow readers that never drain
//! their replies, and engine faults riding on the workspace's
//! [`flexwatts::faults`] schedule (delays, injected errors, and
//! outright evaluation panics — including a designated poison point
//! that panics every time it is evaluated, so the quarantine trips).
//!
//! Every disruption is drawn from a `ChaosPlan` derived purely from
//! the seed, so two runs of the same `(seed, mix)` issue the same
//! byte streams. Thread interleavings still vary — which is the point:
//! the campaign asserts invariants that must hold under *any*
//! interleaving:
//!
//! * **exactly-once** — every request fully sent on a connection that
//!   stayed healthy receives exactly one response with its correlation
//!   id; no id is ever answered twice, even on connections the server
//!   evicted; and the ledger closes: every accepted id is answered,
//!   lost, or forgiven (unanswered on a connection that died), so
//!   `accepted == answered - duplicated + lost + forgiven`;
//! * **no escaped panics** — evaluation panics are isolated into
//!   `Internal`/`Poisoned` error replies and the daemon keeps
//!   accepting connections afterwards;
//! * **classified backpressure** — every `Overloaded` reply carries a
//!   `RetryAfter` hint;
//! * **drain and recovery** — after the storm the daemon answers a
//!   fresh probe, latency recovers, and shutdown joins cleanly.
//!
//! The campaign (`pdn-serve chaos`) runs each mix at several seeds,
//! adds a snapshot-corruption leg (truncated and bit-flipped
//! generations must fall back, total loss must cold-start) and a
//! trace-corruption leg (a daemon keeps serving while a poisoned-chunk
//! trace file replays in the background: the damaged chunks must be
//! quarantined with exact accounting, never a panic), and writes
//! `BENCH_chaos.json`.

use crate::engine::{InjectedFault, ServeEngine};
use crate::protocol::{
    encode_request, PdnId, PointSpec, Request, RequestBody, Response, ResponseBody,
};
use crate::server::{self, Client};
use crate::snapshot;
use crate::wire;
use pdn_workload::codec::ScratchDir;
use pdn_workload::tracefile::{encode_trace, frame_spans, DefectKind, FrameKind};
use pdn_workload::{zoo, WorkloadType};
use pdnspot::{EngineConfig, ErrorCode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Mixes and configuration
// ---------------------------------------------------------------------------

/// Per-class disruption rates (probability that a chaos client adopts
/// the class, clamped into `[0, 1]`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ChaosMix {
    /// Stable name used in reports and the JSON document.
    pub(crate) name: &'static str,
    /// Mid-frame disconnects: half a frame, then a dropped socket.
    pub(crate) disconnects: f64,
    /// Byte-split writes with pauses inside a frame.
    pub(crate) stalls: f64,
    /// Well-framed garbage and CRC-corrupted frames.
    pub(crate) garbage: f64,
    /// Burst floods past the admission depth.
    pub(crate) floods: f64,
    /// Clients that stop reading replies mid-run.
    pub(crate) slow_readers: f64,
    /// Engine faults (delays, errors, panics) from a
    /// [`flexwatts::faults::FaultPlan`].
    pub(crate) engine_faults: f64,
}

impl ChaosMix {
    /// Disconnect-heavy mix: dropped sockets and garbage frames.
    #[must_use]
    pub(crate) fn disconnects() -> Self {
        Self {
            name: "disconnects",
            disconnects: 0.5,
            stalls: 0.0,
            garbage: 0.25,
            floods: 0.0,
            slow_readers: 0.0,
            engine_faults: 0.0,
        }
    }

    /// Stall-heavy mix: byte-split writes and slow readers.
    #[must_use]
    pub(crate) fn stalls() -> Self {
        Self {
            name: "stalls",
            disconnects: 0.0,
            stalls: 0.5,
            garbage: 0.0,
            floods: 0.0,
            slow_readers: 0.3,
            engine_faults: 0.0,
        }
    }

    /// Flood mix: burst admission past the queue depth.
    #[must_use]
    pub(crate) fn floods() -> Self {
        Self {
            name: "floods",
            disconnects: 0.0,
            stalls: 0.0,
            garbage: 0.0,
            floods: 0.8,
            slow_readers: 0.0,
            engine_faults: 0.0,
        }
    }

    /// Engine-fault mix: injected delays, errors, and panics.
    #[must_use]
    pub(crate) fn engine_faults() -> Self {
        Self {
            name: "engine-faults",
            disconnects: 0.0,
            stalls: 0.0,
            garbage: 0.0,
            floods: 0.0,
            slow_readers: 0.0,
            engine_faults: 1.0,
        }
    }

    /// The campaign's default mix set (one run per mix per seed).
    #[must_use]
    pub(crate) fn campaign_set() -> Vec<Self> {
        vec![Self::disconnects(), Self::stalls(), Self::floods(), Self::engine_faults()]
    }
}

/// One chaos run: a seed, a mix, and the storm's dimensions.
#[derive(Debug, Clone)]
pub(crate) struct ChaosConfig {
    /// Seed for every scripted choice in the run.
    pub(crate) seed: u64,
    /// The disruption mix.
    pub(crate) mix: ChaosMix,
    /// Concurrent chaos connections.
    pub(crate) clients: usize,
    /// Requests each healthy client issues.
    pub(crate) requests: usize,
    /// Distinct tenants the clients map onto.
    pub(crate) tenants: u32,
}

impl ChaosConfig {
    /// The default storm dimensions for a `(seed, mix)` pair.
    #[must_use]
    pub(crate) fn new(seed: u64, mix: ChaosMix) -> Self {
        Self { seed, mix, clients: 12, requests: 48, tenants: 4 }
    }

    /// A seconds-scale configuration for CI smoke jobs and tests.
    #[must_use]
    pub(crate) fn quick(seed: u64, mix: ChaosMix) -> Self {
        Self { clients: 6, requests: 20, ..Self::new(seed, mix) }
    }
}

// ---------------------------------------------------------------------------
// The deterministic plan
// ---------------------------------------------------------------------------

/// What one scripted client does for the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ClientRole {
    /// Windowed request/response traffic; every reply verified.
    Clean,
    /// Clean traffic, then half a frame and a dropped socket.
    MidFrameDisconnect,
    /// Clean traffic, then a CRC-corrupted frame (connection killed).
    Garbage,
    /// Every frame written in two chunks with a pause between them.
    StalledWrites,
    /// Bursts requests and stops reading; expects eviction.
    SlowReader,
    /// Bursts the full quota with no windowing, then drains.
    Flood,
}

/// One client's script: its role plus per-request deadline draws.
#[derive(Debug, Clone)]
pub(crate) struct ClientScript {
    /// The scripted behaviour class.
    pub(crate) role: ClientRole,
    /// Universe rank of each request, drawn at plan time.
    pub(crate) ranks: Vec<usize>,
    /// Deadline (ms, 0 = none) of each request, drawn at plan time.
    pub(crate) deadlines: Vec<u32>,
}

/// The full deterministic schedule of a run: client scripts plus the
/// engine-fault plan.
#[derive(Debug, Clone)]
pub(crate) struct ChaosPlan {
    /// One script per connection.
    pub(crate) scripts: Vec<ClientScript>,
    /// Engine faults by global request ordinal (empty when the mix has
    /// no engine faults).
    pub(crate) engine_faults: Vec<(u64, PlannedFault)>,
}

/// A planned engine fault (the serializable face of
/// [`InjectedFault`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum PlannedFault {
    /// Stall the evaluation for the given number of milliseconds.
    DelayMs(u64),
    /// Fail the evaluation with a retryable internal error.
    InternalError,
    /// Panic inside the evaluation (must be isolated).
    Panic,
}

/// The universe rank that always panics when engine faults are active:
/// evaluating it twice must trip the poison quarantine.
pub(crate) const POISON_RANK: usize = 3;

/// Size of the deterministic design-point universe chaos clients draw
/// from (small, so coalescing and the poison rank both recur).
pub(crate) const CHAOS_UNIVERSE: usize = 96;

/// The design point behind a universe rank (a pure function of the
/// rank).
#[must_use]
pub(crate) fn chaos_point(rank: usize) -> (PdnId, PointSpec) {
    let pdn = PdnId::ALL[rank % PdnId::ALL.len()];
    let wl = WorkloadType::ACTIVE_TYPES[(rank / 5) % WorkloadType::ACTIVE_TYPES.len()];
    let tdp = crate::engine::SERVE_TDPS[(rank / 15) % crate::engine::SERVE_TDPS.len()];
    let ar = crate::engine::SERVE_ARS[(rank / 45) % crate::engine::SERVE_ARS.len()];
    (pdn, PointSpec::Active { tdp, workload: wl, ar })
}

impl ChaosPlan {
    /// Derives the whole run from the seed: every role assignment,
    /// rank draw, deadline draw, and engine-fault placement.
    #[must_use]
    pub(crate) fn generate(cfg: &ChaosConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xC0A5_7A11_FEED_FACE);
        let mix = &cfg.mix;
        let mut scripts = Vec::with_capacity(cfg.clients);
        for _ in 0..cfg.clients {
            let draw: f64 = rng.random_range(0.0..1.0);
            // Stack the class rates into disjoint bands; anything past
            // the stacked mass is a clean client.
            let mut band = mix.disconnects.clamp(0.0, 1.0);
            let role = if draw < band {
                ClientRole::MidFrameDisconnect
            } else if draw < {
                band += mix.garbage.clamp(0.0, 1.0);
                band
            } {
                ClientRole::Garbage
            } else if draw < {
                band += mix.stalls.clamp(0.0, 1.0);
                band
            } {
                ClientRole::StalledWrites
            } else if draw < {
                band += mix.slow_readers.clamp(0.0, 1.0);
                band
            } {
                ClientRole::SlowReader
            } else if draw < {
                band += mix.floods.clamp(0.0, 1.0);
                band
            } {
                ClientRole::Flood
            } else {
                ClientRole::Clean
            };
            let ranks: Vec<usize> =
                (0..cfg.requests).map(|_| rng.random_range(0..CHAOS_UNIVERSE)).collect();
            let deadlines: Vec<u32> = (0..cfg.requests)
                .map(|_| {
                    // One request in six carries a tight deadline.
                    if rng.random_range(0u32..6) == 0 {
                        rng.random_range(1u32..40)
                    } else {
                        0
                    }
                })
                .collect();
            scripts.push(ClientScript { role, ranks, deadlines });
        }

        let engine_faults = if mix.engine_faults > 0.0 {
            let intervals = (cfg.clients * cfg.requests).max(1);
            let fault_mix = flexwatts::faults::FaultMix::chaos();
            let plan = flexwatts::faults::FaultPlan::generate(cfg.seed, intervals, &fault_mix);
            plan.events()
                .map(|event| {
                    let planned = match event.kind.class() {
                        flexwatts::faults::FaultClass::Sensor => PlannedFault::DelayMs(2),
                        flexwatts::faults::FaultClass::Telemetry => PlannedFault::DelayMs(5),
                        flexwatts::faults::FaultClass::VinDroop => PlannedFault::InternalError,
                        flexwatts::faults::FaultClass::SwitchFlow
                        | flexwatts::faults::FaultClass::Firmware => PlannedFault::Panic,
                    };
                    (event.interval as u64, planned)
                })
                .collect()
        } else {
            Vec::new()
        };
        Self { scripts, engine_faults }
    }

    /// Builds the engine-side fault injector for this plan: faults fire
    /// by global request ordinal, and the designated [`POISON_RANK`]
    /// evaluation always panics (so the quarantine trips once it has
    /// panicked twice).
    #[must_use]
    pub(crate) fn injector(&self) -> Option<Arc<crate::engine::FaultInjector>> {
        if self.engine_faults.is_empty() {
            return None;
        }
        let schedule: HashMap<u64, PlannedFault> = self.engine_faults.iter().cloned().collect();
        let (poison_pdn, poison_point) = chaos_point(POISON_RANK);
        let counter = AtomicU64::new(0);
        Some(Arc::new(move |_tenant: u32, body: &RequestBody| {
            if let RequestBody::Eval { pdn, point } = body {
                if *pdn == poison_pdn && *point == poison_point {
                    return Some(InjectedFault::Panic("chaos poison rank".into()));
                }
            }
            let ordinal = counter.fetch_add(1, Ordering::Relaxed);
            schedule.get(&ordinal).map(|fault| match fault {
                PlannedFault::DelayMs(ms) => InjectedFault::DelayMs(*ms),
                PlannedFault::InternalError => InjectedFault::Error(
                    crate::protocol::ServeError::new(ErrorCode::Internal, "injected: vin droop")
                        .with_retry_after(10),
                ),
                PlannedFault::Panic => InjectedFault::Panic("injected engine fault".into()),
            })
        }))
    }
}

// ---------------------------------------------------------------------------
// Scripted clients
// ---------------------------------------------------------------------------

/// What one connection observed.
struct ClientOutcome {
    /// Correlation ids fully sent and expecting a reply.
    expected: Vec<u64>,
    /// Observed replies by id (count must be exactly 1).
    received: HashMap<u64, u32>,
    /// Per-reply latency (µs) for replies that arrived.
    latencies_us: Vec<u64>,
    /// The connection died (server kill/eviction or deliberate drop) —
    /// unanswered ids are then forgiven, duplicates never are.
    died: bool,
    /// `Overloaded` replies observed without a `RetryAfter` hint
    /// (must stay zero — the backpressure classification contract).
    overloaded_without_hint: usize,
    /// Rejections (`Overloaded` with hint) observed.
    rejected: usize,
}

fn observe(resp: &Response, in_flight: &mut HashMap<u64, Instant>, outcome: &mut ClientOutcome) {
    if let Some(sent) = in_flight.remove(&resp.id) {
        let us = u64::try_from(sent.elapsed().as_micros()).unwrap_or(u64::MAX);
        outcome.latencies_us.push(us);
    }
    *outcome.received.entry(resp.id).or_insert(0) += 1;
    if let ResponseBody::Error(err) = &resp.body {
        if err.code == ErrorCode::Overloaded {
            if err.retry_after_ms.is_some() {
                outcome.rejected += 1;
            } else {
                outcome.overloaded_without_hint += 1;
            }
        }
    }
}

fn request_at(script: &ClientScript, conn_idx: usize, seq: usize, tenants: u32) -> Request {
    let (pdn, point) = chaos_point(script.ranks[seq]);
    Request {
        tenant: (conn_idx as u32) % tenants.max(1),
        id: ((conn_idx as u64) << 32) | seq as u64,
        deadline_ms: script.deadlines[seq],
        body: RequestBody::Eval { pdn, point },
    }
}

/// Runs one scripted connection against the daemon. Transport errors
/// mark the connection dead rather than failing the run: chaos clients
/// *expect* to be killed.
fn run_chaos_client(
    addr: std::net::SocketAddr,
    script: &ClientScript,
    conn_idx: usize,
    tenants: u32,
) -> ClientOutcome {
    let mut outcome = ClientOutcome {
        expected: Vec::new(),
        received: HashMap::new(),
        latencies_us: Vec::new(),
        died: false,
        overloaded_without_hint: 0,
        rejected: 0,
    };
    let Ok(mut stream) = TcpStream::connect(addr) else {
        outcome.died = true;
        return outcome;
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let requests = script.ranks.len();
    let mut in_flight: HashMap<u64, Instant> = HashMap::new();

    let recv_one = |stream: &mut TcpStream,
                    in_flight: &mut HashMap<u64, Instant>,
                    outcome: &mut ClientOutcome|
     -> bool {
        match wire::read_frame(stream) {
            Ok(Some(body)) => match crate::protocol::decode_response(&body) {
                Ok(resp) => {
                    observe(&resp, in_flight, outcome);
                    true
                }
                Err(_) => {
                    outcome.died = true;
                    false
                }
            },
            Ok(None) | Err(_) => {
                outcome.died = true;
                false
            }
        }
    };

    match script.role {
        ClientRole::Clean | ClientRole::StalledWrites | ClientRole::Flood => {
            let window = match script.role {
                ClientRole::Flood => requests.max(1),
                _ => 4,
            };
            for seq in 0..requests {
                let request = request_at(script, conn_idx, seq, tenants);
                let frame = wire::encode_frame(&encode_request(&request));
                while in_flight.len() >= window {
                    if !recv_one(&mut stream, &mut in_flight, &mut outcome) {
                        return outcome;
                    }
                }
                let sent = if script.role == ClientRole::StalledWrites && seq % 3 == 0 {
                    // Byte-split the frame around an awkward boundary
                    // and stall between the halves.
                    let cut = (frame.len() / 2).max(1);
                    stream.write_all(&frame[..cut]).is_ok() && {
                        thread::sleep(Duration::from_millis(5));
                        stream.write_all(&frame[cut..]).is_ok()
                    }
                } else {
                    stream.write_all(&frame).is_ok()
                };
                if !sent {
                    outcome.died = true;
                    return outcome;
                }
                outcome.expected.push(request.id);
                in_flight.insert(request.id, Instant::now());
            }
            while !in_flight.is_empty() {
                if !recv_one(&mut stream, &mut in_flight, &mut outcome) {
                    return outcome;
                }
            }
        }
        ClientRole::MidFrameDisconnect | ClientRole::Garbage => {
            // A short clean prefix (fully drained, so the disruption
            // happens with nothing in flight), then the disruption.
            let prefix = (requests / 4).max(1);
            for seq in 0..prefix {
                let request = request_at(script, conn_idx, seq, tenants);
                let frame = wire::encode_frame(&encode_request(&request));
                if stream.write_all(&frame).is_err() {
                    outcome.died = true;
                    return outcome;
                }
                outcome.expected.push(request.id);
                in_flight.insert(request.id, Instant::now());
                if !recv_one(&mut stream, &mut in_flight, &mut outcome) {
                    return outcome;
                }
            }
            outcome.died = true; // the rest of the script is sabotage
            if script.role == ClientRole::MidFrameDisconnect {
                let request = request_at(script, conn_idx, prefix, tenants);
                let frame = wire::encode_frame(&encode_request(&request));
                let cut = (frame.len() / 2).max(1);
                let _ = stream.write_all(&frame[..cut]);
                // Drop the socket with half a frame on the wire.
            } else {
                // A syntactically framed body whose CRC is wrong.
                let mut frame = wire::encode_frame(&encode_request(&request_at(
                    script, conn_idx, prefix, tenants,
                )));
                let last = frame.len() - 1;
                frame[last] ^= 0xA5;
                let _ = stream.write_all(&frame);
                // The server must kill the connection; wait for EOF.
                let mut sink = [0u8; 64];
                while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
            }
        }
        ClientRole::SlowReader => {
            // Burst a chunk of requests and stop reading: the bounded
            // write buffer (or the write deadline) must evict us
            // without ever blocking the dispatcher.
            let burst = requests.min(24);
            for seq in 0..burst {
                let request = request_at(script, conn_idx, seq, tenants);
                let frame = wire::encode_frame(&encode_request(&request));
                if stream.write_all(&frame).is_err() {
                    break;
                }
                outcome.expected.push(request.id);
                in_flight.insert(request.id, Instant::now());
            }
            thread::sleep(Duration::from_millis(250));
            outcome.died = true; // eviction is the expected outcome
            let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
            while let Ok(Some(body)) = wire::read_frame(&mut stream) {
                if let Ok(resp) = crate::protocol::decode_response(&body) {
                    observe(&resp, &mut in_flight, &mut outcome);
                }
            }
        }
    }
    outcome
}

// ---------------------------------------------------------------------------
// Run and campaign reports
// ---------------------------------------------------------------------------

/// What one `(seed, mix)` run observed.
#[derive(Debug, Clone)]
pub struct ChaosRunReport {
    /// The seed.
    pub seed: u64,
    /// The mix name.
    pub mix: &'static str,
    /// Requests fully sent and expecting a reply.
    pub accepted: usize,
    /// Replies received (including error replies — every accepted
    /// request must be answered).
    pub(crate) answered: usize,
    /// Expected ids never answered on connections that stayed healthy.
    pub lost: usize,
    /// Expected ids never answered on connections that died (killed,
    /// evicted, or deliberately dropped): forgiven, but counted, so
    /// the ledger `accepted == answered - duplicated + lost + forgiven`
    /// closes.
    pub(crate) forgiven: usize,
    /// Ids answered more than once (any connection).
    pub duplicated: usize,
    /// `Overloaded` replies that arrived without a `RetryAfter` hint.
    pub overloaded_without_hint: usize,
    /// Rejections (`Overloaded` with a hint) observed by clients.
    pub(crate) rejected: usize,
    /// Dispatcher panics isolated (from the daemon's final stats).
    pub panics_isolated: u64,
    /// Poisoned (quarantined) replies issued.
    pub(crate) quarantined: u64,
    /// Requests shed by queue age or tenant budget.
    pub(crate) shed: u64,
    /// Requests answered `DeadlineExceeded`.
    pub(crate) deadline_expired: u64,
    /// Slow-client evictions performed.
    pub(crate) evictions: u64,
    /// p99 reply latency (µs) *during* the storm.
    pub(crate) p99_us_storm: u64,
    /// Time from the end of the storm until a fresh probe round-trips
    /// under the recovery threshold.
    pub(crate) recovery_ms: u64,
    /// All invariants held and the daemon shut down cleanly.
    pub survived: bool,
}

/// The whole campaign.
#[derive(Debug, Clone)]
pub struct ChaosCampaignReport {
    /// Seeds exercised.
    pub(crate) seeds: Vec<u64>,
    /// Every `(seed, mix)` run.
    pub runs: Vec<ChaosRunReport>,
    /// Fraction of runs that survived.
    pub survival_rate: f64,
    /// Expected-but-unanswered replies across all runs.
    pub lost_total: usize,
    /// Double-answered ids across all runs.
    pub duplicated_total: usize,
    /// Worst p99 under storm across runs (µs).
    pub(crate) p99_us_storm: u64,
    /// Worst recovery time across runs (ms).
    pub(crate) recovery_ms_max: u64,
    /// Panics isolated across runs.
    pub(crate) panics_isolated: u64,
    /// The snapshot-corruption leg behaved (fallback + cold start).
    pub snapshot_corruption_cold_start: bool,
    /// The trace-corruption leg behaved: the daemon answered every
    /// probe while the poisoned trace replayed, the damaged chunks were
    /// quarantined, and every interval was replayed or accounted lost.
    pub(crate) trace_corruption_served: bool,
    /// Intervals the trace-corruption replay emitted.
    pub(crate) trace_intervals_replayed: u64,
    /// Intervals the trace-corruption replay lost (and accounted).
    pub(crate) trace_intervals_lost: u64,
    /// Chunks the trace-corruption replay quarantined.
    pub(crate) trace_chunks_quarantined: u64,
}

impl ChaosCampaignReport {
    /// Renders the report as the `BENCH_chaos.json` document.
    #[must_use]
    pub(crate) fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"pdn-serve-chaos/v1\",\n  \"seeds\": [");
        for (i, seed) in self.seeds.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&seed.to_string());
        }
        out.push_str("],\n  \"runs\": [\n");
        for (i, run) in self.runs.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"seed\": {}, \"mix\": \"{}\", \"accepted\": {}, \"answered\": {}, \
                 \"lost\": {}, \"forgiven\": {}, \"duplicated\": {}, \"overloaded_without_hint\": {}, \
                 \"rejected\": {}, \"panics_isolated\": {}, \"quarantined\": {}, \"shed\": {}, \
                 \"deadline_expired\": {}, \"evictions\": {}, \"p99_us_storm\": {}, \
                 \"recovery_ms\": {}, \"survived\": {}}}{}\n",
                run.seed,
                run.mix,
                run.accepted,
                run.answered,
                run.lost,
                run.forgiven,
                run.duplicated,
                run.overloaded_without_hint,
                run.rejected,
                run.panics_isolated,
                run.quarantined,
                run.shed,
                run.deadline_expired,
                run.evictions,
                run.p99_us_storm,
                run.recovery_ms,
                run.survived,
                if i + 1 < self.runs.len() { "," } else { "" },
            ));
        }
        out.push_str(&format!(
            "  ],\n  \"survival_rate\": {:.3},\n  \"lost_total\": {},\n  \
             \"duplicated_total\": {},\n  \"p99_us_storm\": {},\n  \"recovery_ms_max\": {},\n  \
             \"panics_isolated\": {},\n  \"snapshot_corruption_cold_start\": {},\n  \
             \"trace_corruption_served\": {},\n  \"trace_intervals_replayed\": {},\n  \
             \"trace_intervals_lost\": {},\n  \"trace_chunks_quarantined\": {}\n}}\n",
            self.survival_rate,
            self.lost_total,
            self.duplicated_total,
            self.p99_us_storm,
            self.recovery_ms_max,
            self.panics_isolated,
            self.snapshot_corruption_cold_start,
            self.trace_corruption_served,
            self.trace_intervals_replayed,
            self.trace_intervals_lost,
            self.trace_chunks_quarantined,
        ));
        out
    }
}

impl std::fmt::Display for ChaosCampaignReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "chaos campaign: {} runs over {} seeds, survival {:.0}%",
            self.runs.len(),
            self.seeds.len(),
            self.survival_rate * 100.0
        )?;
        for run in &self.runs {
            writeln!(
                f,
                "  seed {:>10} {:>13}: {}/{} answered, lost {}, forgiven {}, dup {}, \
                 panics {}, quarantined {}, shed {}, expired {}, evicted {}, \
                 p99 {}us, recovery {}ms — {}",
                run.seed,
                run.mix,
                run.answered,
                run.accepted,
                run.lost,
                run.forgiven,
                run.duplicated,
                run.panics_isolated,
                run.quarantined,
                run.shed,
                run.deadline_expired,
                run.evictions,
                run.p99_us_storm,
                run.recovery_ms,
                if run.survived { "survived" } else { "FAILED" },
            )?;
        }
        write!(
            f,
            "worst p99 under storm {}us, worst recovery {}ms, snapshot corruption leg: {}, \
             trace corruption leg: {} ({} replayed, {} lost, {} chunks quarantined)",
            self.p99_us_storm,
            self.recovery_ms_max,
            if self.snapshot_corruption_cold_start { "ok" } else { "FAILED" },
            if self.trace_corruption_served { "ok" } else { "FAILED" },
            self.trace_intervals_replayed,
            self.trace_intervals_lost,
            self.trace_chunks_quarantined,
        )
    }
}

// ---------------------------------------------------------------------------
// Running one storm
// ---------------------------------------------------------------------------

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Engine knobs for a chaos run: a small admission queue so floods
/// actually reject, a tight write deadline so slow readers actually
/// evict, and a small write buffer only when the mix has slow readers
/// (so flood bursts don't evict their own reply streams).
fn chaos_engine_config(cfg: &ChaosConfig) -> Result<EngineConfig, String> {
    let write_buffer = if cfg.mix.slow_readers > 0.0 { 4 } else { 512 };
    EngineConfig::builder()
        .admission_depth(32)
        .shed_age_ms(1_000)
        .write_buffer(write_buffer)
        .write_timeout_ms(100)
        .build()
        .map_err(|e| format!("chaos engine config: {e}"))
}

/// Runs one `(seed, mix)` storm against a freshly booted daemon and
/// checks every invariant.
///
/// # Errors
///
/// Returns a rendered description of a boot or probe failure — a
/// failure to even run the storm, as opposed to an invariant violation
/// (which is reported as `survived: false`).
pub(crate) fn run(cfg: &ChaosConfig) -> Result<ChaosRunReport, String> {
    let plan = ChaosPlan::generate(cfg);
    let engine = ServeEngine::new(chaos_engine_config(cfg)?).map_err(|e| format!("boot: {e}"))?;
    let engine = Arc::new(engine);
    engine.set_fault_injector(plan.injector());
    let handle =
        server::spawn_tcp(Arc::clone(&engine), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = handle.addr;

    // The storm: every scripted client on its own thread.
    let outcomes: Vec<ClientOutcome> = thread::scope(|scope| {
        let mut workers = Vec::with_capacity(plan.scripts.len());
        for (conn_idx, script) in plan.scripts.iter().enumerate() {
            let tenants = cfg.tenants;
            workers.push(scope.spawn(move || run_chaos_client(addr, script, conn_idx, tenants)));
        }
        workers.into_iter().map(|w| w.join().expect("chaos client thread")).collect()
    });
    let storm_ended = Instant::now();
    // The storm is over: recovery and the control exchange measure the
    // daemon itself, not fresh injected faults.
    engine.set_fault_injector(None);

    // Aggregate the exactly-once ledger.
    let mut accepted = 0usize;
    let mut answered = 0usize;
    let mut lost = 0usize;
    let mut forgiven = 0usize;
    let mut duplicated = 0usize;
    let mut overloaded_without_hint = 0usize;
    let mut rejected = 0usize;
    let mut latencies: Vec<u64> = Vec::new();
    for outcome in &outcomes {
        accepted += outcome.expected.len();
        overloaded_without_hint += outcome.overloaded_without_hint;
        rejected += outcome.rejected;
        latencies.extend_from_slice(&outcome.latencies_us);
        for (_, count) in outcome.received.iter() {
            answered += *count as usize;
            if *count > 1 {
                duplicated += *count as usize - 1;
            }
        }
        let unanswered =
            outcome.expected.iter().filter(|id| !outcome.received.contains_key(*id)).count();
        if outcome.died {
            forgiven += unanswered;
        } else {
            lost += unanswered;
        }
    }
    latencies.sort_unstable();
    let p99_us_storm = percentile(&latencies, 0.99);

    // Recovery: a fresh probe must round-trip, quickly.
    let mut recovery_ms = u64::MAX;
    let mut survived_probe = false;
    for _attempt in 0..100 {
        let Ok(mut probe) = Client::connect(addr) else {
            thread::sleep(Duration::from_millis(10));
            continue;
        };
        let sent = Instant::now();
        let ping = Request { tenant: 0, id: u64::MAX - 7, deadline_ms: 0, body: RequestBody::Ping };
        match probe.call(&ping) {
            Ok(resp) if resp.id == ping.id && sent.elapsed() < Duration::from_millis(50) => {
                recovery_ms = u64::try_from(storm_ended.elapsed().as_millis()).unwrap_or(u64::MAX);
                survived_probe = true;
                break;
            }
            _ => {}
        }
        thread::sleep(Duration::from_millis(10));
    }

    // Final stats, then a clean shutdown (drains the queue).
    let (mut panics_isolated, mut quarantined, mut shed, mut deadline_expired, mut evictions) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    if survived_probe {
        if let Ok(mut control) = Client::connect(addr) {
            let stats =
                Request { tenant: 0, id: u64::MAX - 3, deadline_ms: 0, body: RequestBody::Stats };
            if let Ok(resp) = control.call(&stats) {
                if let ResponseBody::Stats { server, .. } = resp.body {
                    panics_isolated = server.panics;
                    quarantined = server.quarantined;
                    shed = server.shed;
                    deadline_expired = server.deadline_expired;
                    evictions = server.evictions;
                }
            }
            let bye = Request {
                tenant: 0,
                id: u64::MAX - 1,
                deadline_ms: 0,
                body: RequestBody::Shutdown,
            };
            let _ = control.call(&bye);
        }
    }
    // The polite Shutdown above is best-effort (the control connection
    // is as untrusted as any other); always force the stop flag so
    // join cannot hang.
    handle.shutdown();
    handle.join();

    // Every accepted id lands in exactly one column: answered (once),
    // lost, or forgiven. A reply to an id that was never accepted
    // breaks the identity.
    let ledger_closes = accepted + duplicated == answered + lost + forgiven;
    let survived = survived_probe
        && ledger_closes
        && lost == 0
        && duplicated == 0
        && overloaded_without_hint == 0;
    Ok(ChaosRunReport {
        seed: cfg.seed,
        mix: cfg.mix.name,
        accepted,
        answered,
        lost,
        forgiven,
        duplicated,
        overloaded_without_hint,
        rejected,
        panics_isolated,
        quarantined,
        shed,
        deadline_expired,
        evictions,
        p99_us_storm,
        recovery_ms: if recovery_ms == u64::MAX { 0 } else { recovery_ms },
        survived,
    })
}

// ---------------------------------------------------------------------------
// The campaign
// ---------------------------------------------------------------------------

/// Campaign knobs (`pdn-serve chaos`).
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Seeds to run every mix at.
    pub seeds: Vec<u64>,
    /// Shrink every run to smoke-test scale.
    pub quick: bool,
    /// Where to write the JSON report (`None` = don't write).
    pub out: Option<PathBuf>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            seeds: vec![0x0001_6180, 0x0002_7182, 0x0003_1415],
            quick: false,
            out: Some(PathBuf::from("BENCH_chaos.json")),
        }
    }
}

/// The snapshot-corruption leg: rotated generations must survive a
/// corrupted head, and total corruption must cold-start (never panic,
/// never propagate an error as fatal).
fn snapshot_corruption_leg(seed: u64) -> Result<bool, String> {
    let dir = ScratchDir::new("pdn-serve-chaos").map_err(|e| format!("scratch dir: {e}"))?;
    let path = dir.path().join(format!("{seed:x}.snapshot"));
    let engine = ServeEngine::new(EngineConfig::default()).map_err(|e| format!("boot: {e}"))?;
    // A couple of evaluations so the snapshot has memo entries.
    for rank in 0..4 {
        let (pdn, point) = chaos_point(rank);
        let _ = engine.handle(0, &RequestBody::Eval { pdn, point });
    }
    let snap = engine.snapshot();
    let keep = 2;
    snapshot::write_file_rotated(&path, &snap, keep).map_err(|e| format!("write: {e}"))?;
    snapshot::write_file_rotated(&path, &snap, keep).map_err(|e| format!("write: {e}"))?;

    // Bit-flip the head generation: restore must fall back to gen 1.
    let mut bytes = std::fs::read(&path).map_err(|e| format!("read: {e}"))?;
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).map_err(|e| format!("corrupt: {e}"))?;
    let (restored, defects) = snapshot::restore_latest(&path, keep);
    let fell_back = restored.is_some() && defects.len() == 1;

    // Truncate every generation: restore must report a cold start.
    for generation in 0..keep {
        let gen_path = snapshot::generation_path(&path, generation);
        if gen_path.exists() {
            std::fs::write(&gen_path, b"PDNK").map_err(|e| format!("truncate: {e}"))?;
        }
    }
    let (cold, cold_defects) = snapshot::restore_latest(&path, keep);
    let cold_start = cold.is_none() && !cold_defects.is_empty();
    Ok(fell_back && cold_start)
}

/// What the trace-corruption leg observed.
struct TraceCorruptionOutcome {
    /// Every probe answered, the damaged chunks quarantined, and the
    /// lost intervals exactly accounted.
    ok: bool,
    /// Intervals the quarantining replay emitted.
    replayed: u64,
    /// Intervals the replay lost (and accounted).
    lost: u64,
    /// Chunks quarantined.
    quarantined: u64,
}

/// The trace-corruption leg: a daemon keeps serving while a zoo trace
/// file with three CRC-poisoned chunks streams through a FlexWatts
/// runtime in the background. The reader must quarantine exactly those
/// chunks (checksum defects, never a panic), account every lost
/// interval via the index gaps, and the daemon must answer every probe
/// issued during the replay.
fn trace_corruption_leg(seed: u64) -> Result<TraceCorruptionOutcome, String> {
    // Encode the trace and poison three non-final chunks (a payload
    // byte each — the CRC gate must catch them).
    let trace = zoo::zoo_mix(seed, 160);
    let total = trace.intervals().len() as u64;
    let mut bytes = encode_trace(&trace, 64).map_err(|e| format!("encode: {e}"))?;
    let spans = frame_spans(&bytes).ok_or("pristine encoding must map cleanly")?;
    let chunks: Vec<_> = spans.iter().filter(|s| s.kind == FrameKind::Chunk).collect();
    if chunks.len() < 6 {
        return Err(format!("trace too small: {} chunks", chunks.len()));
    }
    let mut poisoned_count = 0u64;
    for pick in [1, chunks.len() / 2, chunks.len() - 2] {
        let span = chunks[pick];
        bytes[span.offset + span.len / 2] ^= 0xFF;
        poisoned_count += 1;
    }
    let dir = ScratchDir::new("pdn-serve-chaos").map_err(|e| format!("scratch dir: {e}"))?;
    let path = dir.path().join(format!("{seed:x}.pdnt"));
    std::fs::write(&path, &bytes).map_err(|e| format!("write trace: {e}"))?;

    // Boot a daemon, then replay the poisoned file on a background
    // thread while the foreground keeps probing it.
    let engine = ServeEngine::new(EngineConfig::default()).map_err(|e| format!("boot: {e}"))?;
    let engine = Arc::new(engine);
    let handle =
        server::spawn_tcp(Arc::clone(&engine), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = handle.addr;

    let replay_path = path.clone();
    let replay = thread::spawn(move || -> Result<flexwatts::FileReplayReport, String> {
        let predictor = flexwatts::ModePredictor::train(
            &pdnspot::ModelParams::paper_defaults(),
            &[4.0, 18.0, 50.0],
            &[0.4, 0.6, 0.8],
        )
        .map_err(|e| format!("train: {e}"))?;
        let rt = flexwatts::FlexWattsRuntime::new(
            pdn_proc::client_soc(pdn_units::Watts::new(18.0)),
            pdnspot::ModelParams::paper_defaults(),
            predictor,
            flexwatts::RuntimeConfig::default(),
        );
        flexwatts::replay_trace_file(&rt, &replay_path, &flexwatts::ReplayFileOptions::default())
            .map_err(|e| format!("replay: {e}"))
    });

    // The daemon must answer every probe issued while the poisoned
    // trace streams (and at least a handful after it finishes).
    let mut served = true;
    let mut probes = 0usize;
    while probes < 4 || !replay.is_finished() {
        let Ok(mut probe) = Client::connect(addr) else {
            served = false;
            break;
        };
        let (pdn, point) = chaos_point(probes % CHAOS_UNIVERSE);
        let request = Request {
            tenant: 0,
            id: 0x7_000_000 + probes as u64,
            deadline_ms: 0,
            body: RequestBody::Eval { pdn, point },
        };
        match probe.call(&request) {
            Ok(resp) if resp.id == request.id => probes += 1,
            _ => {
                served = false;
                break;
            }
        }
        if probes > 10_000 {
            served = false; // replay thread is wedged
            break;
        }
    }
    let report = replay.join().map_err(|_| "replay thread panicked".to_string())??;
    handle.shutdown();
    handle.join();

    let exact = report.chunks_quarantined == poisoned_count
        && report.defects.count(DefectKind::ChecksumMismatch) == poisoned_count
        && report.intervals_replayed + report.intervals_lost == total
        && report.intervals_lost > 0;
    Ok(TraceCorruptionOutcome {
        ok: served && exact,
        replayed: report.intervals_replayed,
        lost: report.intervals_lost,
        quarantined: report.chunks_quarantined,
    })
}

/// Runs the full campaign: every mix at every seed, plus the
/// snapshot-corruption leg, and (optionally) writes `BENCH_chaos.json`.
///
/// # Errors
///
/// Returns a rendered description of the first boot, transport, or
/// filesystem failure. Invariant violations are *not* errors: they are
/// reported as non-surviving runs.
pub fn campaign(cfg: &CampaignConfig) -> Result<ChaosCampaignReport, String> {
    // Injected panics are the point of the exercise: keep their
    // backtraces off stderr, but leave every other panic loud.
    let default_hook = std::panic::take_hook();
    let quiet_hook = Arc::new(default_hook);
    let chained = Arc::clone(&quiet_hook);
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let text = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("");
        if !text.starts_with("injected fault:") {
            chained(info);
        }
    }));

    let mut runs = Vec::new();
    for &seed in &cfg.seeds {
        for mix in ChaosMix::campaign_set() {
            let run_cfg =
                if cfg.quick { ChaosConfig::quick(seed, mix) } else { ChaosConfig::new(seed, mix) };
            let report = run(&run_cfg)?;
            eprintln!(
                "chaos seed {seed} {:>13}: {}/{} answered, {}",
                report.mix,
                report.answered,
                report.accepted,
                if report.survived { "survived" } else { "FAILED" }
            );
            runs.push(report);
        }
    }
    let snapshot_corruption_cold_start =
        snapshot_corruption_leg(cfg.seeds.first().copied().unwrap_or(1))?;
    let trace_corruption = trace_corruption_leg(cfg.seeds.first().copied().unwrap_or(1))?;

    let survived = runs.iter().filter(|r| r.survived).count();
    let report = ChaosCampaignReport {
        seeds: cfg.seeds.clone(),
        survival_rate: if runs.is_empty() { 0.0 } else { survived as f64 / runs.len() as f64 },
        lost_total: runs.iter().map(|r| r.lost).sum(),
        duplicated_total: runs.iter().map(|r| r.duplicated).sum(),
        p99_us_storm: runs.iter().map(|r| r.p99_us_storm).max().unwrap_or(0),
        recovery_ms_max: runs.iter().map(|r| r.recovery_ms).max().unwrap_or(0),
        panics_isolated: runs.iter().map(|r| r.panics_isolated).sum(),
        snapshot_corruption_cold_start,
        trace_corruption_served: trace_corruption.ok,
        trace_intervals_replayed: trace_corruption.replayed,
        trace_intervals_lost: trace_corruption.lost,
        trace_chunks_quarantined: trace_corruption.quarantined,
        runs,
    };
    if let Some(out) = &cfg.out {
        std::fs::write(out, report.to_json()).map_err(|e| format!("write {out:?}: {e}"))?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything at once: every disruption rate set.
    fn storm() -> ChaosMix {
        ChaosMix {
            name: "storm",
            disconnects: 0.25,
            stalls: 0.2,
            garbage: 0.1,
            floods: 0.3,
            slow_readers: 0.15,
            engine_faults: 1.0,
        }
    }

    #[test]
    fn plans_are_deterministic_in_the_seed() {
        let cfg = ChaosConfig::quick(42, storm());
        let a = ChaosPlan::generate(&cfg);
        let b = ChaosPlan::generate(&cfg);
        assert_eq!(a.engine_faults, b.engine_faults);
        assert_eq!(a.scripts.len(), b.scripts.len());
        for (sa, sb) in a.scripts.iter().zip(&b.scripts) {
            assert_eq!(sa.role, sb.role);
            assert_eq!(sa.ranks, sb.ranks);
            assert_eq!(sa.deadlines, sb.deadlines);
        }
        let other = ChaosPlan::generate(&ChaosConfig::quick(43, storm()));
        assert!(
            a.scripts.iter().zip(&other.scripts).any(|(x, y)| x.ranks != y.ranks),
            "different seeds must draw different ranks"
        );
    }

    #[test]
    fn storm_mix_assigns_disruptive_roles() {
        let cfg = ChaosConfig::new(7, storm());
        let plan = ChaosPlan::generate(&cfg);
        assert!(
            plan.scripts.iter().any(|s| s.role != ClientRole::Clean),
            "a storm with every rate set must produce disruptive clients"
        );
        assert!(!plan.engine_faults.is_empty(), "storm schedules engine faults");
    }

    #[test]
    fn fault_free_mix_schedules_no_engine_faults() {
        let plan = ChaosPlan::generate(&ChaosConfig::new(7, ChaosMix::disconnects()));
        assert!(plan.engine_faults.is_empty());
        assert!(plan.injector().is_none());
    }

    #[test]
    fn campaign_json_shape_is_stable() {
        let report = ChaosCampaignReport {
            seeds: vec![1, 2],
            runs: vec![ChaosRunReport {
                seed: 1,
                mix: "disconnects",
                accepted: 10,
                answered: 10,
                lost: 0,
                forgiven: 0,
                duplicated: 0,
                overloaded_without_hint: 0,
                rejected: 2,
                panics_isolated: 0,
                quarantined: 0,
                shed: 0,
                deadline_expired: 1,
                evictions: 0,
                p99_us_storm: 900,
                recovery_ms: 3,
                survived: true,
            }],
            survival_rate: 1.0,
            lost_total: 0,
            duplicated_total: 0,
            p99_us_storm: 900,
            recovery_ms_max: 3,
            panics_isolated: 0,
            snapshot_corruption_cold_start: true,
            trace_corruption_served: true,
            trace_intervals_replayed: 448,
            trace_intervals_lost: 192,
            trace_chunks_quarantined: 3,
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"pdn-serve-chaos/v1\""));
        assert!(json.contains("\"survival_rate\": 1.000"));
        assert!(json.contains("\"mix\": \"disconnects\""));
        assert!(json.contains("\"lost\": 0, \"forgiven\": 0, \"duplicated\": 0"));
        assert!(json.contains("\"snapshot_corruption_cold_start\": true"));
        assert!(json.contains("\"trace_corruption_served\": true"));
        assert!(json.contains("\"trace_chunks_quarantined\": 3"));
    }
}
