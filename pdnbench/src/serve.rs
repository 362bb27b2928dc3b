//! `serve_light` and `serve_heavy`: an in-process `pdn-serve` daemon
//! (`server::spawn_tcp` on an ephemeral loopback port) under an open-loop
//! Poisson load.
//!
//! The generator is one process with two threads (a scheduled sender and
//! a receiver) on one connection, never more than the machine's cores.
//! Requests go out on a precomputed Poisson schedule whether or not
//! earlier ones were answered, and each latency is timed from the
//! request's *scheduled* send time, so a stall is charged to every
//! request queued behind it. How late the sender ran is reported as
//! `generator.lag_ms`: a large lag means the generator, not the daemon,
//! limited the run and its numbers are not valid.
//!
//! Traffic: a zipf mix over a 512-point universe of Eval (about 80 %) and
//! Sample requests across 8 tenants, plus a seeded stream of never-seen
//! Eval points so tenant memos take inserts beside hits. Only these two
//! workloads exercise the wire, admission, and transport layers.

use crate::trace::span;
use crate::util::{self, Rng};
use crate::{Ledger, Report};
use pdn_serve::engine::{SERVE_ARS, SERVE_TDPS};
use pdn_serve::protocol::{decode_response, encode_request, ServerStats};
use pdn_serve::server::{self, ServerHandle};
use pdn_serve::wire::{self, FrameError};
use pdn_serve::{Client, PdnId, PointSpec, Request, RequestBody, ResponseBody, ServeEngine};
use pdn_workload::WorkloadType;
use pdnspot::validation::{validate_with, ReferenceSystem};
use pdnspot::{EngineConfig, ErrorCode, Workers};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Offered rate of `serve_light`, requests per second.
pub const LIGHT_RPS: f64 = 2_000.0;
/// Offered rate of `serve_heavy`, requests per second. README records the
/// capacity runs it was chosen from.
pub const HEAVY_RPS: f64 = 12_000.0;
const TENANTS: u32 = 8;
const UNIVERSE: usize = 512;
const ZIPF_EXPONENT: f64 = 1.0;
const SAMPLE_SHARE: f64 = 0.2;
const FRESH_SHARE: f64 = 0.05;
/// One in this many answered requests is re-evaluated in-process and
/// compared bit for bit.
const CHECK_ONE_IN: usize = 64;
/// How long after its last send a phase waits for replies; a request
/// still unanswered then counts as timed out, at this latency.
const DRAIN: Duration = Duration::from_secs(2);
/// Daemon boots timed before the load and again after it.
const SETUP_REPS: usize = 8;
/// The tenant the output check evaluates under, apart from the load's.
const CHECK_TENANT: u32 = 1_000_000;
/// Per-connection reply buffer of the daemon. One generator connection
/// multiplexes the whole offered load, so a dispatcher batch can hold
/// hundreds of its replies; the default (128, sized for one client per
/// connection) would evict the generator as a slow client.
const WRITE_BUFFER: usize = 8_192;

/// The daemon's configuration: defaults apart from [`WRITE_BUFFER`].
pub fn engine_config() -> EngineConfig {
    EngineConfig::builder().write_buffer(WRITE_BUFFER).build().expect("the write buffer is nonzero")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    Light,
    Heavy,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Ok,
    Error,
    Refused,
    TimedOut,
}

fn classify(body: &ResponseBody) -> Outcome {
    match body {
        ResponseBody::Error(e) => match e.code {
            ErrorCode::Overloaded | ErrorCode::Shutdown => Outcome::Refused,
            ErrorCode::DeadlineExceeded => Outcome::TimedOut,
            _ => Outcome::Error,
        },
        _ => Outcome::Ok,
    }
}

/// The seeded request stream: zipf-ranked universe points, a share of
/// Sample queries, and a share of never-seen Eval points.
pub struct Traffic {
    rng: Rng,
    cdf: Vec<f64>,
}

impl Traffic {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut cdf = Vec::with_capacity(UNIVERSE);
        let mut total = 0.0;
        for rank in 0..UNIVERSE {
            total += 1.0 / ((rank + 1) as f64).powf(ZIPF_EXPONENT);
            cdf.push(total);
        }
        cdf.iter_mut().for_each(|c| *c /= total);
        Self { rng: Rng::new(seed, stream), cdf }
    }

    fn universe_point(rank: usize) -> (PdnId, WorkloadType, f64, f64) {
        let pdn = PdnId::ALL[rank % PdnId::ALL.len()];
        let wl = WorkloadType::ACTIVE_TYPES[(rank / 5) % 3];
        let tdp = SERVE_TDPS[(rank / 15) % SERVE_TDPS.len()];
        let ar = SERVE_ARS[(rank / 105) % SERVE_ARS.len()];
        (pdn, wl, tdp, ar)
    }

    pub fn request(&mut self, id: u64) -> Request {
        let tenant = self.rng.below(TENANTS as usize) as u32;
        let u = self.rng.f64();
        let rank = self.cdf.partition_point(|&c| c < u).min(UNIVERSE - 1);
        let (pdn, workload, tdp, ar) = Self::universe_point(rank);
        let kind = self.rng.f64();
        let body = if kind < SAMPLE_SHARE {
            let (t, a) = (SERVE_TDPS, SERVE_ARS);
            let tdp = self.rng.range(t[0], t[t.len() - 1]);
            let ar = self.rng.range(a[0], a[a.len() - 1]);
            RequestBody::Sample { pdn, workload, tdp, ar }
        } else if kind < SAMPLE_SHARE + FRESH_SHARE {
            let point = PointSpec::Active {
                tdp: self.rng.range(4.0, 50.0),
                workload,
                ar: self.rng.range(0.40, 0.80),
            };
            RequestBody::Eval { pdn, point }
        } else {
            RequestBody::Eval { pdn, point: PointSpec::Active { tdp, workload, ar } }
        };
        Request { tenant, id, deadline_ms: 0, body }
    }

    /// `n` requests over a Poisson schedule at `rate`: offsets from the
    /// phase start.
    fn phase(&mut self, rate: f64, duration: Duration) -> (Vec<Request>, Vec<Duration>) {
        let (mut requests, mut offsets) = (Vec::new(), Vec::new());
        let mut t = 0.0;
        loop {
            t += -(1.0 - self.rng.f64()).ln() / rate;
            if t >= duration.as_secs_f64() {
                return (requests, offsets);
            }
            requests.push(self.request(requests.len() as u64));
            offsets.push(Duration::from_secs_f64(t));
        }
    }
}

/// What one open-loop phase observed. The counts are taken where each
/// event happens, so the phase's ledger compares independent tallies.
#[derive(Default)]
struct Phase {
    /// Per-request latency from scheduled send, with failed, refused, and
    /// unanswered requests at the drain limit.
    latencies_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    /// Requests the sender wrote to the socket.
    written: u64,
    /// Requests the sender never sent, because the daemon dropped the
    /// connection first.
    unsent: u64,
    /// Replies by [`Outcome`], tallied by the receiver as they arrive.
    replies: [u64; 4],
    /// Requests with no reply when the drain ended: timed out.
    unanswered: u64,
    unexpected: u64,
    /// Sampled answered requests, for the output check.
    sampled: Vec<(usize, ResponseBody)>,
    /// From the phase start to the last send.
    send_span: Duration,
    /// The sender's time encoding and writing requests, i.e. outside its
    /// sleeps: the timed program section of a serve run.
    busy: Duration,
}

impl Phase {
    fn attempted(&self) -> u64 {
        self.latencies_ms.len() as u64
    }

    fn ok(&self) -> u64 {
        self.replies[Outcome::Ok as usize]
    }

    /// (ok, error, refused, timed-out) requests.
    fn outcomes(&self) -> [u64; 4] {
        let mut counts = self.replies;
        counts[Outcome::TimedOut as usize] += self.unanswered;
        counts
    }
}

struct Received {
    slots: Vec<Option<(f64, Outcome)>>,
    replies: [u64; 4],
    unexpected: u64,
    sampled: Vec<(usize, ResponseBody)>,
}

fn receive(
    mut stream: TcpStream,
    t0: Instant,
    offsets: &[Duration],
    received: &AtomicUsize,
) -> Received {
    let mut out = Received {
        slots: vec![None; offsets.len()],
        replies: [0; 4],
        unexpected: 0,
        sampled: Vec::new(),
    };
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    'read: loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(k) => buf.extend_from_slice(&chunk[..k]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
        let now = Instant::now();
        let mut used = 0;
        loop {
            match wire::decode_frame(&buf[used..]) {
                Ok((body, len)) => {
                    used += len;
                    let Ok(resp) = decode_response(body) else {
                        out.unexpected += 1;
                        continue;
                    };
                    let id = resp.id as usize;
                    match out.slots.get_mut(id) {
                        Some(slot @ None) => {
                            let latency = util::ms(now.saturating_duration_since(t0 + offsets[id]));
                            let outcome = classify(&resp.body);
                            *slot = Some((latency, outcome));
                            out.replies[outcome as usize] += 1;
                            if outcome == Outcome::Ok && id.is_multiple_of(CHECK_ONE_IN) {
                                out.sampled.push((id, resp.body));
                            }
                            received.fetch_add(1, Ordering::Release);
                        }
                        _ => out.unexpected += 1,
                    }
                }
                Err(FrameError::Truncated) => break,
                Err(_) => {
                    out.unexpected += 1;
                    break 'read;
                }
            }
        }
        buf.drain(..used);
    }
    out
}

/// Offers `requests` on the `offsets` schedule over one connection and
/// collects every reply (or its absence).
fn open_loop(
    addr: SocketAddr,
    requests: &[Request],
    offsets: &[Duration],
) -> Result<Phase, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    let reader = stream.try_clone().map_err(|e| format!("clone stream: {e}"))?;
    let mut writer = stream;
    let n = requests.len();
    let received = AtomicUsize::new(0);
    let t0 = Instant::now() + Duration::from_millis(2);
    let mut phase = Phase { lag_ms: Vec::with_capacity(n), ..Phase::default() };
    let got = thread::scope(|scope| -> Result<Received, String> {
        let rx = scope.spawn(|| receive(reader, t0, offsets, &received));
        let mut frames = Vec::with_capacity(64 * 1024);
        let mut next = 0;
        while next < n {
            let now = Instant::now();
            let due = t0 + offsets[next];
            if due > now {
                thread::sleep(due - now);
                continue;
            }
            let first = next;
            frames.clear();
            span("wire", || {
                while next < n && t0 + offsets[next] <= now {
                    phase.lag_ms.push(util::ms(now - (t0 + offsets[next])));
                    frames.extend_from_slice(&wire::encode_frame(&encode_request(&requests[next])));
                    next += 1;
                }
            });
            // The generator's own socket write: client code, not the
            // daemon's.
            let sent = span("generator", || writer.write_all(&frames)).is_ok();
            phase.busy += now.elapsed();
            if !sent {
                // The daemon dropped the connection (its slow-client
                // defense evicts a connection it cannot write to fast
                // enough). This burst and every later request count as
                // never sent, and as timed out.
                phase.unsent = (n - first) as u64;
                break;
            }
            phase.written += (next - first) as u64;
        }
        phase.send_span = t0.elapsed();
        let drain_until = Instant::now() + DRAIN;
        while received.load(Ordering::Acquire) < n
            && !rx.is_finished()
            && Instant::now() < drain_until
        {
            thread::sleep(Duration::from_millis(1));
        }
        // Unblocks the receiver whether or not every reply arrived.
        let _ = writer.shutdown(Shutdown::Both);
        rx.join().map_err(|_| "receiver thread panicked".to_string())
    })?;
    let timeout_ms = util::ms(DRAIN);
    phase.latencies_ms = got
        .slots
        .iter()
        .map(|slot| match slot {
            Some((latency, Outcome::Ok)) => *latency,
            _ => timeout_ms.max(slot.map_or(0.0, |(l, _)| l)),
        })
        .collect();
    phase.unanswered = got.slots.iter().filter(|slot| slot.is_none()).count() as u64;
    phase.replies = got.replies;
    phase.unexpected = got.unexpected;
    phase.sampled = got.sampled;
    Ok(phase)
}

/// Boots the engine and binds the TCP transport, timing both.
fn boot() -> Result<(Arc<ServeEngine>, ServerHandle, f64), String> {
    let start = Instant::now();
    let engine =
        Arc::new(ServeEngine::new(engine_config()).map_err(|e| format!("engine boot: {e}"))?);
    let handle =
        server::spawn_tcp(Arc::clone(&engine), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    Ok((engine, handle, start.elapsed().as_secs_f64()))
}

/// Times `reps` boots of daemons that are shut down again at once.
fn time_boots(reps: usize, times: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..reps {
        let (_, handle, t) = boot()?;
        times.push(t);
        handle.shutdown();
        handle.join();
    }
    Ok(())
}

/// The daemon's counters and the tenants' summed memo counters, read with
/// one Stats request per tenant. The daemon counts each of those
/// [`TENANTS`] reads as an admitted request.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    hits: u64,
    lookups: u64,
    evictions: u64,
    server: ServerStats,
}

fn read_counters(control: &mut Client) -> Result<Counters, String> {
    let mut out = Counters::default();
    for tenant in 0..TENANTS {
        let reply = control
            .call(&Request {
                tenant,
                id: u64::from(tenant),
                deadline_ms: 0,
                body: RequestBody::Stats,
            })
            .map_err(|e| format!("stats: {e}"))?;
        let ResponseBody::Stats { tenant: t, server } = reply.body else {
            return Err(format!("stats reply: {:?}", reply.body));
        };
        out.hits += t.hits;
        out.lookups += t.hits + t.misses;
        out.evictions += t.evictions;
        out.server = server;
    }
    Ok(out)
}

/// Requests the daemon admitted between two counter reads, apart from
/// the later read's own Stats requests.
fn admitted(before: &Counters, after: &Counters) -> u64 {
    after.server.requests.saturating_sub(before.server.requests).saturating_sub(u64::from(TENANTS))
}

/// Closes one phase's ledgers, each from counts taken in different
/// places:
/// - sender: every scheduled request was written or never sent;
/// - receiver: attempted == ok + error + refused + timed-out, with the
///   replies tallied as they arrived and the requests left unanswered;
/// - daemon: the requests it admitted over the phase (its own counter)
///   cover every reply it evaluated (ok or error), and exceed them by at
///   most the unanswered requests; with every request answered, the two
///   are equal.
fn close_ledger(ledger: &mut Ledger, name: &str, phase: &Phase, admitted: u64) {
    let outcomes = phase.outcomes();
    let attempted = phase.attempted();
    ledger.check(phase.written + phase.unsent == attempted, || {
        format!(
            "serve {name}: {attempted} attempted != {} written + {} never sent",
            phase.written, phase.unsent
        )
    });
    ledger.check(outcomes.iter().sum::<u64>() == attempted && phase.unexpected == 0, || {
        format!(
            "serve {name}: {attempted} attempted != {outcomes:?} (ok, error, refused, \
             timed-out); {} unexpected replies",
            phase.unexpected
        )
    });
    let evaluated = outcomes[Outcome::Ok as usize] + outcomes[Outcome::Error as usize];
    ledger.check((evaluated..=evaluated + phase.unanswered).contains(&admitted), || {
        format!(
            "serve {name}: the daemon admitted {admitted} requests for {evaluated} evaluated \
             replies and {} unanswered",
            phase.unanswered
        )
    });
}

/// Re-evaluates sampled replies in-process: each must equal
/// `ServeEngine::eval_point` (or the resident surface sample) bit for bit.
fn wrong_replies(engine: &ServeEngine, requests: &[Request], phase: &Phase) -> u64 {
    let mut wrong = 0;
    for (id, body) in &phase.sampled {
        let equal = match (&requests[*id].body, body) {
            (RequestBody::Eval { pdn, point }, ResponseBody::Eval(served)) => engine
                .eval_point(CHECK_TENANT, *pdn, point)
                .is_ok_and(|direct| util::evaluations_bit_equal(served, &direct)),
            (RequestBody::Sample { pdn, workload, tdp, ar }, ResponseBody::Sample(served)) => {
                let direct = engine.surface(*pdn, *workload).and_then(|s| s.sample(*tdp, *ar));
                direct.map(f64::to_bits) == served.map(f64::to_bits)
            }
            _ => false,
        };
        wrong += u64::from(!equal);
    }
    wrong
}

pub fn run(load: Load, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut setup_times = Vec::with_capacity(2 * SETUP_REPS);
    time_boots(SETUP_REPS - 1, &mut setup_times)?;
    let (engine, handle, t) = boot()?;
    setup_times.push(t);
    let addr = handle.addr;
    let total = Duration::from_secs_f64(seconds);
    let mut traffic = Traffic::new(seed, 0x5E2E);
    let mut control = Client::connect(addr).map_err(|e| format!("control connect: {e}"))?;

    // Warm-up at the light rate: tenant memos fill before timing.
    let (warm_requests, warm_offsets) = traffic.phase(LIGHT_RPS, total.mul_f64(0.1));
    let booted = read_counters(&mut control)?;
    let warm = open_loop(addr, &warm_requests, &warm_offsets)?;
    let warmed = read_counters(&mut control)?;
    let rate = match load {
        Load::Light => LIGHT_RPS,
        Load::Heavy => HEAVY_RPS,
    };
    let (requests, offsets) = traffic.phase(rate, total.mul_f64(0.9));
    let measured = open_loop(addr, &requests, &offsets)?;
    let after = read_counters(&mut control)?;
    let throughput = measured.ok() as f64 / measured.send_span.as_secs_f64();
    let p50 = util::percentile(&measured.latencies_ms, 0.5);
    let p99 = util::windowed(&measured.latencies_ms, 0.99, 1_000);
    let p99_whole = util::percentile(&measured.latencies_ms, 0.99);

    let mut ledger = Ledger::new();
    let admitted_warm = admitted(&booted, &warmed);
    let admitted_measured = admitted(&warmed, &after);
    close_ledger(&mut ledger, "warm-up", &warm, admitted_warm);
    close_ledger(&mut ledger, "measured", &measured, admitted_measured);
    let mut report = Report::default();
    for (requests, phase) in [(&warm_requests, &warm), (&requests, &measured)] {
        let wrong = wrong_replies(&engine, requests, phase);
        report.wrong += wrong;
        report.attempted += phase.attempted();
        report.failed += phase.attempted() - phase.ok() + wrong;
        report.program_time += phase.busy;
    }
    let _ = control.call(&Request {
        tenant: 0,
        id: u64::MAX,
        deadline_ms: 0,
        body: RequestBody::Shutdown,
    });
    handle.join();
    time_boots(SETUP_REPS, &mut setup_times)?;

    // Model error of the served universe: every topology on every active
    // universe point.
    let reference = ReferenceSystem::new(util::REFERENCE_UNIT);
    let mut scenarios = Vec::new();
    for &tdp in &SERVE_TDPS {
        for wl in WorkloadType::ACTIVE_TYPES {
            for &ar in &SERVE_ARS {
                scenarios.push(
                    ServeEngine::scenario_for(&PointSpec::Active { tdp, workload: wl, ar })
                        .map_err(|e| format!("universe scenario: {e}"))?,
                );
            }
        }
    }
    let (mut accuracy_sum, mut samples) = (0.0, 0usize);
    for id in PdnId::ALL {
        let campaign = validate_with(engine.pdn(id), &reference, &scenarios, Workers::Auto)
            .map_err(|e| format!("model validation: {e}"))?;
        accuracy_sum += campaign.samples.iter().map(|s| s.accuracy()).sum::<f64>();
        samples += campaign.samples.len();
    }

    // The layer counters describe the measured phase alone.
    let (hits, lookups) = (after.hits - warmed.hits, after.lookups - warmed.lookups);
    let (s, w) = (&after.server, &warmed.server);
    report.setup_s = util::median(&setup_times);
    report.throughput_per_s = throughput;
    report.p50_ms = p50;
    report.p99_ms = p99;
    report.model_error_pct = 100.0 * (1.0 - accuracy_sum / samples.max(1) as f64);
    report.ledgers_closed = ledger.closed();
    report.counters = vec![
        ("memo.hit_ratio", hits as f64 / lookups.max(1) as f64),
        ("memo.evictions", (after.evictions - warmed.evictions) as f64),
        ("admission.coalesced", (s.coalesced - w.coalesced) as f64),
        ("admission.shed", (s.shed - w.shed) as f64),
        ("admission.deadline_expired", (s.deadline_expired - w.deadline_expired) as f64),
        ("server.evictions", (s.evictions - w.evictions) as f64),
    ];
    report.notes = vec![
        format!(
            "measured phase: {} requests at {rate} req/s offered, {:?} (ok, error, refused, \
             timed-out); p50 {p50:.4} ms, p90 {:.4} ms, p99 {p99:.4} ms (whole-phase p99 \
             {p99_whole:.4} ms)",
            measured.attempted(),
            measured.outcomes(),
            util::windowed(&measured.latencies_ms, 0.90, 1_000),
        ),
        format!(
            "measured phase: {} written, {} never sent, {} unanswered; the daemon admitted \
             {admitted_measured} (warm-up: {} written, daemon admitted {admitted_warm})",
            measured.written, measured.unsent, measured.unanswered, warm.written
        ),
        format!(
            "generator.lag_ms p50 = {:.4}, p99 = {:.4} (how late the sender ran)",
            util::percentile(&measured.lag_ms, 0.5),
            util::percentile(&measured.lag_ms, 0.99)
        ),
        format!(
            "measured phase counters: tenant memo {hits} hits / {lookups} lookups; daemon \
             coalesced {}, shed {}, deadline-expired {}, evictions {}",
            s.coalesced - w.coalesced,
            s.shed - w.shed,
            s.deadline_expired - w.deadline_expired,
            s.evictions - w.evictions
        ),
        ledger.note(),
    ];
    Ok(report)
}
