//! Admission control: a bounded request queue plus a dispatcher that
//! coalesces concurrent point queries into batch jobs on the existing
//! work-stealing pool.
//!
//! Connections enqueue decoded requests; the queue classifies every
//! rejection instead of answering a blanket `Overloaded`:
//!
//! * a full queue rejects with [`ErrorCode::Overloaded`] and a
//!   `RetryAfter` hint;
//! * a tenant over its admission budget rejects with `Overloaded` and
//!   a shorter hint (the rest of the queue may well have room);
//! * a closed (shutting-down) queue rejects with
//!   [`ErrorCode::Shutdown`], which is terminal.
//!
//! The dispatcher drains whatever has accumulated and applies the
//! resilience pipeline to each drained batch:
//!
//! 1. **deadline expiry** — a request whose [`Request::deadline_ms`]
//!    budget lapsed in the queue is answered
//!    [`ErrorCode::DeadlineExceeded`] without evaluation;
//! 2. **age shedding** — under sustained overload, requests older than
//!    [`EngineConfig::shed_age_ms`] are shed (`Overloaded` +
//!    `RetryAfter`) instead of burning pool time on abandoned work;
//! 3. **quarantine** — a request whose bit-exact body already panicked
//!    the engine [`POISON_THRESHOLD`] times is answered
//!    [`ErrorCode::Poisoned`] (terminal) instead of crash-looping;
//! 4. **coalescing with refcounted cancellation** — Evals sharing a
//!    bit-exact `(tenant, pdn, point)` key become one evaluation. The
//!    evaluation runs as long as *any* waiter's deadline is still
//!    live; a timed-out querent never cancels work other waiters
//!    still want. Individually expired waiters get
//!    `DeadlineExceeded` even when the value was computed.
//! 5. **panic isolation** — every evaluation runs under
//!    [`std::panic::catch_unwind`] *inside* the worker closure (a
//!    worker panic would otherwise propagate at thread join), and a
//!    caught panic is answered [`ErrorCode::Internal`] (retryable —
//!    the quarantine bounds the retries).
//!
//! [`EngineConfig::shed_age_ms`]: pdnspot::EngineConfig::shed_age_ms

use crate::engine::{poison_key, ServeEngine, POISON_THRESHOLD};
use crate::protocol::{PdnId, PointSpec, Request, RequestBody, Response, ResponseBody, ServeError};
use pdnspot::batch::par_map;
use pdnspot::ErrorCode;
use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// `RetryAfter` hint when the whole queue is full.
pub const RETRY_AFTER_FULL_MS: u32 = 100;

/// `RetryAfter` hint when only the tenant's budget is exhausted.
pub const RETRY_AFTER_TENANT_MS: u32 = 50;

/// `RetryAfter` hint when a request was shed by queue age.
pub const RETRY_AFTER_SHED_MS: u32 = 25;

/// A non-blocking response path to one connection's writer.
///
/// Delivery never blocks the dispatcher: the underlying channel is
/// bounded, and a full buffer marks the connection evicted instead of
/// waiting for the slow client to drain it.
#[derive(Debug, Clone)]
pub struct ReplyHandle {
    tx: SyncSender<Response>,
    evicted: Arc<AtomicBool>,
}

impl ReplyHandle {
    /// Wraps a bounded sender and its connection's eviction flag.
    #[must_use]
    pub fn new(tx: SyncSender<Response>, evicted: Arc<AtomicBool>) -> Self {
        Self { tx, evicted }
    }

    /// Delivers a response without ever blocking. Returns `false` when
    /// the connection is evicted, its buffer is full (which evicts
    /// it), or its writer is gone.
    pub fn deliver(&self, response: Response) -> bool {
        if self.is_evicted() {
            return false;
        }
        match self.tx.try_send(response) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) => {
                self.evict();
                false
            }
            Err(TrySendError::Disconnected(_)) => false,
        }
    }

    /// Whether the connection has been evicted.
    #[must_use]
    pub fn is_evicted(&self) -> bool {
        self.evicted.load(Ordering::Acquire)
    }

    /// Marks the connection evicted (slow client, write failure).
    pub fn evict(&self) {
        self.evicted.store(true, Ordering::Release);
    }
}

/// One admitted request waiting for the dispatcher.
#[derive(Debug)]
pub struct Job {
    /// The decoded request (tenant, correlation id, deadline, body).
    pub request: Request,
    /// Where the response goes (the connection's writer).
    pub reply: ReplyHandle,
    /// When the request was admitted; deadlines and age shedding are
    /// measured from here.
    pub enqueued: Instant,
}

impl Job {
    /// Wraps a request for admission, stamping the admission instant.
    #[must_use]
    pub fn new(request: Request, reply: ReplyHandle) -> Self {
        Self { request, reply, enqueued: Instant::now() }
    }

    /// The absolute deadline, if the request carries one.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        match self.request.deadline_ms {
            0 => None,
            ms => Some(self.enqueued + Duration::from_millis(u64::from(ms))),
        }
    }

    /// Whether the deadline has lapsed at `now`.
    #[must_use]
    pub fn expired(&self, now: Instant) -> bool {
        self.deadline().is_some_and(|d| now >= d)
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// The whole queue is at depth.
    Overloaded {
        /// The configured queue depth.
        depth: usize,
    },
    /// The submitting tenant is over its admission budget.
    TenantBudget {
        /// The tenant's budget.
        quota: usize,
    },
    /// The queue is closed (daemon shutting down).
    Closed,
}

impl Rejection {
    /// The wire response this rejection is reported as.
    #[must_use]
    pub fn response(self, id: u64) -> Response {
        let body = match self {
            Rejection::Overloaded { depth } => ResponseBody::Error(
                ServeError::new(
                    ErrorCode::Overloaded,
                    format!("admission queue full ({depth} requests waiting); retry"),
                )
                .with_retry_after(RETRY_AFTER_FULL_MS),
            ),
            Rejection::TenantBudget { quota } => ResponseBody::Error(
                ServeError::new(
                    ErrorCode::Overloaded,
                    format!("tenant admission budget exhausted ({quota} requests in queue); retry"),
                )
                .with_retry_after(RETRY_AFTER_TENANT_MS),
            ),
            Rejection::Closed => {
                ResponseBody::Error(ServeError::new(ErrorCode::Shutdown, "daemon is shutting down"))
            }
        };
        Response { id, body }
    }
}

#[derive(Debug)]
struct QueueState {
    jobs: VecDeque<Job>,
    per_tenant: HashMap<u32, usize>,
    open: bool,
}

/// The bounded admission queue shared by all transports.
#[derive(Debug)]
pub struct AdmissionQueue {
    state: Mutex<QueueState>,
    available: Condvar,
    depth: usize,
    tenant_quota: usize,
}

impl AdmissionQueue {
    /// A queue admitting at most `depth` waiting requests, with each
    /// tenant bounded to `tenant_quota` of them (`0` = `depth`, i.e.
    /// unlimited within the queue bound).
    #[must_use]
    pub fn new(depth: usize, tenant_quota: usize) -> Self {
        let depth = depth.max(1);
        Self {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                per_tenant: HashMap::new(),
                open: true,
            }),
            available: Condvar::new(),
            depth,
            tenant_quota: if tenant_quota == 0 { depth } else { tenant_quota.min(depth) },
        }
    }

    /// The configured depth.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The per-tenant admission budget.
    #[must_use]
    pub fn tenant_quota(&self) -> usize {
        self.tenant_quota
    }

    /// Admits a job, or hands it back with the classified rejection —
    /// the caller answers with [`Rejection::response`].
    ///
    /// # Errors
    ///
    /// Returns the rejected job and why.
    #[allow(clippy::result_large_err)] // handing the job back is the contract
    pub fn submit(&self, job: Job) -> Result<(), (Job, Rejection)> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if !state.open {
            return Err((job, Rejection::Closed));
        }
        if state.jobs.len() >= self.depth {
            return Err((job, Rejection::Overloaded { depth: self.depth }));
        }
        let held = state.per_tenant.entry(job.request.tenant).or_insert(0);
        if *held >= self.tenant_quota {
            return Err((job, Rejection::TenantBudget { quota: self.tenant_quota }));
        }
        *held += 1;
        state.jobs.push_back(job);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Closes the queue: future submissions are rejected and the
    /// dispatcher exits once drained.
    pub fn close(&self) {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).open = false;
        self.available.notify_all();
    }

    /// How many jobs are waiting right now.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).jobs.len()
    }

    /// Whether the queue is currently empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocks until jobs are available, returning everything queued
    /// (and resetting every tenant's budget for the next generation).
    /// `None` means the queue is closed and drained.
    pub fn drain(&self) -> Option<Vec<Job>> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if !state.jobs.is_empty() {
                state.per_tenant.clear();
                return Some(state.jobs.drain(..).collect());
            }
            if !state.open {
                return None;
            }
            state = self.available.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The response a closed (shutting-down) queue sends back.
#[must_use]
pub fn shutdown_response(id: u64) -> Response {
    Rejection::Closed.response(id)
}

/// The response a deadline-expired request gets.
#[must_use]
pub fn deadline_response(id: u64) -> Response {
    Response {
        id,
        body: ResponseBody::Error(ServeError::new(
            ErrorCode::DeadlineExceeded,
            "request deadline exceeded before a result was ready",
        )),
    }
}

/// The response a queue-age-shed request gets.
#[must_use]
pub fn shed_response(id: u64, age_ms: u64) -> Response {
    Response {
        id,
        body: ResponseBody::Error(
            ServeError::new(
                ErrorCode::Overloaded,
                format!("shed under load after {age_ms} ms in the admission queue; retry"),
            )
            .with_retry_after(RETRY_AFTER_SHED_MS),
        ),
    }
}

/// The terminal response a quarantined (poison) request gets.
#[must_use]
pub fn poisoned_response(id: u64) -> Response {
    Response {
        id,
        body: ResponseBody::Error(ServeError::new(
            ErrorCode::Poisoned,
            format!(
                "this exact request has crashed evaluation {POISON_THRESHOLD} times and is \
                 quarantined; do not retry"
            ),
        )),
    }
}

/// The retryable response a caught evaluation panic gets.
#[must_use]
pub fn panic_response(id: u64, what: &str) -> Response {
    Response {
        id,
        body: ResponseBody::Error(ServeError::new(
            ErrorCode::Internal,
            format!("evaluation panicked (isolated): {what}"),
        )),
    }
}

/// The dispatcher loop: drains batches until the queue closes.
pub fn dispatch(engine: &ServeEngine, queue: &AdmissionQueue) {
    while let Some(batch) = queue.drain() {
        run_batch(engine, batch);
    }
}

/// The bit-exact identity of one eval query: tenant, topology wire id,
/// and the [`PointSpec::key`] encoding. Concurrent queries sharing a
/// key are coalesced into one evaluation.
type CoalesceKey = (u32, u8, (u8, u64, u8, u64));

/// One coalesced evaluation: the point, its poison-quarantine key, and
/// the latest live deadline across its waiters (`None` = at least one
/// waiter never expires).
struct UniqueEval {
    tenant: u32,
    pdn: PdnId,
    point: PointSpec,
    poison: u64,
    latest_deadline: Option<Instant>,
}

/// What one coalesced evaluation produced.
enum EvalOutcome {
    /// The engine answered (value or typed error).
    Done(ResponseBody),
    /// Every waiter's deadline lapsed before the evaluation started;
    /// the work was cancelled (refcount reached zero).
    AllExpired,
    /// The request body is quarantined.
    Quarantined,
    /// The evaluation panicked; the panic was caught and isolated.
    Panicked(String),
}

/// Renders a caught panic payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Answers one drained batch. Exposed for the loopback tests.
pub fn run_batch(engine: &ServeEngine, batch: Vec<Job>) {
    let shed_age_ms = engine.config().shed_age_ms();
    let now = Instant::now();

    let mut evals: Vec<(Job, usize)> = Vec::new();
    let mut unique: Vec<UniqueEval> = Vec::new();
    let mut index: HashMap<CoalesceKey, usize> = HashMap::new();
    let mut others: Vec<Job> = Vec::new();

    for job in batch {
        if job.reply.is_evicted() {
            // The connection is gone; nobody is waiting for this answer.
            continue;
        }
        if job.expired(now) {
            engine.note_deadline_expired();
            job.reply.deliver(deadline_response(job.request.id));
            continue;
        }
        let age = now.duration_since(job.enqueued);
        if shed_age_ms > 0 && age.as_millis() as u64 > shed_age_ms {
            engine.note_shed();
            job.reply.deliver(shed_response(job.request.id, age.as_millis() as u64));
            continue;
        }
        if let RequestBody::Eval { pdn, point } = &job.request.body {
            let key = (job.request.tenant, pdn.to_wire(), point.key());
            let deadline = job.deadline();
            match index.get(&key) {
                Some(&slot) => {
                    // Refcount semantics: the coalesced work lives as
                    // long as its *latest* waiter deadline.
                    let entry = &mut unique[slot];
                    entry.latest_deadline = match (entry.latest_deadline, deadline) {
                        (Some(a), Some(b)) => Some(a.max(b)),
                        _ => None,
                    };
                    evals.push((job, slot));
                }
                None => {
                    unique.push(UniqueEval {
                        tenant: job.request.tenant,
                        pdn: *pdn,
                        point: *point,
                        poison: poison_key(&job.request.body),
                        latest_deadline: deadline,
                    });
                    index.insert(key, unique.len() - 1);
                    evals.push((job, unique.len() - 1));
                }
            }
        } else {
            others.push(job);
        }
    }

    if !unique.is_empty() {
        engine.note_coalesced((evals.len() - unique.len()) as u64);
        let results = par_map(&unique, engine.config().workers(), |_, entry| {
            if engine.is_quarantined(entry.poison) {
                return EvalOutcome::Quarantined;
            }
            // Cancellation check at evaluation start: run only while
            // at least one waiter is still live.
            if entry.latest_deadline.is_some_and(|d| Instant::now() >= d) {
                return EvalOutcome::AllExpired;
            }
            let body = RequestBody::Eval { pdn: entry.pdn, point: entry.point };
            match panic::catch_unwind(AssertUnwindSafe(|| engine.handle(entry.tenant, &body))) {
                Ok(response) => EvalOutcome::Done(response),
                Err(payload) => {
                    engine.note_panic(entry.poison);
                    EvalOutcome::Panicked(panic_text(payload.as_ref()))
                }
            }
        });
        let answered = Instant::now();
        for (job, slot) in evals {
            let id = job.request.id;
            // A waiter whose own deadline lapsed while the batch ran is
            // answered DeadlineExceeded even when the value exists —
            // the contract is "a result within the deadline".
            if job.expired(answered) {
                engine.note_deadline_expired();
                job.reply.deliver(deadline_response(id));
                continue;
            }
            let response = match &results[slot] {
                EvalOutcome::Done(body) => Response { id, body: body.clone() },
                EvalOutcome::AllExpired => {
                    engine.note_deadline_expired();
                    deadline_response(id)
                }
                EvalOutcome::Quarantined => {
                    engine.note_quarantine_hit();
                    poisoned_response(id)
                }
                EvalOutcome::Panicked(what) => panic_response(id, what),
            };
            job.reply.deliver(response);
        }
    }

    for job in others {
        let id = job.request.id;
        let poison = poison_key(&job.request.body);
        if engine.is_quarantined(poison) {
            engine.note_quarantine_hit();
            job.reply.deliver(poisoned_response(id));
            continue;
        }
        let tenant = job.request.tenant;
        let outcome =
            panic::catch_unwind(AssertUnwindSafe(|| engine.handle(tenant, &job.request.body)));
        let response = match outcome {
            Ok(body) => {
                if job.expired(Instant::now()) {
                    engine.note_deadline_expired();
                    deadline_response(id)
                } else {
                    Response { id, body }
                }
            }
            Err(payload) => {
                engine.note_panic(poison);
                panic_response(id, &panic_text(payload.as_ref()))
            }
        };
        job.reply.deliver(response);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::sync_channel;

    fn handle(bound: usize) -> (ReplyHandle, std::sync::mpsc::Receiver<Response>) {
        let (tx, rx) = sync_channel(bound);
        (ReplyHandle::new(tx, Arc::new(AtomicBool::new(false))), rx)
    }

    fn ping_job(tenant: u32, id: u64, reply: ReplyHandle) -> Job {
        Job::new(Request { tenant, id, deadline_ms: 0, body: RequestBody::Ping }, reply)
    }

    #[test]
    fn queue_rejects_past_depth_and_after_close() {
        let queue = AdmissionQueue::new(2, 0);
        let (reply, _rx) = handle(8);
        queue.submit(ping_job(0, 1, reply.clone())).expect("first admitted");
        queue.submit(ping_job(0, 2, reply.clone())).expect("second admitted");
        let (_, why) = queue.submit(ping_job(0, 3, reply.clone())).expect_err("third rejected");
        assert_eq!(why, Rejection::Overloaded { depth: 2 });
        queue.close();
        assert_eq!(queue.drain().expect("drains queued jobs").len(), 2);
        assert!(queue.drain().is_none(), "closed and empty");
        let (_, why) = queue.submit(ping_job(0, 4, reply)).expect_err("closed queue rejects");
        assert_eq!(why, Rejection::Closed);
    }

    #[test]
    fn tenant_budget_rejects_before_the_queue_fills() {
        let queue = AdmissionQueue::new(8, 2);
        let (reply, _rx) = handle(16);
        queue.submit(ping_job(1, 1, reply.clone())).expect("admitted");
        queue.submit(ping_job(1, 2, reply.clone())).expect("admitted");
        let (_, why) =
            queue.submit(ping_job(1, 3, reply.clone())).expect_err("tenant 1 over budget");
        assert_eq!(why, Rejection::TenantBudget { quota: 2 });
        // Another tenant still has room.
        queue.submit(ping_job(2, 4, reply.clone())).expect("tenant 2 admitted");
        // Draining resets the budgets.
        queue.close();
        assert_eq!(queue.drain().expect("drains").len(), 3);
    }

    #[test]
    fn rejections_carry_the_retryability_contract() {
        let overload = Rejection::Overloaded { depth: 16 }.response(9);
        match overload.body {
            ResponseBody::Error(e) => {
                assert_eq!(e.code, ErrorCode::Overloaded);
                assert!(e.code.is_retryable());
                assert_eq!(e.retry_after_ms, Some(RETRY_AFTER_FULL_MS));
            }
            other => panic!("expected error, got {other:?}"),
        }
        let budget = Rejection::TenantBudget { quota: 4 }.response(9);
        match budget.body {
            ResponseBody::Error(e) => {
                assert_eq!(e.code, ErrorCode::Overloaded);
                assert_eq!(e.retry_after_ms, Some(RETRY_AFTER_TENANT_MS));
            }
            other => panic!("expected error, got {other:?}"),
        }
        let closed = Rejection::Closed.response(9);
        match closed.body {
            ResponseBody::Error(e) => {
                assert_eq!(e.code, ErrorCode::Shutdown);
                assert!(!e.code.is_retryable(), "shutdown is terminal");
                assert_eq!(e.retry_after_ms, None);
            }
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn reply_handle_never_blocks_and_evicts_on_overflow() {
        let (tx, _rx) = sync_channel(1);
        let reply = ReplyHandle::new(tx, Arc::new(AtomicBool::new(false)));
        let resp = deadline_response(1);
        assert!(reply.deliver(resp.clone()), "first fits the buffer");
        assert!(!reply.deliver(resp.clone()), "second overflows and evicts");
        assert!(reply.is_evicted());
        assert!(!reply.deliver(resp), "evicted handles drop silently");
    }

    #[test]
    fn deadlines_expire_and_jobs_without_them_never_do() {
        let (reply, _rx) = handle(4);
        let eternal = ping_job(0, 1, reply.clone());
        assert_eq!(eternal.deadline(), None);
        assert!(!eternal.expired(Instant::now() + Duration::from_secs(3600)));
        let bounded =
            Job::new(Request { tenant: 0, id: 2, deadline_ms: 10, body: RequestBody::Ping }, reply);
        assert!(!bounded.expired(bounded.enqueued));
        assert!(bounded.expired(bounded.enqueued + Duration::from_millis(11)));
    }
}
