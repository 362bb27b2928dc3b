//! The batch engine's persistent helper pool.
//!
//! [`par_map`](super::par_map) fans a job out over `n` workers. Spawning
//! and joining `n` fresh threads per call cost tens of microseconds —
//! more than a small job's whole evaluation — so this module keeps a
//! process-wide set of parked helper threads instead:
//!
//! * **The caller is worker 0.** [`Pool::run`] posts one *seat* per
//!   worker id `1..n`, then runs worker 0 on the calling thread. Helpers
//!   are optional accelerators: the batch scheduler's claim-and-steal
//!   loop lets any single worker drain every range, so a seat nobody took
//!   in time costs nothing.
//! * **When a job ends.** When the caller's own pass ends it withdraws
//!   the seats no helper has taken, then waits on the job's [`Latch`] for
//!   the helpers that did join. Nothing borrowed by the job is touched
//!   after that wait, which is what makes the one lifetime erasure in
//!   this module sound.
//! * **When the pool grows.** Posting spawns a helper only when the
//!   queued seats outnumber the idle helpers. A helper counts itself idle
//!   again *before* it reports its pass to the latch, so a caller that
//!   posts its next job straight away finds it idle: sequential jobs
//!   spawn nothing in steady state.
//! * **Nesting.** A `par_map` issued from inside a pool pass runs on its
//!   caller alone ([`in_job`]), so nested fan-outs neither deadlock nor
//!   multiply threads.
//! * **Panics.** A pass that panics — on the caller or on a helper — is
//!   caught; the caller still withdraws and waits, then re-raises the
//!   first payload with [`panic::resume_unwind`]. The helper keeps
//!   serving later jobs.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// One job's worker body, called once per worker id.
type Work<'a> = dyn Fn(usize) + Sync + 'a;

/// A caught panic payload.
type Payload = Box<dyn Any + Send>;

/// The pool every `par_map` in the process shares.
pub(crate) static POOL: Pool = Pool::new();

thread_local! {
    /// Whether this thread is running a pool pass right now.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is inside a pool pass — the caller's
/// worker-0 pass or a helper's. A fan-out started here must not post
/// seats of its own (see the module docs on nesting).
pub(crate) fn in_job() -> bool {
    IN_JOB.get()
}

/// A set of parked helper threads serving posted seats.
pub(crate) struct Pool {
    state: Mutex<PoolState>,
    /// Signalled once per posted seat; only parked helpers wait on it.
    wake: Condvar,
}

struct PoolState {
    /// Seats posted and not yet taken, oldest first.
    seats: VecDeque<Seat>,
    /// Helpers without a seat (parked, or about to check the queue).
    /// Posting keeps `idle >= seats.len()`, so every seat has a helper
    /// that will look at it.
    idle: usize,
    /// Helpers spawned over the pool's lifetime (helpers never exit).
    spawned: usize,
}

/// One worker id of a posted job, waiting for a helper.
struct Seat {
    job: Arc<Latch>,
    work: ErasedWork,
    worker: usize,
}

/// A job's worker body with its borrow lifetime erased.
#[derive(Clone, Copy)]
struct ErasedWork(*const Work<'static>);

// SAFETY: the pointee is `Sync`, so calling it from any thread is sound,
// and the pointer is only dereferenced while the posting `Pool::run` is
// blocked keeping the pointee alive (see `erase`).
unsafe impl Send for ErasedWork {}

/// Erases the borrow lifetime of `work` so its seats can sit in the
/// process-wide queue.
fn erase(work: &Work<'_>) -> ErasedWork {
    // SAFETY: only the trait object's lifetime bound changes; both
    // pointer types have the same layout. The pointer is dereferenced
    // solely by a helper that took one of the job's seats, and
    // `Pool::run` — which holds the borrow `work` comes from — returns or
    // unwinds only after `withdraw` has removed every seat still queued
    // and `Latch::wait` has seen every taken seat's pass finish. Nothing
    // between posting and that wait can unwind: `run_pass` catches the
    // caller's own panic. So no dereference outlives `work`.
    ErasedWork(unsafe { std::mem::transmute::<*const Work<'_>, *const Work<'static>>(work) })
}

/// Counts a job's finished helper passes and keeps the first panic.
#[derive(Default)]
struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

#[derive(Default)]
struct LatchState {
    finished: usize,
    panic: Option<Payload>,
}

impl Latch {
    fn finish(&self, panic: Option<Payload>) {
        let mut state = lock(&self.state);
        state.finished += 1;
        if state.panic.is_none() {
            state.panic = panic;
        }
        self.done.notify_one();
    }

    /// Blocks until `joined` helper passes have finished; returns the
    /// first panic among them.
    fn wait(&self, joined: usize) -> Option<Payload> {
        let mut state = lock(&self.state);
        while state.finished < joined {
            state = self.done.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        state.panic.take()
    }
}

/// Locks `mutex`, ignoring poison: no user code runs under the pool's
/// own locks, so a poisoned one still holds consistent state.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs one worker pass, flagged as in-job and with its panic caught.
fn run_pass(work: &Work<'_>, worker: usize) -> Result<(), Payload> {
    let outer = IN_JOB.replace(true);
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| work(worker)));
    IN_JOB.set(outer);
    outcome
}

impl Pool {
    pub(crate) const fn new() -> Self {
        Self {
            state: Mutex::new(PoolState { seats: VecDeque::new(), idle: 0, spawned: 0 }),
            wake: Condvar::new(),
        }
    }

    /// Helpers spawned so far. Test instrumentation for the
    /// no-spawn-in-steady-state guarantee.
    #[cfg(test)]
    pub(crate) fn helpers(&self) -> usize {
        lock(&self.state).spawned
    }

    /// Runs `work(0)` on the calling thread and offers `work(1)` ..
    /// `work(n_workers - 1)` to helpers; returns once every pass that
    /// started has ended. Ids no helper took in time never run, so `work`
    /// must let any one pass finish the whole job.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic of any pass, after every started pass
    /// has ended.
    pub(crate) fn run(&'static self, n_workers: usize, work: &Work<'_>) {
        let latch = Arc::new(Latch::default());
        let wanted = n_workers.saturating_sub(1);
        if wanted > 0 {
            self.post(&latch, erase(work), wanted);
        }
        let own = run_pass(work, 0);
        let joined = wanted - self.withdraw(&latch);
        let helper_panic = latch.wait(joined);
        if let Err(payload) = own {
            panic::resume_unwind(payload);
        }
        if let Some(payload) = helper_panic {
            panic::resume_unwind(payload);
        }
    }

    /// Queues seats `1..=wanted` of a job, spawning helpers only for
    /// the seats the idle ones cannot cover.
    fn post(&'static self, latch: &Arc<Latch>, work: ErasedWork, wanted: usize) {
        let spawn = {
            let mut state = lock(&self.state);
            for worker in 1..=wanted {
                state.seats.push_back(Seat { job: Arc::clone(latch), work, worker });
            }
            let spawn = state.seats.len().saturating_sub(state.idle);
            state.idle += spawn;
            state.spawned += spawn;
            spawn
        };
        // The invariant held before posting, so `spawn <= wanted`: wake
        // one parked helper per seat the idle ones cover.
        for _ in 0..wanted - spawn {
            self.wake.notify_one();
        }
        // Helpers live as long as the process and never exit, so their
        // handles are not joined; a job's panic is caught in `run_pass`
        // and handed to its caller, so a detached handle hides nothing.
        for _ in 0..spawn {
            let spawned =
                thread::Builder::new().name("pdnspot-batch".into()).spawn(move || self.serve());
            if spawned.is_err() {
                // The caller drains the seat itself (or withdraws it).
                let mut state = lock(&self.state);
                state.idle -= 1;
                state.spawned -= 1;
            }
        }
    }

    /// Removes the job's untaken seats; returns how many there were.
    fn withdraw(&self, latch: &Arc<Latch>) -> usize {
        let mut state = lock(&self.state);
        let before = state.seats.len();
        state.seats.retain(|seat| !Arc::ptr_eq(&seat.job, latch));
        before - state.seats.len()
    }

    /// A helper's life: take a seat, run its pass, report, park.
    fn serve(&'static self) {
        let mut state = lock(&self.state);
        loop {
            let Some(seat) = state.seats.pop_front() else {
                state = self.wake.wait(state).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            state.idle -= 1;
            drop(state);
            // SAFETY: the seat was queued, so its job's `run` has not yet
            // passed `withdraw`; it now blocks in `Latch::wait` until this
            // pass reports below, keeping the closure alive.
            let outcome = run_pass(unsafe { &*seat.work.0 }, seat.worker);
            // Idle again before the latch opens, so the job's caller
            // finds this helper idle if it posts its next job at once.
            state = lock(&self.state);
            state.idle += 1;
            seat.job.finish(outcome.err());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn sequential_jobs_spawn_no_helpers_after_warm_up() {
        // A pool of its own: the shared one also serves concurrently
        // running tests, whose demand may legitimately grow it.
        static PRIVATE: Pool = Pool::new();
        let passes = AtomicUsize::new(0);
        let work = |_: usize| {
            passes.fetch_add(1, Ordering::Relaxed);
        };
        PRIVATE.run(2, &work);
        let warm = PRIVATE.helpers();
        assert_eq!(warm, 1, "one seat, no idle helper: exactly one spawn");
        for _ in 0..1000 {
            PRIVATE.run(2, &work);
        }
        assert_eq!(PRIVATE.helpers(), warm, "steady state spawned a helper");
        let passes = passes.load(Ordering::Relaxed);
        assert!((1001..=2002).contains(&passes), "{passes} passes");
    }

    #[test]
    fn every_job_runs_worker_zero_and_each_id_at_most_once() {
        static PRIVATE: Pool = Pool::new();
        for _ in 0..200 {
            let ran = Mutex::new(Vec::new());
            PRIVATE.run(3, &|w| lock(&ran).push(w));
            let mut ran = ran.into_inner().unwrap();
            ran.sort_unstable();
            assert_eq!(ran[0], 0, "the caller always runs worker 0");
            assert!(ran.windows(2).all(|p| p[0] < p[1]) && ran.len() <= 3, "{ran:?}");
        }
        assert_eq!(PRIVATE.helpers(), 2, "two seats per job, spawned once");
    }
}
