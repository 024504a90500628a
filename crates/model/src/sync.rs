//! The round barrier of the multi-threaded engines.
//!
//! Communication-closed rounds need at most one barrier per round, and
//! every multi-threaded engine uses the one type here, [`ParkingBarrier`]
//! (the trade-offs are laid out in `docs/CONCURRENCY.md`):
//!
//! * arrivals spin briefly and then **park** on a `Condvar` (futex-backed
//!   on Linux), so stragglers get the core immediately instead of
//!   contending with busy-waiting peers. On an oversubscribed machine —
//!   more worker threads than hardware threads — parking is the
//!   difference between one scheduler quantum per arrival and a direct
//!   hand-off;
//! * the last arriver can evaluate a round-closing verdict for everyone
//!   ([`ParkingBarrier::wait_eval`]), which lets an engine close a round
//!   with a *single* barrier phase instead of two;
//! * any participant can [`ParkingBarrier::abort`] the barrier, releasing
//!   every current and future waiter with [`Aborted`] — a shard whose
//!   link failed must never leave its peers parked forever.
//!
//! The shard worker calls it every round under
//! [`crate::engine::RunUntil::AllDecided`] (with a verdict) and only on
//! every `K`-th round under a fixed horizon, where the barrier's one job
//! is to bound how far shards drift apart (and with them, the channel
//! backlog).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// What a wait on an aborted [`ParkingBarrier`] returns instead of a
/// verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Aborted;

impl std::fmt::Display for Aborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("barrier aborted by another participant")
    }
}

impl std::error::Error for Aborted {}

/// A reusable sense-reversing barrier that spins briefly, then parks, and
/// can be aborted.
///
/// All `total` threads must call [`ParkingBarrier::wait`] (or
/// [`ParkingBarrier::wait_eval`]) for any of them to proceed; the barrier
/// then resets itself for the next generation. Waiters spin for a short,
/// contention-aware budget (zero when the participant count exceeds the
/// machine's available parallelism) and then block on a `Condvar`, which
/// parks the thread in the kernel — a futex wait on Linux. After
/// [`ParkingBarrier::abort`], every wait that has not yet been released
/// returns [`Aborted`], spinning or parked, and so does every later one.
///
/// ```
/// use std::sync::Arc;
/// use sskel_model::sync::ParkingBarrier;
///
/// let barrier = Arc::new(ParkingBarrier::new(4));
/// let mut handles = Vec::new();
/// for _ in 0..4 {
///     let b = Arc::clone(&barrier);
///     handles.push(std::thread::spawn(move || {
///         for _ in 0..100 {
///             b.wait().expect("nobody aborts");
///         }
///     }));
/// }
/// for h in handles {
///     h.join().unwrap();
/// }
/// ```
pub struct ParkingBarrier {
    /// Number of threads that have arrived in the current generation.
    arrived: AtomicUsize,
    /// Generation counter; advances when the last thread arrives.
    generation: AtomicUsize,
    /// The leader's verdict for the generation that just closed.
    verdict: AtomicBool,
    /// Set once by [`ParkingBarrier::abort`]; never cleared.
    aborted: AtomicBool,
    total: usize,
    /// Spin iterations before parking; `0` when oversubscribed.
    spin_budget: u32,
    /// Guards the generation flip and the abort so a thread that just
    /// decided to park cannot miss the wakeup.
    lock: Mutex<()>,
    cv: Condvar,
}

impl ParkingBarrier {
    /// A barrier for `total ≥ 1` threads.
    ///
    /// # Panics
    /// Panics if `total == 0`.
    pub fn new(total: usize) -> Self {
        let cores = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1);
        // Oversubscribed: a waiter's spinning only steals the quantum the
        // stragglers need to arrive — park immediately. With a core per
        // participant, a short spin usually wins the race with the flip.
        Self::with_spin_budget(total, if total > cores { 0 } else { 128 })
    }

    fn with_spin_budget(total: usize, spin_budget: u32) -> Self {
        assert!(total >= 1, "barrier needs at least one participant");
        ParkingBarrier {
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            verdict: AtomicBool::new(false),
            aborted: AtomicBool::new(false),
            total,
            spin_budget,
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Number of participating threads.
    pub fn participants(&self) -> usize {
        self.total
    }

    /// Blocks until all `total` threads have arrived for the current
    /// generation. Returns `Ok(true)` on exactly one thread per generation
    /// (the leader, i.e. the last arriver), or [`Aborted`].
    pub fn wait(&self) -> Result<bool, Aborted> {
        self.sync_round(|| false).map(|(leader, _)| leader)
    }

    /// Like [`ParkingBarrier::wait`], but the leader evaluates `eval` while
    /// every other thread is still blocked, and **all** threads return its
    /// verdict. This folds a "leader decides, everyone learns" exchange —
    /// two phases with a plain barrier — into one.
    ///
    /// All writes performed by other threads before they arrived are
    /// visible to `eval`, and `eval`'s result is visible to every waiter.
    pub fn wait_eval(&self, eval: impl FnOnce() -> bool) -> Result<bool, Aborted> {
        self.sync_round(eval).map(|(_, verdict)| verdict)
    }

    /// Permanently fails the barrier: every thread waiting in it now, and
    /// every thread that arrives later, returns [`Aborted`].
    pub fn abort(&self) {
        {
            // Set under the lock: a waiter only parks after checking the
            // flag while holding it.
            let _guard = self.lock.lock().expect("barrier mutex poisoned");
            // ordering: Release pairs with the waiters' Acquire loads of
            // `aborted`; nothing else is published through it.
            self.aborted.store(true, Ordering::Release);
        }
        self.cv.notify_all();
    }

    /// Returns `(is_leader, verdict)` for this generation.
    fn sync_round(&self, eval: impl FnOnce() -> bool) -> Result<(bool, bool), Aborted> {
        // ordering: Acquire pairs with `abort`'s Release store.
        if self.aborted.load(Ordering::Acquire) {
            return Err(Aborted);
        }
        // ordering: Acquire pairs with the leader's Release flip so a
        // thread re-entering for the next generation reads a fresh `gen`.
        let gen = self.generation.load(Ordering::Acquire);
        // ordering: AcqRel — the release half publishes this thread's
        // pre-barrier writes into the RMW chain; the acquire half lets the
        // last arriver see every earlier arrival's writes.
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            // Last thread: every earlier arrival's RMW on `arrived` is in
            // this RMW's release sequence, so their prior writes are
            // visible to `eval`.
            let verdict = eval();
            // ordering: Relaxed — both stores are published by the
            // Release flip of `generation` below; nobody reads them
            // before observing the new generation.
            self.verdict.store(verdict, Ordering::Relaxed);
            self.arrived.store(0, Ordering::Relaxed);
            {
                // Flip under the lock: a waiter only parks after checking
                // the generation while holding it.
                let _guard = self.lock.lock().expect("barrier mutex poisoned");
                // ordering: Release — publishes `verdict`, the `arrived`
                // reset and `eval`'s side effects to every waiter whose
                // Acquire load sees the new generation.
                self.generation
                    .store(gen.wrapping_add(1), Ordering::Release);
            }
            self.cv.notify_all();
            return Ok((true, verdict));
        }
        // A waiter is released by whichever comes first: the flip (with
        // the verdict) or an abort.
        let released = || {
            // ordering: Acquire pairs with the leader's Release flip;
            // seeing the new generation makes `verdict` (Relaxed below)
            // and all leader writes visible.
            if self.generation.load(Ordering::Acquire) != gen {
                // ordering: Relaxed — ordered by the Acquire generation
                // load above; the leader wrote `verdict` before its flip.
                Some(Ok((false, self.verdict.load(Ordering::Relaxed))))
            // ordering: Acquire pairs with `abort`'s Release store.
            } else if self.aborted.load(Ordering::Acquire) {
                Some(Err(Aborted))
            } else {
                None
            }
        };
        for _ in 0..self.spin_budget {
            if let Some(out) = released() {
                return out;
            }
            std::hint::spin_loop();
        }
        let mut guard = self.lock.lock().expect("barrier mutex poisoned");
        loop {
            // Both the flip and the abort happen under the lock, so a
            // check made while holding it cannot miss their wakeup.
            if let Some(out) = released() {
                return out;
            }
            guard = self.cv.wait(guard).expect("barrier mutex poisoned");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn parking_single_thread_barrier_is_a_noop() {
        let b = ParkingBarrier::new(1);
        for _ in 0..10 {
            assert_eq!(b.wait(), Ok(true)); // sole participant always leads
            assert_eq!(b.wait_eval(|| true), Ok(true));
            assert_eq!(b.wait_eval(|| false), Ok(false));
        }
    }

    #[test]
    fn parking_all_threads_observe_each_round() {
        // Each thread increments a shared counter before the barrier; after
        // the barrier, every thread must observe counter == threads * round.
        const THREADS: usize = 8;
        const ROUNDS: usize = 200;
        let barrier = Arc::new(ParkingBarrier::new(THREADS));
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let b = Arc::clone(&barrier);
            let c = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for round in 1..=ROUNDS as u64 {
                    c.fetch_add(1, Ordering::SeqCst);
                    b.wait().unwrap();
                    let seen = c.load(Ordering::SeqCst);
                    assert_eq!(seen, THREADS as u64 * round, "torn round observed");
                    b.wait().unwrap(); // hold everyone until the assertion ran
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), (THREADS * ROUNDS) as u64);
    }

    #[test]
    fn parking_exactly_one_leader_per_generation() {
        const THREADS: usize = 6;
        const ROUNDS: usize = 100;
        let barrier = Arc::new(ParkingBarrier::new(THREADS));
        let leaders = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let b = Arc::clone(&barrier);
            let l = Arc::clone(&leaders);
            handles.push(std::thread::spawn(move || {
                for _ in 0..ROUNDS {
                    if b.wait().unwrap() {
                        l.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(leaders.load(Ordering::SeqCst), ROUNDS as u64);
    }

    #[test]
    fn wait_eval_publishes_leader_verdict_to_everyone() {
        // The leader sums contributions published before arrival; every
        // thread must observe the same per-round verdict.
        const THREADS: usize = 5;
        const ROUNDS: u64 = 100;
        let barrier = Arc::new(ParkingBarrier::new(THREADS));
        let contribution = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let b = Arc::clone(&barrier);
            let c = Arc::clone(&contribution);
            handles.push(std::thread::spawn(move || {
                let mut verdicts = Vec::new();
                for round in 1..=ROUNDS {
                    c.fetch_add(1, Ordering::Relaxed);
                    let v = b.wait_eval(|| {
                        // all contributions of the round are visible here
                        assert_eq!(c.load(Ordering::Relaxed), THREADS as u64 * round);
                        round % 3 == 0
                    });
                    verdicts.push(v.unwrap());
                    b.wait().unwrap(); // keep rounds in lockstep for the assertion
                }
                verdicts
            }));
        }
        let all: Vec<Vec<bool>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let expected: Vec<bool> = (1..=ROUNDS).map(|r| r % 3 == 0).collect();
        for v in all {
            assert_eq!(v, expected, "every thread sees the leader's verdict");
        }
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn parking_zero_participants_rejected() {
        let _ = ParkingBarrier::new(0);
    }

    #[test]
    fn windowed_waits_bound_skew_to_window() {
        // The shard worker's fixed-horizon close: wait only on rounds that
        // are multiples of W. Each thread publishes its current round;
        // whenever a thread is about to run round r, no other thread may be
        // more than W − 1 rounds behind (it must have passed the last window
        // boundary).
        const THREADS: usize = 4;
        const ROUNDS: u32 = 200;
        const WINDOW: u32 = 7;
        let barrier = Arc::new(ParkingBarrier::new(THREADS));
        let rounds: Arc<Vec<AtomicU64>> =
            Arc::new((0..THREADS).map(|_| AtomicU64::new(0)).collect());
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let b = Arc::clone(&barrier);
            let rs = Arc::clone(&rounds);
            handles.push(std::thread::spawn(move || {
                for r in 1..=ROUNDS {
                    rs[t].store(r as u64, Ordering::SeqCst);
                    // Entering round r: every peer must have finished the
                    // last window boundary before r.
                    let floor = (u64::from(r) - 1) / u64::from(WINDOW) * u64::from(WINDOW);
                    for peer in rs.iter() {
                        assert!(
                            peer.load(Ordering::SeqCst) >= floor,
                            "peer fell more than a window behind"
                        );
                    }
                    if r.is_multiple_of(WINDOW) {
                        b.wait().unwrap();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    /// Spawns one waiter on a two-party barrier and returns once it has
    /// arrived, i.e. is spinning or parked, never released by a peer.
    fn lone_waiter(
        b: &Arc<ParkingBarrier>,
    ) -> std::thread::JoinHandle<(Result<bool, Aborted>, Duration)> {
        let waiter = {
            let b = Arc::clone(b);
            std::thread::spawn(move || {
                let started = Instant::now();
                (b.wait_eval(|| true), started.elapsed())
            })
        };
        while b.arrived.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        waiter
    }

    #[test]
    fn abortable_barrier_releases_waiters_on_abort() {
        // No spin budget: the waiter goes straight to the park.
        let b = Arc::new(ParkingBarrier::with_spin_budget(2, 0));
        let waiter = lone_waiter(&b);
        b.abort();
        assert_eq!(waiter.join().expect("waiter panicked").0, Err(Aborted));
        // Future waits fail immediately, with or without a verdict.
        assert_eq!(b.wait(), Err(Aborted));
        assert_eq!(b.wait_eval(|| true), Err(Aborted));
    }

    #[test]
    fn abort_releases_a_waiter_still_spinning() {
        // With an effectively unbounded spin budget the waiter never
        // reaches the park: only the abort check inside the spin loop can
        // release it, long before the budget would run out.
        let b = Arc::new(ParkingBarrier::with_spin_budget(2, u32::MAX));
        let waiter = lone_waiter(&b);
        b.abort();
        let (out, waited) = waiter.join().expect("waiter panicked");
        assert_eq!(out, Err(Aborted));
        assert!(
            waited < Duration::from_secs(5),
            "spinning waiter missed the abort"
        );
    }
}
