//! Sharded round engine: `k` processes per OS thread, one inbox per shard.
//!
//! The one-thread-per-process design of [`super::threaded`] measures real
//! message passing faithfully, but it pays for realism with OS threads: at
//! `n = 256` on a small machine, every simulated round is hundreds of
//! context switches. Algorithm 1 is a *full-information, anonymous-code*
//! protocol — every process runs the same per-round estimator — so nothing
//! about the model requires the `n` processes to be `n` schedulable
//! entities. This engine assigns each worker thread a **contiguous shard**
//! of processes and drives all of them through the round structure
//! sequentially inside the thread, recovering lockstep-like efficiency
//! per shard while keeping real inter-thread message passing between
//! shards:
//!
//! * **one inbox per shard, not per process** — inter-shard messages travel
//!   through a single MPSC channel per shard, tagged
//!   `(round, from, to, payload)`; a wakeup drains whole rounds for all `k`
//!   resident processes at once;
//! * **intra-shard delivery never touches a channel** — a message between
//!   two processes of the same shard is an `Arc` clone written directly
//!   into the recipient's delivery buffer by the owning thread;
//! * **round closing** mirrors the threaded engine, per shard instead of
//!   per process:
//!   * under [`RunUntil::AllDecided`] every shard broadcasts its round
//!     `r + 1` messages *speculatively before arriving* at a single
//!     [`ParkingBarrier`] phase whose leader evaluates the stop condition
//!     ([`ParkingBarrier::wait_eval`]); the speculative broadcast is rolled
//!     back from the byte accounting when the verdict stops the run;
//!   * under a **fixed horizon** ([`RunUntil::Rounds`]) there is no global
//!     stop condition to agree on, and a [`WindowedBarrier`] closes only
//!     every `K`-th round: threads free-run inside a window, and the
//!     boundary bounds inter-shard round skew to `K − 1` — and with it the
//!     per-edge channel backlog to `K` payloads, closing the
//!     unbounded-backlog caveat of the threaded engine's barrier-free mode
//!     (see `docs/CONCURRENCY.md` for the argument).
//!
//! Like the other engines, the trace and the final algorithm states are
//! **bit-identical** to [`super::lockstep`] for the same schedule and
//! algorithms (asserted by `tests/engines_equiv.rs` across shard counts and
//! window lengths): runs are fully determined by initial states plus the
//! graph sequence, and neither sharding nor windowing introduces
//! nondeterminism.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel as unbounded, Receiver, Sender};
use std::sync::Arc;

use sskel_graph::{Digraph, ProcessId, Round, FIRST_ROUND};

use crate::algorithm::{Received, RoundAlgorithm, Value};
use crate::engine::RunUntil;
use crate::fault::{
    ArcTransport, CodecTransport, DecodeCache, Delivery, FaultCause, FaultPlane, FaultStats,
    Transport,
};
use crate::schedule::Schedule;
use crate::sync::{ParkingBarrier, WindowedBarrier};
use crate::trace::{MsgStats, RunTrace};
use crate::wire::{Wire, WireSized};

/// How [`run_sharded`] divides the system across worker threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    /// Number of worker threads; each owns a contiguous range of processes.
    /// Clamped to `n` at run time (a shard never owns zero processes).
    pub shards: usize,
    /// Bounded-skew window `K` for fixed-horizon runs: a full barrier phase
    /// closes every `K`-th round, so shards drift at most `K − 1` rounds
    /// apart and no channel ever holds more than `K` undelivered payloads
    /// per edge. Ignored under [`RunUntil::AllDecided`], which synchronizes
    /// every round to evaluate the stop condition. `1` = lockstep-strict,
    /// larger = fewer parks.
    pub window: Round,
}

impl ShardPlan {
    /// The default bounded-skew window `K` (see [`ShardPlan::window`]).
    pub const DEFAULT_WINDOW: Round = 8;

    /// A plan with `shards` worker threads and the default window.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        ShardPlan {
            shards,
            window: Self::DEFAULT_WINDOW,
        }
    }

    /// Replaces the bounded-skew window.
    ///
    /// # Panics
    /// Panics if `window == 0`.
    pub fn with_window(mut self, window: Round) -> Self {
        assert!(window >= 1, "window length must be at least one round");
        self.window = window;
        self
    }

    /// One shard per available core (clamped to `n`): the configuration
    /// that minimizes context switches for a CPU-bound simulation.
    pub fn auto(n: usize) -> Self {
        let cores = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1);
        ShardPlan::new(cores.min(n.max(1)))
    }

    /// The contiguous process ranges of each shard for a universe of size
    /// `n`: `shards` ranges (after clamping to `n`) whose lengths differ by
    /// at most one. Shared with the socket engine, which partitions the
    /// universe identically.
    pub(crate) fn ranges(&self, n: usize) -> Vec<std::ops::Range<usize>> {
        let shards = self.shards.min(n).max(1);
        let base = n / shards;
        let extra = n % shards;
        let mut out = Vec::with_capacity(shards);
        let mut lo = 0;
        for s in 0..shards {
            let len = base + usize::from(s < extra);
            out.push(lo..lo + len);
            lo += len;
        }
        out
    }
}

/// An inter-shard packet: `(round, sender, recipient, frame)`. The frame
/// stays packed (an `Arc` in classic mode, encoded bytes in codec mode)
/// until the recipient's round is processed.
type Packet<F> = (Round, ProcessId, ProcessId, F);

/// What one shard thread hands back when the run stops.
struct ShardOutcome<A> {
    algs: Vec<A>,
    first_decisions: Vec<Option<(Round, Value)>>,
    stats: MsgStats,
    faults: FaultStats,
    anomalies: Vec<String>,
    rounds_executed: Round,
}

/// Runs `algs` against `schedule` on `plan.shards` worker threads, each
/// owning a contiguous shard of processes.
///
/// Semantically identical to [`super::run_lockstep`] and
/// [`super::run_threaded`]; see the module docs for the synchronization
/// protocol and `docs/CONCURRENCY.md` for how the three engines relate.
///
/// # Panics
/// Panics if `algs.len() != schedule.n()` or a worker thread panics.
pub fn run_sharded<S, A>(
    schedule: &S,
    algs: Vec<A>,
    until: RunUntil,
    plan: ShardPlan,
) -> (RunTrace, Vec<A>)
where
    S: Schedule + Sync + ?Sized,
    A: RoundAlgorithm,
    A::Msg: WireSized,
{
    run_transport(schedule, algs, until, plan, &ArcTransport)
}

/// [`run_sharded`] in codec-boundary mode: every payload — including
/// intra-shard hand-offs, which normally skip the channel — travels as an
/// encoded, checksummed frame through `plane` and is decoded back at the
/// receiver (see [`crate::fault`]). Frames the plane destroys are recorded
/// in the trace's [`FaultStats`] and treated as drops; with
/// [`crate::fault::NoFaults`] the result is trace- and stats-identical to
/// [`run_sharded`].
///
/// # Panics
/// Panics if `algs.len() != schedule.n()` or a worker thread panics.
pub fn run_sharded_codec<S, A, P>(
    schedule: &S,
    algs: Vec<A>,
    until: RunUntil,
    plan: ShardPlan,
    plane: &P,
) -> (RunTrace, Vec<A>)
where
    S: Schedule + Sync + ?Sized,
    A: RoundAlgorithm,
    A::Msg: Wire,
    P: FaultPlane,
{
    run_transport(schedule, algs, until, plan, &CodecTransport::new(plane))
}

/// The engine body, generic over the payload path (see
/// [`crate::fault::Transport`]).
fn run_transport<S, A, T>(
    schedule: &S,
    algs: Vec<A>,
    until: RunUntil,
    plan: ShardPlan,
    transport: &T,
) -> (RunTrace, Vec<A>)
where
    S: Schedule + Sync + ?Sized,
    A: RoundAlgorithm,
    A::Msg: WireSized,
    T: Transport<A::Msg>,
{
    let n = schedule.n();
    assert_eq!(
        algs.len(),
        n,
        "need exactly one algorithm instance per process"
    );

    let ranges = plan.ranges(n);
    let shards = ranges.len();
    let mut trace = RunTrace::new(n);

    // Which shard owns each process — senders index this to route packets.
    let mut shard_of = vec![0usize; n];
    for (s, range) in ranges.iter().enumerate() {
        for p in range.clone() {
            shard_of[p] = s;
        }
    }

    let barrier = ParkingBarrier::new(shards);
    let windowed = WindowedBarrier::new(shards, plan.window);
    let decided: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();

    let mut txs: Vec<Sender<Packet<T::Frame>>> = Vec::with_capacity(shards);
    let mut rxs: Vec<Option<Receiver<Packet<T::Frame>>>> = Vec::with_capacity(shards);
    for _ in 0..shards {
        let (tx, rx) = unbounded();
        txs.push(tx);
        rxs.push(Some(rx));
    }

    // Hand each thread its contiguous slice of algorithm instances.
    let mut algs = algs;
    let mut shard_algs: Vec<Vec<A>> = Vec::with_capacity(shards);
    for range in ranges.iter().rev() {
        shard_algs.push(algs.split_off(range.start));
    }
    shard_algs.reverse();

    let mut outcomes: Vec<Option<ShardOutcome<A>>> = (0..shards).map(|_| None).collect();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(shards);
        for (s, (owned, rx)) in shard_algs.into_iter().zip(rxs.iter_mut()).enumerate() {
            let rx = rx.take().expect("receiver taken twice");
            let range = ranges[s].clone();
            let txs = &txs;
            let shard_of = &shard_of;
            let barrier = &barrier;
            let windowed = &windowed;
            let decided = &decided;
            handles.push(scope.spawn(move || {
                run_shard(
                    schedule, range, owned, rx, txs, shard_of, barrier, windowed, decided, until,
                    transport,
                )
            }));
        }
        for (s, h) in handles.into_iter().enumerate() {
            outcomes[s] = Some(h.join().expect("shard thread panicked"));
        }
    });

    let mut algs_back = Vec::with_capacity(n);
    for (s, outcome) in outcomes.into_iter().enumerate() {
        let o = outcome.expect("missing shard outcome");
        for (i, first) in o.first_decisions.iter().enumerate() {
            if let Some((round, value)) = first {
                trace.record_decision(ProcessId::from_usize(ranges[s].start + i), *round, *value);
            }
        }
        trace.msg_stats += &o.stats;
        trace.faults.merge(o.faults);
        trace.anomalies.extend(o.anomalies);
        trace.rounds_executed = trace.rounds_executed.max(o.rounds_executed);
        algs_back.extend(o.algs);
    }
    trace.faults.finalize();
    (trace, algs_back)
}

/// The per-thread round loop over one contiguous shard of processes.
#[allow(clippy::too_many_arguments)]
fn run_shard<S, A, T>(
    schedule: &S,
    range: std::ops::Range<usize>,
    mut algs: Vec<A>,
    rx: Receiver<Packet<T::Frame>>,
    txs: &[Sender<Packet<T::Frame>>],
    shard_of: &[usize],
    barrier: &ParkingBarrier,
    windowed: &WindowedBarrier,
    decided: &[AtomicBool],
    until: RunUntil,
    transport: &T,
) -> ShardOutcome<A>
where
    S: Schedule + Sync + ?Sized,
    A: RoundAlgorithm,
    A::Msg: WireSized,
    T: Transport<A::Msg>,
{
    let n = schedule.n();
    let me = shard_of[range.start];
    let k = range.len();
    let static_horizon = until.static_horizon();
    let mut stats = MsgStats::default();
    let mut faults = FaultStats::new();
    let mut first_decisions: Vec<Option<(Round, Value)>> = vec![None; k];
    let mut anomalies = Vec::new();
    // Early arrivals from a future round (a sender shard raced ahead), and —
    // for deferring transports — this shard's own intra-shard frames, parked
    // here at broadcast time instead of being handed off directly. Frames
    // stay packed until their round is processed, so a speculative broadcast
    // that gets rolled back never records faults.
    let mut stash: VecDeque<Packet<T::Frame>> = VecDeque::new();
    // Round-loop buffers, reused across rounds: the communication graph and
    // one delivery vector per resident process. With a non-deferring
    // transport, intra-shard messages are written into `rcvs` directly at
    // broadcast time; only packets from other shards flow through `rx`.
    let mut g = Digraph::empty(n);
    let mut rcvs: Vec<Received<A::Msg>> = (0..k).map(|_| Received::new(n)).collect();
    // One decode per (round, sender) shared by every resident receiver.
    let mut cache: DecodeCache<A::Msg> = DecodeCache::new();
    let mut r: Round = FIRST_ROUND;

    // 1. Send along the out-edges of G^r (round 1 here; later rounds
    //    broadcast at the close of the previous round, see step 4).
    broadcast(
        schedule, &range, &algs, r, &mut g, &mut rcvs, &mut stash, txs, shard_of, &mut stats,
        transport,
    );

    loop {
        // 2. Receive one frame per in-edge of G^r. With a non-deferring
        // transport, intra-shard messages are already in `rcvs`; count what
        // must still arrive (via the stash or the channel) and drain until
        // every resident process is complete. A frame the plane destroys
        // still *arrives* — it is unpacked to a fault record instead of a
        // delivery — so the count is exact either way.
        let mut remaining = 0usize;
        for p in range.clone() {
            for q in g.in_neighbors(ProcessId::from_usize(p)).iter() {
                remaining += usize::from(T::DEFERS_LOCAL || shard_of[q.index()] != me);
            }
        }
        // First consume stashed packets that belong to this round.
        let stashed = std::mem::take(&mut stash);
        for (pr, q, to, f) in stashed {
            if pr == r {
                match transport.unpack(r, q, to, f, &mut cache) {
                    Delivery::Deliver(m) => rcvs[to.index() - range.start].insert(q, m),
                    Delivery::Dropped => faults.record(r, q, to, FaultCause::Dropped),
                    Delivery::Quarantined(e) => {
                        faults.record(r, q, to, FaultCause::Quarantined(e));
                    }
                }
                remaining -= 1;
            } else {
                stash.push_back((pr, q, to, f));
            }
        }
        while remaining > 0 {
            let (pr, q, to, f) = rx.recv().expect("message channel closed mid-round");
            if pr == r {
                debug_assert!(
                    g.in_neighbors(to).contains(q),
                    "unexpected sender {q} for {to} in round {r}"
                );
                match transport.unpack(r, q, to, f, &mut cache) {
                    Delivery::Deliver(m) => rcvs[to.index() - range.start].insert(q, m),
                    Delivery::Dropped => faults.record(r, q, to, FaultCause::Dropped),
                    Delivery::Quarantined(e) => {
                        faults.record(r, q, to, FaultCause::Quarantined(e));
                    }
                }
                remaining -= 1;
            } else {
                debug_assert!(pr > r, "stale round-{pr} packet in round {r}");
                stash.push_back((pr, q, to, f));
            }
        }

        // 3. Transition every resident process, then publish decision
        // status. Clearing each delivery vector right after its transition
        // drops the round's message handles before the round closes, so
        // double-buffered senders can reclaim their old payload buffer.
        for (i, alg) in algs.iter_mut().enumerate() {
            let p = ProcessId::from_usize(range.start + i);
            alg.receive(r, &rcvs[i]);
            rcvs[i].clear();
            if let Some(v) = alg.decision() {
                match first_decisions[i] {
                    None => {
                        first_decisions[i] = Some((r, v));
                        decided[p.index()].store(true, Ordering::Release);
                    }
                    Some((r0, v0)) if v0 != v => anomalies.push(format!(
                        "process {p} changed its decision from {v0} (round {r0}) to {v} (round {r})"
                    )),
                    Some(_) => {}
                }
            }
        }
        cache.clear();

        // 4. Close the round.
        let stop = match static_horizon {
            // Fixed horizon: every shard stops at the same round without
            // coordination; the windowed barrier only bounds skew (and so
            // channel backlog) to the plan's window length.
            //
            // Partial final window (`horizon % K != 0`): the last full
            // barrier fires at `K·⌊(horizon − 1)/K⌋` and the remaining
            // rounds free-run on every shard. This cannot stall or skew:
            //
            // * `round_end(r)` is reached for exactly `r ∈ [1, horizon)` on
            //   every shard — the same set, since the horizon is global —
            //   so barrier participation stays symmetric through the
            //   partial window (no shard waits on a phase a peer skipped);
            // * a shard at round `r` has already broadcast every round
            //   `≤ r` (round `r + 1` is sent *before* this window check),
            //   so any packet a slower shard can block on in step 2 is in
            //   its channel before the faster shard could possibly park —
            //   and the exiting shard's `Sender`s stay alive in the main
            //   thread's scope, keeping queued packets deliverable after
            //   it returns.
            //
            // `tests/engines_equiv.rs` pins the resulting traces against
            // lockstep for K ∈ {2, 7} with non-divisible horizons.
            Some(horizon) => {
                let stop = r >= horizon;
                if !stop {
                    broadcast(
                        schedule,
                        &range,
                        &algs,
                        r + 1,
                        &mut g,
                        &mut rcvs,
                        &mut stash,
                        txs,
                        shard_of,
                        &mut stats,
                        transport,
                    );
                    windowed.round_end(r);
                }
                stop
            }
            // All-decided: broadcast round r + 1 *speculatively before
            // arriving*, then close the round with a single parking-barrier
            // phase — the last shard evaluates the stop condition for
            // everyone. Because every shard broadcast before arriving, the
            // barrier release finds the entire next round already queued:
            // the receive phase above never blocks, and this barrier is the
            // round's only park.
            None => {
                let spec = broadcast(
                    schedule,
                    &range,
                    &algs,
                    r + 1,
                    &mut g,
                    &mut rcvs,
                    &mut stash,
                    txs,
                    shard_of,
                    &mut stats,
                    transport,
                );
                let stop = barrier.wait_eval(|| {
                    let all = decided.iter().all(|d| d.load(Ordering::Acquire));
                    until.should_stop(r, all)
                });
                if stop {
                    // The speculative round-(r + 1) broadcast never
                    // executes: take it back out of the accounting (its
                    // packets die unread with the channels and the local
                    // delivery buffers).
                    stats -= &spec;
                }
                stop
            }
        };
        if stop {
            return ShardOutcome {
                algs,
                first_decisions,
                stats,
                faults,
                anomalies,
                rounds_executed: r,
            };
        }
        r += 1;
    }
}

/// Runs the sending function of every process in `range` for round `r`,
/// packs each message through the transport and delivers the frames along
/// the out-edges of `G^r` (left in `g`): with a non-deferring transport,
/// intra-shard edges are written straight into the local delivery buffers
/// `rcvs`; with a deferring one ([`Transport::DEFERS_LOCAL`]) they are
/// parked in `stash` so the fault plane gets to touch them at round time
/// like any channel frame. Inter-shard edges become one packet on the
/// owning shard's channel either way. Deliveries count only the frames the
/// fault plane lets through. Returns the broadcast's own stats so a
/// speculative broadcast can be rolled back if the round never executes.
#[allow(clippy::too_many_arguments)]
fn broadcast<S, A, T>(
    schedule: &S,
    range: &std::ops::Range<usize>,
    algs: &[A],
    r: Round,
    g: &mut Digraph,
    rcvs: &mut [Received<A::Msg>],
    stash: &mut VecDeque<Packet<T::Frame>>,
    txs: &[Sender<Packet<T::Frame>>],
    shard_of: &[usize],
    stats: &mut MsgStats,
    transport: &T,
) -> MsgStats
where
    S: Schedule + Sync + ?Sized,
    A: RoundAlgorithm,
    A::Msg: WireSized,
    T: Transport<A::Msg>,
{
    schedule.graph_into(r, g);
    let me = shard_of[range.start];
    let mut totals = MsgStats::default();
    for (i, alg) in algs.iter().enumerate() {
        let p = ProcessId::from_usize(range.start + i);
        let msg = Arc::new(alg.send(r));
        let sz = msg.wire_bytes() as u64;
        let frame = transport.pack(&msg);
        let receivers = g.out_neighbors(p);
        let cnt = transport.delivered_count(r, p, receivers);
        totals.broadcasts += 1;
        totals.broadcast_bytes += sz;
        totals.deliveries += cnt;
        totals.delivered_bytes += sz * cnt;
        for v in receivers.iter() {
            let s = shard_of[v.index()];
            if s == me {
                if T::DEFERS_LOCAL {
                    // Codec mode: even an intra-shard frame goes through the
                    // stash so it is unpacked (and possibly faulted) when
                    // round `r` is actually processed.
                    stash.push_back((r, p, v, frame.clone()));
                } else {
                    // Intra-shard: a direct in-memory hand-off. The buffer
                    // is free to take round-(r) payloads — its round-(r − 1)
                    // contents were consumed and cleared before this
                    // broadcast. Non-deferring transports never fault and
                    // have nothing to decode, so they get an empty memo.
                    match transport.unpack(r, p, v, frame.clone(), &mut DecodeCache::new()) {
                        Delivery::Deliver(m) => rcvs[v.index() - range.start].insert(p, m),
                        _ => unreachable!("non-deferring transport faulted a local hand-off"),
                    }
                }
            } else {
                txs[s]
                    .send((r, p, v, frame.clone()))
                    .expect("recipient shard channel closed");
            }
        }
    }
    *stats += &totals;
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::lockstep::run_lockstep;
    use crate::engine::threaded::run_threaded;
    use crate::schedule::{FixedSchedule, TableSchedule};
    use sskel_graph::Digraph;

    /// Same toy algorithm as the lockstep and threaded tests.
    struct MinFlood {
        x: Value,
        horizon: Round,
        decision: Option<Value>,
    }

    impl RoundAlgorithm for MinFlood {
        type Msg = Value;
        fn send(&self, _r: Round) -> Value {
            self.x
        }
        fn receive(&mut self, r: Round, received: &Received<Value>) {
            for (_, &v) in received.iter() {
                self.x = self.x.min(v);
            }
            if r >= self.horizon {
                self.decision.get_or_insert(self.x);
            }
        }
        fn decision(&self) -> Option<Value> {
            self.decision
        }
    }

    fn spawn(n: usize, horizon: Round) -> Vec<MinFlood> {
        (0..n)
            .map(|i| MinFlood {
                x: (n - i) as Value * 10,
                horizon,
                decision: None,
            })
            .collect()
    }

    #[test]
    fn shard_ranges_are_contiguous_and_balanced() {
        let plan = ShardPlan::new(3);
        assert_eq!(plan.ranges(8), vec![0..3, 3..6, 6..8]);
        assert_eq!(plan.ranges(2), vec![0..1, 1..2]); // clamped to n
        assert_eq!(ShardPlan::new(1).ranges(5), vec![0..5]);
        let plan = ShardPlan::new(4).with_window(3);
        assert_eq!(plan.window, 3);
        assert!(ShardPlan::auto(6).shards >= 1);
    }

    #[test]
    fn sharded_matches_lockstep_on_synchronous_runs() {
        for n in [1usize, 2, 3, 8, 16] {
            for shards in [1usize, 2, 3, 5] {
                let s = FixedSchedule::synchronous(n);
                let until = RunUntil::AllDecided { max_rounds: 20 };
                let (t1, _) = run_lockstep(&s, spawn(n, 3), until);
                let (t2, _) = run_sharded(&s, spawn(n, 3), until, ShardPlan::new(shards));
                assert_eq!(t1.decisions, t2.decisions, "n={n} shards={shards}");
                assert_eq!(t1.rounds_executed, t2.rounds_executed);
                assert_eq!(t1.msg_stats, t2.msg_stats);
                assert!(t2.anomalies.is_empty());
            }
        }
    }

    #[test]
    fn sharded_matches_lockstep_on_dynamic_graphs_under_fixed_horizon() {
        // ring in odd rounds via prefix, complete afterwards; exercise the
        // windowed barrier with a window that does not divide the horizon.
        let n = 6;
        let ring = {
            let mut g = Digraph::empty(n);
            g.add_self_loops();
            for i in 0..n {
                g.add_edge(ProcessId::from_usize(i), ProcessId::from_usize((i + 1) % n));
            }
            g
        };
        let s = TableSchedule::new(
            vec![ring.clone(), Digraph::complete(n), ring],
            Digraph::complete(n),
        );
        let until = RunUntil::Rounds(8);
        let (t1, _) = run_lockstep(&s, spawn(n, 5), until);
        for window in [1u32, 3, 8, 100] {
            let plan = ShardPlan::new(3).with_window(window);
            let (t2, _) = run_sharded(&s, spawn(n, 5), until, plan);
            assert_eq!(t1.decisions, t2.decisions, "window={window}");
            assert_eq!(t1.msg_stats, t2.msg_stats, "window={window}");
            assert_eq!(t1.rounds_executed, t2.rounds_executed);
        }
    }

    #[test]
    fn sharded_matches_threaded_msg_stats() {
        let n = 9;
        let s = FixedSchedule::synchronous(n);
        let until = RunUntil::AllDecided { max_rounds: 12 };
        let (a, _) = run_threaded(&s, spawn(n, 4), until);
        let (b, _) = run_sharded(&s, spawn(n, 4), until, ShardPlan::new(4));
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.msg_stats, b.msg_stats);
    }

    #[test]
    fn stops_when_everyone_decided() {
        let s = FixedSchedule::synchronous(4);
        let (trace, _) = run_sharded(
            &s,
            spawn(4, 2),
            RunUntil::AllDecided { max_rounds: 50 },
            ShardPlan::new(2),
        );
        assert!(trace.all_decided());
        assert_eq!(trace.rounds_executed, 2);
    }

    #[test]
    fn more_shards_than_processes_clamps() {
        let s = FixedSchedule::synchronous(3);
        let (trace, algs) = run_sharded(
            &s,
            spawn(3, 2),
            RunUntil::AllDecided { max_rounds: 10 },
            ShardPlan::new(64),
        );
        assert!(trace.all_decided());
        assert_eq!(algs.len(), 3);
    }

    #[test]
    fn single_process_run() {
        let s = FixedSchedule::synchronous(1);
        let (trace, algs) = run_sharded(
            &s,
            spawn(1, 1),
            RunUntil::AllDecided { max_rounds: 5 },
            ShardPlan::new(1),
        );
        assert!(trace.all_decided());
        assert_eq!(algs.len(), 1);
    }

    #[test]
    fn returned_algorithms_preserve_process_order() {
        let n = 7;
        let s = FixedSchedule::synchronous(n);
        let (_, algs) = run_sharded(&s, spawn(n, 2), RunUntil::Rounds(4), ShardPlan::new(3));
        // MinFlood converges to the global minimum everywhere, so check the
        // order via the decision slots instead: all were set at round 2.
        assert_eq!(algs.len(), n);
        for a in &algs {
            assert_eq!(a.decision(), Some(10)); // min input = 10
        }
    }
}
