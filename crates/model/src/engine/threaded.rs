//! Threaded round engine: one OS thread per process, real message channels.
//!
//! This engine exercises the same [`RoundAlgorithm`] instances over actual
//! inter-thread message passing (std MPSC channels), implementing
//! communication-closed rounds:
//!
//! 1. every thread runs its sending function and pushes the round message
//!    into the channel of each recipient dictated by `G^r`;
//! 2. every thread drains its channel until it has received one message from
//!    each of its round-`r` in-neighbors (messages are round-tagged; early
//!    arrivals from future rounds are stashed);
//! 3. every thread runs its transition function and publishes its decision
//!    status;
//! 4. the round is closed:
//!    * under a **fixed horizon** ([`RunUntil::Rounds`]) there is no global
//!      stop condition to agree on, so no round-closing synchronization
//!      runs at all — threads free-run on channel flow control alone, and
//!      one wakeup lets a thread simulate as many rounds as its queued
//!      messages allow (communication-closedness is preserved by the round
//!      tags);
//!    * under [`RunUntil::AllDecided`] a single [`ParkingBarrier`] phase
//!      closes the round: the last arriver evaluates the stop condition
//!      and every thread leaves the barrier with the verdict
//!      ([`ParkingBarrier::wait_eval`]). Crucially, every thread
//!      broadcasts its round-`(r+1)` messages **before** arriving at the
//!      barrier, so once the barrier releases, the entire next round is
//!      already queued on every channel: the receive phase drains without
//!      blocking, channel sends never find (and never have to futex-wake)
//!      a parked receiver, and a thread parks **at most once per
//!      simulated round** — at the barrier, whose release is one
//!      broadcast wakeup. The speculative broadcast is rolled back from
//!      the byte accounting when the verdict stops the run. On an
//!      oversubscribed machine, where a spin barrier burns whole
//!      scheduler quanta, this is what closes the gap to the lockstep
//!      engine.
//!
//! The trace produced is **bit-identical** to [`super::lockstep`] for the
//! same schedule and algorithms (asserted by integration tests): the paper's
//! runs are fully determined by initial states plus the graph sequence, and
//! the engine introduces no other nondeterminism.
//!
//! Two consequences of the speculative broadcast are worth knowing:
//!
//! * the engine may query `Schedule::graph_into` and the (pure, `&self`)
//!   sending function for **one round past** the round the run stops at —
//!   within the [`Schedule`] contract, which defines `G^r` for every
//!   `r ≥ 1`;
//! * under a fixed horizon the absence of any barrier lets round skew grow
//!   unboundedly: a process with no in-edges but its self-loop free-runs
//!   to the horizon, queueing up to `horizon` payloads per out-neighbor
//!   channel (and defeating double-buffered senders' `Arc` reuse while it
//!   races ahead). For very long fixed-horizon runs over sparse schedules,
//!   use [`super::run_sharded`], whose windowed barrier bounds the skew —
//!   and with it the backlog — to the configured window length (see
//!   `docs/CONCURRENCY.md`), or fall back to [`RunUntil::AllDecided`]'s
//!   barrier mode.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use std::sync::mpsc::{channel as unbounded, Receiver, Sender};

use sskel_graph::{Digraph, ProcessId, Round, FIRST_ROUND};

use crate::algorithm::{Received, RoundAlgorithm, Value};
use crate::engine::RunUntil;
use crate::fault::{
    ArcTransport, CodecTransport, DecodeCache, Delivery, FaultCause, FaultPlane, FaultStats,
    Transport,
};
use crate::schedule::Schedule;
use crate::sync::ParkingBarrier;
use crate::trace::{MsgStats, RunTrace};
use crate::wire::{Wire, WireSized};

/// One in-flight payload: round tag, sender, and the transport's frame
/// (an `Arc` in shared-reference mode, encoded bytes in codec mode).
type Packet<F> = (Round, ProcessId, F);

struct ThreadOutcome<A> {
    alg: A,
    first_decision: Option<(Round, Value)>,
    stats: MsgStats,
    faults: FaultStats,
    anomalies: Vec<String>,
    rounds_executed: Round,
}

/// Runs `algs` against `schedule` with one thread per process.
///
/// Semantically identical to [`super::run_lockstep`]; see the module docs for
/// the synchronization protocol.
///
/// # Panics
/// Panics if `algs.len() != schedule.n()` or a worker thread panics.
pub fn run_threaded<S, A>(schedule: &S, algs: Vec<A>, until: RunUntil) -> (RunTrace, Vec<A>)
where
    S: Schedule + Sync + ?Sized,
    A: RoundAlgorithm,
    A::Msg: WireSized,
{
    run_transport(schedule, algs, until, &ArcTransport)
}

/// [`run_threaded`] in codec-boundary mode: payloads cross the channels as
/// encoded, checksummed frames and pass through `plane` (see
/// [`crate::fault`]). Destroyed frames are recorded in the trace's
/// [`FaultStats`]; with [`crate::fault::NoFaults`] the result is trace-
/// and stats-identical to [`run_threaded`].
///
/// # Panics
/// Panics if `algs.len() != schedule.n()` or a worker thread panics.
pub fn run_threaded_codec<S, A, P>(
    schedule: &S,
    algs: Vec<A>,
    until: RunUntil,
    plane: &P,
) -> (RunTrace, Vec<A>)
where
    S: Schedule + Sync + ?Sized,
    A: RoundAlgorithm,
    A::Msg: Wire,
    P: FaultPlane,
{
    run_transport(schedule, algs, until, &CodecTransport::new(plane))
}

fn run_transport<S, A, T>(
    schedule: &S,
    algs: Vec<A>,
    until: RunUntil,
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

    let mut trace = RunTrace::new(n);
    let barrier = ParkingBarrier::new(n);
    let decided: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();

    let mut txs: Vec<Sender<Packet<T::Frame>>> = Vec::with_capacity(n);
    let mut rxs: Vec<Option<Receiver<Packet<T::Frame>>>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = unbounded();
        txs.push(tx);
        rxs.push(Some(rx));
    }

    let mut outcomes: Vec<Option<ThreadOutcome<A>>> = (0..n).map(|_| None).collect();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for (p, (alg, rx)) in algs.into_iter().zip(rxs.iter_mut()).enumerate() {
            let me = ProcessId::from_usize(p);
            let rx = rx.take().expect("receiver taken twice");
            let txs = &txs;
            let barrier = &barrier;
            let decided = &decided;
            handles.push(scope.spawn(move || {
                run_process(
                    schedule, me, alg, rx, txs, barrier, decided, until, transport,
                )
            }));
        }
        for (p, h) in handles.into_iter().enumerate() {
            outcomes[p] = Some(h.join().expect("process thread panicked"));
        }
    });

    let mut algs_back = Vec::with_capacity(n);
    for (p, outcome) in outcomes.into_iter().enumerate() {
        let o = outcome.expect("missing thread outcome");
        if let Some((round, value)) = o.first_decision {
            trace.record_decision(ProcessId::from_usize(p), round, value);
        }
        trace.msg_stats += &o.stats;
        trace.faults.merge(o.faults);
        trace.anomalies.extend(o.anomalies);
        trace.rounds_executed = trace.rounds_executed.max(o.rounds_executed);
        algs_back.push(o.alg);
    }
    trace.faults.finalize();
    (trace, algs_back)
}

#[allow(clippy::too_many_arguments)]
fn run_process<S, A, T>(
    schedule: &S,
    me: ProcessId,
    mut alg: A,
    rx: Receiver<Packet<T::Frame>>,
    txs: &[Sender<Packet<T::Frame>>],
    barrier: &ParkingBarrier,
    decided: &[AtomicBool],
    until: RunUntil,
    transport: &T,
) -> ThreadOutcome<A>
where
    S: Schedule + Sync + ?Sized,
    A: RoundAlgorithm,
    A::Msg: WireSized,
    T: Transport<A::Msg>,
{
    let n = schedule.n();
    // With a fixed horizon every thread stops at the same round without
    // coordination, so rounds run barrier-free, batched per wakeup.
    let static_horizon = until.static_horizon();
    let mut stats = MsgStats::default();
    let mut faults = FaultStats::new();
    let mut first_decision: Option<(Round, Value)> = None;
    let mut anomalies = Vec::new();
    // Early arrivals from a future round (sender raced ahead of us).
    // Frames stay packed until their round is processed: a speculative
    // round that is rolled back must not have recorded any faults.
    let mut stash: VecDeque<Packet<T::Frame>> = VecDeque::new();
    // Round-loop buffers, reused across rounds.
    let mut g = Digraph::empty(n);
    let mut rcv: Received<A::Msg> = Received::new(n);
    // The thread's only receiver takes each sender's frame once per round,
    // so the memo never hits here; it is cleared per round all the same.
    let mut cache: DecodeCache<A::Msg> = DecodeCache::new();
    let mut r: Round = FIRST_ROUND;

    // 1. Send along the out-edges of G^r (round 1 here; later rounds
    //    broadcast at the close of the previous round, see step 4).
    broadcast(schedule, me, &alg, r, &mut g, txs, &mut stats, transport);

    loop {
        // 2. Receive one frame per in-edge of G^r. Every frame is
        //    physically shipped regardless of the fault plane (so this
        //    count stays exact); drops and quarantines surface here, at
        //    unpack time.
        let expected = g.in_neighbors(me);
        rcv.clear();
        let mut remaining = expected.len();
        let mut deliver =
            |q: ProcessId, f: T::Frame| match transport.unpack(r, q, me, f, &mut cache) {
                Delivery::Deliver(m) => rcv.insert(q, m),
                Delivery::Dropped => faults.record(r, q, me, FaultCause::Dropped),
                Delivery::Quarantined(e) => faults.record(r, q, me, FaultCause::Quarantined(e)),
            };
        // First consume stashed packets that belong to this round.
        let stashed = std::mem::take(&mut stash);
        for (pr, q, f) in stashed {
            if pr == r {
                debug_assert!(expected.contains(q), "unexpected sender {q} in round {r}");
                deliver(q, f);
                remaining -= 1;
            } else {
                stash.push_back((pr, q, f));
            }
        }
        while remaining > 0 {
            let (pr, q, f) = rx.recv().expect("message channel closed mid-round");
            if pr == r {
                debug_assert!(expected.contains(q), "unexpected sender {q} in round {r}");
                deliver(q, f);
                remaining -= 1;
            } else {
                debug_assert!(pr > r, "stale round-{pr} packet in round {r}");
                stash.push_back((pr, q, f));
            }
        }

        // 3. Transition, then publish decision status. The handles are
        // dropped right after, before the round closes, so by the time any
        // thread enters round r + 1 every round-r message it delivered is
        // gone and double-buffered senders can reclaim their old payload
        // buffer (under the barrier-free fixed-horizon mode a racing
        // neighbor may still hold one — senders then fall back to a fresh
        // buffer, trading an allocation for the barrier).
        alg.receive(r, &rcv);
        rcv.clear();
        cache.clear();
        if let Some(v) = alg.decision() {
            match first_decision {
                None => {
                    first_decision = Some((r, v));
                    decided[me.index()].store(true, Ordering::Release);
                }
                Some((r0, v0)) if v0 != v => anomalies.push(format!(
                    "process {me} changed its decision from {v0} (round {r0}) to {v} (round {r})"
                )),
                Some(_) => {}
            }
        }

        // 4. Close the round.
        let stop = match static_horizon {
            // Fixed horizon: no global stop condition to agree on — no
            // barrier. Channel flow control alone orders the rounds.
            Some(horizon) => {
                let stop = r >= horizon;
                if !stop {
                    broadcast(
                        schedule,
                        me,
                        &alg,
                        r + 1,
                        &mut g,
                        txs,
                        &mut stats,
                        transport,
                    );
                }
                stop
            }
            // All-decided: broadcast round r + 1 *speculatively before
            // arriving*, then close the round with a single parking-barrier
            // phase — the last arriver evaluates the stop condition for
            // everyone. Because every thread broadcast before arriving, the
            // barrier release finds the entire next round already queued:
            // the receive phase above never blocks, and this barrier is the
            // round's only park.
            None => {
                let spec_send = broadcast(
                    schedule,
                    me,
                    &alg,
                    r + 1,
                    &mut g,
                    txs,
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
                    // packets die unread with the channels).
                    stats -= &spec_send;
                }
                stop
            }
        };
        if stop {
            return ThreadOutcome {
                alg,
                first_decision,
                stats,
                faults,
                anomalies,
                rounds_executed: r,
            };
        }
        r += 1;
    }
}

/// Runs the sending function for round `r`, packs the message through the
/// transport and pushes the frame along the out-edges of `G^r` (left in
/// `g`), updating the sender-side byte accounting. Deliveries count only
/// the frames the fault plane lets through; `broadcast_bytes` counts the
/// payload's wire size (the frame envelope is transport overhead, not
/// message content). Returns the broadcast's own stats so a speculative
/// broadcast can be rolled back if the round never executes.
#[allow(clippy::too_many_arguments)]
fn broadcast<S, A, T>(
    schedule: &S,
    me: ProcessId,
    alg: &A,
    r: Round,
    g: &mut Digraph,
    txs: &[Sender<Packet<T::Frame>>],
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
    let msg = Arc::new(alg.send(r));
    let sz = msg.wire_bytes() as u64;
    let frame = transport.pack(&msg);
    let receivers = g.out_neighbors(me);
    let cnt = transport.delivered_count(r, me, receivers);
    let own = MsgStats {
        broadcasts: 1,
        deliveries: cnt,
        broadcast_bytes: sz,
        delivered_bytes: sz * cnt,
    };
    *stats += &own;
    for v in receivers.iter() {
        txs[v.index()]
            .send((r, me, frame.clone()))
            .expect("recipient channel closed");
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::lockstep::run_lockstep;
    use crate::schedule::{FixedSchedule, TableSchedule};
    use sskel_graph::Digraph;

    /// Same toy algorithm as the lockstep tests.
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
    fn threaded_matches_lockstep_on_synchronous_runs() {
        for n in [1usize, 2, 3, 8, 16] {
            let s = FixedSchedule::synchronous(n);
            let until = RunUntil::AllDecided { max_rounds: 20 };
            let (t1, _) = run_lockstep(&s, spawn(n, 3), until);
            let (t2, _) = run_threaded(&s, spawn(n, 3), until);
            assert_eq!(t1.decisions, t2.decisions, "n={n}");
            assert_eq!(t1.rounds_executed, t2.rounds_executed);
            assert_eq!(t1.msg_stats, t2.msg_stats);
            assert!(t2.anomalies.is_empty());
        }
    }

    #[test]
    fn threaded_matches_lockstep_on_dynamic_graphs() {
        // ring in odd rounds via prefix, complete afterwards
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
        let (t2, _) = run_threaded(&s, spawn(n, 5), until);
        assert_eq!(t1.decisions, t2.decisions);
        assert_eq!(t1.msg_stats, t2.msg_stats);
    }

    #[test]
    fn stops_when_everyone_decided() {
        let s = FixedSchedule::synchronous(4);
        let (trace, _) = run_threaded(&s, spawn(4, 2), RunUntil::AllDecided { max_rounds: 50 });
        assert!(trace.all_decided());
        assert_eq!(trace.rounds_executed, 2);
    }

    #[test]
    fn single_process_run() {
        let s = FixedSchedule::synchronous(1);
        let (trace, algs) = run_threaded(&s, spawn(1, 1), RunUntil::AllDecided { max_rounds: 5 });
        assert!(trace.all_decided());
        assert_eq!(algs.len(), 1);
    }
}
