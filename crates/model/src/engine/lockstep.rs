//! Deterministic single-threaded round engine.

use std::sync::Arc;

use sskel_graph::{Digraph, ProcessId, Round, FIRST_ROUND};

use crate::algorithm::{Received, RoundAlgorithm};
use crate::engine::RunUntil;
use crate::fault::{
    ArcTransport, CodecTransport, DecodeCache, Delivery, FaultCause, FaultPlane, Transport,
};
use crate::schedule::Schedule;
use crate::trace::RunTrace;
use crate::wire::{Wire, WireSized};

/// Runs `algs` (one instance per process, index = process index) against
/// `schedule` until `until` triggers. Returns the trace and the final
/// algorithm states for post-mortem inspection.
///
/// # Panics
/// Panics if `algs.len() != schedule.n()`.
pub fn run_lockstep<S, A>(schedule: &S, algs: Vec<A>, until: RunUntil) -> (RunTrace, Vec<A>)
where
    S: Schedule + ?Sized,
    A: RoundAlgorithm,
    A::Msg: WireSized,
{
    run_lockstep_observed(schedule, algs, until, |_, _: &[A]| {})
}

/// [`run_lockstep`] in codec-boundary mode: every payload travels as an
/// encoded, checksummed frame through `plane` and is decoded back at the
/// receiver (see [`crate::fault`]). Frames the plane destroys are recorded
/// in the trace's [`crate::fault::FaultStats`] and treated as drops; with
/// [`crate::fault::NoFaults`] the result is trace- and stats-identical to
/// [`run_lockstep`].
///
/// # Panics
/// Panics if `algs.len() != schedule.n()`.
pub fn run_lockstep_codec<S, A, P>(
    schedule: &S,
    algs: Vec<A>,
    until: RunUntil,
    plane: &P,
) -> (RunTrace, Vec<A>)
where
    S: Schedule + ?Sized,
    A: RoundAlgorithm,
    A::Msg: Wire,
    P: FaultPlane,
{
    run_transport(
        schedule,
        algs,
        until,
        &CodecTransport::new(plane),
        |_, _: &[A]| {},
    )
}

/// Like [`run_lockstep`], but invokes `observer(r, &algs)` at the end of
/// every round `r` (after all transition functions ran). Used to capture
/// per-round internal state — e.g. `p6`'s approximation graph in Figure 1 —
/// and to check the paper's lemma invariants round by round.
pub fn run_lockstep_observed<S, A, O>(
    schedule: &S,
    algs: Vec<A>,
    until: RunUntil,
    observer: O,
) -> (RunTrace, Vec<A>)
where
    S: Schedule + ?Sized,
    A: RoundAlgorithm,
    A::Msg: WireSized,
    O: FnMut(Round, &[A]),
{
    run_transport(schedule, algs, until, &ArcTransport, observer)
}

/// The engine body, generic over the payload path: [`ArcTransport`] is the
/// classic shared-reference hand-off, [`CodecTransport`] the framed byte
/// path with fault injection. The structure (and, under a no-op plane, the
/// accounting) is identical either way; faults only surface as
/// [`Delivery::Dropped`]/[`Delivery::Quarantined`] arms at delivery time.
fn run_transport<S, A, T, O>(
    schedule: &S,
    mut algs: Vec<A>,
    until: RunUntil,
    transport: &T,
    mut observer: O,
) -> (RunTrace, Vec<A>)
where
    S: Schedule + ?Sized,
    A: RoundAlgorithm,
    A::Msg: WireSized,
    T: Transport<A::Msg>,
    O: FnMut(Round, &[A]),
{
    let n = schedule.n();
    assert_eq!(
        algs.len(),
        n,
        "need exactly one algorithm instance per process"
    );
    let mut trace = RunTrace::new(n);

    // Round-loop buffers, reused across rounds: the communication graph,
    // the broadcast vector, its packed frames, one delivery vector, the
    // per-sender receiver counts (popcounted once per round, not once per
    // message), and the decode memo (one decode per sender per round).
    let mut g = Digraph::empty(n);
    let mut msgs: Vec<Arc<A::Msg>> = Vec::with_capacity(n);
    let mut frames: Vec<T::Frame> = Vec::with_capacity(n);
    let mut rcv: Received<A::Msg> = Received::new(n);
    let mut receivers: Vec<u64> = vec![0; n];
    let mut cache: DecodeCache<A::Msg> = DecodeCache::new();

    let mut r: Round = FIRST_ROUND;
    loop {
        schedule.graph_into(r, &mut g);
        debug_assert_eq!(g.n(), n, "schedule emitted graph over wrong universe");

        // Sending functions S_p^r (state at beginning of round r). Clearing
        // first drops the previous round's message handles, so estimators
        // double-buffering their payload can reclaim the old buffer.
        msgs.clear();
        msgs.extend(algs.iter().map(|a| Arc::new(a.send(r))));
        frames.clear();
        frames.extend(msgs.iter().map(|m| transport.pack(m)));

        // Accounting — one walk per sender per round. Deliveries count the
        // frames the fault plane will let through (the plane is a pure
        // function both sides evaluate identically), so the stats describe
        // traffic that actually reached a receiver.
        for (p, deg) in receivers.iter_mut().enumerate() {
            let me = ProcessId::from_usize(p);
            *deg = transport.delivered_count(r, me, g.out_neighbors(me));
        }
        for (m, &recv_count) in msgs.iter().zip(&receivers) {
            let sz = m.wire_bytes() as u64;
            trace.msg_stats.broadcasts += 1;
            trace.msg_stats.broadcast_bytes += sz;
            trace.msg_stats.deliveries += recv_count;
            trace.msg_stats.delivered_bytes += sz * recv_count;
        }

        // Deliveries along G^r, then transition functions T_p^r.
        for (p, alg) in algs.iter_mut().enumerate() {
            let me = ProcessId::from_usize(p);
            rcv.clear();
            for q in g.in_neighbors(me).iter() {
                match transport.unpack(r, q, me, frames[q.index()].clone(), &mut cache) {
                    Delivery::Deliver(m) => rcv.insert(q, m),
                    Delivery::Dropped => trace.faults.record(r, q, me, FaultCause::Dropped),
                    Delivery::Quarantined(e) => {
                        trace.faults.record(r, q, me, FaultCause::Quarantined(e));
                    }
                }
            }
            alg.receive(r, &rcv);
        }
        // Drop this round's handles so `send` state can be reclaimed at the
        // start of the next round.
        rcv.clear();
        cache.clear();

        // Poll decisions.
        for (p, alg) in algs.iter().enumerate() {
            if let Some(v) = alg.decision() {
                trace.record_decision(ProcessId::from_usize(p), r, v);
            }
        }

        trace.rounds_executed = r;
        observer(r, &algs);

        if until.should_stop(r, trace.all_decided()) {
            break;
        }
        r += 1;
    }

    trace.faults.finalize();
    (trace, algs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Value;
    use crate::schedule::{FixedSchedule, TableSchedule};
    use sskel_graph::Digraph;

    /// Floods the minimum seen value; decides after `horizon` rounds.
    struct MinFlood {
        x: Value,
        horizon: Round,
        decision: Option<Value>,
    }

    impl MinFlood {
        fn spawn(n: usize, horizon: Round, inputs: &[Value]) -> Vec<Self> {
            inputs
                .iter()
                .take(n)
                .map(|&x| MinFlood {
                    x,
                    horizon,
                    decision: None,
                })
                .collect()
        }
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

    #[test]
    fn synchronous_min_flood_reaches_consensus() {
        let s = FixedSchedule::synchronous(5);
        let algs = MinFlood::spawn(5, 2, &[50, 40, 30, 20, 10]);
        let (trace, _) = run_lockstep(&s, algs, RunUntil::AllDecided { max_rounds: 10 });
        assert!(trace.all_decided());
        assert_eq!(trace.distinct_decision_values(), vec![10]);
        assert_eq!(trace.rounds_executed, 2);
        assert!(trace.anomalies.is_empty());
    }

    #[test]
    fn partitioned_run_keeps_values_apart() {
        // two cliques {0,1} and {2,3}, never talking
        let mut g = Digraph::empty(4);
        g.add_self_loops();
        g.add_edge(ProcessId::new(0), ProcessId::new(1));
        g.add_edge(ProcessId::new(1), ProcessId::new(0));
        g.add_edge(ProcessId::new(2), ProcessId::new(3));
        g.add_edge(ProcessId::new(3), ProcessId::new(2));
        let s = FixedSchedule::new(g);
        let algs = MinFlood::spawn(4, 3, &[4, 3, 2, 1]);
        let (trace, _) = run_lockstep(&s, algs, RunUntil::AllDecided { max_rounds: 10 });
        assert_eq!(trace.distinct_decision_values(), vec![1, 3]);
    }

    #[test]
    fn message_stats_count_edges() {
        let s = FixedSchedule::synchronous(3);
        let algs = MinFlood::spawn(3, 1, &[1, 2, 3]);
        let (trace, _) = run_lockstep(&s, algs, RunUntil::Rounds(2));
        // 3 broadcasts per round × 2 rounds
        assert_eq!(trace.msg_stats.broadcasts, 6);
        // complete graph: every broadcast reaches n = 3 receivers
        assert_eq!(trace.msg_stats.deliveries, 18);
        // u64 messages: 1 byte per varint here
        assert_eq!(trace.msg_stats.broadcast_bytes, 6);
        assert_eq!(trace.msg_stats.delivered_bytes, 18);
    }

    #[test]
    fn observer_sees_every_round() {
        let s = FixedSchedule::synchronous(2);
        let algs = MinFlood::spawn(2, 100, &[1, 2]);
        let mut seen = Vec::new();
        let (_, _) = run_lockstep_observed(&s, algs, RunUntil::Rounds(5), |r, states| {
            seen.push((r, states.len()));
        });
        assert_eq!(seen, vec![(1, 2), (2, 2), (3, 2), (4, 2), (5, 2)]);
    }

    #[test]
    fn run_until_rounds_is_exact() {
        let s = FixedSchedule::synchronous(2);
        let algs = MinFlood::spawn(2, 1, &[1, 2]);
        let (trace, _) = run_lockstep(&s, algs, RunUntil::Rounds(7));
        assert_eq!(trace.rounds_executed, 7);
        // decision round is when it was first observed, not when run ended
        assert_eq!(trace.decision_of(ProcessId::new(0)).unwrap().round, 1);
    }

    #[test]
    fn table_schedule_drives_dynamic_graphs() {
        // round 1: p2 isolated from p1; round 2+: complete
        let mut g1 = Digraph::complete(2);
        g1.remove_edge(ProcessId::new(1), ProcessId::new(0));
        let s = TableSchedule::new(vec![g1], Digraph::complete(2));
        let algs = MinFlood::spawn(2, 1, &[5, 1]);
        let (trace, _) = run_lockstep(&s, algs, RunUntil::Rounds(3));
        // p1 decided at round 1 without hearing p2's smaller value
        assert_eq!(trace.decision_of(ProcessId::new(0)).unwrap().value, 5);
        assert_eq!(trace.decision_of(ProcessId::new(1)).unwrap().value, 1);
    }
}
