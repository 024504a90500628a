//! Crash/restart recovery drill: kill a process mid-run, resume it from
//! its last snapshot, and end up byte-identical to never having crashed.
//!
//! [`run_lockstep_recovering`] executes a codec-boundary lockstep run over
//! a [`CrashRestartOverlay`], but instead of merely *simulating* each down
//! window at the schedule level it performs the full recovery protocol:
//!
//! * every process with a down window keeps a **durable store** — the
//!   wire-codec snapshot ([`crate::algorithm::Recoverable`]) taken at its
//!   most recent canonical cut point, plus a log of the frames delivered
//!   to it since;
//! * at the window's `kill` round the process's in-memory state is
//!   **destroyed** — from that round on it neither sends nor receives
//!   (matching the overlay's round graphs, which erase its external edges
//!   in both directions);
//! * at `restart` (or at run end, for windows still open at the horizon)
//!   the process is rebuilt from the snapshot and **replayed** forward:
//!   logged rounds re-feed the surviving frames (without re-recording
//!   stats or faults — those were recorded when the rounds originally
//!   ran), and down rounds re-execute the hear-only-yourself round the
//!   process would have run in isolation, adding exactly the accounting
//!   the main loop skipped.
//!
//! The resulting trace — decisions, rounds, message stats, fault ledger —
//! is **byte-identical** to [`super::run_lockstep_codec`] over the same
//! overlay and fault plane with no kill at all (pinned by the tests below
//! and by `tests/fault_plane.rs` for Algorithm 1): recovery is
//! indistinguishable from never having crashed.

use std::sync::Arc;

use bytes::Bytes;
use sskel_graph::{Digraph, ProcessId, Round, FIRST_ROUND};

use crate::adversary::CrashRestartOverlay;
use crate::algorithm::{Received, Recoverable};
use crate::engine::RunUntil;
use crate::fault::{CodecTransport, DecodeCache, Delivery, FaultCause, FaultPlane, Transport};
use crate::journal::{
    scan, JournalHeader, JournalWriter, ResumeError, RoundRecord, RunMeta, SnapshotRecord,
    ENGINE_LOCKSTEP_JOURNALED, JOURNAL_VERSION,
};
use crate::schedule::Schedule;
use crate::trace::RunTrace;
use crate::wire::{Wire, WireError, WireSized};

/// One process's durable store: the last snapshot and everything needed
/// to catch back up from it.
struct Store {
    kill: Round,
    restart: Round,
    /// Round of the last snapshot (`0` = the initial state).
    cut: Round,
    snapshot: Bytes,
    /// `log[i]` = the frames delivered in round `cut + 1 + i`, while the
    /// process was still up: `(sender, sealed frame)` for every frame
    /// that unpacked to a delivery (faulted frames are not replayed —
    /// their fault records were written when the round ran).
    log: Vec<Vec<(ProcessId, Bytes)>>,
}

/// Runs `algs` against `overlay` in codec-boundary mode, executing each
/// down window as a real kill + snapshot-restore + replay (see the module
/// docs). The trace is byte-identical to
/// [`super::run_lockstep_codec`]`(&overlay, …, plane)`.
///
/// # Panics
/// Panics if `algs.len() != overlay.n()`, or if `until` has no static
/// horizon ([`RunUntil::Rounds`] is required: a down process cannot take
/// part in a global all-decided stop condition).
pub fn run_lockstep_recovering<S, A, P>(
    overlay: &CrashRestartOverlay<S>,
    mut algs: Vec<A>,
    until: RunUntil,
    plane: &P,
) -> (RunTrace, Vec<A>)
where
    S: Schedule,
    A: Recoverable,
    A::Msg: Wire,
    P: FaultPlane,
{
    let n = overlay.n();
    assert_eq!(
        algs.len(),
        n,
        "need exactly one algorithm instance per process"
    );
    let horizon = until
        .static_horizon()
        .expect("crash/restart recovery needs a fixed horizon (RunUntil::Rounds)");
    let transport = CodecTransport::new(plane);
    let mut trace = RunTrace::new(n);

    // One durable store per process with a down window; everyone else
    // needs no recovery machinery.
    let mut stores: Vec<Option<Store>> = (0..n).map(|_| None).collect();
    for &(p, kill, restart) in overlay.windows() {
        stores[p.index()] = Some(Store {
            kill,
            restart,
            cut: 0,
            snapshot: algs[p.index()].snapshot(),
            log: Vec::new(),
        });
    }

    let mut live: Vec<Option<A>> = algs.drain(..).map(Some).collect();
    let mut g = Digraph::empty(n);
    let mut frames: Vec<Option<Bytes>> = vec![None; n];
    let mut rcv: Received<A::Msg> = Received::new(n);
    let mut cache: DecodeCache<A::Msg> = DecodeCache::new();

    for r in FIRST_ROUND..=horizon {
        // Kill and restart events fire at the top of the round: a killed
        // process misses this round's broadcast, a restarted one rejoins
        // it (the overlay's graphs cut over at exactly these rounds).
        for (p, store) in stores.iter().enumerate() {
            let Some(store) = store else { continue };
            if r == store.kill {
                live[p] = None; // the in-memory state dies with the process
            }
            if r == store.restart {
                live[p] = Some(recover(
                    ProcessId::from_usize(p),
                    store,
                    r,
                    &transport,
                    &mut trace,
                    &mut rcv,
                ));
            }
        }

        overlay.graph_into(r, &mut g);

        // Send phase (live processes only; a down process has no edges in
        // the round graph beyond its self-loop, and its isolated rounds
        // are re-executed — and accounted — at replay time).
        for (p, alg) in live.iter().enumerate() {
            let pid = ProcessId::from_usize(p);
            let Some(alg) = alg else {
                frames[p] = None;
                continue;
            };
            let msg = Arc::new(alg.send(r));
            let sz = msg.wire_bytes() as u64;
            let cnt = <CodecTransport<&P> as Transport<A::Msg>>::delivered_count(
                &transport,
                r,
                pid,
                g.out_neighbors(pid),
            );
            trace.msg_stats.broadcasts += 1;
            trace.msg_stats.broadcast_bytes += sz;
            trace.msg_stats.deliveries += cnt;
            trace.msg_stats.delivered_bytes += sz * cnt;
            frames[p] = Some(transport.pack(&msg));
        }

        // Deliver + transition phase.
        for p in 0..n {
            let pid = ProcessId::from_usize(p);
            let wants_log = stores[p].as_ref().is_some_and(|s| r < s.kill);
            let Some(alg) = live[p].as_mut() else {
                continue;
            };
            rcv.clear();
            let mut logged: Vec<(ProcessId, Bytes)> = Vec::new();
            for q in g.in_neighbors(pid).iter() {
                // Every in-neighbor is live: a down process's out-edges
                // are erased from the overlay's round graph.
                let frame = frames[q.index()]
                    .clone()
                    .expect("a live process has only live in-neighbors");
                match transport.unpack(r, q, pid, frame.clone(), &mut cache) {
                    Delivery::Deliver(m) => {
                        rcv.insert(q, m);
                        if wants_log {
                            logged.push((q, frame));
                        }
                    }
                    Delivery::Dropped => trace.faults.record(r, q, pid, FaultCause::Dropped),
                    Delivery::Quarantined(e) => {
                        trace.faults.record(r, q, pid, FaultCause::Quarantined(e));
                    }
                }
            }
            alg.receive(r, &rcv);
            if let Some(v) = alg.decision() {
                trace.record_decision(pid, r, v);
            }
            // Durable-store maintenance while the kill is still ahead: a
            // due round replaces the snapshot and empties the log, any
            // other round appends its deliveries.
            if wants_log {
                let store = stores[p].as_mut().expect("wants_log implies a store");
                if alg.snapshot_due(r) {
                    store.cut = r;
                    store.snapshot = alg.snapshot();
                    store.log.clear();
                } else {
                    store.log.push(logged);
                }
            }
        }
        rcv.clear();
        cache.clear();
        trace.rounds_executed = r;
    }

    // Windows still open at the horizon: bring the process back up at run
    // end, so its final state (and any decision it reached while
    // isolated) matches the uninterrupted run.
    for (p, store) in stores.iter().enumerate() {
        let Some(store) = store else { continue };
        if live[p].is_none() {
            live[p] = Some(recover(
                ProcessId::from_usize(p),
                store,
                horizon + 1,
                &transport,
                &mut trace,
                &mut rcv,
            ));
        }
    }

    trace.faults.finalize();
    let algs = live
        .into_iter()
        .map(|a| a.expect("every process is live again at run end"))
        .collect();
    (trace, algs)
}

/// Restores `p` from its durable store and replays it forward to the
/// beginning of round `now`: logged rounds re-feed the surviving frames
/// (no stats, no faults — both were recorded live), down rounds
/// re-execute the isolated hear-only-yourself round and add the
/// accounting the main loop skipped.
fn recover<A, T>(
    p: ProcessId,
    store: &Store,
    now: Round,
    transport: &T,
    trace: &mut RunTrace,
    rcv: &mut Received<A::Msg>,
) -> A
where
    A: Recoverable,
    A::Msg: WireSized,
    T: Transport<A::Msg, Frame = Bytes>,
{
    // The snapshot is bytes this process wrote via `Recoverable::snapshot`
    // — not adversarial input — and the round-trip is proptested.
    // lint: allow(panic) — restore failure is a harness bug, not wire data.
    let mut alg = A::restore(&store.snapshot)
        .expect("snapshot written by Recoverable::snapshot must restore");
    let mut cache: DecodeCache<A::Msg> = DecodeCache::new();
    debug_assert_eq!(
        store.log.len() as Round,
        store.kill.min(now) - store.cut - 1,
        "one log entry per live round since the cut"
    );
    for r in store.cut + 1..now {
        rcv.clear();
        if r < store.kill {
            // A round the process executed live before the kill.
            // lint: allow(panic) — index bounded by the debug_assert
            // above: one log entry per live round in `cut+1..kill`.
            let entries = &store.log[(r - store.cut - 1) as usize];
            for (q, frame) in entries {
                match transport.unpack(r, *q, p, frame.clone(), &mut cache) {
                    Delivery::Deliver(m) => rcv.insert(*q, m),
                    // The log holds only frames that unpacked to a
                    // delivery, and the fault plane is pure.
                    // lint: allow(panic) — fault-plane purity invariant;
                    // not reachable from wire input, only a harness bug.
                    _ => unreachable!("logged frame faulted on replay"),
                }
            }
        } else {
            // A round the process was down for. In the overlay's graph
            // its only remaining edge is the mandatory self-loop, so the
            // round it would have run in isolation is: broadcast to
            // yourself, hear yourself, transition. Loopback frames are
            // never tampered (the FaultPlane contract), so the one
            // delivery always survives — account it exactly as the main
            // loop would have.
            let msg = Arc::new(alg.send(r));
            let sz = msg.wire_bytes() as u64;
            trace.msg_stats.broadcasts += 1;
            trace.msg_stats.broadcast_bytes += sz;
            trace.msg_stats.deliveries += 1;
            trace.msg_stats.delivered_bytes += sz;
            match transport.unpack(r, p, p, transport.pack(&msg), &mut cache) {
                Delivery::Deliver(m) => rcv.insert(p, m),
                // lint: allow(panic) — loopback frames are never tampered
                // (FaultPlane contract); violation is a harness bug.
                _ => unreachable!("loopback frame tampered"),
            }
        }
        alg.receive(r, rcv);
        cache.clear();
        // Decisions reached in replayed rounds carry the replayed round
        // number; re-polling a round that already ran live re-records the
        // same value, which the trace treats as a no-op.
        if let Some(v) = alg.decision() {
            trace.record_decision(p, r, v);
        }
    }
    rcv.clear();
    alg
}

/// [`super::run_lockstep_codec`] with a durable on-disk journal: before
/// round 1 the header and an initial snapshot (cut 0) are appended to
/// `sink`, every round appends its `n` sealed broadcast frames, and every
/// round where all algorithms report [`Recoverable::snapshot_due`]
/// appends a fresh snapshot — each record flushed before the run
/// proceeds, so a process killed at any byte leaves a resumable prefix
/// (see [`resume_from_journal`]).
///
/// The trace is byte-identical to [`super::run_lockstep_codec`] over the
/// same schedule, plane and stop condition: journaling is pure
/// observation.
///
/// # Errors
/// Returns the first `sink` write/flush failure.
///
/// # Panics
/// Panics if `algs.len() != schedule.n()`.
pub fn run_lockstep_journaled<S, A, P, W>(
    schedule: &S,
    mut algs: Vec<A>,
    until: RunUntil,
    plane: &P,
    meta: &RunMeta,
    sink: W,
) -> std::io::Result<(RunTrace, Vec<A>)>
where
    S: Schedule + ?Sized,
    A: Recoverable,
    A::Msg: Wire,
    P: FaultPlane,
    W: std::io::Write,
{
    let n = schedule.n();
    assert_eq!(
        algs.len(),
        n,
        "need exactly one algorithm instance per process"
    );
    let header = JournalHeader {
        version: JOURNAL_VERSION,
        n,
        seed: meta.seed,
        engine: ENGINE_LOCKSTEP_JOURNALED,
        rebase_limit: meta.rebase_limit,
    };
    let mut writer = JournalWriter::create(sink, &header)?;
    let mut trace = RunTrace::new(n);
    writer.append_snapshot(&SnapshotRecord {
        round: 0,
        decisions: trace.decisions.clone(),
        anomalies: trace.anomalies.clone(),
        snaps: algs.iter().map(Recoverable::snapshot).collect(),
    })?;
    let transport = CodecTransport::new(plane);
    run_journaled_rounds(
        schedule,
        &mut algs,
        until,
        &transport,
        &mut writer,
        &mut trace,
        FIRST_ROUND,
    )?;
    trace.faults.finalize();
    Ok((trace, algs))
}

/// The live round loop shared by [`run_lockstep_journaled`] (from
/// round 1) and [`resume_from_journal`] (from the first unjournaled
/// round).
/// Mirrors the accounting of the plain lockstep engine body exactly, with
/// one addition: right after packing, the round's frames are appended to
/// the journal (a durability point — the round is replayable from then
/// on), and a snapshot record follows any round where every algorithm
/// reports `snapshot_due`.
fn run_journaled_rounds<S, A, T, W>(
    schedule: &S,
    algs: &mut [A],
    until: RunUntil,
    transport: &T,
    writer: &mut JournalWriter<W>,
    trace: &mut RunTrace,
    start: Round,
) -> std::io::Result<()>
where
    S: Schedule + ?Sized,
    A: Recoverable,
    A::Msg: WireSized,
    T: Transport<A::Msg, Frame = Bytes>,
    W: std::io::Write,
{
    let n = algs.len();
    let mut g = Digraph::empty(n);
    let mut msgs: Vec<Arc<A::Msg>> = Vec::with_capacity(n);
    let mut frames: Vec<Bytes> = Vec::with_capacity(n);
    let mut rcv: Received<A::Msg> = Received::new(n);
    let mut receivers: Vec<u64> = vec![0; n];
    let mut cache: DecodeCache<A::Msg> = DecodeCache::new();

    let mut r: Round = start;
    loop {
        schedule.graph_into(r, &mut g);
        debug_assert_eq!(g.n(), n, "schedule emitted graph over wrong universe");

        msgs.clear();
        msgs.extend(algs.iter().map(|a| Arc::new(a.send(r))));
        frames.clear();
        frames.extend(msgs.iter().map(|m| transport.pack(m)));
        writer.append_round(&RoundRecord {
            round: r,
            frames: frames.clone(),
        })?;

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
        rcv.clear();
        cache.clear();

        for (p, alg) in algs.iter().enumerate() {
            if let Some(v) = alg.decision() {
                trace.record_decision(ProcessId::from_usize(p), r, v);
            }
        }

        trace.rounds_executed = r;
        if algs.iter().all(|a| a.snapshot_due(r)) {
            writer.append_snapshot(&SnapshotRecord {
                round: r,
                decisions: trace.decisions.clone(),
                anomalies: trace.anomalies.clone(),
                snaps: algs.iter().map(Recoverable::snapshot).collect(),
            })?;
        }

        if until.should_stop(r, trace.all_decided()) {
            return Ok(());
        }
        r += 1;
    }
}

/// Restarts a [`run_lockstep_journaled`] run from the bytes its killed
/// predecessor left behind: restores every process from the last durable
/// snapshot, **replays** the journaled rounds — recomputing message
/// statistics and the fault ledger by re-running the delivery loop
/// through `plane` (the plane is pure, so the outcomes are the original
/// run's) — and continues live from the first unjournaled round,
/// appending continuation records to `sink` (which must be positioned at
/// the end of the journal's durable prefix). The resulting trace and
/// final states are byte-identical to the uninterrupted run.
///
/// # Errors
/// [`ResumeError::Wire`] on undecodable or inconsistent journal bytes —
/// including a schedule whose universe does not match the header, a
/// journal written by a different engine, or one killed before its first
/// snapshot became durable. [`ResumeError::Io`] if appending
/// continuation records to `sink` fails. Never panics on any journal
/// bytes: this function is a `sskel-lint` never-panic zone.
pub fn resume_from_journal<S, A, P, W>(
    schedule: &S,
    bytes: &[u8],
    until: RunUntil,
    plane: &P,
    sink: W,
) -> Result<(RunTrace, Vec<A>), ResumeError>
where
    S: Schedule + ?Sized,
    A: Recoverable,
    A::Msg: Wire,
    P: FaultPlane,
    W: std::io::Write,
{
    let scanned = scan(bytes)?;
    if scanned.header.engine != ENGINE_LOCKSTEP_JOURNALED {
        return Err(WireError::InvalidValue("journal written by a different engine").into());
    }
    let n = schedule.n();
    if scanned.header.n != n {
        return Err(WireError::InvalidValue("journal universe does not match schedule").into());
    }
    let last = scanned
        .snapshots
        .last()
        .ok_or(WireError::InvalidValue("journal holds no durable snapshot"))?;
    let cut = last.round;
    let mut algs: Vec<A> = last
        .snaps
        .iter()
        .map(|s| A::restore(s.as_slice()))
        .collect::<Result<_, WireError>>()?;
    let mut trace = RunTrace::new(n);
    trace.decisions.clear();
    trace.decisions.extend(last.decisions.iter().copied());
    trace.anomalies.extend(last.anomalies.iter().cloned());

    // Replay every journaled round through the fault plane. Rounds at or
    // before the cut only rebuild the accounting (the snapshot already
    // holds the algorithms' state); rounds after it also re-feed the
    // algorithms and re-poll decisions.
    let transport = CodecTransport::new(plane);
    let mut g = Digraph::empty(n);
    let mut rcv: Received<A::Msg> = Received::new(n);
    let mut cache: DecodeCache<A::Msg> = DecodeCache::new();
    let mut stopped = false;
    for rec in &scanned.rounds {
        let r = rec.round;
        schedule.graph_into(r, &mut g);
        for (p, frame) in rec.frames.iter().enumerate() {
            // Senders must re-decode their own frame for the byte
            // accounting; this also rejects adversarial journals whose
            // frames don't hold a valid message, whether or not any
            // receiver takes them. The decode fills the sender's memo
            // slot, so its untampered receivers below share it.
            let m: A::Msg = crate::fault::open(frame.as_slice())?;
            let me = ProcessId::from_usize(p);
            let sz = m.wire_bytes() as u64;
            let cnt = <CodecTransport<&P> as Transport<A::Msg>>::delivered_count(
                &transport,
                r,
                me,
                g.out_neighbors(me),
            );
            trace.msg_stats.broadcasts += 1;
            trace.msg_stats.broadcast_bytes += sz;
            trace.msg_stats.deliveries += cnt;
            trace.msg_stats.delivered_bytes += sz * cnt;
            cache.insert(r, me, frame.clone(), Arc::new(m));
        }
        for (p, alg) in algs.iter_mut().enumerate() {
            let me = ProcessId::from_usize(p);
            rcv.clear();
            for q in g.in_neighbors(me).iter() {
                let frame = rec
                    .frames
                    .get(q.index())
                    .ok_or(WireError::InvalidValue("round record universe mismatch"))?;
                match transport.unpack(r, q, me, frame.clone(), &mut cache) {
                    Delivery::Deliver(m) => {
                        if r > cut {
                            rcv.insert(q, m);
                        }
                    }
                    Delivery::Dropped => trace.faults.record(r, q, me, FaultCause::Dropped),
                    Delivery::Quarantined(e) => {
                        trace.faults.record(r, q, me, FaultCause::Quarantined(e));
                    }
                }
            }
            if r > cut {
                alg.receive(r, &rcv);
            }
        }
        rcv.clear();
        cache.clear();
        if r > cut {
            for (p, alg) in algs.iter().enumerate() {
                if let Some(v) = alg.decision() {
                    trace.record_decision(ProcessId::from_usize(p), r, v);
                }
            }
        }
        trace.rounds_executed = r;
        // Sound for replay: had the original run stopped at a round ≤ cut,
        // the journal would end there — so replaying its verdict can only
        // reproduce the original stop, never invent an earlier one.
        if until.should_stop(r, trace.all_decided()) {
            stopped = true;
            break;
        }
    }

    if !stopped {
        let next = scanned
            .rounds
            .last()
            .map_or(FIRST_ROUND, |rec| rec.round + 1);
        let mut writer = JournalWriter::resume(sink);
        run_journaled_rounds(
            schedule,
            &mut algs,
            until,
            &transport,
            &mut writer,
            &mut trace,
            next,
        )?;
    }
    trace.faults.finalize();
    Ok((trace, algs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{RoundAlgorithm, Value};
    use crate::engine::lockstep::run_lockstep_codec;
    use crate::fault::{CorruptionOverlay, NoFaults};
    use crate::schedule::FixedSchedule;
    use crate::wire::WireError;
    use bytes::{Buf, BufMut, BytesMut};

    /// MinFlood with a snapshot format, for exercising the drill without
    /// Algorithm 1: floods the minimum seen value, decides at `horizon`,
    /// snapshots every third round.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct RecMinFlood {
        x: Value,
        horizon: Round,
        decision: Option<Value>,
    }

    impl RoundAlgorithm for RecMinFlood {
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

    impl Recoverable for RecMinFlood {
        fn snapshot(&self) -> Bytes {
            let mut buf = BytesMut::new();
            crate::wire::write_uvarint(&mut buf, self.x);
            crate::wire::write_uvarint(&mut buf, u64::from(self.horizon));
            match self.decision {
                None => buf.put_u8(0),
                Some(v) => {
                    buf.put_u8(1);
                    crate::wire::write_uvarint(&mut buf, v);
                }
            }
            buf.freeze()
        }

        fn restore(bytes: &[u8]) -> Result<Self, WireError> {
            let mut rd = bytes;
            let x = crate::wire::read_uvarint(&mut rd)?;
            let horizon = crate::wire::read_uvarint(&mut rd)? as Round;
            if !rd.has_remaining() {
                return Err(WireError::UnexpectedEnd);
            }
            let decision = match rd.get_u8() {
                0 => None,
                1 => Some(crate::wire::read_uvarint(&mut rd)?),
                _ => return Err(WireError::InvalidValue("unknown decision flag")),
            };
            if rd.has_remaining() {
                return Err(WireError::InvalidValue("trailing bytes in snapshot"));
            }
            Ok(RecMinFlood {
                x,
                horizon,
                decision,
            })
        }

        fn snapshot_due(&self, r: Round) -> bool {
            r.is_multiple_of(3)
        }
    }

    fn spawn(n: usize, horizon: Round) -> Vec<RecMinFlood> {
        (0..n)
            .map(|i| RecMinFlood {
                x: (n - i) as Value * 10,
                horizon,
                decision: None,
            })
            .collect()
    }

    fn assert_traces_identical(a: &RunTrace, b: &RunTrace) {
        if let Some(d) = crate::journal::diff_run_traces(a, b) {
            panic!("traces diverge — {d}");
        }
    }

    #[test]
    fn no_windows_matches_plain_codec_run() {
        let n = 5;
        let overlay = CrashRestartOverlay::new(FixedSchedule::synchronous(n), vec![]);
        let until = RunUntil::Rounds(9);
        let (t1, a1) = run_lockstep_codec(&overlay, spawn(n, 3), until, &NoFaults);
        let (t2, a2) = run_lockstep_recovering(&overlay, spawn(n, 3), until, &NoFaults);
        assert_traces_identical(&t1, &t2);
        assert_eq!(a1, a2);
    }

    #[test]
    fn killed_and_resumed_process_is_indistinguishable() {
        let n = 6;
        for (kill, restart) in [(2u32, 5u32), (1, 4), (4, 4), (3, 20)] {
            let overlay = CrashRestartOverlay::new(
                FixedSchedule::synchronous(n),
                vec![(ProcessId::new(2), kill, restart)],
            );
            let until = RunUntil::Rounds(12);
            let (t1, a1) = run_lockstep_codec(&overlay, spawn(n, 3), until, &NoFaults);
            let (t2, a2) = run_lockstep_recovering(&overlay, spawn(n, 3), until, &NoFaults);
            assert_traces_identical(&t1, &t2);
            assert_eq!(a1, a2, "kill={kill} restart={restart}");
        }
    }

    #[test]
    fn recovery_composes_with_a_corruption_plane() {
        let n = 7;
        let plane = CorruptionOverlay::new(41, 0.3).quiet_after(8);
        let overlay = CrashRestartOverlay::seeded(FixedSchedule::synchronous(n), 2, 99);
        let until = RunUntil::Rounds(16);
        let (t1, a1) = run_lockstep_codec(&overlay, spawn(n, 3), until, &plane);
        let (t2, a2) = run_lockstep_recovering(&overlay, spawn(n, 3), until, &plane);
        assert_traces_identical(&t1, &t2);
        assert_eq!(a1, a2);
        assert!(!t2.faults.is_empty(), "rate 0.3 never fired");
    }

    fn meta() -> RunMeta {
        RunMeta {
            seed: 0xabcd,
            rebase_limit: 3,
        }
    }

    #[test]
    fn journaled_run_is_pure_observation() {
        let n = 5;
        let s = FixedSchedule::synchronous(n);
        for until in [RunUntil::Rounds(9), RunUntil::AllDecided { max_rounds: 9 }] {
            let (t1, a1) = run_lockstep_codec(&s, spawn(n, 3), until, &NoFaults);
            let mut journal = Vec::new();
            let (t2, a2) =
                run_lockstep_journaled(&s, spawn(n, 3), until, &NoFaults, &meta(), &mut journal)
                    .unwrap();
            assert_traces_identical(&t1, &t2);
            assert_eq!(a1, a2);
            let scanned = scan(&journal).unwrap();
            assert!(!scanned.truncated);
            assert_eq!(scanned.header.seed, 0xabcd);
            assert_eq!(scanned.rounds.len() as Round, t1.rounds_executed);
            // RecMinFlood snapshots every third round, plus the initial cut
            assert_eq!(
                scanned
                    .snapshots
                    .iter()
                    .map(|s| s.round)
                    .collect::<Vec<_>>(),
                (0..=t1.rounds_executed).step_by(3).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn resume_after_kill_at_any_record_boundary_is_byte_identical() {
        let n = 5;
        let s = FixedSchedule::synchronous(n);
        let plane = CorruptionOverlay::new(77, 0.25).quiet_after(6);
        let until = RunUntil::Rounds(10);
        let (oracle_t, oracle_a) = run_lockstep_codec(&s, spawn(n, 3), until, &plane);
        let mut journal = Vec::new();
        let _ =
            run_lockstep_journaled(&s, spawn(n, 3), until, &plane, &meta(), &mut journal).unwrap();
        let full = scan(&journal).unwrap();
        let first_snapshot_end = full.record_ends[1]; // header, then cut 0
        for &cut in &full.record_ends {
            let mut store = journal[..cut].to_vec();
            let prefix = store.clone();
            let res =
                resume_from_journal::<_, RecMinFlood, _, _>(&s, &prefix, until, &plane, &mut store);
            if cut < first_snapshot_end {
                assert!(
                    matches!(res, Err(ResumeError::Wire(_))),
                    "no durable snapshot at {cut}"
                );
                continue;
            }
            let (t, a) = res.unwrap();
            assert_traces_identical(&oracle_t, &t);
            assert_eq!(oracle_a, a, "kill at byte {cut}");
            // the continuation journal is itself complete and scans clean
            let rescanned = scan(&store).unwrap();
            assert!(!rescanned.truncated);
            assert_eq!(rescanned.rounds.len() as Round, oracle_t.rounds_executed);
        }
        assert!(!oracle_t.faults.is_empty(), "rate 0.25 never fired");
    }

    #[test]
    fn resume_of_a_complete_journal_adds_no_rounds() {
        let n = 4;
        let s = FixedSchedule::synchronous(n);
        let until = RunUntil::AllDecided { max_rounds: 20 };
        let mut journal = Vec::new();
        let (t1, a1) =
            run_lockstep_journaled(&s, spawn(n, 2), until, &NoFaults, &meta(), &mut journal)
                .unwrap();
        let before = journal.len();
        let prefix = journal.clone();
        let (t2, a2) = resume_from_journal::<_, RecMinFlood, _, _>(
            &s,
            &prefix,
            until,
            &NoFaults,
            &mut journal,
        )
        .unwrap();
        assert_traces_identical(&t1, &t2);
        assert_eq!(a1, a2);
        assert_eq!(journal.len(), before, "pure replay appends nothing");
    }

    #[test]
    fn chained_kills_compose() {
        // kill → resume → kill the resumed run → resume again
        let n = 6;
        let s = FixedSchedule::synchronous(n);
        let plane = CorruptionOverlay::new(5, 0.2).quiet_after(7);
        let until = RunUntil::Rounds(12);
        let (oracle_t, oracle_a) = run_lockstep_codec(&s, spawn(n, 3), until, &plane);
        let mut journal = Vec::new();
        let _ =
            run_lockstep_journaled(&s, spawn(n, 3), until, &plane, &meta(), &mut journal).unwrap();
        let full = scan(&journal).unwrap();
        // first kill: mid-run, torn mid-record — the restarting process
        // truncates its store to the durable prefix before continuing
        let first = full.record_ends[4] + 3;
        let prefix = journal[..first].to_vec();
        let mut store = prefix[..scan(&prefix).unwrap().durable_len].to_vec();
        let _ = resume_from_journal::<_, RecMinFlood, _, _>(&s, &prefix, until, &plane, &mut store)
            .unwrap();
        // second kill: strip the freshly appended tail mid-record again
        let store2_scan = scan(&store).unwrap();
        let second = *store2_scan.record_ends.last().unwrap() - 5;
        let prefix2 = store[..second].to_vec();
        let mut store2 = prefix2[..scan(&prefix2).unwrap().durable_len].to_vec();
        let (t, a) =
            resume_from_journal::<_, RecMinFlood, _, _>(&s, &prefix2, until, &plane, &mut store2)
                .unwrap();
        assert_traces_identical(&oracle_t, &t);
        assert_eq!(oracle_a, a);
    }

    #[test]
    fn resume_rejects_mismatched_configurations() {
        let s = FixedSchedule::synchronous(3);
        let until = RunUntil::Rounds(4);
        let mut journal = Vec::new();
        let _ = run_lockstep_journaled(&s, spawn(3, 2), until, &NoFaults, &meta(), &mut journal)
            .unwrap();
        // universe mismatch vs the resuming schedule
        let wrong = FixedSchedule::synchronous(4);
        let res = resume_from_journal::<_, RecMinFlood, _, _>(
            &wrong,
            &journal,
            until,
            &NoFaults,
            Vec::new(),
        );
        assert!(
            matches!(res, Err(ResumeError::Wire(WireError::InvalidValue(m))) if m.contains("universe")),
            "schedule mismatch must be typed"
        );
    }

    #[test]
    #[should_panic(expected = "fixed horizon")]
    fn all_decided_stop_condition_is_rejected() {
        let overlay = CrashRestartOverlay::new(FixedSchedule::synchronous(2), vec![]);
        let _ = run_lockstep_recovering(
            &overlay,
            spawn(2, 1),
            RunUntil::AllDecided { max_rounds: 5 },
            &NoFaults,
        );
    }
}
