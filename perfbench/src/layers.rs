//! The traced run: a harness-side lockstep loop built only from public
//! calls, timing each layer a round passes through.
//!
//! The loop replays what the lockstep codec engine does — `graph_into`,
//! `send`, `seal`, the fault plane's `tamper`/`apply`, `open`,
//! `Received::insert`, `receive` — with a clock around each call, plus
//! work the engines do not do, timed on the side and excluded from the
//! layer sum: a separate `encode` and `decode` of every broadcast (to
//! split `seal`/`open` into codec and checksum) and a shadow
//! `SkeletonEstimator` per process fed the same deliveries (to split
//! `receive` into its estimator update and decision tests). The shadow
//! must track its process exactly: its graph equals the process's
//! approximation after every round, and its decision test agrees with
//! the process's decision, or the traced op fails.

use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use sskel_graph::{Digraph, ProcessId, ProcessSet, Round, FIRST_ROUND};
use sskel_kset::{DecisionPath, DecisionRule, KSetAgreement, KSetMsg, SkeletonEstimator};
use sskel_model::fault::{open, seal};
use sskel_model::{
    DecisionRecord, FaultPlane, JournalWriter, Received, Recoverable, RoundAlgorithm, RoundRecord,
    RunTrace, RunUntil, Schedule, SnapshotRecord, Tamper, Wire,
};

use crate::stats::{metric as m, ns_since, percentile, ratio, Metric};

/// Per-layer time and work, summed over every traced op of a run.
#[derive(Default)]
pub struct Layers {
    pub rounds: u64,
    pub graph_ns: u64,
    pub msgs: u64,
    pub send_ns: u64,
    pub process_rounds: u64,
    pub receive_ns: u64,
    pub update_ns: u64,
    pub scc_calls: u64,
    pub scc_ns: u64,
    pub fresh_calls: u64,
    pub fresh_ns: u64,
    pub frames: u64,
    pub frame_bytes: u64,
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub seal_ns: u64,
    pub opens: u64,
    pub open_ns: u64,
    pub edges: u64,
    pub tampered: u64,
    pub tamper_ns: u64,
    pub quarantined: u64,
    pub dropped: u64,
    pub journal_append_ns: u64,
    pub batches: u64,
    pub batch_encode_ns: u64,
    pub batch_frames: u64,
    pub batch_read_ns: u64,

    /// Exact message accounting of the engine traces.
    pub broadcasts: u64,
    pub deliveries: u64,
    pub delivered_bytes: u64,
    pub decisions: u64,
    /// Per engine run: rounds executed, last decision round, Lemma-11 slack.
    pub executed: Vec<f64>,
    pub decided_at: Vec<f64>,
    pub slack_min: Option<i64>,

    /// Per traced op, in milliseconds unless noted.
    pub ops: u64,
    pub residual_ms: Vec<f64>,
    pub overhead_ms: Vec<f64>,
    pub tcp_ms: Vec<f64>,
    pub handoff_ms: Vec<f64>,
    pub amortization: Vec<f64>,
    pub journal_bytes: u64,
    pub journal_rounds: u64,
    pub journal_snapshots: u64,
    pub journals: u64,
    pub scan_ms: Vec<f64>,
    pub restore_ms: Vec<f64>,
    pub replay_open_ms: Vec<f64>,
    pub replayed_share: Vec<f64>,
}

impl Layers {
    /// Nanoseconds spent in the layers the engine itself runs (the shadow
    /// estimator and the split-out encode/decode are excluded).
    pub fn engine_path_ns(&self) -> u64 {
        self.graph_ns
            + self.send_ns
            + self.seal_ns
            + self.tamper_ns
            + self.open_ns
            + self.receive_ns
            + self.journal_append_ns
    }

    /// Folds one engine trace's exact counters into the totals.
    /// `bound` is the run's Lemma-11 termination bound.
    pub fn count_trace(&mut self, t: &RunTrace, bound: Round) {
        self.broadcasts += t.msg_stats.broadcasts;
        self.deliveries += t.msg_stats.deliveries;
        self.delivered_bytes += t.msg_stats.delivered_bytes;
        self.decisions += t.decided_count() as u64;
        self.dropped += t.faults.dropped() as u64;
        self.quarantined += t.faults.quarantined() as u64;
        self.executed.push(f64::from(t.rounds_executed));
        let last = t.last_decision_round().unwrap_or(t.rounds_executed);
        self.decided_at.push(f64::from(last));
        let slack = i64::from(bound) - i64::from(last);
        self.slack_min = Some(self.slack_min.map_or(slack, |m| m.min(slack)));
    }

    /// Every per-layer metric, in the order `BENCHMARK.json` lists them.
    /// A layer a workload never enters reports 0.
    pub fn metrics(&mut self) -> Vec<Metric> {
        let per = |ns: u64, n: u64| ratio(ns as f64, n as f64);
        let mean = |xs: &[f64]| ratio(xs.iter().sum(), xs.len() as f64);
        let open_ns = per(self.open_ns, self.opens);
        let decode_ns = per(self.decode_ns, self.frames);
        vec![
            m(
                "schedule.graph_ns_per_round",
                per(self.graph_ns, self.rounds),
                "ns",
            ),
            m("alg1.send_ns_per_msg", per(self.send_ns, self.msgs), "ns"),
            m(
                "alg1.receive_ns_per_process_round",
                per(self.receive_ns, self.process_rounds),
                "ns",
            ),
            m(
                "approx.update_ns_per_process_round",
                per(self.update_ns, self.process_rounds),
                "ns",
            ),
            m("approx.scc_ns", per(self.scc_ns, self.scc_calls), "ns"),
            m(
                "approx.fresh_ns",
                per(self.fresh_ns, self.fresh_calls),
                "ns",
            ),
            m(
                "wire.encode_ns_per_frame",
                per(self.encode_ns, self.frames),
                "ns",
            ),
            m("wire.decode_ns_per_frame", decode_ns, "ns"),
            m(
                "wire.frame_bytes_mean",
                ratio(self.frame_bytes as f64, self.frames as f64),
                "bytes",
            ),
            m(
                "wire.deliveries_per_broadcast",
                ratio(self.deliveries as f64, self.broadcasts as f64),
                "count",
            ),
            m(
                "wire.bytes_per_decision",
                ratio(self.delivered_bytes as f64, self.decisions as f64),
                "bytes",
            ),
            m(
                "fault.seal_ns_per_frame",
                per(self.seal_ns, self.frames),
                "ns",
            ),
            m("fault.open_ns_per_frame", open_ns, "ns"),
            m(
                "fault.checksum_share",
                ratio(open_ns - decode_ns, open_ns).max(0.0),
                "ratio",
            ),
            m(
                "fault.tamper_ns_per_edge",
                per(self.tamper_ns, self.edges),
                "ns",
            ),
            m(
                "fault.tampered_share",
                ratio(self.tampered as f64, self.edges as f64),
                "ratio",
            ),
            m(
                "fault.quarantined",
                ratio(self.quarantined as f64, self.ops as f64),
                "count",
            ),
            m(
                "fault.dropped",
                ratio(self.dropped as f64, self.ops as f64),
                "count",
            ),
            m(
                "fault.batch_encode_ns",
                per(self.batch_encode_ns, self.batches),
                "ns",
            ),
            m(
                "fault.batch_read_ns",
                per(self.batch_read_ns, self.batch_frames),
                "ns",
            ),
            m("rounds.executed_mean", mean(&self.executed), "rounds"),
            m("rounds.decide_mean", mean(&self.decided_at), "rounds"),
            m(
                "rounds.lemma11_slack_min",
                self.slack_min.unwrap_or(0) as f64,
                "rounds",
            ),
            m(
                "socket.tcp_ms_per_run",
                percentile(&mut self.tcp_ms, 0.5),
                "ms",
            ),
            m(
                "sharded.handoff_ms_per_run",
                percentile(&mut self.handoff_ms, 0.5),
                "ms",
            ),
            m(
                "multiplex.amortization",
                percentile(&mut self.amortization, 0.5),
                "ratio",
            ),
            m(
                "engine.residual_ms",
                percentile(&mut self.residual_ms, 0.5),
                "ms",
            ),
            m(
                "journal.bytes_per_round",
                ratio(self.journal_bytes as f64, self.journal_rounds as f64),
                "bytes",
            ),
            m(
                "journal.snapshots_per_journal",
                ratio(self.journal_snapshots as f64, self.journals as f64),
                "count",
            ),
            m("journal.scan_ms", percentile(&mut self.scan_ms, 0.5), "ms"),
            m(
                "journal.restore_ms",
                percentile(&mut self.restore_ms, 0.5),
                "ms",
            ),
            m(
                "journal.replay_open_ms",
                percentile(&mut self.replay_open_ms, 0.5),
                "ms",
            ),
            m(
                "journal.replayed_rounds_share",
                mean(&self.replayed_share),
                "ratio",
            ),
            m(
                "trace.overhead_ms_per_op",
                percentile(&mut self.overhead_ms, 0.5),
                "ms",
            ),
        ]
    }
}

/// How payloads travel in the traced loop: shared `Arc` hand-off, or
/// sealed frames through a fault plane.
#[derive(Clone, Copy)]
pub enum Path<'a> {
    Arc,
    Codec(&'a dyn FaultPlane),
}

/// The outcome of one decomposed run, compared against the engine's.
pub struct Decomposed {
    pub decisions: Vec<Option<DecisionRecord>>,
    pub rounds: Round,
    pub dropped: usize,
    pub quarantined: usize,
    /// Recorded only when [`Extras::shards`] asks for it.
    pub cross_frames: CrossFrames,
}

/// Per round, every cross-shard edge `(from, to)` with the sealed frame it
/// carries, under an even split of the universe into shards.
pub type CrossFrames = Vec<Vec<(ProcessId, ProcessId, Bytes)>>;

/// Options of [`decompose`] beyond the run itself.
#[derive(Default)]
pub struct Extras<'a> {
    /// Also write the run's journal here, exactly as
    /// `run_lockstep_journaled` would.
    pub journal: Option<&'a mut JournalWriter<Vec<u8>>>,
    /// Record cross-shard frames for this many shards.
    pub shards: Option<usize>,
    /// The estimator rebase limit the algorithms were given, if not the
    /// default.
    pub rebase_limit: Option<Round>,
}

fn should_stop(until: RunUntil, r: Round, all_decided: bool) -> bool {
    match until {
        RunUntil::Rounds(max) => r >= max,
        RunUntil::AllDecided { max_rounds } => all_decided || r >= max_rounds,
    }
}

/// Runs `algs` against `schedule` in a timed lockstep loop, adding each
/// layer's time and work to `l`. Fails if the shadow estimator ever
/// disagrees with its process, or the journal cannot be written.
pub fn decompose(
    schedule: &dyn Schedule,
    mut algs: Vec<KSetAgreement>,
    until: RunUntil,
    path: Path<'_>,
    mut extras: Extras<'_>,
    l: &mut Layers,
) -> Result<Decomposed, String> {
    let n = schedule.n();
    let shard_of: Vec<usize> = match extras.shards {
        Some(s) => (0..n).map(|p| p * s / n).collect(),
        None => Vec::new(),
    };
    let mut shadows: Vec<SkeletonEstimator> = algs
        .iter()
        .map(|a| {
            let mut e = SkeletonEstimator::new(n, a.id());
            if let Some(limit) = extras.rebase_limit {
                e.set_rebase_limit(limit);
            }
            e
        })
        .collect();
    let mut out = Decomposed {
        decisions: vec![None; n],
        rounds: 0,
        dropped: 0,
        quarantined: 0,
        cross_frames: Vec::new(),
    };
    let mut g = Digraph::empty(n);
    let mut msgs: Vec<Arc<KSetMsg>> = Vec::with_capacity(n);
    let mut frames = Vec::with_capacity(n);
    let mut rcv: Received<KSetMsg> = Received::new(n);
    let mut buf: Vec<u8> = Vec::new();
    let mut fates = Vec::with_capacity(n);

    if let Some(w) = extras.journal.as_deref_mut() {
        let t = Instant::now();
        w.append_snapshot(&SnapshotRecord {
            round: 0,
            decisions: out.decisions.clone(),
            anomalies: Vec::new(),
            snaps: algs.iter().map(Recoverable::snapshot).collect(),
        })
        .map_err(|e| format!("journal write failed: {e}"))?;
        l.journal_append_ns += ns_since(t);
    }

    let mut r: Round = FIRST_ROUND;
    loop {
        let t = Instant::now();
        schedule.graph_into(r, &mut g);
        l.graph_ns += ns_since(t);
        l.rounds += 1;

        msgs.clear();
        for a in &algs {
            let t = Instant::now();
            let msg = a.send(r);
            l.send_ns += ns_since(t);
            msgs.push(Arc::new(msg));
        }
        l.msgs += n as u64;

        if let Path::Codec(_) = path {
            frames.clear();
            for msg in &msgs {
                buf.clear();
                let t = Instant::now();
                msg.encode(&mut buf);
                l.encode_ns += ns_since(t);
                let t = Instant::now();
                let mut rd = buf.as_slice();
                let back = KSetMsg::decode(&mut rd);
                l.decode_ns += ns_since(t);
                if back.is_err() {
                    return Err(format!("round {r}: a broadcast failed to decode"));
                }
                let t = Instant::now();
                let f = seal(&**msg);
                l.seal_ns += ns_since(t);
                l.frame_bytes += f.len() as u64;
                frames.push(f);
            }
            l.frames += n as u64;
            if let Some(w) = extras.journal.as_deref_mut() {
                let t = Instant::now();
                w.append_round(&RoundRecord {
                    round: r,
                    frames: frames.clone(),
                })
                .map_err(|e| format!("journal write failed: {e}"))?;
                l.journal_append_ns += ns_since(t);
            }
            if extras.shards.is_some() {
                let mut cross = Vec::new();
                for (u, v) in g.edges() {
                    if shard_of[u.index()] != shard_of[v.index()] {
                        cross.push((u, v, frames[u.index()].clone()));
                    }
                }
                out.cross_frames.push(cross);
            }
        }

        for p in ProcessId::all(n) {
            let alg = &mut algs[p.index()];
            rcv.clear();
            match path {
                Path::Arc => {
                    for q in g.in_neighbors(p).iter() {
                        rcv.insert(q, Arc::clone(&msgs[q.index()]));
                    }
                }
                Path::Codec(plane) => {
                    let t = Instant::now();
                    fates.clear();
                    fates.extend(g.in_neighbors(p).iter().map(|q| (q, plane.tamper(r, q, p))));
                    l.tamper_ns += ns_since(t);
                    l.edges += fates.len() as u64;
                    for &(q, fate) in &fates {
                        let frame = &frames[q.index()];
                        let opened = match fate {
                            None => {
                                let t = Instant::now();
                                let res = open::<KSetMsg>(frame);
                                l.open_ns += ns_since(t);
                                res
                            }
                            Some(Tamper::Drop) => {
                                l.tampered += 1;
                                out.dropped += 1;
                                continue;
                            }
                            Some(tamper) => {
                                l.tampered += 1;
                                let t = Instant::now();
                                let mut mangled = frame.to_vec();
                                tamper.apply(&mut mangled);
                                l.tamper_ns += ns_since(t);
                                let t = Instant::now();
                                let res = open::<KSetMsg>(&mangled);
                                l.open_ns += ns_since(t);
                                res
                            }
                        };
                        l.opens += 1;
                        match opened {
                            Ok(msg) => rcv.insert(q, Arc::new(msg)),
                            Err(_) => out.quarantined += 1,
                        }
                    }
                }
            }

            // Algorithm 1 skips its estimator's merge of its own graph when
            // it re-receives that very buffer (Arc hand-off); the shadow
            // gets the same shortcut by being handed its own buffer.
            let own_buffer = rcv
                .get(p)
                .is_some_and(|msg| std::ptr::eq(&**msg.graph(), alg.approx_graph()));
            let was_decided = alg.has_decided();
            let t = Instant::now();
            alg.receive(r, &rcv);
            l.receive_ns += ns_since(t);

            let shadow = &mut shadows[p.index()];
            let pt: ProcessSet = alg.pt().clone();
            let own = shadow.graph_arc();
            let t = Instant::now();
            shadow.update(
                r,
                &pt,
                pt.iter().filter_map(|q| {
                    rcv.get(q)
                        .map(|msg| {
                            if q == p && own_buffer {
                                &*own
                            } else {
                                &**msg.graph()
                            }
                        })
                        .map(|gq| (q, gq))
                }),
            );
            l.update_ns += ns_since(t);
            drop(own);
            if shadow.graph() != alg.approx_graph() {
                return Err(format!("round {r}: shadow estimator of {p} diverged"));
            }
            // Lines 26–30 run only for a process undecided after line 13.
            if !was_decided && alg.decision_path() != Some(DecisionPath::Relay) {
                let fresh = match alg.rule() {
                    DecisionRule::Paper => true,
                    DecisionRule::FreshnessGuarded => {
                        let t = Instant::now();
                        let f = shadow.is_coherently_fresh(r);
                        l.fresh_ns += ns_since(t);
                        l.fresh_calls += 1;
                        f
                    }
                };
                let sc = r >= n as Round && {
                    let t = Instant::now();
                    let s = shadow.is_strongly_connected();
                    l.scc_ns += ns_since(t);
                    l.scc_calls += 1;
                    s
                };
                let decided = alg.decision_path() == Some(DecisionPath::StronglyConnected);
                if decided != (sc && fresh) {
                    return Err(format!("round {r}: shadow decision test of {p} disagrees"));
                }
            }
        }
        rcv.clear();
        l.process_rounds += n as u64;

        for (i, a) in algs.iter().enumerate() {
            if let (None, Some(value)) = (out.decisions[i], a.decision()) {
                out.decisions[i] = Some(DecisionRecord { value, round: r });
            }
        }
        out.rounds = r;
        if let Some(w) = extras.journal.as_deref_mut() {
            if algs.iter().all(|a| a.snapshot_due(r)) {
                let t = Instant::now();
                w.append_snapshot(&SnapshotRecord {
                    round: r,
                    decisions: out.decisions.clone(),
                    anomalies: Vec::new(),
                    snaps: algs.iter().map(Recoverable::snapshot).collect(),
                })
                .map_err(|e| format!("journal write failed: {e}"))?;
                l.journal_append_ns += ns_since(t);
            }
        }
        if should_stop(until, r, out.decisions.iter().all(Option::is_some)) {
            return Ok(out);
        }
        r += 1;
    }
}

/// Checks that a decomposed run reproduced the engine's: every process's
/// decision value and round, the rounds executed, and the fault counts.
pub fn check_faithful(d: &Decomposed, t: &RunTrace) -> Result<(), String> {
    if d.decisions != t.decisions {
        return Err("traced decomposition decided differently from the engine".into());
    }
    if d.rounds != t.rounds_executed {
        return Err(format!(
            "traced decomposition ran {} rounds, the engine {}",
            d.rounds, t.rounds_executed
        ));
    }
    if (d.dropped, d.quarantined) != (t.faults.dropped(), t.faults.quarantined()) {
        return Err("traced decomposition lost different frames than the engine".into());
    }
    Ok(())
}
