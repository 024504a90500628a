//! The four workloads: seeded input generation (set-up), the op (engine
//! calls, timed, then checked) and the traced variant of the op.
//!
//! Every op is closed-loop: the next call starts when the previous one
//! has returned and been checked. Message delivery is instant, so
//! latency is CPU time (plus the loopback kernel path in `dense-socket`).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sskel_graph::{Digraph, ProcessId, ProcessSet, Round};
use sskel_kset::{lemma11_bound, verify, DecisionRule, KSetAgreement, VerifySpec};
use sskel_model::engine::{resume_from_journal, run_lockstep_journaled};
use sskel_model::fault::open;
use sskel_model::{
    diff_run_traces, run_lockstep, run_multiplex_codec, run_sharded, run_sharded_codec, run_socket,
    scan_journal, BatchBuilder, BatchReader, ChurnAdversary, CorruptionOverlay, FixedSchedule,
    HealedPartitionAdversary, JournalHeader, JournalWriter, MultiplexPlan, MuxInstance, NoFaults,
    Recoverable, RotatingRootAdversary, RunMeta, RunTrace, RunUntil, Schedule, ShardPlan,
    SocketPlan, StableRootAdversary, Value, ENGINE_LOCKSTEP_JOURNALED, JOURNAL_VERSION,
};
use sskel_predicates::{mis, planted_psrcs_schedule, CommonSourceGraph, NoisySchedule};

use crate::layers::{check_faithful, decompose, CrossFrames, Decomposed, Extras, Layers, Path};
use crate::stats::{ms_since, ns_since, Stopwatch, Timing};

/// Worker threads of every engine plan; the benchmark is sized for a
/// two-core host.
const WORKERS: usize = 2;

/// Threads the named workload's timed engine calls run on: `journal-recover`
/// runs the single-threaded lockstep engine, the others run on `WORKERS`.
pub fn threads(name: &str) -> usize {
    if name == "journal-recover" {
        1
    } else {
        WORKERS
    }
}

/// Names accepted by `--workload`, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = [
    "dense-socket",
    "adversary-sparse",
    "mux-faulty",
    "journal-recover",
];

/// What one untraced op measured.
pub struct Sample {
    /// The op's engine call: one run, one batch (`mux-faulty`) or the
    /// journaled write (`journal-recover`).
    pub run: Timing,
    /// `resume_from_journal` on the torn journal (`journal-recover` only).
    pub recover: Option<Timing>,
    /// Processes that decided in the timed engine calls.
    pub decisions: u64,
}

/// Why an op failed.
pub enum Failure {
    /// The engine returned an error.
    Error(String),
    /// The engine returned, but its outputs are wrong.
    Incorrect(String),
}

pub trait Workload {
    /// How many distinct seeded cases the op loop cycles through.
    fn cases(&self) -> usize;
    /// One op on case `c`: its engine calls, timed, then checked.
    fn run(&self, c: usize) -> Result<Sample, Failure>;
    /// The same op plus its layer decomposition into `l`; returns the
    /// wall time of the engine calls an untraced op makes.
    fn traced(&self, c: usize, l: &mut Layers) -> Result<f64, Failure>;
}

/// Generates the named workload's inputs from `seed`.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    let mut rng = StdRng::seed_from_u64(seed);
    Some(match name {
        "dense-socket" => Box::new(DenseSocket::new(&mut rng)),
        "adversary-sparse" => Box::new(AdversarySparse::new(&mut rng)),
        "mux-faulty" => Box::new(MuxFaulty::new(&mut rng)),
        "journal-recover" => Box::new(JournalRecover::new(&mut rng)),
        _ => return None,
    })
}

/// A seeded permutation of the distinct inputs `10, 11, …, n + 9`.
fn permuted_inputs(rng: &mut StdRng, n: usize) -> Vec<Value> {
    let mut v: Vec<Value> = (0..n as Value).map(|i| i + 10).collect();
    v.shuffle(rng);
    v
}

fn until(bound: Round) -> RunUntil {
    RunUntil::AllDecided {
        max_rounds: bound + 2,
    }
}

/// k-agreement at a schedule's tight `min_k = α(H)`, where `H` is the
/// common-source graph of its stable skeleton.
///
/// `α(H)` itself is an exponential search (seconds for some seeded
/// `HealedPartitionAdversary` skeletons at n = 48), so set-up keeps `H`
/// and a greedy lower bound on `α(H)` instead: `d` distinct decisions
/// respect `min_k` iff `H` has an independent set of size `d`, which the
/// bound settles at once in the common case and a search bounded by `d`
/// settles otherwise.
struct Agreement {
    h: Vec<ProcessSet>,
    greedy: usize,
}

impl Agreement {
    fn of(skeleton: &Digraph) -> Self {
        let h = CommonSourceGraph::from_stable_skeleton(skeleton)
            .rows()
            .to_vec();
        let greedy = mis::greedy_independent_set(&h).len();
        Agreement { h, greedy }
    }

    fn allows(&self, distinct: usize) -> bool {
        distinct <= self.greedy || mis::has_independent_set_of_size(&self.h, distinct)
    }
}

/// Validity, k-agreement at the tight `min_k`, and the Lemma-11 bound.
fn check(trace: &RunTrace, k: &Agreement, inputs: &[Value], bound: Round) -> Result<(), Failure> {
    let distinct = trace.distinct_decision_values().len();
    if !k.allows(distinct) {
        return Err(Failure::Incorrect(format!(
            "k-agreement: {distinct} distinct values exceed min_k"
        )));
    }
    let spec = VerifySpec {
        k: distinct,
        inputs: inputs.to_vec(),
        termination_bound: Some(bound),
    };
    let verdict = verify(trace, &spec);
    if verdict.is_ok() {
        Ok(())
    } else {
        Err(Failure::Incorrect(verdict.violations.join("; ")))
    }
}

fn same(a: &RunTrace, b: &RunTrace, what: &str) -> Result<(), Failure> {
    match diff_run_traces(a, b) {
        None => Ok(()),
        Some(d) => Err(Failure::Incorrect(format!("{what}: {d}"))),
    }
}

fn faithful(d: Result<Decomposed, String>, t: &RunTrace) -> Result<(), Failure> {
    d.and_then(|d| check_faithful(&d, t))
        .map_err(Failure::Incorrect)
}

/// Records the op's residual: engine time minus the decomposed layers.
fn residual(l: &mut Layers, engine_ms: f64, layers_before_ns: u64) {
    let layers_ms = (l.engine_path_ns() - layers_before_ns) as f64 / 1e6;
    l.residual_ms.push(engine_ms - layers_ms);
}

// ---------------------------------------------------------------- dense-socket

const DENSE_N: usize = 16;
const DENSE_CASES: usize = 64;

/// The synchronous system at n = 16 over real loopback TCP, paper rule.
struct DenseSocket {
    s: FixedSchedule,
    k: Agreement,
    bound: Round,
    inputs: Vec<Vec<Value>>,
}

impl DenseSocket {
    fn new(rng: &mut StdRng) -> Self {
        let s = FixedSchedule::synchronous(DENSE_N);
        DenseSocket {
            k: Agreement::of(&s.stable_skeleton()),
            bound: lemma11_bound(&s),
            inputs: (0..DENSE_CASES)
                .map(|_| permuted_inputs(rng, DENSE_N))
                .collect(),
            s,
        }
    }

    fn call(&self, c: usize) -> Result<(RunTrace, Timing), Failure> {
        let algs = KSetAgreement::spawn_all(DENSE_N, &self.inputs[c]);
        let clock = Stopwatch::start();
        let res = run_socket(&self.s, algs, until(self.bound), SocketPlan::new(WORKERS));
        let time = clock.stop();
        let (trace, _) = res.map_err(|e| Failure::Error(format!("socket run: {e}")))?;
        check(&trace, &self.k, &self.inputs[c], self.bound)?;
        Ok((trace, time))
    }
}

impl Workload for DenseSocket {
    fn cases(&self) -> usize {
        self.inputs.len()
    }

    fn run(&self, c: usize) -> Result<Sample, Failure> {
        let (trace, time) = self.call(c)?;
        Ok(Sample {
            run: time,
            recover: None,
            decisions: trace.decided_count() as u64,
        })
    }

    fn traced(&self, c: usize, l: &mut Layers) -> Result<f64, Failure> {
        let (trace, time) = self.call(c)?;
        let ms = time.wall_ms;
        l.count_trace(&trace, self.bound);
        let algs = KSetAgreement::spawn_all(DENSE_N, &self.inputs[c]);
        let t = Instant::now();
        let (in_process, _) = run_sharded_codec(
            &self.s,
            algs,
            until(self.bound),
            ShardPlan::new(WORKERS),
            &NoFaults,
        );
        l.tcp_ms.push(ms - ms_since(t));
        same(&trace, &in_process, "socket vs in-process codec run")?;
        let before = l.engine_path_ns();
        let d = decompose(
            &self.s,
            KSetAgreement::spawn_all(DENSE_N, &self.inputs[c]),
            until(self.bound),
            Path::Codec(&NoFaults),
            Extras::default(),
            l,
        );
        residual(l, ms, before);
        faithful(d, &trace)?;
        Ok(ms)
    }
}

// ------------------------------------------------------------ adversary-sparse

const SPARSE_N: usize = 48;
const SPARSE_CASES: usize = 1024;

struct AdversaryCase {
    s: Box<dyn Schedule>,
    inputs: Vec<Value>,
    k: Agreement,
    bound: Round,
}

/// Four oblivious adversary families at n = 48, sharded Arc hand-off,
/// freshness-guarded rule: no byte is ever encoded. Case `i` samples
/// family `i mod 4`.
struct AdversarySparse {
    cases: Vec<AdversaryCase>,
}

impl AdversarySparse {
    fn new(rng: &mut StdRng) -> Self {
        let cases = (0..SPARSE_CASES)
            .map(|i| {
                let seed: u64 = rng.gen();
                let s: Box<dyn Schedule> = match i % 4 {
                    0 => Box::new(StableRootAdversary::sample(SPARSE_N, seed)),
                    1 => Box::new(RotatingRootAdversary::sample(SPARSE_N, seed)),
                    2 => Box::new(ChurnAdversary::sample(SPARSE_N, seed)),
                    _ => Box::new(HealedPartitionAdversary::sample(SPARSE_N, seed)),
                };
                AdversaryCase {
                    k: Agreement::of(&s.stable_skeleton()),
                    bound: lemma11_bound(s.as_ref()),
                    inputs: permuted_inputs(rng, SPARSE_N),
                    s,
                }
            })
            .collect();
        AdversarySparse { cases }
    }

    fn spawn(case: &AdversaryCase) -> Vec<KSetAgreement> {
        KSetAgreement::spawn_all_with(SPARSE_N, &case.inputs, DecisionRule::FreshnessGuarded)
    }

    fn call(&self, c: usize) -> Result<(RunTrace, Timing), Failure> {
        let case = &self.cases[c];
        let algs = Self::spawn(case);
        let clock = Stopwatch::start();
        let (trace, _) = run_sharded(
            case.s.as_ref(),
            algs,
            until(case.bound),
            ShardPlan::new(WORKERS),
        );
        let time = clock.stop();
        check(&trace, &case.k, &case.inputs, case.bound)?;
        Ok((trace, time))
    }
}

impl Workload for AdversarySparse {
    fn cases(&self) -> usize {
        self.cases.len()
    }

    fn run(&self, c: usize) -> Result<Sample, Failure> {
        let (trace, time) = self.call(c)?;
        Ok(Sample {
            run: time,
            recover: None,
            decisions: trace.decided_count() as u64,
        })
    }

    fn traced(&self, c: usize, l: &mut Layers) -> Result<f64, Failure> {
        let (trace, time) = self.call(c)?;
        let ms = time.wall_ms;
        let case = &self.cases[c];
        l.count_trace(&trace, case.bound);
        let t = Instant::now();
        let (single, _) = run_lockstep(case.s.as_ref(), Self::spawn(case), until(case.bound));
        l.handoff_ms.push(ms - ms_since(t));
        same(&trace, &single, "sharded vs lockstep run")?;
        let before = l.engine_path_ns();
        let d = decompose(
            case.s.as_ref(),
            Self::spawn(case),
            until(case.bound),
            Path::Arc,
            Extras::default(),
            l,
        );
        residual(l, ms, before);
        faithful(d, &trace)?;
        Ok(ms)
    }
}

// ------------------------------------------------------------------ mux-faulty

const MUX_N: usize = 16;
const MUX_M: usize = 32;
const MUX_BATCHES: usize = 8;

struct MuxCase {
    s: NoisySchedule,
    inputs: Vec<Value>,
    /// `min_k` and Lemma-11 bound of the schedule the plane leaves standing.
    k: Agreement,
    bound: Round,
}

struct MuxBatch {
    plane: CorruptionOverlay,
    cases: Vec<MuxCase>,
}

/// Batches of 32 planted `Psrcs(2)` instances on one multiplexed worker
/// pool, with seeded in-flight corruption until round 20.
struct MuxFaulty {
    batches: Vec<MuxBatch>,
}

impl MuxFaulty {
    fn new(rng: &mut StdRng) -> Self {
        let batches = (0..MUX_BATCHES)
            .map(|_| {
                let plane = CorruptionOverlay::new(rng.gen(), 0.05).quiet_after(20);
                let cases = (0..MUX_M)
                    .map(|_| {
                        let s = planted_psrcs_schedule(rng, MUX_N, 2, 0.1, 250, 5);
                        let eff = plane.effective(&s);
                        MuxCase {
                            k: Agreement::of(&eff.stable_skeleton()),
                            bound: lemma11_bound(&eff),
                            inputs: permuted_inputs(rng, MUX_N),
                            s,
                        }
                    })
                    .collect();
                MuxBatch { plane, cases }
            })
            .collect();
        MuxFaulty { batches }
    }

    fn spawn(case: &MuxCase) -> Vec<KSetAgreement> {
        KSetAgreement::spawn_all_with(MUX_N, &case.inputs, DecisionRule::FreshnessGuarded)
    }

    fn call(&self, b: &MuxBatch) -> Result<(Vec<RunTrace>, Timing), Failure> {
        let instances: Vec<MuxInstance<'_, KSetAgreement>> = b
            .cases
            .iter()
            .map(|case| MuxInstance::new(&case.s, Self::spawn(case), until(case.bound)))
            .collect();
        let clock = Stopwatch::start();
        let results = run_multiplex_codec(instances, MultiplexPlan::new(WORKERS), &b.plane);
        let time = clock.stop();
        let traces: Vec<RunTrace> = results.into_iter().map(|(t, _)| t).collect();
        for (trace, case) in traces.iter().zip(&b.cases) {
            check(trace, &case.k, &case.inputs, case.bound)?;
        }
        Ok((traces, time))
    }
}

impl Workload for MuxFaulty {
    fn cases(&self) -> usize {
        self.batches.len()
    }

    fn run(&self, c: usize) -> Result<Sample, Failure> {
        let (traces, time) = self.call(&self.batches[c])?;
        Ok(Sample {
            run: time,
            recover: None,
            decisions: traces.iter().map(|t| t.decided_count() as u64).sum(),
        })
    }

    fn traced(&self, c: usize, l: &mut Layers) -> Result<f64, Failure> {
        let b = &self.batches[c];
        let (traces, time) = self.call(b)?;
        let ms = time.wall_ms;
        let mut solo_ms = 0.0;
        for (trace, case) in traces.iter().zip(&b.cases) {
            l.count_trace(trace, case.bound);
            let t = Instant::now();
            let (solo, _) = run_sharded_codec(
                &case.s,
                Self::spawn(case),
                until(case.bound),
                ShardPlan::new(WORKERS),
                &b.plane,
            );
            solo_ms += ms_since(t);
            same(trace, &solo, "multiplexed vs solo run")?;
        }
        l.amortization.push(solo_ms / ms);

        let before = l.engine_path_ns();
        let mut cross = Vec::with_capacity(b.cases.len());
        for (trace, case) in traces.iter().zip(&b.cases) {
            let d = decompose(
                &case.s,
                Self::spawn(case),
                until(case.bound),
                Path::Codec(&b.plane),
                Extras {
                    shards: Some(WORKERS),
                    ..Extras::default()
                },
                l,
            )
            .map_err(Failure::Incorrect)?;
            check_faithful(&d, trace).map_err(Failure::Incorrect)?;
            cross.push(d.cross_frames);
        }
        residual(l, ms, before);
        batch_layer(&cross, l)?;
        Ok(ms)
    }
}

/// Replays the decomposed runs' cross-shard frames through the batch
/// framing the multiplex engine uses: per tick and shard pair, one
/// `BatchBuilder::encode`, read back with `BatchReader::next_frame`.
fn batch_layer(cross: &[CrossFrames], l: &mut Layers) -> Result<(), Failure> {
    let universes = vec![MUX_N; cross.len()];
    let ticks = cross.iter().map(Vec::len).max().unwrap_or(0);
    let shard = |p: ProcessId| p.index() * WORKERS / MUX_N;
    let mut builder = BatchBuilder::new();
    for tick in 0..ticks {
        for (src, dst) in [(0, 1), (1, 0)] {
            builder.clear();
            for (i, inst) in cross.iter().enumerate() {
                for (from, to, frame) in inst.get(tick).into_iter().flatten() {
                    if shard(*from) == src && shard(*to) == dst {
                        builder.push(i, *from, *to, frame.clone());
                    }
                }
            }
            let t = Instant::now();
            let packet = builder.encode();
            l.batch_encode_ns += ns_since(t);
            l.batches += 1;
            let mut reader = BatchReader::new(&packet, &universes, usize::MAX);
            let mut read = 0;
            let t = Instant::now();
            loop {
                match reader.next_frame() {
                    Ok(Some(_)) => read += 1,
                    Ok(None) => break,
                    Err(e) => return Err(Failure::Incorrect(format!("batch read: {e}"))),
                }
            }
            l.batch_read_ns += ns_since(t);
            l.batch_frames += read as u64;
            if read != builder.len() {
                return Err(Failure::Incorrect("batch lost frames".into()));
            }
        }
    }
    Ok(())
}

// ------------------------------------------------------------- journal-recover

const JOURNAL_N: usize = 24;
const JOURNAL_CASES: usize = 256;
const REBASE_LIMIT: Round = JOURNAL_N as Round + 2;

struct JournalCase {
    s: NoisySchedule,
    plane: CorruptionOverlay,
    meta: RunMeta,
    inputs: Vec<Value>,
    k: Agreement,
    bound: Round,
    /// Where in the second half of the journal the tear falls, as a
    /// fraction of that half.
    tear: f64,
}

/// A journaled lockstep run under corruption, torn in its second half
/// and resumed from the torn bytes.
struct JournalRecover {
    cases: Vec<JournalCase>,
}

impl JournalRecover {
    fn new(rng: &mut StdRng) -> Self {
        let cases = (0..JOURNAL_CASES)
            .map(|_| {
                let seed: u64 = rng.gen();
                let s = planted_psrcs_schedule(rng, JOURNAL_N, 2, 0.1, 250, 5);
                let plane = CorruptionOverlay::new(seed, 0.1).quiet_after(10);
                let eff = plane.effective(&s);
                let (k, bound) = (Agreement::of(&eff.stable_skeleton()), lemma11_bound(&eff));
                JournalCase {
                    meta: RunMeta {
                        seed,
                        rebase_limit: u64::from(REBASE_LIMIT),
                    },
                    inputs: permuted_inputs(rng, JOURNAL_N),
                    tear: rng.gen::<f64>(),
                    k,
                    bound,
                    plane,
                    s,
                }
            })
            .collect();
        JournalRecover { cases }
    }

    fn spawn(case: &JournalCase) -> Vec<KSetAgreement> {
        let mut algs =
            KSetAgreement::spawn_all_with(JOURNAL_N, &case.inputs, DecisionRule::FreshnessGuarded);
        for a in &mut algs {
            a.set_rebase_limit(REBASE_LIMIT);
        }
        algs
    }

    /// The journaled write, then resume from the torn journal. Returns
    /// the write's trace, its journal, the tear offset and both times.
    fn call(&self, c: usize) -> Result<(RunTrace, Vec<u8>, usize, Timing, Timing), Failure> {
        let case = &self.cases[c];
        let mut journal = Vec::new();
        let algs = Self::spawn(case);
        let clock = Stopwatch::start();
        let res = run_lockstep_journaled(
            &case.s,
            algs,
            until(case.bound),
            &case.plane,
            &case.meta,
            &mut journal,
        );
        let write = clock.stop();
        let (written, _) = res.map_err(|e| Failure::Error(format!("journaled run: {e}")))?;
        check(&written, &case.k, &case.inputs, case.bound)?;

        let half = journal.len() / 2;
        let cut = half + ((journal.len() - half) as f64 * case.tear) as usize;
        let cut = cut.min(journal.len() - 1);
        let clock = Stopwatch::start();
        let res = resume_from_journal::<_, KSetAgreement, _, _>(
            &case.s,
            &journal[..cut],
            until(case.bound),
            &case.plane,
            Vec::new(),
        );
        let recover = clock.stop();
        let (resumed, _) = res.map_err(|e| Failure::Error(format!("resume: {e}")))?;
        same(&written, &resumed, "resumed vs uninterrupted run")?;
        Ok((written, journal, cut, write, recover))
    }
}

impl Workload for JournalRecover {
    fn cases(&self) -> usize {
        self.cases.len()
    }

    fn run(&self, c: usize) -> Result<Sample, Failure> {
        let (trace, _, _, write, recover) = self.call(c)?;
        Ok(Sample {
            run: write,
            recover: Some(recover),
            decisions: trace.decided_count() as u64,
        })
    }

    fn traced(&self, c: usize, l: &mut Layers) -> Result<f64, Failure> {
        let case = &self.cases[c];
        let (trace, journal, cut, write, recover) = self.call(c)?;
        l.count_trace(&trace, case.bound);

        let full = scan_journal(&journal)
            .map_err(|e| Failure::Incorrect(format!("written journal: {e}")))?;
        l.journals += 1;
        l.journal_bytes += journal.len() as u64;
        l.journal_rounds += full.rounds.len() as u64;
        l.journal_snapshots += full.snapshots.len() as u64;

        let t = Instant::now();
        let torn = scan_journal(&journal[..cut]);
        l.scan_ms.push(ms_since(t));
        let torn = torn.map_err(|e| Failure::Incorrect(format!("torn journal: {e}")))?;
        let last = torn
            .snapshots
            .last()
            .ok_or_else(|| Failure::Incorrect("torn journal holds no snapshot".into()))?;
        let t = Instant::now();
        let restored: Result<Vec<KSetAgreement>, _> = last
            .snaps
            .iter()
            .map(|s| KSetAgreement::restore(s.as_slice()))
            .collect();
        l.restore_ms.push(ms_since(t));
        restored.map_err(|e| Failure::Incorrect(format!("restore: {e}")))?;
        let t = Instant::now();
        let mut opened = true;
        for rec in &torn.rounds {
            for f in &rec.frames {
                opened &= open::<sskel_kset::KSetMsg>(f.as_slice()).is_ok();
            }
        }
        l.replay_open_ms.push(ms_since(t));
        if !opened {
            return Err(Failure::Incorrect(
                "a journaled frame failed to open".into(),
            ));
        }
        let replayed = torn.rounds.iter().filter(|r| r.round > last.round).count();
        l.replayed_share
            .push(replayed as f64 / torn.rounds.len().max(1) as f64);

        let header = JournalHeader {
            version: JOURNAL_VERSION,
            n: JOURNAL_N,
            seed: case.meta.seed,
            engine: ENGINE_LOCKSTEP_JOURNALED,
            rebase_limit: case.meta.rebase_limit,
        };
        let mut writer = JournalWriter::create(Vec::new(), &header)
            .map_err(|e| Failure::Error(format!("journal header: {e}")))?;
        let before = l.engine_path_ns();
        let d = decompose(
            &case.s,
            Self::spawn(case),
            until(case.bound),
            Path::Codec(&case.plane),
            Extras {
                journal: Some(&mut writer),
                shards: None,
                rebase_limit: Some(REBASE_LIMIT),
            },
            l,
        );
        residual(l, write.wall_ms, before);
        faithful(d, &trace)?;
        if writer.into_inner() != journal {
            return Err(Failure::Incorrect(
                "traced decomposition wrote a different journal".into(),
            ));
        }
        Ok(write.wall_ms + recover.wall_ms)
    }
}
