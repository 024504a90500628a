//! Decode-count pin for the codec engines: a broadcast's frame is opened
//! once per `(round, sender)` per worker, not once per receiver.
//!
//! The message type counts its own decodes. On `FixedSchedule::synchronous`
//! every receiver takes every sender's frame, so without decode sharing a
//! round would cost `n²` decodes. Every sender's frame needs at least one
//! decode per round and worker, so a total of exactly `n × rounds`
//! (single-worker engines) or `n × shards × rounds` (sharded engines) pins
//! the per-round count.
//!
//! Each test counts under its own tag, so the tests can run in parallel.

use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};

use bytes::{Buf, BufMut, Bytes};
use sskel_graph::Round;
use sskel_model::engine::{resume_from_journal, run_lockstep_journaled};
use sskel_model::wire::{read_uvarint, uvarint_len, write_uvarint};
use sskel_model::{
    run_lockstep_codec, run_sharded_codec, run_socket, scan_journal, FixedSchedule, NoFaults,
    Received, Recoverable, RoundAlgorithm, RunMeta, RunUntil, ShardPlan, SocketPlan, Value, Wire,
    WireError, WireSized,
};

const N: usize = 8;
const ROUNDS: Round = 6;
const SHARDS: usize = 2;

/// Decodes per test tag.
static DECODES: [AtomicUsize; 4] = [const { AtomicUsize::new(0) }; 4];

fn decodes(tag: u64) -> usize {
    DECODES[tag as usize].load(Ordering::SeqCst)
}

/// A flooded value that counts how often it is decoded, per tag.
#[derive(Clone)]
struct Counted {
    tag: u64,
    x: Value,
}

impl WireSized for Counted {
    fn wire_bytes(&self) -> usize {
        uvarint_len(self.tag) + uvarint_len(self.x)
    }
}

impl Wire for Counted {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        write_uvarint(buf, self.tag);
        write_uvarint(buf, self.x);
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        let tag = read_uvarint(buf)?;
        let x = read_uvarint(buf)?;
        DECODES
            .get(tag as usize)
            .ok_or(WireError::InvalidValue("unknown tag"))?
            .fetch_add(1, Ordering::SeqCst);
        Ok(Counted { tag, x })
    }
}

/// Floods the minimum; snapshots every third round so a resume starts
/// from a cut past round 0.
struct MinFlood {
    tag: u64,
    x: Value,
}

impl RoundAlgorithm for MinFlood {
    type Msg = Counted;

    fn send(&self, _r: Round) -> Counted {
        Counted {
            tag: self.tag,
            x: self.x,
        }
    }

    fn receive(&mut self, _r: Round, received: &Received<Counted>) {
        for (_, m) in received.iter() {
            self.x = self.x.min(m.x);
        }
    }

    fn decision(&self) -> Option<Value> {
        None
    }
}

impl Recoverable for MinFlood {
    fn snapshot(&self) -> Bytes {
        let mut buf = Vec::new();
        write_uvarint(&mut buf, self.tag);
        write_uvarint(&mut buf, self.x);
        Bytes::from(buf)
    }

    fn restore(bytes: &[u8]) -> Result<Self, WireError> {
        let mut rd = bytes;
        let tag = read_uvarint(&mut rd)?;
        let x = read_uvarint(&mut rd)?;
        Ok(MinFlood { tag, x })
    }

    fn snapshot_due(&self, r: Round) -> bool {
        r.is_multiple_of(3)
    }
}

fn spawn(tag: u64) -> Vec<MinFlood> {
    (0..N)
        .map(|i| MinFlood {
            tag,
            x: (N - i) as Value,
        })
        .collect()
}

const UNTIL: RunUntil = RunUntil::Rounds(ROUNDS);

#[test]
fn lockstep_codec_decodes_each_frame_once() {
    let tag = 0;
    let s = FixedSchedule::synchronous(N);
    let (trace, _) = run_lockstep_codec(&s, spawn(tag), UNTIL, &NoFaults);
    assert_eq!(trace.rounds_executed, ROUNDS);
    assert_eq!(decodes(tag), N * ROUNDS as usize);
}

#[test]
fn journaled_write_and_resume_decode_each_frame_once() {
    let tag = 1;
    let s = FixedSchedule::synchronous(N);
    let meta = RunMeta {
        seed: 0,
        rebase_limit: 0,
    };
    let mut journal = Vec::new();
    let (trace, _) =
        run_lockstep_journaled(&s, spawn(tag), UNTIL, &NoFaults, &meta, &mut journal).unwrap();
    assert_eq!(trace.rounds_executed, ROUNDS);
    assert_eq!(decodes(tag), N * ROUNDS as usize, "journaled run");

    // Tear the journal mid-run: the resume replays the durable rounds
    // (some before the last snapshot, some after it) and runs the rest
    // live. Each round still costs one decode per sender.
    let torn = &journal[..journal.len() * 3 / 4];
    let durable = scan_journal(torn).unwrap();
    let replayed = durable.rounds.len() as Round;
    let cut = durable.snapshots.last().unwrap().round;
    assert!(
        0 < cut && cut < replayed && replayed < ROUNDS,
        "tear at {replayed}, cut {cut}"
    );
    let before = decodes(tag);
    let (resumed, _) =
        resume_from_journal::<_, MinFlood, _, _>(&s, torn, UNTIL, &NoFaults, Vec::new()).unwrap();
    assert_eq!(resumed.rounds_executed, ROUNDS);
    assert_eq!(resumed.msg_stats, trace.msg_stats);
    assert_eq!(decodes(tag) - before, N * ROUNDS as usize, "resume");
}

#[test]
fn sharded_codec_decodes_each_frame_once_per_shard() {
    let tag = 2;
    let s = FixedSchedule::synchronous(N);
    let plan = ShardPlan::new(SHARDS);
    let (trace, _) = run_sharded_codec(&s, spawn(tag), UNTIL, plan, &NoFaults);
    assert_eq!(trace.rounds_executed, ROUNDS);
    assert_eq!(decodes(tag), N * SHARDS * ROUNDS as usize);
}

#[test]
fn socket_decodes_each_frame_once_per_shard() {
    if TcpListener::bind(("127.0.0.1", 0)).is_err() {
        eprintln!("skipping socket_decodes_each_frame_once_per_shard: loopback unavailable");
        return;
    }
    let tag = 3;
    let s = FixedSchedule::synchronous(N);
    let (trace, _) = run_socket(&s, spawn(tag), UNTIL, SocketPlan::new(SHARDS)).unwrap();
    assert_eq!(trace.rounds_executed, ROUNDS);
    assert_eq!(decodes(tag), N * SHARDS * ROUNDS as usize);
}
