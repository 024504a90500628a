//! Real-socket round engine: sealed frames over loopback TCP.
//!
//! The other engines hand payloads between threads in-process — even
//! codec mode, where every payload crosses an encode/checksum/decode
//! boundary, moves its bytes through an mpsc channel. This engine puts
//! the *operating system* on the byte path: processes are grouped into
//! contiguous shards exactly like [`super::sharded`], but every
//! inter-shard frame travels through a genuine [`TcpStream`] pair on
//! loopback (`127.0.0.1`), with the kernel free to fragment, coalesce
//! and delay it like any other TCP traffic.
//!
//! The architecture, in layers:
//!
//! * **data plane** — a full mesh of directed TCP connections between
//!   shards, established during a handshake phase (bind one listener
//!   per shard, connect `shards · (shards − 1)` streams, each opened by
//!   its sending shard and identified by a one-varint hello). Frames are
//!   [`crate::fault::seal`]ed exactly as in the in-process codec engines
//!   and carried inside [`crate::fault::encode_packet`] stream framing;
//!   one **reader thread per connection** parses packets incrementally
//!   ([`PacketStream`]) and forwards them into the receiving shard's
//!   inbox, so TCP backpressure can never deadlock a round (senders
//!   always find a draining peer).
//! * **control plane** — round closing stays in shared memory: the same
//!   speculative-broadcast + leader-verdict protocol as the sharded
//!   engine under [`RunUntil::AllDecided`], and a windowed skew bound
//!   under a fixed horizon — but on an *abortable* barrier, so one
//!   shard's socket failure releases every peer with a typed error
//!   instead of a hang.
//! * **failure domain** — socket-level trouble is **transport**-fatal
//!   and typed ([`SocketError`]): a mid-frame stall past the read
//!   timeout, a disconnect inside a packet, junk or oversized stream
//!   framing, a round that cannot assemble within its budget. In-frame
//!   corruption injected by the [`FaultPlane`] stays per-edge and
//!   recoverable: it is quarantined into the run's
//!   [`crate::fault::FaultStats`] at [`Transport::unpack`] time, exactly
//!   like the in-process codec engines.
//!
//! Because the fault plane is evaluated at the receiver as a pure
//! function of `(seed, round, from, to)` and all trace accounting is
//! order-insensitive (deliveries keyed by sender, the fault ledger
//! canonically sorted at the join), a socket run is **byte-identical**
//! — trace, `msg_stats`, quarantine ledger — to
//! [`super::run_lockstep_codec`] over the same schedule, seed and
//! horizon. `tests/conformance.rs` pins this across every adversary
//! family and `tests/fault_plane.rs` across corruption rates;
//! `tests/socket_transport.rs` covers the negative paths. The threading
//! model, timeout semantics and framing are documented in
//! `docs/CONCURRENCY.md`.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel as unbounded, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use sskel_graph::{Digraph, ProcessId, Round, FIRST_ROUND};

use crate::algorithm::{Received, RoundAlgorithm, Value};
use crate::engine::sharded::ShardPlan;
use crate::engine::RunUntil;
use crate::fault::{
    encode_packet, CodecTransport, DecodeCache, Delivery, FaultCause, FaultPlane, FaultStats,
    FramedPacket, NoFaults, PacketBuffer, Transport,
};
use crate::schedule::Schedule;
use crate::trace::{MsgStats, RunTrace};
use crate::wire::{try_read_uvarint, write_uvarint, Wire, WireError, WireSized};

/// How [`run_socket`] divides the system across shard threads and what
/// its socket timeouts are.
///
/// The shard/window semantics are identical to [`ShardPlan`]; the added
/// knobs govern the TCP layer. `handshake_delays` is a **test hook**: it
/// makes shard `s` sleep before opening its outbound connections, which
/// is how the robustness suite simulates a peer that connects late
/// (within the handshake budget the run completes normally; past it, the
/// run fails with a typed handshake error instead of hanging).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SocketPlan {
    /// Number of shard threads; each owns a contiguous range of
    /// processes (clamped to `n` at run time).
    pub shards: usize,
    /// Bounded-skew window for fixed-horizon runs (see
    /// [`ShardPlan::window`]).
    pub window: Round,
    /// Per-connection read timeout. A reader idling *between* packets
    /// just re-polls; a reader starving **inside** a packet for this
    /// long fails the connection with [`SocketError::Stalled`].
    pub read_timeout: Duration,
    /// Wall-clock budget for one shard to assemble one round's frames.
    /// Exceeding it aborts the run with [`SocketError::Timeout`].
    pub round_timeout: Duration,
    /// Wall-clock budget for the whole connect/accept/hello mesh
    /// establishment.
    pub handshake_timeout: Duration,
    /// Upper bound on a packet's advertised frame length; a stream
    /// announcing more is treated as framing garbage.
    pub max_frame: usize,
    /// Test hook: shard `s` sleeps `handshake_delays[s]` (when present)
    /// before opening its outbound connections.
    pub handshake_delays: Vec<Duration>,
}

impl SocketPlan {
    /// A plan with `shards` shard threads and default window, timeouts
    /// and frame cap.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        SocketPlan {
            shards,
            window: ShardPlan::DEFAULT_WINDOW,
            read_timeout: Duration::from_secs(1),
            round_timeout: Duration::from_secs(10),
            handshake_timeout: Duration::from_secs(10),
            max_frame: 1 << 26,
            handshake_delays: Vec::new(),
        }
    }

    /// Replaces the bounded-skew window.
    ///
    /// # Panics
    /// Panics if `window == 0`.
    #[must_use]
    pub fn with_window(mut self, window: Round) -> Self {
        assert!(window >= 1, "window length must be at least one round");
        self.window = window;
        self
    }

    /// Replaces the per-connection read timeout.
    ///
    /// # Panics
    /// Panics if `timeout` is zero.
    #[must_use]
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        assert!(!timeout.is_zero(), "read timeout must be positive");
        self.read_timeout = timeout;
        self
    }

    /// Replaces the per-round assembly budget.
    ///
    /// # Panics
    /// Panics if `timeout` is zero.
    #[must_use]
    pub fn with_round_timeout(mut self, timeout: Duration) -> Self {
        assert!(!timeout.is_zero(), "round timeout must be positive");
        self.round_timeout = timeout;
        self
    }

    /// Replaces the mesh-establishment budget.
    ///
    /// # Panics
    /// Panics if `timeout` is zero.
    #[must_use]
    pub fn with_handshake_timeout(mut self, timeout: Duration) -> Self {
        assert!(!timeout.is_zero(), "handshake timeout must be positive");
        self.handshake_timeout = timeout;
        self
    }

    /// Makes shard `shard` delay its outbound connections by `delay`
    /// (the slow/late-peer test hook).
    #[must_use]
    pub fn with_handshake_delay(mut self, shard: usize, delay: Duration) -> Self {
        if self.handshake_delays.len() <= shard {
            self.handshake_delays.resize(shard + 1, Duration::ZERO);
        }
        self.handshake_delays[shard] = delay;
        self
    }

    /// The contiguous per-shard process ranges (identical partition to
    /// the sharded engine).
    fn ranges(&self, n: usize) -> Vec<std::ops::Range<usize>> {
        ShardPlan::new(self.shards)
            .with_window(self.window)
            .ranges(n)
    }
}

/// Why a socket run failed. Transport-level trouble is fatal for the
/// whole run (one failing shard aborts its peers, which surface
/// [`SocketError::Aborted`]); per-edge frame corruption is *not* an
/// error — it is quarantined into the trace like in every codec engine.
#[derive(Debug)]
pub enum SocketError {
    /// Binding a loopback listener failed (no loopback in this
    /// environment, exhausted ports, …).
    Bind(io::Error),
    /// Connecting to shard `to`'s listener failed.
    Connect {
        /// The shard whose listener refused us.
        to: usize,
        /// The underlying socket error.
        source: io::Error,
    },
    /// The connect/accept/hello mesh did not establish within the
    /// handshake budget, or a hello was malformed.
    Handshake {
        /// What went wrong.
        detail: &'static str,
    },
    /// A mid-run read or write on an established connection failed.
    Io {
        /// The shard at the other end of the connection.
        peer: usize,
        /// The underlying socket error.
        source: io::Error,
    },
    /// The stream carried bytes that can never parse as a packet (junk
    /// preamble, oversized length prefix, out-of-domain header).
    Frame {
        /// The shard at the other end of the connection.
        peer: usize,
        /// The stream-framing parse error.
        source: WireError,
    },
    /// The peer went silent *inside* a packet for longer than the read
    /// timeout.
    Stalled {
        /// The shard at the other end of the connection.
        peer: usize,
    },
    /// The peer closed the connection *inside* a packet (a clean close
    /// at a packet boundary is a normal end of stream).
    Disconnected {
        /// The shard at the other end of the connection.
        peer: usize,
    },
    /// A shard could not assemble a round's frames within the round
    /// budget.
    Timeout {
        /// The shard whose round never completed.
        shard: usize,
        /// The round it was assembling.
        round: Round,
    },
    /// Another shard failed first; this shard was released from a
    /// barrier or channel wait without a verdict.
    Aborted,
}

impl std::fmt::Display for SocketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SocketError::Bind(e) => write!(f, "binding loopback listener failed: {e}"),
            SocketError::Connect { to, source } => {
                write!(f, "connecting to shard {to} failed: {source}")
            }
            SocketError::Handshake { detail } => write!(f, "socket handshake failed: {detail}"),
            SocketError::Io { peer, source } => {
                write!(f, "socket I/O with shard {peer} failed: {source}")
            }
            SocketError::Frame { peer, source } => {
                write!(f, "unparseable stream framing from shard {peer}: {source}")
            }
            SocketError::Stalled { peer } => {
                write!(f, "shard {peer} stalled mid-frame past the read timeout")
            }
            SocketError::Disconnected { peer } => {
                write!(f, "shard {peer} disconnected mid-frame")
            }
            SocketError::Timeout { shard, round } => {
                write!(f, "shard {shard} could not assemble round {round} in time")
            }
            SocketError::Aborted => write!(f, "run aborted by a failure on another shard"),
        }
    }
}

impl std::error::Error for SocketError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SocketError::Bind(e)
            | SocketError::Connect { source: e, .. }
            | SocketError::Io { source: e, .. } => Some(e),
            SocketError::Frame { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// What [`PacketStream::next_event`] observed on the stream.
#[derive(Debug)]
pub enum PacketEvent {
    /// One complete packet arrived.
    Packet(FramedPacket),
    /// The read timed out at a packet *boundary*: nothing is in flight,
    /// the caller decides whether to keep waiting (the engine's readers
    /// use these wakeups to poll the abort flag).
    Idle,
    /// The peer closed the stream cleanly, at a packet boundary.
    Eof,
}

/// A blocking packet reader over one TCP connection: wraps the stream
/// together with an incremental [`PacketBuffer`], turning raw reads —
/// fragmented however the kernel pleases — into whole packets and typed
/// failures.
///
/// The timeout semantics implement the stall taxonomy of the module
/// docs: a read timeout with an *empty* parse buffer is [`PacketEvent::Idle`]
/// (benign — rounds legitimately go quiet), a read timeout with a
/// *partial packet* buffered is [`SocketError::Stalled`] (the peer
/// started a packet and froze: a single `write_all` never does that for
/// longer than a scheduling blip), and EOF mid-packet is
/// [`SocketError::Disconnected`]. This type is public so the negative-path
/// suite drives the exact code the engine's reader threads run.
#[derive(Debug)]
pub struct PacketStream {
    stream: TcpStream,
    buf: PacketBuffer,
    peer: usize,
    chunk: Vec<u8>,
}

impl PacketStream {
    /// Wraps `stream`, reporting `peer` in errors, parsing packets over
    /// a universe of `universe` processes with frames capped at
    /// `max_frame` bytes, and reading with `read_timeout`.
    pub fn new(
        stream: TcpStream,
        peer: usize,
        universe: usize,
        max_frame: usize,
        read_timeout: Duration,
    ) -> io::Result<Self> {
        stream.set_read_timeout(Some(read_timeout))?;
        Ok(PacketStream {
            stream,
            buf: PacketBuffer::new(universe, max_frame),
            peer,
            chunk: vec![0u8; 16 * 1024],
        })
    }

    /// Blocks (up to the read timeout) for the next stream event.
    pub fn next_event(&mut self) -> Result<PacketEvent, SocketError> {
        loop {
            match self.buf.try_next() {
                Ok(Some(p)) => return Ok(PacketEvent::Packet(p)),
                Ok(None) => {}
                Err(source) => {
                    return Err(SocketError::Frame {
                        peer: self.peer,
                        source,
                    })
                }
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => {
                    return if self.buf.mid_packet() {
                        Err(SocketError::Disconnected { peer: self.peer })
                    } else {
                        Ok(PacketEvent::Eof)
                    };
                }
                // lint: allow(panic) — `read` returns `k <= chunk.len()`
                // by the `Read` contract.
                Ok(k) => self.buf.feed(&self.chunk[..k]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return if self.buf.mid_packet() {
                        Err(SocketError::Stalled { peer: self.peer })
                    } else {
                        Ok(PacketEvent::Idle)
                    };
                }
                Err(source) => {
                    return Err(SocketError::Io {
                        peer: self.peer,
                        source,
                    })
                }
            }
        }
    }
}

/// An inter-shard packet as the shard inboxes carry it.
type Packet = (Round, ProcessId, ProcessId, Bytes);

/// What a reader thread forwards: a parsed packet, or the typed error
/// that killed its connection.
type Inbound = Result<Packet, SocketError>;

/// What one shard thread hands back when the run stops (mirrors the
/// sharded engine's outcome record).
struct ShardOutcome<A> {
    algs: Vec<A>,
    first_decisions: Vec<Option<(Round, Value)>>,
    stats: MsgStats,
    faults: FaultStats,
    anomalies: Vec<String>,
    rounds_executed: Round,
}

/// A generation barrier whose waits can fail: like
/// [`crate::sync::ParkingBarrier::wait_eval`] but any participant can
/// [`AbortableBarrier::abort`] the whole barrier, releasing every
/// current and future waiter with an error — a shard whose socket died
/// must never leave its peers parked forever. Socket rounds park in the
/// kernel anyway (reads, channel waits), so this barrier skips the spin
/// phase and goes straight to a `Condvar`.
struct AbortableBarrier {
    state: Mutex<BarrierState>,
    cv: Condvar,
    parties: usize,
}

struct BarrierState {
    arrived: usize,
    generation: u64,
    verdict: bool,
    aborted: bool,
}

impl AbortableBarrier {
    fn new(parties: usize) -> Self {
        AbortableBarrier {
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                verdict: false,
                aborted: false,
            }),
            cv: Condvar::new(),
            parties,
        }
    }

    /// Waits for all parties; the last arriver evaluates `eval` and all
    /// parties return its verdict — unless the barrier was aborted, in
    /// which case every waiter gets `Err(Aborted)`.
    fn wait_eval(&self, eval: impl FnOnce() -> bool) -> Result<bool, SocketError> {
        let mut st = self.state.lock().expect("barrier mutex poisoned");
        if st.aborted {
            return Err(SocketError::Aborted);
        }
        let gen = st.generation;
        st.arrived += 1;
        if st.arrived == self.parties {
            st.arrived = 0;
            st.generation += 1;
            let verdict = eval();
            st.verdict = verdict;
            drop(st);
            self.cv.notify_all();
            return Ok(verdict);
        }
        loop {
            st = self.cv.wait(st).expect("barrier mutex poisoned");
            if st.aborted {
                return Err(SocketError::Aborted);
            }
            if st.generation != gen {
                return Ok(st.verdict);
            }
        }
    }

    fn wait(&self) -> Result<(), SocketError> {
        self.wait_eval(|| false).map(|_| ())
    }

    /// Permanently fails the barrier, waking every waiter.
    fn abort(&self) {
        let mut st = self.state.lock().expect("barrier mutex poisoned");
        st.aborted = true;
        drop(st);
        self.cv.notify_all();
    }
}

/// Everything a shard needs to declare the run dead and get out: the
/// shared abort flag plus both barriers to release.
struct AbortHandle<'a> {
    flag: &'a AtomicBool,
    barrier: &'a AbortableBarrier,
    windowed: &'a AbortableBarrier,
}

impl AbortHandle<'_> {
    /// Marks the run aborted and returns `e` for propagation.
    fn fail<T>(&self, e: SocketError) -> Result<T, SocketError> {
        self.flag.store(true, Ordering::Release);
        self.barrier.abort();
        self.windowed.abort();
        Err(e)
    }
}

/// Runs `algs` against `schedule` with inter-shard frames carried over
/// loopback TCP and no fault plane. Byte-identical in trace, `msg_stats`
/// and (empty) fault ledger to [`super::run_lockstep_codec`] with
/// [`NoFaults`] — and hence to [`super::run_lockstep`].
///
/// Returns a typed [`SocketError`] when the transport fails (loopback
/// unavailable, handshake timeout, mid-run stall/disconnect); see
/// [`run_socket_codec`] for the failure taxonomy.
///
/// # Panics
/// Panics if `algs.len() != schedule.n()` or an engine thread panics.
pub fn run_socket<S, A>(
    schedule: &S,
    algs: Vec<A>,
    until: RunUntil,
    plan: SocketPlan,
) -> Result<(RunTrace, Vec<A>), SocketError>
where
    S: Schedule + Sync + ?Sized,
    A: RoundAlgorithm,
    A::Msg: Wire,
{
    run_socket_codec(schedule, algs, until, plan, &NoFaults)
}

/// [`run_socket`] with a fault plane: every frame — including the
/// intra-shard hand-offs that never touch a socket — passes through
/// `plane` at the receiver, exactly like the in-process codec engines.
/// Frames the plane destroys are quarantined into the trace's
/// [`FaultStats`]; the resulting trace is byte-identical to
/// [`super::run_lockstep_codec`] over the same schedule, seed and
/// horizon (pinned by `tests/fault_plane.rs` and `tests/conformance.rs`).
///
/// # Panics
/// Panics if `algs.len() != schedule.n()` or an engine thread panics.
pub fn run_socket_codec<S, A, P>(
    schedule: &S,
    algs: Vec<A>,
    until: RunUntil,
    plan: SocketPlan,
    plane: &P,
) -> Result<(RunTrace, Vec<A>), SocketError>
where
    S: Schedule + Sync + ?Sized,
    A: RoundAlgorithm,
    A::Msg: Wire,
    P: FaultPlane,
{
    let n = schedule.n();
    assert_eq!(
        algs.len(),
        n,
        "need exactly one algorithm instance per process"
    );
    let transport = CodecTransport::new(plane);

    let ranges = plan.ranges(n);
    let shards = ranges.len();
    let mut shard_of = vec![0usize; n];
    for (s, range) in ranges.iter().enumerate() {
        for p in range.clone() {
            shard_of[p] = s;
        }
    }

    // --- mesh establishment -------------------------------------------
    let mut listeners = Vec::with_capacity(shards);
    let mut addrs: Vec<SocketAddr> = Vec::with_capacity(shards);
    for _ in 0..shards {
        let l = TcpListener::bind(("127.0.0.1", 0)).map_err(SocketError::Bind)?;
        addrs.push(l.local_addr().map_err(SocketError::Bind)?);
        listeners.push(l);
    }
    let deadline = Instant::now() + plan.handshake_timeout;
    let (outs_res, ins_res) = std::thread::scope(|scope| {
        let addrs = &addrs;
        let delays = &plan.handshake_delays;
        let connector = scope.spawn(move || connect_mesh(addrs, delays, plan.round_timeout));
        let ins = accept_mesh(&listeners, shards, deadline, plan.read_timeout);
        (connector.join().expect("connector thread panicked"), ins)
    });
    drop(listeners);
    let outs = outs_res?;
    let ins = ins_res?;

    // --- run ----------------------------------------------------------
    let abort = AtomicBool::new(false);
    let barrier = AbortableBarrier::new(shards);
    let windowed = AbortableBarrier::new(shards);
    let decided: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();

    let mut txs: Vec<Sender<Inbound>> = Vec::with_capacity(shards);
    let mut rxs: Vec<Option<Receiver<Inbound>>> = Vec::with_capacity(shards);
    for _ in 0..shards {
        let (tx, rx) = unbounded();
        txs.push(tx);
        rxs.push(Some(rx));
    }

    let mut algs = algs;
    let mut shard_algs: Vec<Vec<A>> = Vec::with_capacity(shards);
    for range in ranges.iter().rev() {
        shard_algs.push(algs.split_off(range.start));
    }
    shard_algs.reverse();

    let mut outcomes: Vec<Option<Result<ShardOutcome<A>, SocketError>>> =
        (0..shards).map(|_| None).collect();

    std::thread::scope(|scope| {
        // One reader thread per inbound connection: parse packets off
        // the wire and forward them (or the connection's death) into the
        // owning shard's inbox. Readers drain unconditionally, so a
        // sender's `write_all` can never block on a full kernel buffer
        // for long — the flow-control argument of the sharded engine
        // carries over with the backlog living in the unbounded inbox.
        for (t, conns) in ins.into_iter().enumerate() {
            for (peer, stream) in conns {
                let tx = txs[t].clone();
                let abort = &abort;
                let ps = PacketStream::new(stream, peer, n, plan.max_frame, plan.read_timeout);
                scope.spawn(move || match ps {
                    Ok(mut ps) => reader_loop(&mut ps, &tx, abort),
                    Err(source) => {
                        let _ = tx.send(Err(SocketError::Io { peer, source }));
                    }
                });
            }
        }

        let mut handles = Vec::with_capacity(shards);
        for ((s, owned), conns) in shard_algs.into_iter().enumerate().zip(outs) {
            let rx = rxs[s].take().expect("receiver taken twice");
            let range = ranges[s].clone();
            let shard_of = &shard_of;
            let aborter = AbortHandle {
                flag: &abort,
                barrier: &barrier,
                windowed: &windowed,
            };
            let decided = &decided;
            let transport = &transport;
            let plan = &plan;
            handles.push(scope.spawn(move || {
                run_socket_shard(
                    schedule, range, owned, rx, conns, shard_of, aborter, decided, until, plan,
                    transport,
                )
            }));
        }
        for (s, h) in handles.into_iter().enumerate() {
            outcomes[s] = Some(h.join().expect("shard thread panicked"));
        }
    });
    drop(txs);

    // One failing shard aborts the others; report the root cause (the
    // lowest-indexed shard with a non-Aborted error), not the echo.
    let mut aborted = false;
    let mut collected = Vec::with_capacity(shards);
    for outcome in outcomes {
        match outcome.expect("missing shard outcome") {
            Ok(o) => collected.push(o),
            Err(SocketError::Aborted) => aborted = true,
            Err(e) => return Err(e),
        }
    }
    if aborted {
        return Err(SocketError::Aborted);
    }

    let mut trace = RunTrace::new(n);
    let mut algs_back = Vec::with_capacity(n);
    for (s, o) in collected.into_iter().enumerate() {
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
    Ok((trace, algs_back))
}

/// Opens the `shards · (shards − 1)` outbound connections: shard `s`
/// dials every other shard's listener and introduces itself with a
/// one-varint hello. Returns, per shard, its outbound streams indexed by
/// destination shard (`None` on the diagonal).
fn connect_mesh(
    addrs: &[SocketAddr],
    delays: &[Duration],
    write_timeout: Duration,
) -> Result<Vec<Vec<Option<TcpStream>>>, SocketError> {
    let shards = addrs.len();
    let mut outs: Vec<Vec<Option<TcpStream>>> = (0..shards)
        .map(|_| (0..shards).map(|_| None).collect())
        .collect();
    for (s, row) in outs.iter_mut().enumerate() {
        if let Some(d) = delays.get(s) {
            std::thread::sleep(*d);
        }
        for (t, slot) in row.iter_mut().enumerate() {
            if t == s {
                continue;
            }
            // lint: allow(panic) — `t` enumerates a row of the
            // `addrs.len()`-square mesh, so `t < addrs.len()`.
            let mut stream = TcpStream::connect(addrs[t])
                .map_err(|e| SocketError::Connect { to: t, source: e })?;
            stream
                .set_nodelay(true)
                .map_err(|e| SocketError::Connect { to: t, source: e })?;
            stream
                .set_write_timeout(Some(write_timeout))
                .map_err(|e| SocketError::Connect { to: t, source: e })?;
            let mut hello = Vec::with_capacity(2);
            write_uvarint(&mut hello, s as u64);
            stream
                .write_all(&hello)
                .map_err(|e| SocketError::Connect { to: t, source: e })?;
            *slot = Some(stream);
        }
    }
    Ok(outs)
}

/// Accepts the inbound half of the mesh: each listener collects
/// `shards − 1` connections, reading each dialer's hello to learn which
/// shard is on the other end. Polls non-blockingly against `deadline` so
/// a peer that never connects produces a typed handshake failure, not a
/// hang.
fn accept_mesh(
    listeners: &[TcpListener],
    shards: usize,
    deadline: Instant,
    read_timeout: Duration,
) -> Result<Vec<Vec<(usize, TcpStream)>>, SocketError> {
    let mut ins: Vec<Vec<(usize, TcpStream)>> = (0..shards).map(|_| Vec::new()).collect();
    for (t, (l, accepted)) in listeners.iter().zip(ins.iter_mut()).enumerate() {
        l.set_nonblocking(true).map_err(SocketError::Bind)?;
        while accepted.len() < shards - 1 {
            match l.accept() {
                Ok((stream, _)) => {
                    let setup = stream
                        .set_nonblocking(false)
                        .and_then(|()| stream.set_nodelay(true))
                        .and_then(|()| stream.set_read_timeout(Some(read_timeout)));
                    if setup.is_err() {
                        return Err(SocketError::Handshake {
                            detail: "configuring an accepted connection failed",
                        });
                    }
                    let mut stream = stream;
                    let peer = read_hello(&mut stream, deadline)?;
                    if peer >= shards || peer == t {
                        return Err(SocketError::Handshake {
                            detail: "hello announced an impossible shard id",
                        });
                    }
                    if accepted.iter().any(|(p, _)| *p == peer) {
                        return Err(SocketError::Handshake {
                            detail: "two connections announced the same shard id",
                        });
                    }
                    accepted.push((peer, stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(SocketError::Handshake {
                            detail: "a peer did not connect before the handshake deadline",
                        });
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(SocketError::Bind(e)),
            }
        }
    }
    Ok(ins)
}

/// Reads the dialer's one-varint hello off a freshly accepted
/// connection, bounded by the handshake deadline.
fn read_hello(stream: &mut TcpStream, deadline: Instant) -> Result<usize, SocketError> {
    let mut buf: Vec<u8> = Vec::with_capacity(2);
    let mut byte = [0u8; 1];
    loop {
        match try_read_uvarint(&buf) {
            Ok(Some((v, used))) if used == buf.len() => return Ok(v as usize),
            Ok(_) => {}
            Err(_) => {
                return Err(SocketError::Handshake {
                    detail: "malformed hello varint",
                })
            }
        }
        if Instant::now() >= deadline {
            return Err(SocketError::Handshake {
                detail: "hello not received before the handshake deadline",
            });
        }
        match stream.read(&mut byte) {
            Ok(0) => {
                return Err(SocketError::Handshake {
                    detail: "peer closed during hello",
                })
            }
            // lint: allow(panic) — `byte` is a fixed `[u8; 1]`; index 0
            // always exists.
            Ok(_) => buf.push(byte[0]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(_) => {
                return Err(SocketError::Handshake {
                    detail: "reading hello failed",
                })
            }
        }
    }
}

/// One connection's reader thread: forward packets into the shard inbox
/// until the stream ends, the connection dies (forward the typed error
/// once, then exit), the inbox's shard is gone, or the run aborts.
fn reader_loop(ps: &mut PacketStream, tx: &Sender<Inbound>, abort: &AtomicBool) {
    loop {
        if abort.load(Ordering::Acquire) {
            return;
        }
        match ps.next_event() {
            Ok(PacketEvent::Packet(p)) => {
                if tx.send(Ok((p.round, p.from, p.to, p.frame))).is_err() {
                    // The owning shard finished and dropped its inbox:
                    // whatever remains on this stream is a speculative
                    // round that will never execute.
                    return;
                }
            }
            Ok(PacketEvent::Idle) => {}
            Ok(PacketEvent::Eof) => return,
            Err(e) => {
                let _ = tx.send(Err(e));
                return;
            }
        }
    }
}

/// The per-thread round loop over one contiguous shard of processes —
/// the socket twin of the sharded engine's `run_shard`, with inter-shard
/// frames written to TCP streams and every failure path routed through
/// the abort handle so peers are always released.
#[allow(clippy::too_many_arguments)]
fn run_socket_shard<S, A, T>(
    schedule: &S,
    range: std::ops::Range<usize>,
    mut algs: Vec<A>,
    rx: Receiver<Inbound>,
    mut outs: Vec<Option<TcpStream>>,
    shard_of: &[usize],
    aborter: AbortHandle<'_>,
    decided: &[AtomicBool],
    until: RunUntil,
    plan: &SocketPlan,
    transport: &T,
) -> Result<ShardOutcome<A>, SocketError>
where
    S: Schedule + Sync + ?Sized,
    A: RoundAlgorithm,
    A::Msg: WireSized,
    T: Transport<A::Msg, Frame = Bytes>,
{
    let n = schedule.n();
    let me = shard_of[range.start];
    let k = range.len();
    let static_horizon = until.static_horizon();
    let mut stats = MsgStats::default();
    let mut faults = FaultStats::new();
    let mut first_decisions: Vec<Option<(Round, Value)>> = vec![None; k];
    let mut anomalies = Vec::new();
    // Early arrivals from a future round, plus this shard's own
    // intra-shard frames (the codec transport defers local hand-offs so
    // the fault plane touches them at round time; see the sharded
    // engine).
    let mut stash: VecDeque<Packet> = VecDeque::new();
    let mut g = Digraph::empty(n);
    let mut rcvs: Vec<Received<A::Msg>> = (0..k).map(|_| Received::new(n)).collect();
    // One decode per (round, sender) shared by every resident receiver,
    // whether its frame came from the stash or over TCP.
    let mut cache: DecodeCache<A::Msg> = DecodeCache::new();
    let mut r: Round = FIRST_ROUND;

    // 1. Send along the out-edges of G^r.
    if let Err(e) = broadcast(
        schedule, &range, &algs, r, &mut g, &mut stash, &mut outs, shard_of, &mut stats, transport,
    ) {
        return aborter.fail(e);
    }

    loop {
        // 2. Receive one frame per in-edge of G^r (the codec transport
        // defers local hand-offs, so every in-edge counts), bounded by
        // the round budget.
        let mut remaining = 0usize;
        for p in range.clone() {
            for q in g.in_neighbors(ProcessId::from_usize(p)).iter() {
                remaining += usize::from(T::DEFERS_LOCAL || shard_of[q.index()] != me);
            }
        }
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
        let round_deadline = Instant::now() + plan.round_timeout;
        while remaining > 0 {
            let budget = round_deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(budget) {
                Ok(Ok((pr, q, to, f))) => {
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
                Ok(Err(e)) => return aborter.fail(e),
                Err(RecvTimeoutError::Timeout) => {
                    return aborter.fail(SocketError::Timeout {
                        shard: me,
                        round: r,
                    });
                }
                // The main thread keeps every sender alive until all
                // shards have joined; a disconnect here means the run is
                // being torn down around us.
                Err(RecvTimeoutError::Disconnected) => return Err(SocketError::Aborted),
            }
        }

        // 3. Transition every resident process, publish decision status.
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

        // 4. Close the round — same protocol as the sharded engine
        // (windowed skew bound under a fixed horizon, speculative
        // broadcast + leader verdict under all-decided), but on the
        // abortable barrier.
        let stop = match static_horizon {
            Some(horizon) => {
                let stop = r >= horizon;
                if !stop {
                    if let Err(e) = broadcast(
                        schedule,
                        &range,
                        &algs,
                        r + 1,
                        &mut g,
                        &mut stash,
                        &mut outs,
                        shard_of,
                        &mut stats,
                        transport,
                    ) {
                        return aborter.fail(e);
                    }
                    if r.is_multiple_of(plan.window) {
                        aborter.windowed.wait()?;
                    }
                }
                stop
            }
            None => {
                let spec = match broadcast(
                    schedule,
                    &range,
                    &algs,
                    r + 1,
                    &mut g,
                    &mut stash,
                    &mut outs,
                    shard_of,
                    &mut stats,
                    transport,
                ) {
                    Ok(spec) => spec,
                    Err(e) => return aborter.fail(e),
                };
                let stop = aborter.barrier.wait_eval(|| {
                    let all = decided.iter().all(|d| d.load(Ordering::Acquire));
                    until.should_stop(r, all)
                })?;
                if stop {
                    // The speculative round never executes: roll its
                    // accounting back (its packets die unread in the
                    // inboxes and kernel buffers).
                    stats -= &spec;
                }
                stop
            }
        };
        if stop {
            return Ok(ShardOutcome {
                algs,
                first_decisions,
                stats,
                faults,
                anomalies,
                rounds_executed: r,
            });
        }
        r += 1;
    }
}

/// Runs the sending function of every resident process for round `r` and
/// ships the sealed frames along the out-edges of `G^r` (left in `g`):
/// intra-shard edges are parked in `stash` (the codec transport defers
/// them to round time), inter-shard edges become one
/// [`encode_packet`]-framed write on the destination shard's stream.
/// Accounting matches the in-process engines exactly. Returns the
/// broadcast's own stats so a speculative broadcast can be rolled back.
#[allow(clippy::too_many_arguments)]
fn broadcast<S, A, T>(
    schedule: &S,
    range: &std::ops::Range<usize>,
    algs: &[A],
    r: Round,
    g: &mut Digraph,
    stash: &mut VecDeque<Packet>,
    outs: &mut [Option<TcpStream>],
    shard_of: &[usize],
    stats: &mut MsgStats,
    transport: &T,
) -> Result<MsgStats, SocketError>
where
    S: Schedule + Sync + ?Sized,
    A: RoundAlgorithm,
    A::Msg: WireSized,
    T: Transport<A::Msg, Frame = Bytes>,
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
                stash.push_back((r, p, v, frame.clone()));
            } else {
                let pkt = encode_packet(r, p, v, &frame);
                let stream = outs[s].as_mut().expect("missing outbound stream");
                stream
                    .write_all(&pkt)
                    .map_err(|e| SocketError::Io { peer: s, source: e })?;
            }
        }
    }
    *stats += &totals;
    Ok(totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::lockstep::{run_lockstep, run_lockstep_codec};
    use crate::fault::CorruptionOverlay;
    use crate::schedule::{FixedSchedule, TableSchedule};

    /// Same toy algorithm as the other engines' tests.
    #[derive(Debug)]
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

    fn loopback() -> bool {
        TcpListener::bind(("127.0.0.1", 0)).is_ok()
    }

    #[test]
    fn socket_matches_lockstep_on_synchronous_runs() {
        if !loopback() {
            eprintln!("skipping: loopback unavailable");
            return;
        }
        for n in [1usize, 2, 3, 8] {
            for shards in [1usize, 2, 3] {
                let s = FixedSchedule::synchronous(n);
                let until = RunUntil::AllDecided { max_rounds: 20 };
                let (t1, _) = run_lockstep(&s, spawn(n, 3), until);
                let (t2, _) = run_socket(&s, spawn(n, 3), until, SocketPlan::new(shards))
                    .expect("socket run");
                assert_eq!(t1.decisions, t2.decisions, "n={n} shards={shards}");
                assert_eq!(t1.rounds_executed, t2.rounds_executed);
                assert_eq!(t1.msg_stats, t2.msg_stats);
                assert!(t2.anomalies.is_empty());
            }
        }
    }

    #[test]
    fn socket_matches_lockstep_on_dynamic_graphs_under_fixed_horizon() {
        if !loopback() {
            eprintln!("skipping: loopback unavailable");
            return;
        }
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
        for window in [1u32, 3, 8] {
            let plan = SocketPlan::new(3).with_window(window);
            let (t2, _) = run_socket(&s, spawn(n, 5), until, plan).expect("socket run");
            assert_eq!(t1.decisions, t2.decisions, "window={window}");
            assert_eq!(t1.msg_stats, t2.msg_stats, "window={window}");
            assert_eq!(t1.rounds_executed, t2.rounds_executed);
        }
    }

    #[test]
    fn socket_codec_ledger_matches_lockstep_codec() {
        if !loopback() {
            eprintln!("skipping: loopback unavailable");
            return;
        }
        let n = 6;
        let s = FixedSchedule::synchronous(n);
        let plane = CorruptionOverlay::new(0x50c_8e7, 0.5);
        let until = RunUntil::Rounds(8);
        let (ls, _) = run_lockstep_codec(&s, spawn(n, 4), until, &plane);
        let (sock, _) =
            run_socket_codec(&s, spawn(n, 4), until, SocketPlan::new(3), &plane).expect("socket");
        assert_eq!(ls.decisions, sock.decisions);
        assert_eq!(ls.msg_stats, sock.msg_stats);
        assert_eq!(ls.faults, sock.faults);
    }

    #[test]
    fn handshake_deadline_fails_typed_not_hanging() {
        if !loopback() {
            eprintln!("skipping: loopback unavailable");
            return;
        }
        let s = FixedSchedule::synchronous(4);
        let plan = SocketPlan::new(2)
            .with_handshake_timeout(Duration::from_millis(50))
            .with_handshake_delay(1, Duration::from_millis(400));
        let started = Instant::now();
        let err = run_socket(&s, spawn(4, 2), RunUntil::Rounds(4), plan)
            .expect_err("late shard must fail the handshake");
        assert!(matches!(err, SocketError::Handshake { .. }), "got {err}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "handshake failure was not bounded"
        );
    }

    #[test]
    fn plan_builders_validate() {
        let plan = SocketPlan::new(3)
            .with_window(2)
            .with_read_timeout(Duration::from_millis(10))
            .with_round_timeout(Duration::from_millis(20))
            .with_handshake_timeout(Duration::from_millis(30))
            .with_handshake_delay(2, Duration::from_millis(5));
        assert_eq!(plan.window, 2);
        assert_eq!(plan.handshake_delays.len(), 3);
        assert_eq!(plan.handshake_delays[2], Duration::from_millis(5));
        assert_eq!(plan.handshake_delays[0], Duration::ZERO);
    }

    #[test]
    fn abortable_barrier_releases_waiters_on_abort() {
        let b = Arc::new(AbortableBarrier::new(2));
        let waiter = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || b.wait())
        };
        // Give the waiter a moment to park, then abort instead of
        // arriving.
        std::thread::sleep(Duration::from_millis(20));
        b.abort();
        assert!(matches!(
            waiter.join().expect("waiter panicked"),
            Err(SocketError::Aborted)
        ));
        // Future waits fail immediately.
        assert!(matches!(b.wait(), Err(SocketError::Aborted)));
    }
}
