//! The fault-injection plane: framed payloads, seeded in-flight frame
//! corruption, and quarantine accounting.
//!
//! The engines normally hand payloads between processes as shared
//! [`Arc`] references — nothing can go wrong between a send and a
//! receive. This module puts the *real byte path* under test instead:
//! in **codec-boundary mode** (`run_lockstep_codec` and friends) every
//! payload is encoded into a checksummed frame ([`seal`]), carried as
//! bytes, optionally mangled in flight by a [`FaultPlane`], and decoded
//! back at the receiver ([`open`]). Receivers never panic on garbage:
//! a frame that fails to decode (or fails its checksum) is *quarantined*
//! — recorded in the run's [`FaultStats`] with its typed [`WireError`]
//! cause and treated exactly like a dropped message.
//!
//! The pieces:
//!
//! * [`seal`] / [`open`] — the frame envelope: the payload's canonical
//!   wire encoding followed by a 64-bit FNV-1a checksum. Truncation,
//!   junk and bit-flips inside the payload surface as the decoder's own
//!   typed errors (the taxonomy pinned by `wire_negative.rs`); tampering
//!   that still decodes is caught by the checksum.
//! * [`encode_packet`] / [`PacketBuffer`] — stream framing for transports
//!   that carry frames over a real byte stream (the socket engine): a
//!   routed packet header ahead of each sealed frame, and an incremental
//!   parser that survives arbitrary read fragmentation and distinguishes
//!   *incomplete* (more bytes coming) from *corrupt* (typed, fatal for
//!   the connection).
//! * [`Tamper`] — the corruption taxonomy (drop, bit-flip, truncation,
//!   junk prefix/suffix, duplication), each variant carrying its own
//!   seeded parameters.
//! * [`CorruptionOverlay`] — a seeded [`FaultPlane`]: whether and how the
//!   frame on edge `(from → to)` of round `r` is mangled is a **pure
//!   function of `(seed, round, from, to)`**, so every run reproduces
//!   from one `u64` and all three engines observe the *identical* fault
//!   pattern. Loopback frames (`from == to`) are never tampered: every
//!   process always hears itself, which keeps the effective schedule a
//!   valid schedule (self-loops are mandatory) and mirrors the fact that
//!   a local hand-off does not cross a network.
//! * [`EffectiveSchedule`] — the *surviving* schedule: the base schedule
//!   minus every edge whose frame the plane destroys. This is the
//!   conformance oracle — a corrupted run must still satisfy k-agreement
//!   at the effective schedule's `min_k` within its Lemma-11 bound.
//! * [`FaultStats`] — per-edge quarantine/drop records, merged into the
//!   run trace and byte-identical across engines for the same seed.
//! * [`Transport`] — the internal seam the engines are generic over:
//!   [`ArcTransport`] is the classic shared-reference hand-off,
//!   [`CodecTransport`] the framed byte path with a fault plane. With
//!   [`NoFaults`], codec mode is trace- and stats-identical to Arc mode
//!   (pinned by `tests/fault_plane.rs`).

use std::sync::Arc;

use bytes::{Buf, Bytes};
use sskel_graph::{Digraph, ProcessId, ProcessSet, Round, FIRST_ROUND};

use crate::adversary::{edge_round_hash, splitmix64};
use crate::schedule::Schedule;
use crate::wire::{try_read_uvarint, write_uvarint, Wire, WireError};

/// Domain-separation salt mixed into [`CorruptionOverlay`] seeds so a
/// corruption plane sharing a seed with an adversary family does not
/// correlate with its noise pattern.
const CORRUPTION_SALT: u64 = 0x000b_adf8_a3e5_c0de;

/// Size of the frame trailer: a little-endian FNV-1a 64-bit checksum of
/// the payload bytes.
const FRAME_CHECK_BYTES: usize = 8;

/// FNV-1a over `bytes`. One multiply and one xor per byte; the odd prime
/// multiplier is invertible mod 2⁶⁴, so any *single*-byte change always
/// changes the digest, and broader tampering collides only with
/// probability ≈ 2⁻⁶⁴ — and deterministically so, which is what lets the
/// conformance suite pin exact quarantine counts per seed.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Encodes `m` into a checksummed frame: the canonical wire encoding
/// followed by `fnv64` of those payload bytes, little-endian.
pub fn seal<M: Wire>(m: &M) -> Bytes {
    let mut buf: Vec<u8> = Vec::with_capacity(m.wire_bytes() + FRAME_CHECK_BYTES);
    m.encode(&mut buf);
    debug_assert_eq!(buf.len(), m.wire_bytes(), "wire_bytes out of sync");
    let crc = fnv64(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    Bytes::from(buf)
}

/// Decodes a frame produced by [`seal`], possibly tampered in flight.
///
/// Never panics on arbitrary input; the error taxonomy is layered so the
/// richest diagnosis wins:
///
/// 1. a frame too short to carry its trailer is [`WireError::UnexpectedEnd`];
/// 2. a payload that fails to decode propagates the codec's own typed
///    error (truncation → `UnexpectedEnd`, padded varints →
///    `NonCanonical`, domain breaches → `InvalidValue`);
/// 3. a payload that decodes but does not span exactly the framed bytes
///    (junk appended inside the frame) is `InvalidValue`;
/// 4. a payload that decodes cleanly but fails the checksum (a flip that
///    landed on a still-decodable encoding) is `InvalidValue`.
pub fn open<M: Wire>(frame: &[u8]) -> Result<M, WireError> {
    if frame.len() < FRAME_CHECK_BYTES {
        return Err(WireError::UnexpectedEnd);
    }
    let (payload, trailer) = frame.split_at(frame.len() - FRAME_CHECK_BYTES);
    let mut rd = payload;
    let m = M::decode(&mut rd)?;
    if rd.has_remaining() {
        return Err(WireError::InvalidValue("trailing bytes inside frame"));
    }
    let expect = match <[u8; FRAME_CHECK_BYTES]>::try_from(trailer) {
        Ok(bytes) => u64::from_le_bytes(bytes),
        // Structurally impossible (`split_at` above yields exactly
        // `FRAME_CHECK_BYTES`), but the decode path stays typed-error
        // total even if that guard ever drifts.
        Err(_) => return Err(WireError::UnexpectedEnd),
    };
    if fnv64(payload) != expect {
        return Err(WireError::InvalidValue("frame checksum mismatch"));
    }
    Ok(m)
}

/// Encodes one routed frame for a byte *stream*: a packet header of four
/// canonical uvarints — round, sender index, receiver index, frame length
/// — followed by the [`seal`]ed frame verbatim.
///
/// The header is **transport** framing, not payload: the checksum trailer
/// of [`seal`] covers the frame, while header damage surfaces as a stream
/// parse error in [`PacketBuffer::try_next`]. Splitting the two layers
/// keeps the quarantine ledger of a socket run byte-identical to the
/// in-process codec engines, whose fault plane only ever touches sealed
/// frames.
pub fn encode_packet(r: Round, from: ProcessId, to: ProcessId, frame: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(frame.len() + 12);
    write_uvarint(&mut out, u64::from(r));
    write_uvarint(&mut out, from.index() as u64);
    write_uvarint(&mut out, to.index() as u64);
    write_uvarint(&mut out, frame.len() as u64);
    out.extend_from_slice(frame);
    out
}

/// One complete packet parsed off a stream by [`PacketBuffer`]: the
/// routing header plus the still-sealed frame (hand it to [`open`], or to
/// a [`Transport::unpack`], to get the payload back).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FramedPacket {
    /// The round the frame belongs to.
    pub round: Round,
    /// The sender.
    pub from: ProcessId,
    /// The receiver.
    pub to: ProcessId,
    /// The sealed frame bytes ([`seal`] output, checksum trailer intact).
    pub frame: Bytes,
}

/// Incremental parser for [`encode_packet`] streams, resilient to
/// arbitrary read fragmentation: feed whatever chunk the socket produced
/// — a kilobyte, one byte, half a varint — and take complete packets out
/// as they materialize.
///
/// The error discipline mirrors [`crate::wire::try_read_uvarint`]:
/// `Ok(None)` means *incomplete* (a prefix of a valid packet; more bytes
/// may still arrive), while `Err` means the buffered bytes can never
/// become a valid packet — a junk preamble (non-canonical or overflowing
/// header varint), a header field outside its domain, or a frame length
/// beyond the configured cap. Stream-level garbage is a *transport*
/// fault, typed and fatal for the connection; in-frame corruption stays
/// quarantinable per edge (see [`encode_packet`]).
#[derive(Debug)]
pub struct PacketBuffer {
    universe: usize,
    max_frame: usize,
    buf: Vec<u8>,
    pos: usize,
}

impl PacketBuffer {
    /// A parser for packets over a universe of `universe` processes whose
    /// frames may not exceed `max_frame` bytes.
    pub fn new(universe: usize, max_frame: usize) -> Self {
        PacketBuffer {
            universe,
            max_frame,
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// Appends freshly read stream bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// `true` iff undelivered bytes are buffered — after [`try_next`]
    /// returned `Ok(None)`, that means the stream stopped *inside* a
    /// packet, which turns an otherwise-benign timeout or EOF into a
    /// mid-frame stall or truncation.
    ///
    /// [`try_next`]: PacketBuffer::try_next
    pub fn mid_packet(&self) -> bool {
        self.pos < self.buf.len()
    }

    /// Extracts the next complete packet, if the buffer holds one.
    /// `Ok(None)` means the buffered bytes are a (possibly empty) proper
    /// prefix of a packet; feed more and retry. Errors are permanent for
    /// the stream (see the type docs).
    pub fn try_next(&mut self) -> Result<Option<FramedPacket>, WireError> {
        // lint: allow(panic) — `pos <= buf.len()` is a struct invariant
        // (pos only advances by consumed bytes, compact() resets it).
        let avail = &self.buf[self.pos..];
        let mut header = [0u64; 4];
        let mut off = 0;
        for slot in &mut header {
            // lint: allow(panic) — `off` is a sum of `used` returns, each
            // bounded by the slice it was parsed from; `off <= avail.len()`.
            match try_read_uvarint(&avail[off..])? {
                None => {
                    self.compact();
                    return Ok(None);
                }
                Some((v, used)) => {
                    *slot = v;
                    off += used;
                }
            }
        }
        let [round, from, to, frame_len] = header;
        if round < u64::from(FIRST_ROUND) || round > u64::from(Round::MAX) {
            return Err(WireError::InvalidValue("packet round out of range"));
        }
        if from >= self.universe as u64 || to >= self.universe as u64 {
            return Err(WireError::InvalidValue("packet endpoint outside universe"));
        }
        if frame_len > self.max_frame as u64 {
            return Err(WireError::InvalidValue("frame length exceeds cap"));
        }
        let frame_len = frame_len as usize;
        if avail.len() < off + frame_len {
            self.compact();
            return Ok(None);
        }
        // lint: allow(panic) — guarded two lines up: `avail.len() >= off
        // + frame_len` or we returned `Ok(None)`.
        let frame = Bytes::from(avail[off..off + frame_len].to_vec());
        self.pos += off + frame_len;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        Ok(Some(FramedPacket {
            round: round as Round,
            from: ProcessId::from_usize(from as usize),
            to: ProcessId::from_usize(to as usize),
            frame,
        }))
    }

    /// Drops already-consumed bytes so a long-lived connection's buffer
    /// does not grow with its history.
    fn compact(&mut self) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// Accumulates the sealed frames one shard sends another during one tick
/// of a multiplexed run ([`crate::engine::run_multiplex_codec`]), grouped
/// by instance, and encodes them into **one** batch packet:
///
/// ```text
/// batch := uvarint group_count, group × group_count
/// group := uvarint instance_id, uvarint frame_count (≥ 1),
///          entry × frame_count
/// entry := uvarint from, uvarint to, uvarint frame_len,
///          frame_len frame bytes   (a seal()ed frame, trailer intact)
/// ```
///
/// The encoding is canonical: groups appear in strictly increasing
/// instance order (enforced by [`BatchBuilder::push`] at build time and by
/// [`BatchReader`] at decode time), a group is never empty, and nothing
/// follows the last entry. Like [`encode_packet`], this is *transport*
/// framing: the per-frame [`seal`] checksum still guards each payload, so
/// a fault plane keeps tampering individual frames (and the quarantine
/// ledger stays per-edge), while batch-level damage surfaces as a typed
/// [`WireError`] from the reader.
#[derive(Debug, Default)]
pub struct BatchBuilder {
    /// `(instance, from, to, sealed frame)`, in push order — which
    /// [`BatchBuilder::push`] requires to be nondecreasing in the
    /// instance id, so the entries form contiguous per-instance runs.
    entries: Vec<(usize, ProcessId, ProcessId, Bytes)>,
}

impl BatchBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        BatchBuilder::default()
    }

    /// Appends one sealed frame for `instance` on edge `(from → to)`.
    ///
    /// # Panics
    /// Panics if `instance` is smaller than the previously pushed one —
    /// callers iterate instances in id order, which is what makes the
    /// encoding canonical without a sort.
    pub fn push(&mut self, instance: usize, from: ProcessId, to: ProcessId, frame: Bytes) {
        if let Some((last, ..)) = self.entries.last() {
            assert!(
                instance >= *last,
                "batch entries must be pushed in nondecreasing instance order"
            );
        }
        self.entries.push((instance, from, to, frame));
    }

    /// Number of frames queued.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff no frames are queued (the batch still encodes — to a
    /// single zero group-count uvarint — so per-tick exchanges stay
    /// symmetric even when a shard has nothing to say).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops the queued frames, keeping the entry buffer's capacity for
    /// the next tick.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Encodes the queued frames into one batch packet.
    pub fn encode(&self) -> Vec<u8> {
        let mut groups = 0u64;
        let mut prev = None;
        for (i, ..) in &self.entries {
            if prev != Some(*i) {
                groups += 1;
                prev = Some(*i);
            }
        }
        let mut out = Vec::new();
        write_uvarint(&mut out, groups);
        let mut k = 0;
        while k < self.entries.len() {
            let instance = self.entries[k].0;
            let run_end = self.entries[k..]
                .iter()
                .position(|(i, ..)| *i != instance)
                .map_or(self.entries.len(), |off| k + off);
            write_uvarint(&mut out, instance as u64);
            write_uvarint(&mut out, (run_end - k) as u64);
            for (_, from, to, frame) in &self.entries[k..run_end] {
                write_uvarint(&mut out, from.index() as u64);
                write_uvarint(&mut out, to.index() as u64);
                write_uvarint(&mut out, frame.len() as u64);
                out.extend_from_slice(frame);
            }
            k = run_end;
        }
        out
    }
}

/// One frame pulled out of a batch by [`BatchReader::next_frame`].
#[derive(Debug, PartialEq, Eq)]
pub struct BatchFrame<'a> {
    /// The instance the frame belongs to.
    pub instance: usize,
    /// The sender (an index into the instance's own universe).
    pub from: ProcessId,
    /// The receiver (an index into the instance's own universe).
    pub to: ProcessId,
    /// The still-sealed frame bytes, borrowed from the batch buffer.
    pub frame: &'a [u8],
    /// Byte offset of `frame` inside the batch buffer — lets a caller
    /// holding the batch as [`Bytes`] take a zero-copy refcounted slice
    /// instead of copying the frame out.
    pub offset: usize,
}

/// Decoder for [`BatchBuilder::encode`] packets. Unlike [`PacketBuffer`]
/// it operates on a *complete* buffer (batches travel one-per-channel-send
/// inside a process, or inside an already-reassembled stream packet), so
/// every defect is immediately typed — there is no "incomplete" state:
///
/// * truncation anywhere (mid-varint, mid-group, mid-frame) is
///   [`WireError::UnexpectedEnd`];
/// * an instance id outside the registered universe table, a duplicate or
///   out-of-order group, an empty group, an endpoint outside the
///   instance's universe, a frame length beyond `max_frame`, or bytes
///   after the last group are all [`WireError::InvalidValue`] with a
///   distinct message;
/// * padded varints are [`WireError::NonCanonical`] (from the shared
///   uvarint decoder).
///
/// The reader never panics on arbitrary bytes (pinned by the negative
/// suite in `tests/fault_plane.rs`).
#[derive(Debug)]
pub struct BatchReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Universe size per instance id; ids at or beyond the table are
    /// unknown.
    universes: &'a [usize],
    max_frame: usize,
    started: bool,
    groups_left: u64,
    entries_left: u64,
    cur_instance: usize,
    last_instance: Option<usize>,
}

impl<'a> BatchReader<'a> {
    /// A reader over one complete batch. `universes[i]` is the universe
    /// size of instance `i`; frames may not exceed `max_frame` bytes.
    pub fn new(buf: &'a [u8], universes: &'a [usize], max_frame: usize) -> Self {
        BatchReader {
            buf,
            pos: 0,
            universes,
            max_frame,
            started: false,
            groups_left: 0,
            entries_left: 0,
            cur_instance: 0,
            last_instance: None,
        }
    }

    fn read_varint(&mut self) -> Result<u64, WireError> {
        // lint: allow(panic) — `pos` only advances by bytes the reader
        // consumed or lengths checked against `buf.len()`; never past end.
        let mut rd = &self.buf[self.pos..];
        let before = rd.len();
        let v = crate::wire::read_uvarint(&mut rd)?;
        self.pos += before - rd.len();
        Ok(v)
    }

    /// The next frame, `Ok(None)` at the clean end of the batch, or the
    /// typed defect (permanent: the batch is garbage).
    pub fn next_frame(&mut self) -> Result<Option<BatchFrame<'a>>, WireError> {
        if !self.started {
            self.groups_left = self.read_varint()?;
            self.started = true;
        }
        while self.entries_left == 0 {
            if self.groups_left == 0 {
                if self.pos < self.buf.len() {
                    return Err(WireError::InvalidValue("trailing bytes after batch"));
                }
                return Ok(None);
            }
            let id = self.read_varint()?;
            if id >= self.universes.len() as u64 {
                return Err(WireError::InvalidValue("unknown instance id in batch"));
            }
            let id = id as usize;
            match self.last_instance {
                Some(last) if id == last => {
                    return Err(WireError::InvalidValue("duplicate instance group in batch"));
                }
                Some(last) if id < last => {
                    return Err(WireError::InvalidValue(
                        "batch instance groups out of order",
                    ));
                }
                _ => {}
            }
            let count = self.read_varint()?;
            if count == 0 {
                return Err(WireError::InvalidValue("empty instance group in batch"));
            }
            self.cur_instance = id;
            self.last_instance = Some(id);
            self.entries_left = count;
            self.groups_left -= 1;
        }
        let from = self.read_varint()?;
        let to = self.read_varint()?;
        // lint: allow(panic) — `cur_instance` was range-checked against
        // `universes.len()` when its group header was parsed above.
        let n = self.universes[self.cur_instance] as u64;
        if from >= n || to >= n {
            return Err(WireError::InvalidValue(
                "batch endpoint outside instance universe",
            ));
        }
        let len = self.read_varint()?;
        if len > self.max_frame as u64 {
            return Err(WireError::InvalidValue("frame length exceeds cap"));
        }
        let len = len as usize;
        if self.buf.len() - self.pos < len {
            return Err(WireError::UnexpectedEnd);
        }
        let offset = self.pos;
        // lint: allow(panic) — guarded four lines up: `buf.len() - pos >=
        // len` or we returned `UnexpectedEnd`.
        let frame = &self.buf[offset..offset + len];
        self.pos += len;
        self.entries_left -= 1;
        Ok(Some(BatchFrame {
            instance: self.cur_instance,
            from: ProcessId::from_usize(from as usize),
            to: ProcessId::from_usize(to as usize),
            frame,
            offset,
        }))
    }
}

/// One in-flight frame mutation, with its seeded parameters baked in.
/// The variants mirror the negative-path generators of
/// `wire_negative.rs`: every shape that suite proves the codecs survive
/// is a shape the plane injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tamper {
    /// The frame vanishes entirely (a clean message drop).
    Drop,
    /// One bit of the frame is flipped (`bit` is reduced mod the frame's
    /// bit length).
    BitFlip {
        /// Seeded bit selector.
        bit: u64,
    },
    /// The frame is cut to a strict prefix (`keep` is reduced mod the
    /// frame's length).
    Truncate {
        /// Seeded prefix-length selector.
        keep: u64,
    },
    /// Seeded junk bytes are spliced in front of the frame.
    JunkPrefix {
        /// Number of junk bytes (1–16).
        len: u8,
        /// Seed of the junk byte stream.
        fill: u64,
    },
    /// Seeded junk bytes are appended after the frame.
    JunkSuffix {
        /// Number of junk bytes (1–16).
        len: u8,
        /// Seed of the junk byte stream.
        fill: u64,
    },
    /// The whole frame is concatenated with itself (a duplicated
    /// delivery fused into one buffer).
    Duplicate,
}

impl Tamper {
    /// Applies the mutation to `frame` in place. [`Tamper::Drop`] is
    /// handled before any bytes move (the engines short-circuit it), but
    /// for completeness it empties the buffer.
    pub fn apply(&self, frame: &mut Vec<u8>) {
        match *self {
            Tamper::Drop => frame.clear(),
            Tamper::BitFlip { bit } => {
                if !frame.is_empty() {
                    let b = (bit % (frame.len() as u64 * 8)) as usize;
                    frame[b / 8] ^= 1 << (b % 8);
                }
            }
            Tamper::Truncate { keep } => {
                if !frame.is_empty() {
                    let k = (keep % frame.len() as u64) as usize;
                    frame.truncate(k);
                }
            }
            Tamper::JunkPrefix { len, fill } => {
                let junk = junk_bytes(len, fill);
                frame.splice(0..0, junk);
            }
            Tamper::JunkSuffix { len, fill } => {
                frame.extend(junk_bytes(len, fill));
            }
            Tamper::Duplicate => {
                let copy = frame.clone();
                frame.extend(copy);
            }
        }
    }
}

/// A seeded stream of `len` junk bytes.
fn junk_bytes(len: u8, fill: u64) -> Vec<u8> {
    let mut state = fill;
    (0..len)
        .map(|_| {
            state = splitmix64(state);
            (state & 0xff) as u8
        })
        .collect()
}

/// A fault plane: decides, purely, whether the frame on edge
/// `(from → to)` of round `r` is mutated in flight, and how.
///
/// Purity is load-bearing: the engines evaluate the plane at the
/// *receiver* (frames are always physically shipped so per-round message
/// counting stays exact), and the sender pre-counts surviving deliveries
/// for `MsgStats` — both sides must agree without communicating.
/// Implementations must never tamper loopback frames (`from == to`).
pub trait FaultPlane: Sync {
    /// The mutation for this (round, edge), or `None` to deliver intact.
    fn tamper(&self, r: Round, from: ProcessId, to: ProcessId) -> Option<Tamper>;
}

/// The no-op fault plane: every frame is delivered intact. Codec mode
/// under `NoFaults` is the pinned-equivalent twin of Arc mode.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoFaults;

impl FaultPlane for NoFaults {
    fn tamper(&self, _r: Round, _from: ProcessId, _to: ProcessId) -> Option<Tamper> {
        None
    }
}

impl<P: FaultPlane + ?Sized> FaultPlane for &P {
    fn tamper(&self, r: Round, from: ProcessId, to: ProcessId) -> Option<Tamper> {
        (**self).tamper(r, from, to)
    }
}

/// A seeded Byzantine corruption plane: each non-loopback frame is
/// tampered with probability `rate`, the choice and shape drawn from
/// `edge_round_hash(seed, from, to, round)` — a pure function of
/// `(seed, round, from, to)`, reproducible from the seed alone.
///
/// An optional *quiet round* makes the plane inert from that round on:
/// with `quiet_after` at or before the base schedule's stabilization
/// tail, the [`EffectiveSchedule`] is an ordinary finite-fault schedule
/// and full paper conformance applies. A never-quiet plane at rate 1.0
/// destroys every cross-process frame forever — the engines must *still*
/// not panic, and every process decides its own value (the quarantine
/// analogue of the eternal-rotation test in `tests/conformance.rs`).
#[derive(Clone, Copy, Debug)]
pub struct CorruptionOverlay {
    seed: u64,
    /// Tamper when `hash < threshold`; kept as `u128` so rate 1.0 maps
    /// to 2⁶⁴ (strictly above every hash) without saturating arithmetic.
    threshold: u128,
    quiet_after: Round,
}

impl CorruptionOverlay {
    /// A plane tampering each non-loopback frame with probability
    /// `rate` (clamped to `[0, 1]`), never going quiet.
    pub fn new(seed: u64, rate: f64) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        CorruptionOverlay {
            seed,
            threshold: (rate * (u64::MAX as f64 + 1.0)) as u128,
            quiet_after: Round::MAX,
        }
    }

    /// Makes the plane inert from round `r` on (frames of rounds `≥ r`
    /// are never tampered).
    #[must_use]
    pub fn quiet_after(mut self, r: Round) -> Self {
        self.quiet_after = r;
        self
    }

    /// The round from which the plane is inert (`Round::MAX` when it
    /// never goes quiet).
    pub fn quiet_round(&self) -> Round {
        self.quiet_after
    }

    /// The effective (surviving) schedule of this plane over `base`: the
    /// conformance oracle for corrupted runs. See [`EffectiveSchedule`].
    pub fn effective<'a, S: Schedule + ?Sized>(&'a self, base: &'a S) -> EffectiveSchedule<'a, S> {
        EffectiveSchedule { base, plane: self }
    }
}

impl FaultPlane for CorruptionOverlay {
    fn tamper(&self, r: Round, from: ProcessId, to: ProcessId) -> Option<Tamper> {
        if from == to || r >= self.quiet_after {
            return None;
        }
        let h = edge_round_hash(self.seed ^ CORRUPTION_SALT, from.index(), to.index(), r);
        if u128::from(h) >= self.threshold {
            return None;
        }
        // An independent draw picks the shape, its high bits the params.
        let d = splitmix64(h ^ 0xf417);
        Some(match d % 6 {
            0 => Tamper::Drop,
            1 => Tamper::BitFlip { bit: d >> 3 },
            2 => Tamper::Truncate { keep: d >> 3 },
            3 => Tamper::JunkPrefix {
                len: 1 + ((d >> 3) % 16) as u8,
                fill: splitmix64(d),
            },
            4 => Tamper::JunkSuffix {
                len: 1 + ((d >> 3) % 16) as u8,
                fill: splitmix64(d),
            },
            _ => Tamper::Duplicate,
        })
    }
}

/// The schedule actually *experienced* by the algorithms when a
/// [`CorruptionOverlay`] sits on the byte path of `base`: every edge
/// whose frame the plane destroys is erased from the round graph
/// (quarantined frames are semantically drops — [`open`] rejects every
/// tampered frame, see the detection argument on `fnv64`).
///
/// This is the conformance oracle: `min_k` and the Lemma-11 bound of a
/// corrupted run are computed on this schedule, not the base. With the
/// plane quiet by the base's stable tail, it is a valid schedule in its
/// own right (`validate` passes — loopbacks are exempt from tampering)
/// and an uncorrupted Arc-mode run over it is byte-identical to the
/// corrupted codec run over `base` (pinned by `tests/fault_plane.rs`).
#[derive(Clone, Copy, Debug)]
pub struct EffectiveSchedule<'a, S: ?Sized> {
    base: &'a S,
    plane: &'a CorruptionOverlay,
}

impl<S: Schedule + ?Sized> EffectiveSchedule<'_, S> {
    fn strip(&self, g: &mut Digraph, r: Round) {
        let n = g.n();
        for u in ProcessId::all(n) {
            for v in ProcessId::all(n) {
                if u != v && g.has_edge(u, v) && self.plane.tamper(r, u, v).is_some() {
                    g.remove_edge(u, v);
                }
            }
        }
    }
}

impl<S: Schedule + ?Sized> Schedule for EffectiveSchedule<'_, S> {
    fn n(&self) -> usize {
        self.base.n()
    }

    fn graph(&self, r: Round) -> Digraph {
        let mut g = self.base.graph(r);
        self.strip(&mut g, r);
        g
    }

    fn graph_into(&self, r: Round, out: &mut Digraph) {
        self.base.graph_into(r, out);
        self.strip(out, r);
    }

    fn stabilization_round(&self) -> Round {
        // Once the plane is quiet the round graphs equal the base's, so
        // the intersection stops changing at whichever comes later.
        self.base
            .stabilization_round()
            .max(self.plane.quiet_round())
    }
}

/// Why a frame did not reach its receiver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultCause {
    /// The fault plane dropped the frame outright.
    Dropped,
    /// The frame arrived mangled and was quarantined by the decoder with
    /// this typed error.
    Quarantined(WireError),
}

/// One frame lost on one edge of one round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeFault {
    /// The round whose frame was lost.
    pub round: Round,
    /// The sender.
    pub from: ProcessId,
    /// The receiver that dropped or quarantined the frame.
    pub to: ProcessId,
    /// What happened to it.
    pub cause: FaultCause,
}

/// The fault ledger of a run: every dropped or quarantined frame, in the
/// canonical order `(round, to, from)`. Engines record faults in their
/// own execution order and [`FaultStats::finalize`] at the join, so for
/// one seed all three engines produce an **identical** ledger (pinned by
/// the conformance suite).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// The recorded faults (canonically sorted after `finalize`).
    pub faults: Vec<EdgeFault>,
}

impl FaultStats {
    /// An empty ledger.
    pub fn new() -> Self {
        FaultStats::default()
    }

    /// Records one lost frame.
    pub fn record(&mut self, round: Round, from: ProcessId, to: ProcessId, cause: FaultCause) {
        self.faults.push(EdgeFault {
            round,
            from,
            to,
            cause,
        });
    }

    /// Number of frames the plane dropped outright.
    pub fn dropped(&self) -> usize {
        self.faults
            .iter()
            .filter(|f| f.cause == FaultCause::Dropped)
            .count()
    }

    /// Number of frames quarantined by receivers (arrived mangled,
    /// rejected with a typed [`WireError`]).
    pub fn quarantined(&self) -> usize {
        self.faults
            .iter()
            .filter(|f| matches!(f.cause, FaultCause::Quarantined(_)))
            .count()
    }

    /// Total lost frames.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the run lost no frames at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Folds another ledger into this one (the concurrent engines merge
    /// per-thread ledgers at the join, then [`FaultStats::finalize`]).
    pub fn merge(&mut self, other: FaultStats) {
        self.faults.extend(other.faults);
    }

    /// Sorts the ledger into the canonical `(round, to, from)` order.
    /// Each (round, edge) appears at most once, so the order — and hence
    /// the whole ledger — is identical across engines per seed.
    pub fn finalize(&mut self) {
        self.faults
            .sort_by_key(|f| (f.round, f.to.index(), f.from.index()));
    }
}

/// What a transport hands the receiving process for one frame.
pub enum Delivery<M> {
    /// The payload, intact.
    Deliver(Arc<M>),
    /// The fault plane dropped the frame.
    Dropped,
    /// The frame arrived mangled; the decoder rejected it with this
    /// typed error and the receiver carries on as if it were a drop.
    Quarantined(WireError),
}

/// A caller-owned decode memo for [`Transport::unpack`]: one slot per
/// sender, holding that sender's last successfully decoded untampered
/// frame as `(round, frame bytes, decoded message)`.
///
/// A broadcast ships the *same* sealed frame to every receiver, so a
/// worker that keeps each sender's last decode shares one decode across
/// all of its receivers of that broadcast, in any arrival order: the
/// receiver-major loops of lockstep and journal replay interleave senders
/// and still hit. The full byte comparison (not just the key) is the
/// correctness guard, so colliding `(round, sender)` pairs from different
/// multiplexed instances simply miss and re-decode.
///
/// Workers [`DecodeCache::clear`] the memo at the end of every round (tick,
/// for multiplex), so decoded messages and the frame bytes they pin never
/// outlive the round; the slot vector keeps its capacity.
pub struct DecodeCache<M> {
    slots: Vec<Option<(Round, Bytes, Arc<M>)>>,
}

impl<M> DecodeCache<M> {
    /// An empty memo.
    pub fn new() -> Self {
        DecodeCache { slots: Vec::new() }
    }

    /// Forgets every entry, keeping the slot vector's capacity.
    pub fn clear(&mut self) {
        self.slots.clear();
    }

    /// Records `m` as the decode of `frame`, sent by `from` in round `r`.
    /// For callers that open a frame themselves (e.g. for sender-side
    /// accounting) so that its receivers share that decode.
    pub(crate) fn insert(&mut self, r: Round, from: ProcessId, frame: Bytes, m: Arc<M>) {
        let i = from.index();
        if self.slots.len() <= i {
            self.slots.resize_with(i + 1, || None);
        }
        if let Some(slot) = self.slots.get_mut(i) {
            *slot = Some((r, frame, m));
        }
    }

    /// The memoized decode of `frame` from `from` in round `r`, if that
    /// sender's slot holds exactly these bytes for that round.
    fn get(&self, r: Round, from: ProcessId, frame: &[u8]) -> Option<&Arc<M>> {
        match self.slots.get(from.index()) {
            Some(Some((cr, cf, m))) if *cr == r && cf.as_slice() == frame => Some(m),
            _ => None,
        }
    }
}

impl<M> Default for DecodeCache<M> {
    fn default() -> Self {
        Self::new()
    }
}

/// The payload path the engines are generic over: how a broadcast
/// payload is packed for flight, what arrives, and how many of a round's
/// sends actually reach their receivers (for sender-side `MsgStats`
/// accounting, which must agree with the receiver-side plane — both are
/// pure functions of the same seed).
pub trait Transport<M>: Sync {
    /// The in-flight representation of one payload.
    type Frame: Clone + Send + 'static;

    /// Whether same-thread (intra-shard) deliveries must also defer to
    /// the receive phase. The Arc path hands local payloads over at
    /// broadcast time (nothing can happen to them); the codec path must
    /// not unpack early — a speculative round's frames would record
    /// faults for a round that is then rolled back.
    const DEFERS_LOCAL: bool;

    /// Packs one payload for flight.
    fn pack(&self, m: &Arc<M>) -> Self::Frame;

    /// Unpacks the frame that arrived on `(from → to)` in round `r`,
    /// applying the fault plane (if any) on the way. A transport *may*
    /// share one decode across receivers of the same `(round, sender,
    /// bytes)` frame through the caller-owned `cache`; the result must be
    /// the same [`Delivery`] a fresh decode would give, with the fault
    /// plane still evaluated per `(round, from, to)`.
    fn unpack(
        &self,
        r: Round,
        from: ProcessId,
        to: ProcessId,
        f: Self::Frame,
        cache: &mut DecodeCache<M>,
    ) -> Delivery<M>;

    /// How many of the `receivers` of a round-`r` broadcast by `from`
    /// will actually receive it (the plane's survivors).
    fn delivered_count(&self, r: Round, from: ProcessId, receivers: &ProcessSet) -> u64;
}

/// The classic shared-reference hand-off: payloads travel as
/// [`Arc`] clones, nothing is ever lost.
#[derive(Clone, Copy, Debug, Default)]
pub struct ArcTransport;

impl<M: Send + Sync + 'static> Transport<M> for ArcTransport {
    type Frame = Arc<M>;

    const DEFERS_LOCAL: bool = false;

    fn pack(&self, m: &Arc<M>) -> Arc<M> {
        Arc::clone(m)
    }

    /// Nothing to decode: the memo is ignored.
    fn unpack(
        &self,
        _r: Round,
        _from: ProcessId,
        _to: ProcessId,
        f: Arc<M>,
        _cache: &mut DecodeCache<M>,
    ) -> Delivery<M> {
        Delivery::Deliver(f)
    }

    fn delivered_count(&self, _r: Round, _from: ProcessId, receivers: &ProcessSet) -> u64 {
        receivers.len() as u64
    }
}

/// The framed byte path: payloads are [`seal`]ed into checksummed
/// frames, carried as [`Bytes`], mangled by the fault plane `P`, and
/// [`open`]ed at the receiver.
#[derive(Clone, Copy, Debug)]
pub struct CodecTransport<P> {
    plane: P,
}

impl<P: FaultPlane> CodecTransport<P> {
    /// A codec transport injecting faults from `plane`.
    pub fn new(plane: P) -> Self {
        CodecTransport { plane }
    }
}

impl<M: Wire + Send + Sync + 'static, P: FaultPlane> Transport<M> for CodecTransport<P> {
    type Frame = Bytes;

    const DEFERS_LOCAL: bool = true;

    fn pack(&self, m: &Arc<M>) -> Bytes {
        seal(&**m)
    }

    /// Decode sharing: an untampered edge whose bytes equal the sender's
    /// memo slot for this round reuses the decoded [`Arc`] instead of
    /// re-running `open`. Decoding is deterministic, so the shared value
    /// is what a fresh decode would have produced. A tampered edge never
    /// reads or writes the memo.
    fn unpack(
        &self,
        r: Round,
        from: ProcessId,
        to: ProcessId,
        f: Bytes,
        cache: &mut DecodeCache<M>,
    ) -> Delivery<M> {
        match self.plane.tamper(r, from, to) {
            None => {
                if let Some(m) = cache.get(r, from, &f) {
                    return Delivery::Deliver(Arc::clone(m));
                }
                match open(&f) {
                    Ok(m) => {
                        let m = Arc::new(m);
                        cache.insert(r, from, f, Arc::clone(&m));
                        Delivery::Deliver(m)
                    }
                    // Unreachable for frames we sealed ourselves, but the
                    // receiver survives a misbehaving sender all the same.
                    Err(e) => Delivery::Quarantined(e),
                }
            }
            Some(Tamper::Drop) => Delivery::Dropped,
            Some(t) => {
                let mut buf = f.to_vec();
                t.apply(&mut buf);
                match open::<M>(&buf) {
                    // ≈ 2⁻⁶⁴ per frame (see `fnv64`); deterministic per
                    // seed, so a colliding seed would fail tests loudly,
                    // not flakily.
                    Ok(m) => Delivery::Deliver(Arc::new(m)),
                    Err(e) => Delivery::Quarantined(e),
                }
            }
        }
    }

    fn delivered_count(&self, r: Round, from: ProcessId, receivers: &ProcessSet) -> u64 {
        receivers
            .iter()
            .filter(|&v| self.plane.tamper(r, from, v).is_none())
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{validate, FixedSchedule};

    fn p(i: usize) -> ProcessId {
        ProcessId::from_usize(i)
    }

    #[test]
    fn seal_open_round_trips() {
        for v in [0u64, 1, 300, u64::MAX] {
            let frame = seal(&v);
            assert_eq!(open::<u64>(&frame), Ok(v));
            assert_eq!(frame.len(), crate::wire::uvarint_len(v) + FRAME_CHECK_BYTES);
        }
    }

    #[test]
    fn open_rejects_short_frames_and_checksum_mismatches() {
        assert_eq!(open::<u64>(&[]), Err(WireError::UnexpectedEnd));
        assert_eq!(open::<u64>(&[1, 2, 3]), Err(WireError::UnexpectedEnd));
        let mut frame = seal(&7u64).to_vec();
        let last = frame.len() - 1;
        frame[last] ^= 0xff; // corrupt the checksum, payload intact
        assert_eq!(
            open::<u64>(&frame),
            Err(WireError::InvalidValue("frame checksum mismatch"))
        );
    }

    /// Drops every frame addressed to process 1, leaves the rest alone.
    struct DropTo1;
    impl FaultPlane for DropTo1 {
        fn tamper(&self, _r: Round, _from: ProcessId, to: ProcessId) -> Option<Tamper> {
            (to == ProcessId::from_usize(1)).then_some(Tamper::Drop)
        }
    }

    fn delivered<M>(d: Delivery<M>) -> Arc<M> {
        match d {
            Delivery::Deliver(m) => m,
            Delivery::Dropped => panic!("untampered frame was dropped"),
            Delivery::Quarantined(e) => panic!("untampered frame was quarantined: {e}"),
        }
    }

    #[test]
    fn unpack_shares_decodes_but_faults_per_edge() {
        let t: CodecTransport<DropTo1> = CodecTransport::new(DropTo1);
        let mut cache: DecodeCache<u64> = DecodeCache::new();
        let frame = seal(&7u64);

        // First untampered edge decodes and fills the sender's slot; the
        // next receiver of the same (round, sender, bytes) shares that
        // decode (same Arc, not merely an equal value).
        let a = delivered(t.unpack(1, p(0), p(0), frame.clone(), &mut cache));
        let b = delivered(t.unpack(1, p(0), p(2), frame.clone(), &mut cache));
        assert!(Arc::ptr_eq(&a, &b), "repeat did not share the decode");

        // The plane is still consulted per edge: a tampered edge between
        // two cache hits takes the full unpack path.
        assert!(matches!(
            t.unpack(1, p(0), p(1), frame.clone(), &mut cache),
            Delivery::Dropped
        ));

        // Garbage after a hit neither panics nor poisons the memo.
        let mut bad = frame.to_vec();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        assert!(matches!(
            t.unpack(1, p(0), p(2), Bytes::from(bad), &mut cache),
            Delivery::Quarantined(WireError::InvalidValue("frame checksum mismatch"))
        ));
        let c = delivered(t.unpack(1, p(0), p(3), frame, &mut cache));
        assert!(Arc::ptr_eq(&a, &c), "a quarantined frame evicted the slot");
    }

    #[test]
    fn unpack_hits_under_receiver_major_order() {
        // Receiver-major delivery, as the lockstep loop does it: every
        // receiver takes one frame from each sender, so consecutive
        // unpacks always come from different senders.
        let t = CodecTransport::new(NoFaults);
        let mut cache: DecodeCache<u64> = DecodeCache::new();
        let frames: Vec<Bytes> = (0..3u64).map(|v| seal(&(100 + v))).collect();
        let first: Vec<Arc<u64>> = (0..3)
            .map(|q| delivered(t.unpack(4, p(q), p(0), frames[q].clone(), &mut cache)))
            .collect();
        for to in 1..3 {
            for (q, f) in frames.iter().enumerate() {
                let m = delivered(t.unpack(4, p(q), p(to), f.clone(), &mut cache));
                assert!(Arc::ptr_eq(&m, &first[q]), "sender {q} re-decoded for {to}");
            }
        }
    }

    #[test]
    fn unpack_misses_on_other_bytes_and_other_rounds() {
        let t = CodecTransport::new(NoFaults);
        let mut cache: DecodeCache<u64> = DecodeCache::new();
        let frame = seal(&7u64);
        let a = delivered(t.unpack(1, p(0), p(1), frame.clone(), &mut cache));

        // Same (round, sender), different bytes: another multiplexed
        // instance at the same local round. The byte comparison forces a
        // fresh decode.
        let other = delivered(t.unpack(1, p(0), p(2), seal(&8u64), &mut cache));
        assert_eq!(*other, 8);

        // Same bytes, next round: the round key forces a fresh decode.
        let b = delivered(t.unpack(1, p(0), p(1), frame.clone(), &mut cache));
        let c = delivered(t.unpack(2, p(0), p(1), frame.clone(), &mut cache));
        assert_eq!((*b, *c), (7, 7));
        assert!(!Arc::ptr_eq(&a, &b), "slot kept the overwritten decode");
        assert!(!Arc::ptr_eq(&b, &c), "a decode leaked into the next round");

        // A cleared memo misses too.
        cache.clear();
        let d = delivered(t.unpack(2, p(0), p(1), frame, &mut cache));
        assert!(!Arc::ptr_eq(&c, &d), "clear kept an entry");
    }

    #[test]
    fn tampered_edge_neither_reads_nor_writes_the_slot() {
        // Flips a payload bit on every frame addressed to process 1.
        struct FlipTo1;
        impl FaultPlane for FlipTo1 {
            fn tamper(&self, _r: Round, _from: ProcessId, to: ProcessId) -> Option<Tamper> {
                (to == ProcessId::from_usize(1)).then_some(Tamper::BitFlip { bit: 0 })
            }
        }
        let t = CodecTransport::new(FlipTo1);
        let mut cache: DecodeCache<u64> = DecodeCache::new();
        let frame = seal(&7u64);

        // Read: the slot holds this very frame's decode, yet the tampered
        // edge decodes its own mangled bytes and is quarantined.
        let a = delivered(t.unpack(1, p(0), p(0), frame.clone(), &mut cache));
        assert!(matches!(
            t.unpack(1, p(0), p(1), frame.clone(), &mut cache),
            Delivery::Quarantined(_)
        ));
        // Write: the tampered edge left the slot as it was.
        let b = delivered(t.unpack(1, p(0), p(2), frame.clone(), &mut cache));
        assert!(Arc::ptr_eq(&a, &b), "tampered edge disturbed the slot");

        // A tampered edge first in its round leaves the slot empty for
        // the untampered receivers, which then decode once and share it.
        assert!(matches!(
            t.unpack(2, p(0), p(1), frame.clone(), &mut cache),
            Delivery::Quarantined(_)
        ));
        let c = delivered(t.unpack(2, p(0), p(2), frame.clone(), &mut cache));
        let d = delivered(t.unpack(2, p(0), p(3), frame, &mut cache));
        assert_eq!(*c, 7);
        assert!(!Arc::ptr_eq(&b, &c), "a decode leaked into the next round");
        assert!(Arc::ptr_eq(&c, &d), "untampered repeat did not hit");
    }

    #[test]
    fn packet_buffer_reassembles_one_byte_dribbles() {
        let payloads: [u64; 3] = [0, 300, u64::MAX];
        let mut stream = Vec::new();
        for (i, v) in payloads.iter().enumerate() {
            stream.extend(encode_packet(1 + i as Round, p(i), p(i + 1), &seal(v)));
        }
        let mut pb = PacketBuffer::new(8, 1 << 20);
        let mut got = Vec::new();
        for b in stream {
            pb.feed(&[b]);
            while let Some(pkt) = pb.try_next().expect("dribbled stream is valid") {
                got.push(pkt);
            }
        }
        assert!(!pb.mid_packet(), "bytes left over after the last packet");
        assert_eq!(got.len(), 3);
        for (i, (pkt, v)) in got.iter().zip(&payloads).enumerate() {
            assert_eq!(pkt.round, 1 + i as Round);
            assert_eq!((pkt.from, pkt.to), (p(i), p(i + 1)));
            assert_eq!(open::<u64>(&pkt.frame), Ok(*v));
        }
    }

    #[test]
    fn packet_buffer_rejects_junk_and_domain_breaches() {
        // non-canonical varint in the header: permanently corrupt
        let mut pb = PacketBuffer::new(4, 1024);
        pb.feed(&[0x80, 0x00]);
        assert_eq!(pb.try_next(), Err(WireError::NonCanonical));

        // round 0 is outside the domain
        let mut pb = PacketBuffer::new(4, 1024);
        let mut pkt = encode_packet(1, p(0), p(1), &[1, 2, 3]);
        pkt[0] = 0; // round varint 1 → 0
        pb.feed(&pkt);
        assert_eq!(
            pb.try_next(),
            Err(WireError::InvalidValue("packet round out of range"))
        );

        // endpoint outside the universe
        let mut pb = PacketBuffer::new(2, 1024);
        pb.feed(&encode_packet(1, p(0), p(3), &[1]));
        assert_eq!(
            pb.try_next(),
            Err(WireError::InvalidValue("packet endpoint outside universe"))
        );

        // an oversized length prefix fails *before* any frame bytes arrive
        let mut pb = PacketBuffer::new(4, 16);
        pb.feed(&encode_packet(1, p(0), p(1), &[0u8; 17])[..6]);
        assert_eq!(
            pb.try_next(),
            Err(WireError::InvalidValue("frame length exceeds cap"))
        );
    }

    #[test]
    fn packet_buffer_reports_mid_packet_cuts() {
        let pkt = encode_packet(3, p(1), p(0), &seal(&42u64));
        for cut in 1..pkt.len() {
            let mut pb = PacketBuffer::new(4, 1024);
            pb.feed(&pkt[..cut]);
            assert_eq!(pb.try_next(), Ok(None), "cut={cut}");
            assert!(pb.mid_packet(), "cut={cut}: partial packet not flagged");
        }
        // a cut exactly at a packet boundary is clean
        let mut pb = PacketBuffer::new(4, 1024);
        pb.feed(&pkt);
        assert!(pb.try_next().unwrap().is_some());
        assert_eq!(pb.try_next(), Ok(None));
        assert!(!pb.mid_packet());
    }

    #[test]
    fn batch_round_trips_across_instances() {
        let mut b = BatchBuilder::new();
        assert!(b.is_empty());
        let frames: [(usize, usize, usize, u64); 4] = [
            (0, 0, 1, 7),
            (0, 1, 0, 300),
            (2, 2, 0, u64::MAX),
            (2, 0, 2, 0),
        ];
        for (i, from, to, v) in frames {
            b.push(i, p(from), p(to), seal(&v));
        }
        assert_eq!(b.len(), 4);
        let bytes = b.encode();
        let universes = [2usize, 1, 3];
        let mut rd = BatchReader::new(&bytes, &universes, 1 << 20);
        for (i, from, to, v) in frames {
            let f = rd.next_frame().expect("valid batch").expect("frame");
            assert_eq!((f.instance, f.from, f.to), (i, p(from), p(to)));
            assert_eq!(open::<u64>(f.frame), Ok(v));
            assert_eq!(&bytes[f.offset..f.offset + f.frame.len()], f.frame);
        }
        assert_eq!(rd.next_frame(), Ok(None));
        // an empty batch is a single zero varint and decodes to nothing
        b.clear();
        assert!(b.is_empty());
        let empty = b.encode();
        assert_eq!(empty, vec![0]);
        let mut rd = BatchReader::new(&empty, &universes, 1 << 20);
        assert_eq!(rd.next_frame(), Ok(None));
    }

    #[test]
    fn batch_reader_types_every_defect() {
        let universes = [3usize, 3];
        let read_all = |bytes: &[u8], max_frame: usize| {
            let mut rd = BatchReader::new(bytes, &universes, max_frame);
            loop {
                match rd.next_frame() {
                    Ok(Some(_)) => {}
                    Ok(None) => return Ok(()),
                    Err(e) => return Err(e),
                }
            }
        };
        let mut b = BatchBuilder::new();
        b.push(0, p(0), p(1), seal(&5u64));
        b.push(1, p(2), p(0), seal(&6u64));
        let good = b.encode();
        assert_eq!(read_all(&good, 1 << 20), Ok(()));

        // truncation anywhere mid-batch: UnexpectedEnd, never a panic
        for cut in 0..good.len() {
            assert_eq!(
                read_all(&good[..cut], 1 << 20),
                Err(WireError::UnexpectedEnd),
                "cut={cut}"
            );
        }
        // trailing junk after the last group
        let mut long = good.clone();
        long.push(0xab);
        assert_eq!(
            read_all(&long, 1 << 20),
            Err(WireError::InvalidValue("trailing bytes after batch"))
        );
        // unknown instance id
        let mut b = BatchBuilder::new();
        b.push(7, p(0), p(1), seal(&5u64));
        assert_eq!(
            read_all(&b.encode(), 1 << 20),
            Err(WireError::InvalidValue("unknown instance id in batch"))
        );
        // duplicate group: hand-encode two groups with the same id
        let mut dup = Vec::new();
        write_uvarint(&mut dup, 2); // group count
        for _ in 0..2 {
            write_uvarint(&mut dup, 1); // instance id
            write_uvarint(&mut dup, 1); // frame count
            write_uvarint(&mut dup, 0); // from
            write_uvarint(&mut dup, 1); // to
            write_uvarint(&mut dup, 0); // frame length
        }
        assert_eq!(
            read_all(&dup, 1 << 20),
            Err(WireError::InvalidValue("duplicate instance group in batch"))
        );
        // out-of-order groups
        let mut ooo = Vec::new();
        write_uvarint(&mut ooo, 2);
        for id in [1u64, 0] {
            write_uvarint(&mut ooo, id);
            write_uvarint(&mut ooo, 1);
            write_uvarint(&mut ooo, 0);
            write_uvarint(&mut ooo, 1);
            write_uvarint(&mut ooo, 0);
        }
        assert_eq!(
            read_all(&ooo, 1 << 20),
            Err(WireError::InvalidValue(
                "batch instance groups out of order"
            ))
        );
        // empty group
        let mut empty_group = Vec::new();
        write_uvarint(&mut empty_group, 1);
        write_uvarint(&mut empty_group, 0); // instance
        write_uvarint(&mut empty_group, 0); // zero frames
        assert_eq!(
            read_all(&empty_group, 1 << 20),
            Err(WireError::InvalidValue("empty instance group in batch"))
        );
        // endpoint outside the instance's universe
        let mut b = BatchBuilder::new();
        b.push(0, p(0), p(5), seal(&5u64));
        assert_eq!(
            read_all(&b.encode(), 1 << 20),
            Err(WireError::InvalidValue(
                "batch endpoint outside instance universe"
            ))
        );
        // oversized frame: rejected from the length prefix alone
        let mut b = BatchBuilder::new();
        b.push(0, p(0), p(1), seal(&5u64));
        assert_eq!(
            read_all(&b.encode(), 4),
            Err(WireError::InvalidValue("frame length exceeds cap"))
        );
        // non-canonical varint in the header
        assert_eq!(
            read_all(&[0x80, 0x00], 1 << 20),
            Err(WireError::NonCanonical)
        );
    }

    #[test]
    #[should_panic(expected = "nondecreasing instance order")]
    fn batch_builder_rejects_disordered_pushes() {
        let mut b = BatchBuilder::new();
        b.push(3, p(0), p(1), seal(&1u64));
        b.push(1, p(0), p(1), seal(&2u64));
    }

    #[test]
    fn every_tamper_shape_is_detected_on_a_real_frame() {
        // A payload long enough that every shape has room to act.
        let g = {
            let mut g = sskel_graph::LabeledDigraph::new(6);
            g.set_edge_max(p(1), p(4), 7);
            g.set_edge_max(p(2), p(3), 9);
            g
        };
        let frame = seal(&g);
        let shapes = [
            Tamper::BitFlip { bit: 12 },
            Tamper::Truncate { keep: 3 },
            Tamper::JunkPrefix { len: 5, fill: 42 },
            Tamper::JunkSuffix { len: 5, fill: 42 },
            Tamper::Duplicate,
        ];
        for t in shapes {
            let mut buf = frame.to_vec();
            t.apply(&mut buf);
            assert!(
                open::<sskel_graph::LabeledDigraph>(&buf).is_err(),
                "{t:?} survived the envelope"
            );
        }
    }

    #[test]
    fn corruption_overlay_is_pure_and_spares_loopback() {
        let plane = CorruptionOverlay::new(11, 0.7);
        for r in 1..=20 {
            for u in 0..5 {
                for v in 0..5 {
                    assert_eq!(
                        plane.tamper(r, p(u), p(v)),
                        plane.tamper(r, p(u), p(v)),
                        "impure at r={r} ({u}→{v})"
                    );
                    if u == v {
                        assert_eq!(plane.tamper(r, p(u), p(v)), None, "loopback tampered");
                    }
                }
            }
        }
    }

    #[test]
    fn corruption_rate_endpoints_are_exact() {
        let never = CorruptionOverlay::new(5, 0.0);
        let always = CorruptionOverlay::new(5, 1.0);
        let mut hits = 0;
        for r in 1..=10 {
            for u in 0..4 {
                for v in 0..4 {
                    if u == v {
                        continue;
                    }
                    assert_eq!(never.tamper(r, p(u), p(v)), None);
                    assert!(always.tamper(r, p(u), p(v)).is_some());
                    hits += 1;
                }
            }
        }
        assert!(hits > 0);
    }

    #[test]
    fn quiet_after_silences_the_plane() {
        let plane = CorruptionOverlay::new(5, 1.0).quiet_after(4);
        assert!(plane.tamper(3, p(0), p(1)).is_some());
        assert_eq!(plane.tamper(4, p(0), p(1)), None);
        assert_eq!(plane.tamper(100, p(0), p(1)), None);
    }

    #[test]
    fn effective_schedule_strips_tampered_edges_and_validates() {
        let base = FixedSchedule::synchronous(5);
        let plane = CorruptionOverlay::new(77, 0.5).quiet_after(6);
        let eff = plane.effective(&base);
        validate(&eff, 30).expect("effective schedule is a valid schedule");
        let mut stripped_any = false;
        for r in 1..6 {
            let g = eff.graph(r);
            for u in 0..5 {
                for v in 0..5 {
                    let tampered = plane.tamper(r, p(u), p(v)).is_some();
                    assert_eq!(g.has_edge(p(u), p(v)), !tampered, "r={r} ({u}→{v})");
                    stripped_any |= tampered;
                }
            }
        }
        assert!(stripped_any, "rate 0.5 never fired in 5 rounds");
        // quiet tail: the base graph verbatim
        assert_eq!(eff.graph(6), base.graph(6));
        assert_eq!(eff.stabilization_round(), 6);
    }

    #[test]
    fn fault_stats_merge_and_canonical_order() {
        let mut a = FaultStats::new();
        a.record(2, p(1), p(0), FaultCause::Dropped);
        a.record(
            1,
            p(0),
            p(1),
            FaultCause::Quarantined(WireError::UnexpectedEnd),
        );
        let mut b = FaultStats::new();
        b.record(1, p(2), p(0), FaultCause::Dropped);
        a.merge(b);
        a.finalize();
        let key: Vec<(Round, usize, usize)> = a
            .faults
            .iter()
            .map(|f| (f.round, f.to.index(), f.from.index()))
            .collect();
        assert_eq!(key, vec![(1, 0, 2), (1, 1, 0), (2, 0, 1)]);
        assert_eq!(a.dropped(), 2);
        assert_eq!(a.quarantined(), 1);
        assert_eq!(a.len(), 3);
    }
}
