//! Simulation engines.
//!
//! Three engines drive [`crate::algorithm::RoundAlgorithm`] instances
//! through the round structure of a [`crate::schedule::Schedule`]:
//!
//! * [`lockstep`] — deterministic, single-threaded, supports per-round
//!   observers (used for Figure 1 and the lemma-invariant tests);
//! * [`sharded`] — `k` processes per thread ([`ShardPlan`]; one per
//!   process at `ShardPlan::new(n)`), one mpsc inbox per shard, direct
//!   in-memory delivery inside a shard, at most one
//!   [`crate::sync::ParkingBarrier`] phase per round, and only one per
//!   window under a fixed horizon; trace-identical to lockstep;
//! * [`socket`] — the sharded engine's own shard worker with every
//!   inter-shard frame carried over a real loopback
//!   [`std::net::TcpStream`] ([`SocketPlan`]), stream framing with
//!   partial-read resumption, per-connection read timeouts and typed
//!   [`SocketError`]s; trace-identical to [`run_lockstep_codec`] over the
//!   same schedule, seed and fault plane.
//!
//! [`multiplex`] layers *agreement as a service* on top of the sharded
//! partition: `M` concurrent instances on one worker pool
//! ([`MultiplexPlan`]), per-(shard, tick) wire batching with uvarint
//! instance tags, shared schedule synthesis and arena-recycled buffers —
//! every instance's trace byte-identical to its solo
//! [`run_sharded_codec`] run.
//!
//! All deliver round-`r` messages exactly along the edges of `G^r`:
//! process `q` receives `p`'s round-`r` broadcast iff `(p → q) ∈ G^r`.
//! `docs/CONCURRENCY.md` at the repository root compares the engines and
//! their synchronization protocols in detail.
//!
//! Each engine also has a `run_*_codec` twin that routes every payload
//! through the wire codec and a [`crate::fault::FaultPlane`] (Byzantine
//! frame corruption, quarantine-and-survive receivers), and
//! [`recovery::run_lockstep_recovering`] adds crash/restart recovery from
//! snapshots taken at the canonical rebase cut points.

pub mod lockstep;
pub mod multiplex;
pub mod recovery;
pub mod sharded;
pub mod socket;

pub use lockstep::{run_lockstep, run_lockstep_codec, run_lockstep_observed};
pub use multiplex::{run_multiplex_codec, MultiplexPlan, MuxInstance};
pub use recovery::{resume_from_journal, run_lockstep_journaled, run_lockstep_recovering};
pub use sharded::{run_sharded, run_sharded_codec, ShardPlan};
pub use socket::{
    run_socket, run_socket_codec, PacketEvent, PacketStream, SocketError, SocketPlan,
};

use sskel_graph::Round;

/// When an engine stops executing rounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunUntil {
    /// Execute exactly this many rounds.
    Rounds(Round),
    /// Stop at the end of the first round in which every process has
    /// decided, or after `max_rounds` rounds, whichever comes first.
    AllDecided {
        /// Hard cap on rounds (guards against non-terminating runs).
        max_rounds: Round,
    },
}

impl RunUntil {
    /// `true` if the run should stop after round `r` given the current
    /// all-decided status.
    #[inline]
    pub(crate) fn should_stop(self, r: Round, all_decided: bool) -> bool {
        match self {
            RunUntil::Rounds(max) => r >= max,
            RunUntil::AllDecided { max_rounds } => all_decided || r >= max_rounds,
        }
    }

    /// The round the run stops at when the stop condition depends on
    /// nothing but the round number — in that case the shard worker needs
    /// no per-round verdict, only a barrier per window.
    #[inline]
    pub(crate) fn static_horizon(self) -> Option<Round> {
        match self {
            RunUntil::Rounds(max) => Some(max),
            RunUntil::AllDecided { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stop_conditions() {
        assert!(!RunUntil::Rounds(5).should_stop(4, true));
        assert!(RunUntil::Rounds(5).should_stop(5, false));
        assert!(RunUntil::AllDecided { max_rounds: 10 }.should_stop(3, true));
        assert!(!RunUntil::AllDecided { max_rounds: 10 }.should_stop(3, false));
        assert!(RunUntil::AllDecided { max_rounds: 10 }.should_stop(10, false));
    }
}
