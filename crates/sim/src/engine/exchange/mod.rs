//! The shard command protocol and the pluggable exchange transports.
//!
//! The driver orchestrates every phase as a lockstep *round-trip*: one
//! [`Command`] per participating shard, one [`Reply`] back from each. The
//! [`ShardTransport`] trait abstracts how they move:
//!
//! * [`ChannelTransport`] — shards as worker threads, command and reply
//!   *values* over crossbeam channels (in-process);
//! * [`SocketTransport`] — shards as `sim-shard-worker --listen` processes,
//!   length-prefixed frames over TCP: either local children the transport
//!   spawns and dials over loopback (multi-process), or already-listening
//!   workers anywhere on the network (distributed);
//! * the single-shard driver calls the shard inline.
//!
//! The [`stream`] submodule holds the byte-stream plumbing: length-prefixed
//! framing over generic `Read`/`Write`, the versioned bootstrap handshake,
//! and the worker serve loop with its frame dispatch
//! ([`stream::handle_frame`]) — `sim-shard-worker` is a thin shell around
//! it. The [`frames`] submodule holds every frame layout: hello and
//! handshake, commands and replies, view snapshots and checkpoints.
//!
//! Cross-shard mail travels as a [`Bundle`]: typed `(to, from, payload)`
//! values between in-process shard threads (profile `Arc`s intact, no
//! codec), or one opaque `whatsup-net` wire frame on a byte stream. Shards
//! only ever see typed values; [`stream::handle_frame`] converts on the
//! worker side, and the driver decodes only its reply frames, forwarding
//! wire bundles unopened.
//!
//! A listening worker takes frames from any TCP peer, so every [`frames`]
//! decoder is fallible: a malformed frame ends a worker with a one-line
//! [`stream::WorkerError::Malformed`] and fails the driver with a
//! non-retryable [`TransportErrorKind::Malformed`] naming the endpoint.
//! Every other conversation failure — connecting, the handshake, a peer
//! vanishing, a torn frame — is a typed [`TransportError`] too.

pub mod frames;
pub mod socket;
pub mod stream;
pub mod supervisor;

pub use socket::SocketTransport;
pub use stream::{read_frame, write_frame};
pub use supervisor::{SupervisedTransport, Supervision};

use bytes::Bytes;
use std::fmt;
use std::io;
use whatsup_core::{ColdStart, ItemId, NewsItem, NodeId, Payload};
use whatsup_net::codec::DecodeError;

/// A transport-level failure: the conversation with a shard worker could
/// not start or could not continue. Carries the worker's endpoint (a
/// `host:port` address, a child pid, a thread index) so a distributed
/// failure names the machine that caused it.
#[derive(Debug)]
pub struct TransportError {
    /// Human-readable worker endpoint, e.g. `10.0.0.2:7401` or
    /// `sim-shard-worker pid 4242` (a spawned worker before its
    /// announcement).
    pub endpoint: String,
    pub kind: TransportErrorKind,
}

/// What went wrong at the transport boundary.
#[derive(Debug)]
pub enum TransportErrorKind {
    /// Connect, read or write failed — includes a peer closing the
    /// connection mid-run and frames truncated on the wire.
    Io(io::Error),
    /// The peer's greeting was not a shard-worker hello frame.
    HandshakeMagic,
    /// The peer speaks a different protocol version.
    HandshakeVersion { got: u16, want: u16 },
    /// A worker process exited with a failure status.
    WorkerExit(String),
    /// The peer sent a frame that does not decode.
    Malformed(DecodeError),
}

impl TransportErrorKind {
    /// Whether a supervisor may retry the conversation with a fresh
    /// worker. I/O failures (crashes, timeouts, torn frames) and worker
    /// exits are environmental — a respawned or redialed worker can
    /// succeed. Handshake failures are *configuration* errors: the peer is
    /// not a shard worker, or speaks a different protocol version, and a
    /// restarted peer would fail identically — restart-looping it would
    /// mask a version-skewed deployment instead of reporting it. A
    /// malformed frame is not retried either: shards are deterministic, so
    /// a replay would send the same bytes again.
    pub fn is_retryable(&self) -> bool {
        match self {
            TransportErrorKind::Io(_) | TransportErrorKind::WorkerExit(_) => true,
            TransportErrorKind::HandshakeMagic
            | TransportErrorKind::HandshakeVersion { .. }
            | TransportErrorKind::Malformed(_) => false,
        }
    }
}

impl TransportError {
    pub fn io(endpoint: impl Into<String>, err: io::Error) -> Self {
        Self {
            endpoint: endpoint.into(),
            kind: TransportErrorKind::Io(err),
        }
    }

    /// A frame from `endpoint` that does not decode.
    pub fn malformed(endpoint: impl Into<String>, err: DecodeError) -> Self {
        Self {
            endpoint: endpoint.into(),
            kind: TransportErrorKind::Malformed(err),
        }
    }

    /// An `Io` error for a peer that closed the connection at a frame
    /// boundary where more frames were required.
    pub fn closed(endpoint: impl Into<String>, what: &str) -> Self {
        Self::io(
            endpoint,
            io::Error::new(io::ErrorKind::UnexpectedEof, what.to_string()),
        )
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            TransportErrorKind::Io(e) => write!(f, "shard worker {}: {e}", self.endpoint),
            TransportErrorKind::HandshakeMagic => write!(
                f,
                "shard worker {}: handshake failed — peer is not a sim-shard-worker",
                self.endpoint
            ),
            TransportErrorKind::HandshakeVersion { got, want } => write!(
                f,
                "shard worker {}: handshake failed — peer speaks exchange \
                 protocol v{got}, this driver speaks v{want}",
                self.endpoint
            ),
            TransportErrorKind::WorkerExit(status) => {
                write!(f, "shard worker {}: exited with {status}", self.endpoint)
            }
            TransportErrorKind::Malformed(e) => {
                write!(f, "shard worker {}: malformed frame: {e}", self.endpoint)
            }
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.kind {
            TransportErrorKind::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TransportError> for io::Error {
    fn from(err: TransportError) -> Self {
        io::Error::other(err.to_string())
    }
}

/// A driver → shard phase command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run `on_cycle` for every owned node; route the emissions.
    Collect { cycle: u32 },
    /// Merge inbound gossip bundles (one per source shard, empty allowed)
    /// and drain the mailboxes; route the replies.
    DeliverGossip { cycle: u32, bundles: Vec<Bundle> },
    /// Draw the per-node crash coins and rejoin contacts.
    ChurnDecide { cycle: u32 },
    /// Snapshot the views of the given owned nodes (pre-churn state).
    TakeSnapshots { ids: Vec<NodeId> },
    /// Reset each `(node, snapshot)` to a fresh cold-started instance.
    ApplyChurn { resets: Vec<(NodeId, ColdStart)> },
    /// A node joins at the end of the id space, interests cloned from
    /// `reference`. Broadcast to every shard (each updates its partition and
    /// oracle copies); only the owning (last) shard receives the rejoin
    /// snapshot and builds the node.
    Admit {
        reference: NodeId,
        snapshot: Option<ColdStart>,
    },
    /// Swap the ground-truth interests of two nodes in this shard's oracle
    /// copy (broadcast; the driver keeps every copy in lockstep).
    SwapInterests { a: NodeId, b: NodeId },
    /// Reset the news-phase RNGs (start of the publication phase).
    BeginNews,
    /// Publish `item` from its source node (owned by this shard).
    Publish { cycle: u32, item: NewsItem },
    /// Merge inbound news bundles and drain; report reception outcomes.
    DeliverNews {
        cycle: u32,
        item: ItemId,
        bundles: Vec<Bundle>,
    },
    /// Serialize the shard's full state (issued at a cycle boundary, where
    /// the mailboxes are provably empty). Answered with
    /// [`Reply::Checkpoint`].
    TakeCheckpoint,
    /// Replace the shard's state with a previously taken checkpoint frame
    /// (recovery path; the worker was freshly handshaken with its original
    /// init before this arrives). Answered with [`Reply::Ack`]. Only
    /// byte-stream workers checkpoint, and [`stream::handle_frame`] decodes
    /// and applies the frame.
    Restore { frame: Bytes },
    /// Exit the serve loop.
    Stop,
}

/// One source shard's mail for one destination shard in one round.
#[derive(Debug, Clone, PartialEq)]
pub enum Bundle {
    /// Typed `(to, from, payload)` mail in `(sender id, emission order)`
    /// order — what shards produce and consume. In-process transports move
    /// it as is, so shared profile `Arc`s cross shard threads intact.
    Mail(Vec<(NodeId, NodeId, Payload)>),
    /// The same mail as one `whatsup-net` `MAILBOX_BUNDLE` frame — its form
    /// on a byte stream. Only [`stream::handle_frame`] converts between the
    /// two; the driver forwards it unopened.
    Wire(Bytes),
}

impl Default for Bundle {
    fn default() -> Self {
        Bundle::Mail(Vec::new())
    }
}

impl Bundle {
    /// Whether the bundle carries no mail (in either form).
    pub fn is_empty(&self) -> bool {
        match self {
            Bundle::Mail(mail) => mail.is_empty(),
            Bundle::Wire(frame) => frame.is_empty(),
        }
    }
}

/// Routed emissions of one shard for one round: the total emission count
/// (for traffic accounting, self-shard mail included) and one bundle per
/// destination shard (empty for none; the self slot is always empty —
/// local mail stays in the shard's pending queue).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Outbound {
    pub sent: u64,
    /// Messages parked in the emitting shard's own pending queue. The
    /// driver uses this to skip delivery round-trips to shards with no
    /// inbound mail at all (sparse BFS tails).
    pub local: u64,
    pub bundles: Vec<Bundle>,
}

impl Outbound {
    /// An empty round for a shard that was skipped (no mail anywhere).
    pub fn empty(shards: usize) -> Self {
        Outbound {
            sent: 0,
            local: 0,
            bundles: vec![Bundle::default(); shards],
        }
    }
}

/// Wire form of one receiver's first reception of an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FirstReception {
    pub hop: u16,
    pub sender_liked: bool,
    pub receiver_likes: bool,
    pub dislikes: u8,
}

/// Wire form of one receiver's outcome in a news delivery round, folded by
/// the driver in receiver order.
#[derive(Debug, Clone, PartialEq)]
pub struct NewsOutcome {
    pub receiver: NodeId,
    pub first: Option<FirstReception>,
    /// `(hop, forwarder_liked)` when the receiver forwarded (Fig. 6).
    pub forward: Option<(u16, bool)>,
}

/// A shard → driver phase reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    Outbound(Outbound),
    ChurnDecisions(Vec<(NodeId, NodeId)>),
    /// View snapshots in request order.
    Snapshots(Vec<ColdStart>),
    Ack,
    Published {
        /// Hop stamp of the source's forwards, when it forwarded.
        first_forward_hop: Option<u16>,
        out: Outbound,
    },
    NewsDelivered {
        out: Outbound,
        outcomes: Vec<NewsOutcome>,
    },
    /// The shard's serialized state (a [`frames::Checkpoint`] frame).
    Checkpoint(Bytes),
}

impl Reply {
    /// The routed mail of a phase reply (collect, gossip delivery, publish
    /// or news delivery); `None` for every other reply.
    pub fn outbound_mut(&mut self) -> Option<&mut Outbound> {
        match self {
            Reply::Outbound(out)
            | Reply::Published { out, .. }
            | Reply::NewsDelivered { out, .. } => Some(out),
            _ => None,
        }
    }
}

/// Moves command/reply frames between the driver and the shard workers.
///
/// A batch sends at most one command per shard; replies come back in batch
/// order. Implementations must preserve per-shard FIFO ordering. A failed
/// round-trip leaves the transport in an unspecified state: the driver
/// must abandon the run (dropping the transport tears the workers down) —
/// unless the transport is a [`SupervisedTransport`], which recovers the
/// failed shard internally and only fails after exhausting its restart
/// budget.
pub trait ShardTransport {
    fn n_shards(&self) -> usize;
    fn roundtrip(&mut self, batch: Vec<(usize, Command)>) -> Result<Vec<Reply>, TransportError>;

    /// Hook the driver calls once per completed cycle, after the cycle's
    /// last round-trip. Plain transports ignore it; the supervised wrapper
    /// uses it to checkpoint shards on its configured cadence (a cycle
    /// boundary is the one point where every mailbox is provably empty).
    fn cycle_boundary(&mut self, completed_cycle: u32) -> Result<(), TransportError> {
        let _ = completed_cycle;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// In-process transport
// ---------------------------------------------------------------------------

/// In-process transport: one worker thread per shard, [`Command`] and
/// [`Reply`] *values* over channels. The worker threads run
/// [`crate::engine::shard::serve`].
///
/// No codec runs on this path: the workers share the driver's address
/// space, so cross-shard mail moves as typed [`Bundle::Mail`] values —
/// the driver moves each bundle out of the emitting shard's reply into the
/// receiving shard's command, and every shared profile `Arc` in it arrives
/// intact (one snapshot allocation however many shards reference it, and
/// merge-score memo hits on remote profiles). The byte-stream transport
/// ([`SocketTransport`]) exercises the full codec, so wire parity is
/// still checked end to end.
pub struct ChannelTransport {
    to: Vec<crossbeam::channel::Sender<Command>>,
    from: Vec<crossbeam::channel::Receiver<Reply>>,
}

impl ChannelTransport {
    pub fn new(
        to: Vec<crossbeam::channel::Sender<Command>>,
        from: Vec<crossbeam::channel::Receiver<Reply>>,
    ) -> Self {
        assert_eq!(to.len(), from.len());
        Self { to, from }
    }

    /// Tells every worker to exit its serve loop.
    pub fn stop(&mut self) {
        for tx in &self.to {
            let _ = tx.send(Command::Stop);
        }
    }
}

impl ShardTransport for ChannelTransport {
    fn n_shards(&self) -> usize {
        self.to.len()
    }

    fn roundtrip(&mut self, batch: Vec<(usize, Command)>) -> Result<Vec<Reply>, TransportError> {
        let targets: Vec<usize> = batch.iter().map(|(s, _)| *s).collect();
        for (s, cmd) in batch {
            self.to[s]
                .send(cmd)
                .map_err(|_| TransportError::closed(thread_endpoint(s), "shard thread hung up"))?;
        }
        targets
            .into_iter()
            .map(|s| {
                self.from[s]
                    .recv()
                    .map_err(|_| TransportError::closed(thread_endpoint(s), "shard thread hung up"))
            })
            .collect()
    }
}

fn thread_endpoint(shard: usize) -> String {
    format!("in-process thread (shard {shard})")
}

#[cfg(test)]
mod tests {
    use super::frames::*;
    use super::*;
    use crate::scenario::{ChurnModel, LossModel};
    use bytes::BytesMut;
    use whatsup_core::{Descriptor, Metric, Params, Profile, ProfileEntry, SharedProfile};
    use whatsup_net::codec::Reader;

    fn snapshot(node: NodeId) -> ColdStart {
        let profile = Profile::from_entries([ProfileEntry {
            item: 7,
            timestamp: 3,
            score: 1.0,
        }]);
        ColdStart {
            rps_view: vec![Descriptor {
                node,
                age: 2,
                payload: SharedProfile::new(profile),
            }],
            wup_view: vec![],
        }
    }

    #[test]
    fn command_frames_roundtrip() {
        let cmds = vec![
            Command::Collect { cycle: 7 },
            Command::DeliverGossip {
                cycle: 7,
                bundles: vec![
                    Bundle::Wire(Bytes::new()),
                    Bundle::Wire(Bytes::copy_from_slice(b"abc")),
                ],
            },
            Command::ChurnDecide { cycle: 9 },
            Command::TakeSnapshots { ids: vec![3, 5, 8] },
            Command::ApplyChurn {
                resets: vec![(2, snapshot(5))],
            },
            Command::BeginNews,
            Command::Publish {
                cycle: 3,
                item: NewsItem::new("t", "d", "l", 9, 3),
            },
            Command::DeliverNews {
                cycle: 3,
                item: 0xdead_beef,
                bundles: vec![Bundle::Wire(Bytes::copy_from_slice(b"zz"))],
            },
            Command::Admit {
                reference: 4,
                snapshot: Some(snapshot(1)),
            },
            Command::Admit {
                reference: 9,
                snapshot: None,
            },
            Command::SwapInterests { a: 3, b: 17 },
            Command::TakeCheckpoint,
            Command::Restore {
                frame: Bytes::copy_from_slice(b"checkpointed state"),
            },
            Command::Stop,
        ];
        for cmd in cmds {
            assert_eq!(decode_command(&encode_command(&cmd)), Ok(cmd));
        }
    }

    #[test]
    fn reply_frames_roundtrip() {
        let replies = vec![
            Reply::Outbound(Outbound {
                sent: 12,
                local: 3,
                bundles: vec![
                    Bundle::Wire(Bytes::new()),
                    Bundle::Wire(Bytes::copy_from_slice(b"q")),
                ],
            }),
            Reply::ChurnDecisions(vec![(1, 9), (4, 2)]),
            Reply::Snapshots(vec![snapshot(3), ColdStart::default()]),
            Reply::Ack,
            Reply::Published {
                first_forward_hop: Some(3),
                out: Outbound::default(),
            },
            Reply::Published {
                first_forward_hop: None,
                out: Outbound::default(),
            },
            Reply::NewsDelivered {
                out: Outbound {
                    sent: 2,
                    local: 1,
                    bundles: vec![],
                },
                outcomes: vec![
                    NewsOutcome {
                        receiver: 5,
                        first: Some(FirstReception {
                            hop: 2,
                            sender_liked: true,
                            receiver_likes: false,
                            dislikes: 3,
                        }),
                        forward: None,
                    },
                    NewsOutcome {
                        receiver: 6,
                        first: None,
                        forward: Some((4, true)),
                    },
                ],
            },
            Reply::Checkpoint(Bytes::copy_from_slice(b"shard state frame")),
        ];
        for reply in replies {
            assert_eq!(decode_reply(&encode_reply(&reply)), Ok(reply));
        }
    }

    #[test]
    fn params_roundtrip_all_presets() {
        for p in [
            Params::whatsup(7),
            Params::whatsup_cos(3),
            Params::cf(9, Metric::Wup),
            Params::gossip(4),
        ] {
            let mut buf = BytesMut::new();
            put_params(&mut buf, &p);
            assert_eq!(get_params(&mut Reader::new(&buf)), Ok(p));
        }
    }

    #[test]
    fn environment_models_roundtrip() {
        let losses = [
            LossModel::Constant { p: 0.25 },
            LossModel::GilbertElliott {
                p_good: 0.01,
                p_bad: 0.6,
                good_to_bad: 0.2,
                bad_to_good: 0.4,
            },
            LossModel::Partition {
                from: 3,
                until: 9,
                frontier: 0.5,
            },
        ];
        for loss in losses {
            let mut buf = BytesMut::new();
            put_loss_model(&mut buf, &loss);
            assert_eq!(get_loss_model(&mut Reader::new(&buf)), Ok(loss));
        }
        let churns = [
            ChurnModel::None,
            ChurnModel::Uniform { per_cycle: 0.05 },
            ChurnModel::CrashWave {
                at: 7,
                fraction: 0.3,
            },
            ChurnModel::MassJoin { at: 2, count: 11 },
        ];
        for churn in churns {
            let mut buf = BytesMut::new();
            put_churn_model(&mut buf, &churn);
            assert_eq!(get_churn_model(&mut Reader::new(&buf)), Ok(churn));
        }
    }
}
