//! Every shard-protocol frame layout, in one place: the worker hello, the
//! driver's handshake carrying the [`ShardInit`], commands and replies,
//! view snapshots ([`ColdStart`]) and shard checkpoints.
//!
//! Little-endian throughout; `descriptors`, `profile`, `str` and the news
//! `content` are the `whatsup-net` codec's encodings, so the two stacks
//! share one message format:
//!
//! ```text
//! hello      := magic:u32 version:u16
//! handshake  := magic:u32 version:u16 init
//! init       := index:u32 partition seed:u64 loss churn params oracle
//!               bootstrap:list<list<contact:u32>>
//! partition  := list<start:u32>
//! oracle     := store ids:list<(id:u64 index:u32)> alias:list<row:u32>
//! store      := 0:u8 users:u32 items:u32 list<word:u64>          (dense)
//!             | 1:u8 items:u32 list<offset:u32> list<item:u32>   (CSR)
//! command    := opcode:u8 body      reply := opcode:u8 body
//! bundle     := len:u32 whatsup-net MAILBOX_BUNDLE frame (0 = empty)
//! cold-start := rps:descriptors wup:descriptors
//! checkpoint := partition channels:list<bad:u8> items:list<content>
//!               oracle nodes:list<node>
//! node       := profile rps:descriptors wup:descriptors
//!               seen:list<item:u64> stats:u64{7}
//! list<T>    := count:u32 T*
//! ```
//!
//! Decoders read only through the `whatsup-net` codec's fallible
//! [`Reader`]: a truncated, corrupted or forged frame is a typed
//! [`DecodeError`], never a panic, and no count allocates more than the
//! frame's bytes back. They also check the invariants the decoded types'
//! constructors assert (partition boundaries, like-store shapes, oracle
//! aliases, valid parameters, shard index, per-shard node counts).
//! Semantic checks on a *well-formed* command — that it names a node the
//! shard owns, or that no gossip mail arrives in a news round — remain
//! engine asserts.

use super::{Bundle, Command, FirstReception, NewsOutcome, Outbound, Reply, TransportErrorKind};
use crate::engine::partition::Partition;
use crate::engine::shard::ShardInit;
use crate::oracle::{ItemIndexMap, Oracle};
use crate::scenario::{ChurnModel, LossModel};
use bytes::{BufMut, Bytes, BytesMut};
use whatsup_core::beep::{DislikeRule, TargetPool};
use whatsup_core::{ColdStart, Metric, NewsItem, NodeId, NodeState, NodeStats, Params, Profile};
use whatsup_datasets::{CsrLikes, LikeMatrix, LikeStore};
use whatsup_net::codec::{self, wire_count_u32, DecodeError, Reader};

/// `"WUPS"` — first bytes of every hello/handshake frame.
pub const HANDSHAKE_MAGIC: u32 = 0x5755_5053;

/// Version of the whole exchange protocol; peers refuse to talk across
/// versions. v2 added checkpoint/restore; v3 dropped the end-of-cycle
/// counter frames and checkpoint counter residue; v4 added the oracle's
/// like-store tag; v5 carries news items in the `whatsup-net` content
/// encoding and view snapshots inline instead of length-prefixed.
pub const PROTOCOL_VERSION: u16 = 5;

// ---------------------------------------------------------------------------
// Hello and handshake
// ---------------------------------------------------------------------------

/// The worker's greeting: magic + the version it speaks. Takes the version
/// as a parameter so fault-injection tests can impersonate a mismatched
/// worker; real workers always send [`PROTOCOL_VERSION`].
pub fn encode_hello(version: u16) -> Vec<u8> {
    let mut hello = HANDSHAKE_MAGIC.to_le_bytes().to_vec();
    hello.extend_from_slice(&version.to_le_bytes());
    hello
}

/// Parses a hello frame into the peer's version; `Err` when the frame is
/// not a shard-worker greeting at all.
pub fn decode_hello(frame: &[u8]) -> Result<u16, TransportErrorKind> {
    let mut r = Reader::new(frame);
    match (r.u32(), r.u16(), r.finish()) {
        (Ok(HANDSHAKE_MAGIC), Ok(version), Ok(())) => Ok(version),
        _ => Err(TransportErrorKind::HandshakeMagic),
    }
}

/// The driver's reply to a hello: magic + version + the shard's init.
pub fn encode_handshake(init: &ShardInit) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(1024);
    buf.put_slice(&encode_hello(PROTOCOL_VERSION));
    put_init(&mut buf, init);
    Vec::from(buf)
}

/// Validates magic + version *before* touching the payload, then decodes
/// the carried [`ShardInit`] (a malformed one is
/// [`TransportErrorKind::Malformed`]).
pub fn decode_handshake(frame: &[u8]) -> Result<ShardInit, TransportErrorKind> {
    let mut r = Reader::new(frame);
    if r.u32() != Ok(HANDSHAKE_MAGIC) {
        return Err(TransportErrorKind::HandshakeMagic);
    }
    match r.u16() {
        Ok(PROTOCOL_VERSION) => {}
        Ok(got) => {
            return Err(TransportErrorKind::HandshakeVersion {
                got,
                want: PROTOCOL_VERSION,
            })
        }
        Err(_) => return Err(TransportErrorKind::HandshakeMagic),
    }
    get_init(&mut r)
        .and_then(|init| r.finish().map(|()| init))
        .map_err(TransportErrorKind::Malformed)
}

fn put_init(buf: &mut BytesMut, init: &ShardInit) {
    buf.put_u32_le(wire_count_u32(init.index, "shard index"));
    put_partition(buf, &init.partition);
    buf.put_u64_le(init.seed);
    put_loss_model(buf, &init.loss);
    put_churn_model(buf, &init.churn);
    put_params(buf, &init.params);
    put_oracle(buf, &init.oracle);
    put_list(buf, &init.bootstrap, |buf, contacts| {
        put_list(buf, contacts, |buf, &c| buf.put_u32_le(c))
    });
}

fn get_init(r: &mut Reader<'_>) -> Result<ShardInit, DecodeError> {
    let index = r.u32()? as usize;
    let partition = get_partition(r)?;
    let seed = r.u64()?;
    let loss = get_loss_model(r)?;
    let churn = get_churn_model(r)?;
    let params = get_params(r)?;
    let oracle = get_oracle(r)?;
    let bootstrap: Vec<Vec<NodeId>> = r.list(4, |r| r.list(4, Reader::u32))?;
    check_shard(&partition, index, bootstrap.len(), &oracle)?;
    let total = partition.total();
    let contacts_known = bootstrap.iter().flatten().all(|&c| (c as usize) < total);
    ensure(contacts_known, "bootstrap contact outside the population")?;
    Ok(ShardInit {
        index,
        partition,
        seed,
        loss,
        churn,
        params,
        oracle,
        bootstrap,
    })
}

/// Checks that shard `index` exists in `partition` and owns `owned`
/// nodes, and that the oracle covers the whole population.
fn check_shard(
    partition: &Partition,
    index: usize,
    owned: usize,
    oracle: &Oracle,
) -> Result<(), DecodeError> {
    ensure(index < partition.n_shards(), "shard index out of range")?;
    let owns = partition.range(index).len() == owned;
    ensure(owns, "node count does not match the shard")?;
    let covers = oracle.n_nodes() == partition.total();
    ensure(covers, "oracle does not cover the population")
}

/// `Ok` when `holds`, else [`DecodeError::Invalid`] naming the invariant.
fn ensure(holds: bool, invariant: &'static str) -> Result<(), DecodeError> {
    match holds {
        true => Ok(()),
        false => Err(DecodeError::Invalid(invariant)),
    }
}

// ---------------------------------------------------------------------------
// Commands and replies
// ---------------------------------------------------------------------------

const CMD_COLLECT: u8 = 1;
const CMD_DELIVER_GOSSIP: u8 = 2;
const CMD_CHURN_DECIDE: u8 = 3;
const CMD_TAKE_SNAPSHOTS: u8 = 4;
const CMD_APPLY_CHURN: u8 = 5;
const CMD_BEGIN_NEWS: u8 = 6;
const CMD_PUBLISH: u8 = 7;
const CMD_DELIVER_NEWS: u8 = 8;
const CMD_STOP: u8 = 9;
const CMD_ADMIT: u8 = 10;
const CMD_SWAP_INTERESTS: u8 = 11;
// Opcode 12 was `TakeCycleCounters` in protocol v2; the driver now folds
// cycle counters from the phase replies it already receives, so the
// end-of-cycle counter round-trip no longer exists.
const CMD_TAKE_CHECKPOINT: u8 = 13;
const CMD_RESTORE: u8 = 14;

pub fn encode_command(cmd: &Command) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(64);
    match cmd {
        Command::Collect { cycle } => {
            buf.put_u8(CMD_COLLECT);
            buf.put_u32_le(*cycle);
        }
        Command::DeliverGossip { cycle, bundles } => {
            buf.put_u8(CMD_DELIVER_GOSSIP);
            buf.put_u32_le(*cycle);
            put_bundles(&mut buf, bundles);
        }
        Command::ChurnDecide { cycle } => {
            buf.put_u8(CMD_CHURN_DECIDE);
            buf.put_u32_le(*cycle);
        }
        Command::TakeSnapshots { ids } => {
            buf.put_u8(CMD_TAKE_SNAPSHOTS);
            put_list(&mut buf, ids, |buf, &id| buf.put_u32_le(id));
        }
        Command::ApplyChurn { resets } => {
            buf.put_u8(CMD_APPLY_CHURN);
            put_list(&mut buf, resets, |buf, (node, snapshot)| {
                buf.put_u32_le(*node);
                put_cold_start(buf, snapshot);
            });
        }
        Command::BeginNews => buf.put_u8(CMD_BEGIN_NEWS),
        Command::Publish { cycle, item } => {
            buf.put_u8(CMD_PUBLISH);
            buf.put_u32_le(*cycle);
            codec::put_news_item(&mut buf, item);
        }
        Command::DeliverNews {
            cycle,
            item,
            bundles,
        } => {
            buf.put_u8(CMD_DELIVER_NEWS);
            buf.put_u32_le(*cycle);
            buf.put_u64_le(*item);
            put_bundles(&mut buf, bundles);
        }
        Command::Admit {
            reference,
            snapshot,
        } => {
            buf.put_u8(CMD_ADMIT);
            buf.put_u32_le(*reference);
            buf.put_u8(u8::from(snapshot.is_some()));
            if let Some(snapshot) = snapshot {
                put_cold_start(&mut buf, snapshot);
            }
        }
        Command::SwapInterests { a, b } => {
            buf.put_u8(CMD_SWAP_INTERESTS);
            buf.put_u32_le(*a);
            buf.put_u32_le(*b);
        }
        Command::TakeCheckpoint => buf.put_u8(CMD_TAKE_CHECKPOINT),
        Command::Restore { frame } => {
            buf.put_u8(CMD_RESTORE);
            codec::put_bytes(&mut buf, frame);
        }
        Command::Stop => buf.put_u8(CMD_STOP),
    }
    Vec::from(buf)
}

/// Inverse of [`encode_command`]. Mail bundles stay [`Bundle::Wire`]
/// frames and a restore's checkpoint stays bytes: the byte-stream boundary
/// decodes both with the shard at hand.
pub fn decode_command(frame: &[u8]) -> Result<Command, DecodeError> {
    let mut r = Reader::new(frame);
    let cmd = match r.u8()? {
        CMD_COLLECT => Command::Collect { cycle: r.u32()? },
        CMD_DELIVER_GOSSIP => Command::DeliverGossip {
            cycle: r.u32()?,
            bundles: get_bundles(&mut r)?,
        },
        CMD_CHURN_DECIDE => Command::ChurnDecide { cycle: r.u32()? },
        CMD_TAKE_SNAPSHOTS => Command::TakeSnapshots {
            ids: r.list(4, Reader::u32)?,
        },
        CMD_APPLY_CHURN => Command::ApplyChurn {
            resets: r.list(8, |r| Ok((r.u32()?, get_cold_start(r)?)))?,
        },
        CMD_BEGIN_NEWS => Command::BeginNews,
        CMD_PUBLISH => Command::Publish {
            cycle: r.u32()?,
            item: codec::get_news_item(&mut r)?,
        },
        CMD_DELIVER_NEWS => Command::DeliverNews {
            cycle: r.u32()?,
            item: r.u64()?,
            bundles: get_bundles(&mut r)?,
        },
        CMD_ADMIT => Command::Admit {
            reference: r.u32()?,
            snapshot: match r.bool()? {
                true => Some(get_cold_start(&mut r)?),
                false => None,
            },
        },
        CMD_SWAP_INTERESTS => Command::SwapInterests {
            a: r.u32()?,
            b: r.u32()?,
        },
        CMD_TAKE_CHECKPOINT => Command::TakeCheckpoint,
        CMD_RESTORE => Command::Restore {
            frame: Bytes::copy_from_slice(r.len_prefixed()?),
        },
        CMD_STOP => Command::Stop,
        other => return Err(DecodeError::BadTag(other)),
    };
    r.finish()?;
    Ok(cmd)
}

const REP_OUTBOUND: u8 = 1;
const REP_CHURN: u8 = 2;
const REP_SNAPSHOTS: u8 = 3;
const REP_ACK: u8 = 4;
const REP_PUBLISHED: u8 = 5;
const REP_NEWS: u8 = 6;
// Opcode 7 was `CycleCounters` in protocol v2 (see the command-side note).
const REP_CHECKPOINT: u8 = 8;

/// News-outcome flag bits: first reception, sender liked, receiver likes,
/// forwarded, forwarder liked.
const OUTCOME_FLAGS: u8 = 0b1_1111;

pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(64);
    match reply {
        Reply::Outbound(out) => {
            buf.put_u8(REP_OUTBOUND);
            put_outbound(&mut buf, out);
        }
        Reply::ChurnDecisions(pairs) => {
            buf.put_u8(REP_CHURN);
            put_list(&mut buf, pairs, |buf, &(node, contact)| {
                buf.put_u32_le(node);
                buf.put_u32_le(contact);
            });
        }
        Reply::Snapshots(snaps) => {
            buf.put_u8(REP_SNAPSHOTS);
            put_list(&mut buf, snaps, put_cold_start);
        }
        Reply::Ack => buf.put_u8(REP_ACK),
        Reply::Published {
            first_forward_hop,
            out,
        } => {
            buf.put_u8(REP_PUBLISHED);
            buf.put_u8(u8::from(first_forward_hop.is_some()));
            buf.put_u16_le(first_forward_hop.unwrap_or(0));
            put_outbound(&mut buf, out);
        }
        Reply::NewsDelivered { out, outcomes } => {
            buf.put_u8(REP_NEWS);
            put_outbound(&mut buf, out);
            put_list(&mut buf, outcomes, |buf, o| {
                buf.put_u32_le(o.receiver);
                let first = o.first.unwrap_or_default();
                let (fwd_hop, fwd_liked) = o.forward.unwrap_or((0, false));
                let flags = u8::from(o.first.is_some())
                    | u8::from(first.sender_liked) << 1
                    | u8::from(first.receiver_likes) << 2
                    | u8::from(o.forward.is_some()) << 3
                    | u8::from(fwd_liked) << 4;
                buf.put_u8(flags);
                buf.put_u16_le(first.hop);
                buf.put_u8(first.dislikes);
                buf.put_u16_le(fwd_hop);
            });
        }
        Reply::Checkpoint(frame) => {
            buf.put_u8(REP_CHECKPOINT);
            codec::put_bytes(&mut buf, frame);
        }
    }
    Vec::from(buf)
}

/// Inverse of [`encode_reply`]; mail bundles stay [`Bundle::Wire`]
/// frames, which the driver forwards unopened.
pub fn decode_reply(frame: &[u8]) -> Result<Reply, DecodeError> {
    let mut r = Reader::new(frame);
    let reply = match r.u8()? {
        REP_OUTBOUND => Reply::Outbound(get_outbound(&mut r)?),
        REP_CHURN => Reply::ChurnDecisions(r.list(8, |r| Ok((r.u32()?, r.u32()?)))?),
        REP_SNAPSHOTS => Reply::Snapshots(r.list(4, get_cold_start)?),
        REP_ACK => Reply::Ack,
        REP_PUBLISHED => {
            let has_hop = r.bool()?;
            let hop = r.u16()?;
            Reply::Published {
                first_forward_hop: has_hop.then_some(hop),
                out: get_outbound(&mut r)?,
            }
        }
        REP_NEWS => Reply::NewsDelivered {
            out: get_outbound(&mut r)?,
            outcomes: r.list(10, get_news_outcome)?,
        },
        REP_CHECKPOINT => Reply::Checkpoint(Bytes::copy_from_slice(r.len_prefixed()?)),
        other => return Err(DecodeError::BadTag(other)),
    };
    r.finish()?;
    Ok(reply)
}

fn get_news_outcome(r: &mut Reader<'_>) -> Result<NewsOutcome, DecodeError> {
    let receiver = r.u32()?;
    let flags = r.u8()?;
    ensure(flags & !OUTCOME_FLAGS == 0, "unknown outcome flag bits")?;
    let hop = r.u16()?;
    let dislikes = r.u8()?;
    let fwd_hop = r.u16()?;
    Ok(NewsOutcome {
        receiver,
        first: (flags & 1 != 0).then_some(FirstReception {
            hop,
            sender_liked: flags & 2 != 0,
            receiver_likes: flags & 4 != 0,
            dislikes,
        }),
        forward: (flags & 8 != 0).then_some((fwd_hop, flags & 16 != 0)),
    })
}

fn put_outbound(buf: &mut BytesMut, out: &Outbound) {
    buf.put_u64_le(out.sent);
    buf.put_u64_le(out.local);
    put_bundles(buf, &out.bundles);
}

fn get_outbound(r: &mut Reader<'_>) -> Result<Outbound, DecodeError> {
    Ok(Outbound {
        sent: r.u64()?,
        local: r.u64()?,
        bundles: get_bundles(r)?,
    })
}

/// Bundles on a byte stream are wire frames; an empty bundle of either
/// form is a zero-length frame.
///
/// # Panics
/// Panics on non-empty typed mail: the byte-stream boundary
/// ([`super::stream::handle_frame`]) encodes a shard's outbound mail before
/// its reply is framed, and the driver only ever forwards the wire bundles
/// it received.
fn put_bundles(buf: &mut BytesMut, bundles: &[Bundle]) {
    put_list(buf, bundles, |buf, bundle| match bundle {
        Bundle::Wire(frame) => codec::put_bytes(buf, frame),
        Bundle::Mail(mail) => {
            assert!(mail.is_empty(), "typed mail reached the frame codec");
            buf.put_u32_le(0);
        }
    });
}

fn get_bundles(r: &mut Reader<'_>) -> Result<Vec<Bundle>, DecodeError> {
    r.list(4, |r| {
        Ok(Bundle::Wire(Bytes::copy_from_slice(r.len_prefixed()?)))
    })
}

fn put_cold_start(buf: &mut BytesMut, cs: &ColdStart) {
    codec::put_descriptors(buf, &cs.rps_view);
    codec::put_descriptors(buf, &cs.wup_view);
}

fn get_cold_start(r: &mut Reader<'_>) -> Result<ColdStart, DecodeError> {
    Ok(ColdStart {
        rps_view: codec::get_descriptors(r)?,
        wup_view: codec::get_descriptors(r)?,
    })
}

/// Writes a `count:u32` list, each element with `put`.
fn put_list<T>(buf: &mut BytesMut, items: &[T], mut put: impl FnMut(&mut BytesMut, &T)) {
    buf.put_u32_le(wire_count_u32(items.len(), "list length"));
    for item in items {
        put(buf, item);
    }
}

// ---------------------------------------------------------------------------
// Shard init parts
// ---------------------------------------------------------------------------

fn put_partition(buf: &mut BytesMut, partition: &Partition) {
    put_list(buf, partition.starts(), |buf, &s| buf.put_u32_le(s));
}

fn get_partition(r: &mut Reader<'_>) -> Result<Partition, DecodeError> {
    let starts = r.list(4, Reader::u32)?;
    let bounds = starts.len() >= 2 && starts.first() == Some(&0) && starts.is_sorted();
    ensure(bounds, "partition boundaries must start at 0 and rise")?;
    Ok(Partition::from_starts(starts))
}

/// A probability field (what the engine feeds to its random coins).
fn get_prob(r: &mut Reader<'_>) -> Result<f64, DecodeError> {
    let p = r.f64()?;
    ensure((0.0..=1.0).contains(&p), "probability outside [0, 1]").map(|()| p)
}

pub(super) fn put_params(buf: &mut BytesMut, p: &Params) {
    buf.put_u32_le(wire_count_u32(p.rps.view_size, "RPS view size"));
    buf.put_u32_le(wire_count_u32(p.rps.exchange_len, "RPS exchange length"));
    buf.put_u32_le(p.rps_period);
    buf.put_u32_le(wire_count_u32(p.wup_view_size, "WUP view size"));
    buf.put_u8(match p.metric {
        Metric::Wup => 0,
        Metric::Cosine => 1,
        Metric::Jaccard => 2,
    });
    buf.put_u32_le(p.profile_window);
    buf.put_u32_le(wire_count_u32(p.beep.f_like, "fLIKE"));
    buf.put_u8(match p.beep.like_pool {
        TargetPool::Wup => 0,
        TargetPool::Rps => 1,
    });
    buf.put_u8(u8::from(p.beep.like_entire_view));
    let (dislike_tag, fanout, ttl, oriented) = match p.beep.dislike {
        DislikeRule::Drop => (0, 0, 0, false),
        DislikeRule::Forward {
            fanout,
            ttl,
            oriented,
        } => (1, fanout, ttl, oriented),
    };
    buf.put_u8(dislike_tag);
    buf.put_u32_le(wire_count_u32(fanout, "dislike fanout"));
    buf.put_u8(ttl);
    buf.put_u8(u8::from(oriented));
    buf.put_u32_le(wire_count_u32(p.cold_start_items, "cold-start item count"));
    buf.put_f64_le(p.obfuscation_epsilon);
}

pub(super) fn get_params(r: &mut Reader<'_>) -> Result<Params, DecodeError> {
    let mut p = Params::default();
    p.rps.view_size = r.u32()? as usize;
    p.rps.exchange_len = r.u32()? as usize;
    p.rps_period = r.u32()?;
    p.wup_view_size = r.u32()? as usize;
    p.metric = match r.u8()? {
        0 => Metric::Wup,
        1 => Metric::Cosine,
        2 => Metric::Jaccard,
        other => return Err(DecodeError::BadTag(other)),
    };
    p.profile_window = r.u32()?;
    p.beep.f_like = r.u32()? as usize;
    p.beep.like_pool = match r.u8()? {
        0 => TargetPool::Wup,
        1 => TargetPool::Rps,
        other => return Err(DecodeError::BadTag(other)),
    };
    p.beep.like_entire_view = r.bool()?;
    let dislike_tag = r.u8()?;
    let fanout = r.u32()? as usize;
    let ttl = r.u8()?;
    let oriented = r.bool()?;
    p.beep.dislike = match dislike_tag {
        0 => DislikeRule::Drop,
        1 => DislikeRule::Forward {
            fanout,
            ttl,
            oriented,
        },
        other => return Err(DecodeError::BadTag(other)),
    };
    p.cold_start_items = r.u32()? as usize;
    p.obfuscation_epsilon = r.f64()?;
    // Every node is built from these, and node construction asserts them.
    p.validate()
        .map_err(|_| DecodeError::Invalid("parameters violate the protocol invariants"))?;
    Ok(p)
}

pub(super) fn put_loss_model(buf: &mut BytesMut, loss: &LossModel) {
    match *loss {
        LossModel::Constant { p } => {
            buf.put_u8(0);
            buf.put_f64_le(p);
        }
        LossModel::GilbertElliott {
            p_good,
            p_bad,
            good_to_bad,
            bad_to_good,
        } => {
            buf.put_u8(1);
            buf.put_f64_le(p_good);
            buf.put_f64_le(p_bad);
            buf.put_f64_le(good_to_bad);
            buf.put_f64_le(bad_to_good);
        }
        LossModel::Partition {
            from,
            until,
            frontier,
        } => {
            buf.put_u8(2);
            buf.put_u32_le(from);
            buf.put_u32_le(until);
            buf.put_f64_le(frontier);
        }
    }
}

pub(super) fn get_loss_model(r: &mut Reader<'_>) -> Result<LossModel, DecodeError> {
    Ok(match r.u8()? {
        0 => LossModel::Constant { p: get_prob(r)? },
        1 => LossModel::GilbertElliott {
            p_good: get_prob(r)?,
            p_bad: get_prob(r)?,
            good_to_bad: get_prob(r)?,
            bad_to_good: get_prob(r)?,
        },
        2 => LossModel::Partition {
            from: r.u32()?,
            until: r.u32()?,
            frontier: r.f64()?,
        },
        other => return Err(DecodeError::BadTag(other)),
    })
}

pub(super) fn put_churn_model(buf: &mut BytesMut, churn: &ChurnModel) {
    match *churn {
        ChurnModel::None => buf.put_u8(0),
        ChurnModel::Uniform { per_cycle } => {
            buf.put_u8(1);
            buf.put_f64_le(per_cycle);
        }
        ChurnModel::CrashWave { at, fraction } => {
            buf.put_u8(2);
            buf.put_u32_le(at);
            buf.put_f64_le(fraction);
        }
        ChurnModel::MassJoin { at, count } => {
            buf.put_u8(3);
            buf.put_u32_le(at);
            buf.put_u32_le(count);
        }
    }
}

pub(super) fn get_churn_model(r: &mut Reader<'_>) -> Result<ChurnModel, DecodeError> {
    Ok(match r.u8()? {
        0 => ChurnModel::None,
        1 => ChurnModel::Uniform {
            per_cycle: get_prob(r)?,
        },
        2 => ChurnModel::CrashWave {
            at: r.u32()?,
            fraction: get_prob(r)?,
        },
        3 => ChurnModel::MassJoin {
            at: r.u32()?,
            count: r.u32()?,
        },
        other => return Err(DecodeError::BadTag(other)),
    })
}

/// Like-store wire tags (see [`put_oracle`]).
const ORACLE_STORE_DENSE: u8 = 0;
const ORACLE_STORE_SPARSE: u8 = 1;

fn put_oracle(buf: &mut BytesMut, oracle: &Oracle) {
    // One tag byte selects the like-store representation; the chosen form
    // travels as-is, so a worker reconstructs the exact store the driver
    // measured cheaper (never re-deciding, which keeps every copy equal).
    match oracle.store() {
        LikeStore::Dense(m) => {
            buf.put_u8(ORACLE_STORE_DENSE);
            buf.put_u32_le(wire_count_u32(m.n_users(), "like-matrix users"));
            buf.put_u32_le(wire_count_u32(m.n_items(), "like-matrix items"));
            put_list(buf, m.words(), |buf, &w| buf.put_u64_le(w));
        }
        LikeStore::Sparse(c) => {
            buf.put_u8(ORACLE_STORE_SPARSE);
            buf.put_u32_le(wire_count_u32(c.n_items(), "like-store items"));
            put_list(buf, c.offsets(), |buf, &o| buf.put_u32_le(o));
            put_list(buf, c.items(), |buf, &i| buf.put_u32_le(i));
        }
    }
    // HashMap iteration order is unspecified; sort for a canonical frame.
    let mut pairs: Vec<(u64, u32)> = oracle.id_map().iter().map(|(&k, &v)| (k, v)).collect();
    pairs.sort_unstable();
    put_list(buf, &pairs, |buf, &(id, index)| {
        buf.put_u64_le(id);
        buf.put_u32_le(index);
    });
    put_list(buf, oracle.alias(), |buf, &row| buf.put_u32_le(row));
}

fn get_oracle(r: &mut Reader<'_>) -> Result<Oracle, DecodeError> {
    let store = match r.u8()? {
        ORACLE_STORE_DENSE => {
            let n_users = r.u32()? as usize;
            let n_items = r.u32()? as usize;
            let words = r.list(8, Reader::u64)?;
            let shape = n_users.checked_mul(n_items.div_ceil(64));
            ensure(shape == Some(words.len()), "like-matrix shape mismatch")?;
            LikeStore::Dense(LikeMatrix::from_words(n_users, n_items, words))
        }
        ORACLE_STORE_SPARSE => {
            let n_items = r.u32()? as usize;
            let offsets = r.list(4, Reader::u32)?;
            let items = r.list(4, Reader::u32)?;
            let rising = offsets.first() == Some(&0)
                && offsets.is_sorted()
                && offsets.last().map(|&o| o as usize) == Some(items.len());
            ensure(
                rising,
                "like-store offsets must rise from 0 to the like count",
            )?;
            LikeStore::Sparse(CsrLikes::from_parts(n_items, offsets, items))
        }
        other => return Err(DecodeError::BadTag(other)),
    };
    let id_to_index: ItemIndexMap = r
        .list(12, |r| Ok((r.u64()?, r.u32()?)))?
        .into_iter()
        .collect();
    let alias = r.list(4, Reader::u32)?;
    let in_store = id_to_index
        .values()
        .all(|&i| (i as usize) < store.n_items())
        && alias.iter().all(|&row| (row as usize) < store.n_users());
    ensure(in_store, "oracle index outside the like store")?;
    Ok(Oracle::restore(store, id_to_index, alias))
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

/// A shard's full dynamic state at a cycle boundary — the decoded form of
/// a checkpoint frame ([`encode_checkpoint`]). Static state (index, seed,
/// loss/churn models, params) is not part of it: a restoring worker
/// already received that in its handshake.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    pub partition: Partition,
    /// Per-node Gilbert–Elliott channel states.
    pub channel_bad: Vec<bool>,
    /// Known news content, ascending item id (canonical).
    pub known_items: Vec<NewsItem>,
    pub oracle: Oracle,
    /// One state per owned node, in id order.
    pub nodes: Vec<(NodeState, NodeStats)>,
}

/// Smallest wire node: empty profile and views, no seen ids, the stats.
const NODE_MIN_BYTES: usize = 2 + 2 + 2 + 4 + 7 * 8;

pub fn encode_checkpoint(cp: &Checkpoint) -> Bytes {
    let mut buf = BytesMut::with_capacity(4096);
    put_partition(&mut buf, &cp.partition);
    put_list(&mut buf, &cp.channel_bad, |buf, &bad| {
        buf.put_u8(u8::from(bad))
    });
    put_list(&mut buf, &cp.known_items, codec::put_news_item);
    put_oracle(&mut buf, &cp.oracle);
    put_list(&mut buf, &cp.nodes, |buf, (state, stats)| {
        codec::put_profile(buf, &Profile::from_vec(state.profile.clone()));
        codec::put_descriptors(buf, &state.rps_view);
        codec::put_descriptors(buf, &state.wup_view);
        put_list(buf, &state.seen, |buf, &item| buf.put_u64_le(item));
        let counters = [
            stats.rps_sent,
            stats.wup_sent,
            stats.news_sent,
            stats.news_received,
            stats.news_duplicates,
            stats.news_liked,
            stats.published,
        ];
        for counter in counters {
            buf.put_u64_le(counter);
        }
    });
    buf.freeze()
}

/// Inverse of [`encode_checkpoint`] for shard `index`: the checkpoint must
/// hold exactly one node and one channel state per node that shard owns
/// under the checkpoint's partition.
pub fn decode_checkpoint(frame: &[u8], index: usize) -> Result<Checkpoint, DecodeError> {
    let mut r = Reader::new(frame);
    let partition = get_partition(&mut r)?;
    let channel_bad = r.list(1, Reader::bool)?;
    let known_items = r.list(14, codec::get_news_item)?;
    let oracle = get_oracle(&mut r)?;
    let nodes = r.list(NODE_MIN_BYTES, |r| {
        let state = NodeState {
            profile: codec::get_profile(r)?.entries().to_vec(),
            rps_view: codec::get_descriptors(r)?,
            wup_view: codec::get_descriptors(r)?,
            seen: r.list(8, Reader::u64)?,
        };
        let ascending = state.seen.is_sorted_by(|a, b| a < b);
        ensure(ascending, "seen ids must ascend strictly")?;
        let stats = NodeStats {
            rps_sent: r.u64()?,
            wup_sent: r.u64()?,
            news_sent: r.u64()?,
            news_received: r.u64()?,
            news_duplicates: r.u64()?,
            news_liked: r.u64()?,
            published: r.u64()?,
        };
        Ok((state, stats))
    })?;
    r.finish()?;
    check_shard(&partition, index, nodes.len(), &oracle)?;
    let paired = channel_bad.len() == nodes.len();
    ensure(paired, "channel states do not match the nodes")?;
    Ok(Checkpoint {
        partition,
        channel_bad,
        known_items,
        oracle,
        nodes,
    })
}
