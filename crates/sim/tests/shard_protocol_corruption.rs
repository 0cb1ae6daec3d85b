//! Adversarial decode tests for the shard protocol: every command, reply,
//! handshake (dense and sparse oracle) and checkpoint frame, corrupted by
//! truncation and bit flips, plus raw byte soup, fed to every frames
//! decoder. The only acceptable outcomes are `Ok` or a typed error — never
//! a panic — and what does decode must be safe to act on: a decoded
//! handshake builds a shard, a decoded checkpoint restores one.
//!
//! `sim-shard-worker --listen` accepts these frames from any TCP peer, so
//! this is the executable form of the `wire-panic` contract `whatsup-lint`
//! enforces statically on the frames module and the byte-stream boundary
//! (the `whatsup-net` codec's own frames are covered by its
//! `codec_corruption` test).

use bytes::Bytes;
use proptest::prelude::*;
use whatsup_core::{ColdStart, NewsItem, NewsMessage, Params, Payload, ProfileEntry};
use whatsup_datasets::LikeMatrix;
use whatsup_net::codec::{self, DecodeError};
use whatsup_sim::engine::exchange::frames::{
    decode_checkpoint, decode_command, decode_handshake, decode_hello, decode_reply,
    encode_checkpoint, encode_command, encode_handshake, encode_hello, encode_reply,
    PROTOCOL_VERSION,
};
use whatsup_sim::engine::exchange::{FirstReception, NewsOutcome, Outbound, TransportErrorKind};
use whatsup_sim::engine::{Bundle, Command, Partition, Reply, ShardInit, ShardState};
use whatsup_sim::oracle::ItemIndexMap;
use whatsup_sim::scenario::{ChurnModel, LossModel};
use whatsup_sim::Oracle;

const USERS: usize = 6;

/// Shard `index` of a 2-shard, 6-node run whose oracle is dense or CSR.
fn init(index: usize, sparse: bool) -> ShardInit {
    let mut m = LikeMatrix::new(USERS, 10);
    for u in 0..USERS {
        m.set(u, u, true);
        m.set(u, (u * 3) % 10, true);
    }
    let ids: ItemIndexMap = (0..10u32).map(|i| (1000 + u64::from(i), i)).collect();
    let mut oracle = Oracle::new_forced(m, ids, sparse);
    oracle.swap_interests(0, 3);
    let partition = Partition::new(USERS, 2);
    let bootstrap = partition
        .range(index)
        .map(|id| (0..USERS as u32).filter(|&c| c != id).take(3).collect())
        .collect();
    ShardInit {
        index,
        partition,
        seed: 17,
        loss: LossModel::GilbertElliott {
            p_good: 0.01,
            p_bad: 0.5,
            good_to_bad: 0.1,
            bad_to_good: 0.3,
        },
        churn: ChurnModel::CrashWave {
            at: 4,
            fraction: 0.25,
        },
        params: Params::whatsup(2),
        oracle,
        bootstrap,
    }
}

fn item() -> NewsItem {
    NewsItem::new("title", "a description", "https://news.example/1", 1, 3)
}

/// One valid frame of every shard-protocol kind, each paired with its
/// decoder's name (for failure messages).
fn all_frames() -> Vec<(&'static str, Vec<u8>)> {
    let shard = ShardState::from_init(init(0, false));
    let snapshot: ColdStart = shard.snapshot_of(1);
    let mut cp = shard.checkpoint();
    cp.known_items.push(item());
    cp.channel_bad[1] = true;
    let (state, stats) = &mut cp.nodes[0];
    state.profile = vec![ProfileEntry {
        item: 1001,
        timestamp: 2,
        score: 1.0,
    }];
    state.seen = vec![4, 9, 1001];
    stats.news_received = 5;
    let checkpoint = encode_checkpoint(&cp);

    let news = Payload::News(NewsMessage {
        header: item().header(),
        profile: snapshot.rps_view[0].payload.clone(),
        dislikes: 1,
        hops: 2,
    });
    let mail = vec![
        (4, 1, news),
        (5, 2, Payload::RpsRequest(snapshot.rps_view.clone())),
    ];
    let bundle = Bundle::Wire(codec::encode_bundle(0, &mail, |_| Some(item())));
    let bundles = vec![Bundle::Wire(Bytes::new()), bundle];

    let commands = [
        Command::Collect { cycle: 7 },
        Command::DeliverGossip {
            cycle: 7,
            bundles: bundles.clone(),
        },
        Command::ChurnDecide { cycle: 4 },
        Command::TakeSnapshots { ids: vec![1, 2] },
        Command::ApplyChurn {
            resets: vec![(2, snapshot.clone())],
        },
        Command::Admit {
            reference: 3,
            snapshot: Some(snapshot.clone()),
        },
        Command::Admit {
            reference: 3,
            snapshot: None,
        },
        Command::SwapInterests { a: 1, b: 4 },
        Command::BeginNews,
        Command::Publish {
            cycle: 3,
            item: item(),
        },
        Command::DeliverNews {
            cycle: 3,
            item: item().id(),
            bundles: bundles.clone(),
        },
        Command::TakeCheckpoint,
        Command::Restore {
            frame: checkpoint.clone(),
        },
        Command::Stop,
    ];
    let out = Outbound {
        sent: 9,
        local: 2,
        bundles,
    };
    let replies = [
        Reply::Outbound(out.clone()),
        Reply::ChurnDecisions(vec![(1, 4), (2, 0)]),
        Reply::Snapshots(vec![snapshot, ColdStart::default()]),
        Reply::Ack,
        Reply::Published {
            first_forward_hop: Some(1),
            out: out.clone(),
        },
        Reply::NewsDelivered {
            out,
            outcomes: vec![
                NewsOutcome {
                    receiver: 1,
                    first: Some(FirstReception {
                        hop: 2,
                        sender_liked: true,
                        receiver_likes: true,
                        dislikes: 0,
                    }),
                    forward: Some((2, true)),
                },
                NewsOutcome {
                    receiver: 2,
                    first: None,
                    forward: None,
                },
            ],
        },
        Reply::Checkpoint(checkpoint.clone()),
    ];

    let mut frames = vec![
        ("hello", encode_hello(PROTOCOL_VERSION)),
        ("handshake (dense)", encode_handshake(&init(0, false))),
        ("handshake (sparse)", encode_handshake(&init(1, true))),
        ("checkpoint", checkpoint.to_vec()),
    ];
    frames.extend(commands.iter().map(|c| ("command", encode_command(c))));
    frames.extend(replies.iter().map(|r| ("reply", encode_reply(r))));
    frames
}

/// Feeds one buffer to every frames decoder and acts on whatever decodes
/// the way a worker would. A panic fails the test by unwinding.
fn exercise_all_decoders(buf: &[u8]) {
    let _ = decode_hello(buf);
    if let Ok(init) = decode_handshake(buf) {
        ShardState::from_init(init);
    }
    let _ = decode_command(buf);
    let _ = decode_reply(buf);
    for index in 0..2 {
        if let Ok(cp) = decode_checkpoint(buf, index) {
            ShardState::from_init(init(index, index == 1)).restore(cp);
        }
    }
}

/// The frame's own decoder, as a pass/fail.
fn own_decoder_accepts(kind: &str, buf: &[u8]) -> bool {
    match kind {
        "hello" => decode_hello(buf).is_ok(),
        "checkpoint" => decode_checkpoint(buf, 0).is_ok(),
        "command" => decode_command(buf).is_ok(),
        "reply" => decode_reply(buf).is_ok(),
        _ => decode_handshake(buf).is_ok(),
    }
}

#[test]
fn every_frame_decodes_and_every_strict_prefix_is_rejected() {
    for (kind, frame) in all_frames() {
        assert!(
            own_decoder_accepts(kind, &frame),
            "{kind} frame must decode"
        );
        for cut in 0..frame.len() {
            assert!(
                !own_decoder_accepts(kind, &frame[..cut]),
                "{kind}: a {cut}-byte prefix of {} bytes decoded",
                frame.len()
            );
            exercise_all_decoders(&frame[..cut]);
        }
    }
}

/// Exhaustive single-bit flips of every byte of every frame:
/// deterministic, so a regression names the frame kind and offset.
#[test]
fn every_single_bit_flip_is_panic_free() {
    for (_, frame) in all_frames() {
        for at in 0..frame.len() {
            for bit in 0..8 {
                let mut corrupt = frame.clone();
                corrupt[at] ^= 1 << bit;
                exercise_all_decoders(&corrupt);
            }
        }
    }
}

#[test]
fn forged_counts_are_rejected_before_allocation() {
    // A handshake whose partition claims u32::MAX boundaries: the count
    // cannot fit in the frame, so it is refused before any allocation.
    let mut frame = encode_hello(PROTOCOL_VERSION);
    frame.extend_from_slice(&0u32.to_le_bytes());
    frame.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        decode_handshake(&frame),
        Err(TransportErrorKind::Malformed(DecodeError::Truncated))
    ));
    // A command opcode no protocol version defines.
    assert!(matches!(
        decode_command(&[0xee]),
        Err(DecodeError::BadTag(0xee))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn truncated_frames_never_panic(cut_fraction in 0.0f64..1.0) {
        for (_, frame) in all_frames() {
            let cut = ((frame.len() as f64) * cut_fraction) as usize;
            exercise_all_decoders(&frame[..cut]);
        }
    }

    #[test]
    fn bit_flipped_frames_never_panic(
        flips in prop::collection::vec((0usize..100_000, 0u8..8), 1..8),
    ) {
        for (_, frame) in all_frames() {
            let mut corrupt = frame.clone();
            for &(pos, bit) in &flips {
                let at = pos % corrupt.len();
                corrupt[at] ^= 1 << bit;
            }
            exercise_all_decoders(&corrupt);
        }
    }

    #[test]
    fn random_bytes_never_panic(noise in prop::collection::vec(0u8..255, 0..512)) {
        exercise_all_decoders(&noise);
    }
}
