//! Adversarial decode tests: every wire-format frame kind, corrupted by
//! truncation and bit flips, fed to every decoder — the decoder must
//! return a typed [`DecodeError`] (or a well-formed wrong message, for
//! flips that land in content bytes), **never panic**.
//!
//! This is the executable form of the `wire-panic` contract that
//! `whatsup-lint` enforces statically on `codec.rs`: untrusted bytes reach
//! `decode`/`bundle_view`/`decode_digest`/`decode_delta` from the network,
//! so every read on those paths goes through the fallible `Reader`. The
//! profile and descriptor spans are covered on their own too, as the
//! building blocks the simulator's shard protocol embeds (view snapshots,
//! checkpoints); the shard-protocol frames themselves — commands, replies,
//! the handshake and checkpoints — get the same treatment in
//! `whatsup_sim`'s `shard_protocol_corruption` test.

use proptest::prelude::*;
use whatsup_core::message::wire;
use whatsup_core::{
    Descriptor, NewsItem, NewsMessage, NodeId, Payload, Profile, ProfileEntry, SharedProfile,
};
use whatsup_net::codec::{
    bundle_view, decode, decode_bundle_entry, decode_delta, decode_digest, encode, encode_bundle,
    encode_delta, encode_digest, get_descriptors, get_profile, DecodeError, DeltaEntry, DeltaValue,
    DigestLine, NewsDecodeCache, Reader,
};

fn profile(entries: &[(u64, u32, bool)]) -> Profile {
    Profile::from_entries(
        entries
            .iter()
            .map(|&(item, timestamp, liked)| ProfileEntry {
                item,
                timestamp,
                score: if liked { 1.0 } else { 0.0 },
            }),
    )
}

fn descriptor(node: u32, entries: &[(u64, u32, bool)]) -> Descriptor<SharedProfile> {
    Descriptor {
        node,
        age: 3,
        payload: SharedProfile::new(profile(entries)),
    }
}

fn news_item(tag: u64, source: u32) -> NewsItem {
    NewsItem::new(
        format!("title-{tag}"),
        format!("description {tag}"),
        format!("https://news.example/{tag}"),
        source,
        7,
    )
}

fn news_payload(item: &NewsItem, entries: &[(u64, u32, bool)]) -> Payload {
    Payload::News(NewsMessage {
        header: item.header(),
        profile: SharedProfile::new(profile(entries)),
        dislikes: 2,
        hops: 5,
    })
}

/// One valid frame of every wire kind, built from the generated entries:
/// the four gossip kinds, a news frame, a mailbox bundle mixing gossip and
/// news, an anti-entropy digest and delta, and the embedded span
/// building blocks (a `put_profile` span and a `put_descriptors` span).
fn all_frames(from: NodeId, entries: &[(u64, u32, bool)]) -> Vec<Vec<u8>> {
    let item = news_item(entries.len() as u64, from);
    let resolve = |id| (id == item.id()).then(|| item.clone());
    let mut frames: Vec<Vec<u8>> = Vec::new();
    for kind in [
        wire::RPS_REQUEST,
        wire::RPS_RESPONSE,
        wire::WUP_REQUEST,
        wire::WUP_RESPONSE,
    ] {
        let descs = vec![descriptor(from, entries)];
        let payload = match kind {
            wire::RPS_REQUEST => Payload::RpsRequest(descs),
            wire::RPS_RESPONSE => Payload::RpsResponse(descs),
            wire::WUP_REQUEST => Payload::WupRequest(descs),
            _ => Payload::WupResponse(descs),
        };
        frames.push(encode(from, &payload, resolve).unwrap().to_vec());
    }
    frames.push(
        encode(from, &news_payload(&item, entries), resolve)
            .unwrap()
            .to_vec(),
    );
    let bundle_entries: Vec<(NodeId, NodeId, Payload)> = vec![
        (
            1,
            from,
            Payload::RpsRequest(vec![descriptor(from, entries)]),
        ),
        (2, from, news_payload(&item, entries)),
        (3, from, news_payload(&item, entries)),
    ];
    frames.push(encode_bundle(9, &bundle_entries, resolve).to_vec());
    let digest: Vec<DigestLine> = (0..3)
        .map(|i| DigestLine {
            node: i,
            incarnation: u32::from(i == 1),
            max_version: u64::from(i) * 7,
        })
        .collect();
    frames.push(encode_digest(from, &digest).unwrap().to_vec());
    let delta: Vec<DeltaEntry> = vec![
        DeltaEntry {
            node: 0,
            incarnation: 0,
            version: 1,
            value: DeltaValue::Heartbeat(4),
        },
        DeltaEntry {
            node: 1,
            incarnation: 2,
            version: 9,
            value: DeltaValue::ProfileDigest(0xdead_beef),
        },
        DeltaEntry {
            node: 2,
            incarnation: 0,
            version: 3,
            value: DeltaValue::NewsKey {
                item: 11,
                published_at: 13,
            },
        },
    ];
    frames.push(encode_delta(from, &delta).unwrap().to_vec());
    // Span building blocks (what snapshots and checkpoints embed).
    let mut buf = bytes::BytesMut::new();
    whatsup_net::codec::put_profile(&mut buf, &profile(entries));
    frames.push(buf.to_vec());
    let mut buf = bytes::BytesMut::new();
    whatsup_net::codec::put_descriptors(&mut buf, &[descriptor(from, entries)]);
    frames.push(buf.to_vec());
    frames
}

/// Decodes every entry of a bundle frame through the one bundle decoder.
fn open_bundle(buf: &[u8]) -> Result<(), DecodeError> {
    let mut cache = NewsDecodeCache::default();
    for entry in bundle_view(buf)? {
        let (_, inner) = entry?;
        decode_bundle_entry(inner, &mut cache)?;
    }
    Ok(())
}

/// Feeds one byte buffer to every decode entry point. The only acceptable
/// outcomes are `Ok` or a typed error; a panic fails the test by
/// unwinding.
fn exercise_all_decoders(buf: &[u8]) {
    if let Ok((_, msg)) = decode(buf) {
        let _ = msg.try_into_payload();
    }
    let _ = open_bundle(buf);
    let _ = decode_digest(buf);
    let _ = decode_delta(buf);
    let _ = get_profile(&mut Reader::new(buf));
    let _ = get_descriptors(&mut Reader::new(buf));
}

fn profile_strategy() -> impl Strategy<Value = Vec<(u64, u32, bool)>> {
    prop::collection::vec((0u64..1_000_000, 0u32..10_000, prop::bool::ANY), 0..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncations of every frame kind: each decoder either rejects the
    /// prefix with a typed error or parses a shorter valid message — and
    /// the frame's own decoder must reject any strict prefix.
    #[test]
    fn truncated_frames_never_panic(
        from in 0u32..1_000,
        entries in profile_strategy(),
        cut_fraction in 0.0f64..1.0,
    ) {
        for frame in all_frames(from, &entries) {
            let cut = ((frame.len() as f64) * cut_fraction) as usize;
            if cut < frame.len() {
                exercise_all_decoders(&frame[..cut]);
            }
        }
    }

    /// Bit-flipped frames of every kind never panic any decoder. A flip in
    /// a content byte may still decode (to different content) — the
    /// contract is no panic, not rejection.
    #[test]
    fn bit_flipped_frames_never_panic(
        from in 0u32..1_000,
        entries in profile_strategy(),
        flips in prop::collection::vec((0usize..10_000, 0u8..8), 1..6),
    ) {
        for frame in all_frames(from, &entries) {
            let mut corrupt = frame.clone();
            for &(pos, bit) in &flips {
                let at = pos % corrupt.len();
                corrupt[at] ^= 1 << bit;
            }
            exercise_all_decoders(&corrupt);
        }
    }

    /// Arbitrary byte soup — no structure at all — never panics.
    #[test]
    fn random_bytes_never_panic(noise in prop::collection::vec(0u8..255, 0..256)) {
        exercise_all_decoders(&noise);
    }
}

/// Exhaustive (non-sampled) corruption of one small frame per kind: every
/// strict prefix, and every single-bit flip of every byte. Deterministic,
/// so a regression names the exact frame kind and offset on failure.
#[test]
fn every_prefix_and_single_bit_flip_is_panic_free() {
    let entries = [(42u64, 9u32, true), (7u64, 3u32, false)];
    let frames = all_frames(5, &entries);
    // The last two buffers are embedded *spans* (no tag byte), so the
    // strict-prefix rejection contract below applies to the tagged frames
    // only; the spans still get the full no-panic treatment.
    let tagged = frames.len() - 2;
    for (frame_ix, frame) in frames.into_iter().enumerate() {
        for cut in 0..frame.len() {
            exercise_all_decoders(&frame[..cut]);
        }
        // A strict prefix must never satisfy the full-frame decoders: the
        // wire format carries explicit counts/lengths, so short input is
        // always a typed error, not a silently short message.
        for cut in 0..frame.len() {
            let prefix = &frame[..cut];
            if frame_ix < tagged {
                assert!(
                    decode(prefix).is_err(),
                    "frame {frame_ix}: decode accepted a {cut}-byte prefix of {} bytes",
                    frame.len()
                );
            }
            if frame[0] == wire::MAILBOX_BUNDLE {
                assert!(
                    open_bundle(prefix).is_err(),
                    "bundle accepted a {cut}-byte prefix"
                );
            }
            if frame[0] == wire::DIGEST {
                assert!(decode_digest(prefix).is_err());
            }
            if frame[0] == wire::DELTA {
                assert!(decode_delta(prefix).is_err());
            }
        }
        for at in 0..frame.len() {
            for bit in 0..8 {
                let mut corrupt = frame.clone();
                corrupt[at] ^= 1 << bit;
                exercise_all_decoders(&corrupt);
            }
        }
    }
}
