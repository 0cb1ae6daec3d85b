//! Roundtrip property tests for every wire-format frame: gossip (all four
//! kinds), news, and the shard-exchange mailbox bundles.
//!
//! The simulator's determinism across shard counts leans on the codec
//! being lossless for everything node behavior depends on — profile
//! entries and scores bit-exact, descriptor order preserved, item ids
//! recomputed from identical content — so these properties are
//! load-bearing, not just hygiene.

use proptest::prelude::*;
use whatsup_core::message::wire;
use whatsup_core::{
    Descriptor, NewsItem, NewsMessage, NodeId, Payload, Profile, ProfileEntry, SharedProfile,
};
use whatsup_net::codec::{
    bundle_view, decode, decode_bundle_entry, decode_delta, decode_digest, encode, encode_bundle,
    encode_delta, encode_digest, DecodeError, DeltaEntry, DeltaValue, DigestLine, NewsDecodeCache,
    WireMessage, ANTI_ENTROPY_HEADER_BYTES,
};

/// Builds a profile from generated `(item, timestamp, liked)` triples.
/// `from_entries` dedupes by item id, so the roundtrip comparison runs on
/// the canonical form.
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

/// `(node, age, profile entries)` of one generated descriptor.
type DescriptorSpec = (u32, u32, Vec<(u64, u32, bool)>);

fn descriptors(specs: &[DescriptorSpec]) -> Vec<Descriptor<SharedProfile>> {
    specs
        .iter()
        .map(|(node, age, entries)| Descriptor {
            node: *node,
            age: *age,
            payload: SharedProfile::new(profile(entries)),
        })
        .collect()
}

fn news_item(title: u64, desc: u64, source: u32, created: u32) -> NewsItem {
    NewsItem::new(
        format!("title-{title}"),
        format!("description {desc}"),
        format!("https://news.example/{title}/{desc}"),
        source,
        created,
    )
}

/// Opens a bundle through the one bundle decoder (`bundle_view` +
/// `decode_bundle_entry`): the shard index and every `(to, from, payload)`
/// entry.
#[allow(clippy::type_complexity)]
fn open_bundle(frame: &[u8]) -> Result<(u32, Vec<(NodeId, NodeId, Payload)>), DecodeError> {
    let view = bundle_view(frame)?;
    let shard = view.from_shard();
    let mut cache = NewsDecodeCache::default();
    let entries = view
        .map(|entry| {
            let (to, inner) = entry?;
            let (from, payload, _) = decode_bundle_entry(inner, &mut cache)?;
            Ok((to, from, payload))
        })
        .collect::<Result<_, DecodeError>>()?;
    Ok((shard, entries))
}

fn gossip_payload(kind: u8, descs: Vec<Descriptor<SharedProfile>>) -> Payload {
    match kind {
        wire::RPS_REQUEST => Payload::RpsRequest(descs),
        wire::RPS_RESPONSE => Payload::RpsResponse(descs),
        wire::WUP_REQUEST => Payload::WupRequest(descs),
        _ => Payload::WupResponse(descs),
    }
}

fn news_payload(item: &NewsItem, entries: &[(u64, u32, bool)], dislikes: u8, hops: u16) -> Payload {
    Payload::News(NewsMessage {
        header: item.header(),
        profile: SharedProfile::new(profile(entries)),
        dislikes,
        hops,
    })
}

fn profile_strategy() -> impl Strategy<Value = Vec<(u64, u32, bool)>> {
    prop::collection::vec((0u64..1_000_000, 0u32..10_000, prop::bool::ANY), 0..20)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every gossip kind roundtrips to an equal payload from the same
    /// sender.
    #[test]
    fn gossip_frames_roundtrip(
        from in 0u32..1_000_000,
        kind in 1u8..5,
        specs in prop::collection::vec(
            (0u32..100_000, 0u32..1_000, profile_strategy()),
            0..8,
        ),
    ) {
        let payload = gossip_payload(kind, descriptors(&specs));
        let frame = encode(from, &payload, |_| None).unwrap();
        prop_assert_eq!(frame[0], payload.wire_id(), "tag is the stable wire id");
        let (decoded_from, wire) = decode(&frame).unwrap();
        prop_assert_eq!(decoded_from, from);
        prop_assert_eq!(wire.try_into_payload().unwrap(), payload);
    }

    /// News frames roundtrip with the id recomputed from content.
    #[test]
    fn news_frames_roundtrip(
        from in 0u32..1_000_000,
        title in 0u64..1_000_000,
        desc in 0u64..1_000_000,
        source in 0u32..100_000,
        created in 0u32..10_000,
        entries in profile_strategy(),
        dislikes in 0u8..255,
        hops in 0u16..2_000,
    ) {
        let item = news_item(title, desc, source, created);
        let payload = news_payload(&item, &entries, dislikes, hops);
        let content = item.clone();
        let frame = encode(from, &payload, move |id| {
            assert_eq!(id, content.id());
            Some(content.clone())
        })
        .unwrap();
        prop_assert_eq!(frame[0], wire::NEWS);
        let (decoded_from, wire) = decode(&frame).unwrap();
        prop_assert_eq!(decoded_from, from);
        // The decoded wire form carries the full item; the payload view
        // recomputes the id from that content.
        if let WireMessage::News { item: decoded_item, .. } = &wire {
            prop_assert_eq!(decoded_item, &item);
        } else {
            prop_assert!(false, "expected a news frame");
        }
        prop_assert_eq!(wire.try_into_payload().unwrap(), payload);
    }

    /// Mailbox bundles roundtrip entry-exact: addressing, order, and every
    /// embedded message (news content included).
    #[test]
    fn bundle_frames_roundtrip(
        shard in 0u32..64,
        entry_specs in prop::collection::vec(
            (
                (0u32..100_000, 0u32..100_000),
                (0u64..1_000, 0u32..1_000, 0u32..500),
                profile_strategy(),
                (1u8..6, 0u8..255, 0u16..100),
            ),
            0..12,
        ),
    ) {
        let mut items: std::collections::HashMap<u64, NewsItem> = Default::default();
        let mut entries: Vec<(NodeId, NodeId, Payload)> = Vec::new();
        for ((to, from), (title, source, created), prof, (kind, dislikes, hops)) in &entry_specs {
            let payload = if *kind == wire::NEWS {
                let item = news_item(*title, 1, *source, *created);
                items.insert(item.id(), item.clone());
                news_payload(&item, prof, *dislikes, *hops)
            } else {
                gossip_payload(*kind, descriptors(&[(*from, 3, prof.clone())]))
            };
            entries.push((*to, *from, payload));
        }
        let frame = encode_bundle(shard, &entries, |id| items.get(&id).cloned());
        prop_assert_eq!(frame[0], wire::MAILBOX_BUNDLE);
        prop_assert_eq!(open_bundle(&frame), Ok((shard, entries)));
    }

    /// The zero-copy bundle path (`bundle_view` + `decode_bundle_entry`
    /// with its per-bundle news cache) must be invisible: over bundles
    /// mixing every wire variant — drawn from small item/profile pools so
    /// fan-out-style repetition drives the cache hit paths — it yields
    /// exactly the encoded input entries, registers every
    /// distinct news content (and nothing else), and the decoded entries
    /// re-encode to the original frame byte-for-byte.
    #[test]
    fn zero_copy_bundle_decode_is_byte_exact(
        shard in 0u32..64,
        item_pool in prop::collection::vec((0u64..1_000, 0u32..1_000, 0u32..500), 1..3),
        profile_pool in prop::collection::vec(profile_strategy(), 1..3),
        picks in prop::collection::vec(
            (
                (0u8..6, 0usize..8, 0usize..8),
                (0u32..100_000, 0u32..100_000),
                (0u8..255, 0u16..100),
            ),
            0..16,
        ),
    ) {
        let item_vec: Vec<NewsItem> = item_pool
            .iter()
            .enumerate()
            .map(|(i, &(title, source, created))| news_item(title, i as u64, source, created))
            .collect();
        let items: std::collections::HashMap<u64, NewsItem> =
            item_vec.iter().map(|i| (i.id(), i.clone())).collect();
        let mut entries: Vec<(NodeId, NodeId, Payload)> = Vec::new();
        for ((kind, item_ix, prof_ix), (to, from), (dislikes, hops)) in &picks {
            let prof = &profile_pool[prof_ix % profile_pool.len()];
            // Tags 1–4 are the gossip kinds; 0 and 5 both map to news so
            // consecutive news entries (the cache's hit case) are common.
            let payload = if *kind == 0 || *kind == wire::NEWS {
                let item = &item_vec[item_ix % item_vec.len()];
                news_payload(item, prof, *dislikes, *hops)
            } else {
                gossip_payload(*kind, descriptors(&[(*from, 3, prof.clone())]))
            };
            entries.push((*to, *from, payload));
        }
        let frame = encode_bundle(shard, &entries, |id| items.get(&id).cloned());

        // Zero-copy path, through the shared per-bundle news cache.
        let view = bundle_view(&frame).unwrap();
        prop_assert_eq!(view.from_shard(), shard);
        let mut cache = NewsDecodeCache::default();
        let mut streamed: Vec<(NodeId, NodeId, Payload)> = Vec::new();
        let mut registered: Vec<NewsItem> = Vec::new();
        for entry in view {
            let (to, inner) = entry.unwrap();
            let (from, payload, fresh) = decode_bundle_entry(inner, &mut cache).unwrap();
            if let Some(item) = fresh {
                registered.push(item);
            }
            streamed.push((to, from, payload));
        }
        prop_assert_eq!(&streamed, &entries, "decode must invert encode");

        // Every distinct news content surfaced as fresh at least once (so
        // the receiving shard can register it), every fresh item is a real
        // bundle item, and a cache hit never yields a stale header.
        let registered_ids: std::collections::BTreeSet<u64> =
            registered.iter().map(|i| i.id()).collect();
        let expected_ids: std::collections::BTreeSet<u64> = entries
            .iter()
            .filter_map(|(_, _, p)| match p {
                Payload::News(m) => Some(m.header.id),
                _ => None,
            })
            .collect();
        prop_assert_eq!(registered_ids, expected_ids);
        for item in &registered {
            prop_assert_eq!(Some(item), items.get(&item.id()).as_ref().copied());
        }

        // Byte-for-byte: re-encoding what the zero-copy path decoded
        // reproduces the original frame exactly.
        let reencoded = encode_bundle(shard, &streamed, |id| items.get(&id).cloned());
        prop_assert_eq!(&reencoded[..], &frame[..], "re-encode must be byte-identical");
    }

    /// Truncating any frame at any point is a decode error, never a panic
    /// or a silently short message.
    #[test]
    fn truncated_frames_never_decode(
        from in 0u32..1_000,
        specs in prop::collection::vec(
            (0u32..1_000, 0u32..100, profile_strategy()),
            1..4,
        ),
        cut_fraction in 0.0f64..1.0,
    ) {
        let payload = gossip_payload(wire::WUP_REQUEST, descriptors(&specs));
        let single = encode(from, &payload, |_| None).unwrap();
        let entries = vec![(9u32, from, payload)];
        let bundle = encode_bundle(0, &entries, |_| None);
        let cut = ((single.len() as f64) * cut_fraction) as usize;
        if cut < single.len() {
            prop_assert!(decode(&single[..cut]).is_err(), "cut at {} must fail", cut);
        }
        let cut = ((bundle.len() as f64) * cut_fraction) as usize;
        if cut < bundle.len() {
            prop_assert!(open_bundle(&bundle[..cut]).is_err(), "bundle cut at {} must fail", cut);
        }
    }
}

/// Derives a [`DeltaValue`] from two generated numbers: `pick` chooses the
/// variant, `raw` the payload (tuples cap at four elements in the
/// strategy set, so the variant is folded into the scalars).
fn delta_value(pick: u8, raw: u64) -> DeltaValue {
    match pick % 3 {
        0 => DeltaValue::Heartbeat(raw as u32),
        1 => DeltaValue::ProfileDigest(raw),
        _ => DeltaValue::NewsKey {
            item: raw as u32,
            published_at: (raw >> 32) as u32,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Anti-entropy digests roundtrip line-for-line in order.
    #[test]
    fn digest_frames_roundtrip(
        from in 0u32..1_000_000,
        lines in prop::collection::vec(
            (0u32..100_000, 0u32..1_000, 0u64..1_000_000),
            0..32,
        ),
    ) {
        let lines: Vec<DigestLine> = lines
            .iter()
            .map(|&(node, incarnation, max_version)| DigestLine {
                node,
                incarnation,
                max_version,
            })
            .collect();
        let frame = encode_digest(from, &lines).unwrap();
        prop_assert_eq!(frame[0], wire::DIGEST);
        let (decoded_from, decoded) = decode_digest(&frame).unwrap();
        prop_assert_eq!(decoded_from, from);
        prop_assert_eq!(decoded, lines);
    }

    /// Anti-entropy deltas roundtrip for every value kind, and the
    /// per-entry `wire_bytes` sizing adds up to the exact frame length —
    /// the invariant budget packing depends on.
    #[test]
    fn delta_frames_roundtrip_and_size_exactly(
        from in 0u32..1_000_000,
        raw_entries in prop::collection::vec(
            (0u32..100_000, 0u64..1_000_000, (0u8..6, 0u64..u64::MAX)),
            0..32,
        ),
    ) {
        let entries: Vec<DeltaEntry> = raw_entries
            .iter()
            .map(|&(node, version, (pick, raw))| DeltaEntry {
                node,
                incarnation: u32::from(pick),
                version,
                value: delta_value(pick, raw),
            })
            .collect();
        let frame = encode_delta(from, &entries).unwrap();
        prop_assert_eq!(frame[0], wire::DELTA);
        let sized: usize = ANTI_ENTROPY_HEADER_BYTES
            + entries.iter().map(DeltaEntry::wire_bytes).sum::<usize>();
        prop_assert_eq!(frame.len(), sized, "wire_bytes must sum to the frame length");
        let (decoded_from, decoded) = decode_delta(&frame).unwrap();
        prop_assert_eq!(decoded_from, from);
        prop_assert_eq!(decoded, entries);
    }

    /// Truncated anti-entropy frames are decode errors, never panics.
    #[test]
    fn truncated_anti_entropy_frames_never_decode(
        from in 0u32..1_000,
        lines in prop::collection::vec(
            (0u32..1_000, 0u32..100, 0u64..1_000),
            1..8,
        ),
        cut_fraction in 0.0f64..1.0,
    ) {
        let digest_lines: Vec<DigestLine> = lines
            .iter()
            .map(|&(node, incarnation, max_version)| DigestLine {
                node,
                incarnation,
                max_version,
            })
            .collect();
        let entries: Vec<DeltaEntry> = lines
            .iter()
            .map(|&(node, incarnation, version)| DeltaEntry {
                node,
                incarnation,
                version,
                value: DeltaValue::NewsKey {
                    item: node,
                    published_at: incarnation,
                },
            })
            .collect();
        let digest_frame = encode_digest(from, &digest_lines).unwrap();
        let delta_frame = encode_delta(from, &entries).unwrap();
        let digest_cut = ((digest_frame.len() as f64) * cut_fraction) as usize;
        if digest_cut < digest_frame.len() {
            prop_assert!(decode_digest(&digest_frame[..digest_cut]).is_err());
        }
        let delta_cut = ((delta_frame.len() as f64) * cut_fraction) as usize;
        if delta_cut < delta_frame.len() {
            prop_assert!(decode_delta(&delta_frame[..delta_cut]).is_err());
        }
    }
}
