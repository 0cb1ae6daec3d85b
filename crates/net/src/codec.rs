//! Binary wire format.
//!
//! Layout (little-endian throughout; tags are the stable wire ids of
//! [`whatsup_core::message::wire`]):
//!
//! ```text
//! frame      := tag:u8 from:u32 body
//! gossip     := count:u16 descriptor*
//! descriptor := node:u32 age:u32 profile
//! profile    := len:u16 entry*
//! entry      := item:u64 timestamp:u32 score:f32
//! news       := source:u32 created:u32 title:str desc:str link:str
//!               dislikes:u8 hops:u16 profile
//! str        := len:u16 utf8-bytes
//! bundle     := count:u32 (to:u32 len:u32 frame)*       [from = shard id]
//! ```
//!
//! The news item's 8-byte id is deliberately absent from the wire: receivers
//! recompute it from the content (paper §II-A).
//!
//! Mailbox bundles are the simulator's shard-exchange unit: a batch of
//! addressed single-message frames in `(sender, emission order)` order.
//! They travel the shard-exchange TCP sockets, not UDP, so [`MAX_FRAME`]
//! applies to single-message frames only; bundles never nest and open only
//! through [`bundle_view`]. The sharded engine's socket transport
//! (`sim-shard-worker --listen`) moves these very encodings inside its own
//! frames, so anything the simulator exchanges across machines is
//! expressible on the deployment stack's network encoding (see the
//! `whatsup_sim::engine` module docs, "distributed topology").
//!
//! Every decoder here, and every shard-protocol decoder built on this
//! codec, reads through [`Reader`], so untrusted bytes surface typed
//! [`DecodeError`]s, never panics.

use bytes::{BufMut, Bytes, BytesMut};
use whatsup_core::message::wire;
use whatsup_core::{
    Descriptor, ItemHeader, NewsItem, NewsMessage, NodeId, Payload, Profile, ProfileEntry,
    SharedProfile,
};

/// Maximum single-message frame size we allow on the wire (UDP datagram
/// safety margin). Mailbox bundles are exempt — they are batches for
/// stream-like transports.
pub const MAX_FRAME: usize = 60 * 1024;

/// Wire bytes of one profile entry (`item:u64 timestamp:u32 score:f32`).
const PROFILE_ENTRY_BYTES: usize = 16;

/// Smallest wire descriptor: `node:u32 age:u32` and an empty profile.
const DESCRIPTOR_MIN_BYTES: usize = 10;

/// Smallest bundle entry: `to:u32 len:u32` and a tag-and-sender header.
const BUNDLE_ENTRY_MIN_BYTES: usize = 13;

/// A decoded frame: the sender and what it sent. News carries the full item
/// content; the protocol-level [`Payload`] is derived via
/// [`WireMessage::try_into_payload`].
#[derive(Debug, Clone, PartialEq)]
pub enum WireMessage {
    Gossip {
        kind: u8,
        descriptors: Vec<Descriptor<SharedProfile>>,
    },
    News {
        item: NewsItem,
        profile: SharedProfile,
        dislikes: u8,
        hops: u16,
    },
}

impl WireMessage {
    /// Converts to the sans-io node's payload, recomputing news ids from
    /// content. Fallible because a hand-built [`WireMessage`] can carry a
    /// gossip kind [`decode`] never produces.
    pub fn try_into_payload(self) -> Result<Payload, DecodeError> {
        match self {
            WireMessage::Gossip { kind, descriptors } => match kind {
                wire::RPS_REQUEST => Ok(Payload::RpsRequest(descriptors)),
                wire::RPS_RESPONSE => Ok(Payload::RpsResponse(descriptors)),
                wire::WUP_REQUEST => Ok(Payload::WupRequest(descriptors)),
                wire::WUP_RESPONSE => Ok(Payload::WupResponse(descriptors)),
                other => Err(DecodeError::BadTag(other)),
            },
            WireMessage::News {
                item,
                profile,
                dislikes,
                hops,
            } => Ok(Payload::News(NewsMessage {
                header: item.header(),
                profile,
                dislikes,
                hops,
            })),
        }
    }
}

/// Encoding error: the only failure mode is an oversized frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameTooLarge(pub usize);

impl std::fmt::Display for FrameTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frame of {} bytes exceeds MAX_FRAME ({MAX_FRAME})",
            self.0
        )
    }
}

impl std::error::Error for FrameTooLarge {}

/// Decoding error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The frame ends before a field it announces (a short frame, or a
    /// count or length larger than the bytes that follow).
    Truncated,
    BadTag(u8),
    BadUtf8,
    /// Bytes left over after a complete frame.
    Trailing(usize),
    /// A well-delimited field whose value breaks an invariant of what it
    /// decodes to; the text names the invariant.
    Invalid(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "frame truncated"),
            DecodeError::BadTag(t) => write!(f, "unknown frame tag {t}"),
            DecodeError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
            DecodeError::Trailing(n) => write!(f, "{n} trailing bytes after the frame"),
            DecodeError::Invalid(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------------
// The fallible reader
// ---------------------------------------------------------------------------

/// A little-endian cursor over untrusted bytes — the one way every decoder
/// in the workspace reads a frame (this codec, and the simulator's shard
/// protocol and checkpoints). Every read checks that its bytes are there
/// and returns [`DecodeError::Truncated`] instead of panicking, and
/// [`Reader::count`] rejects an element count that the remaining bytes
/// cannot back *before* the caller allocates for it, so a forged count can
/// never reserve memory the frame does not carry.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// Errors unless every byte was read: frames carry explicit counts and
    /// lengths, so leftover bytes mean a corrupt frame.
    pub fn finish(&self) -> Result<(), DecodeError> {
        match self.buf.len() {
            0 => Ok(()),
            n => Err(DecodeError::Trailing(n)),
        }
    }

    /// The next `len` bytes, borrowed from the frame.
    pub fn bytes(&mut self, len: usize) -> Result<&'a [u8], DecodeError> {
        let (head, tail) = self
            .buf
            .split_at_checked(len)
            .ok_or(DecodeError::Truncated)?;
        self.buf = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let (head, tail) = self
            .buf
            .split_first_chunk::<N>()
            .ok_or(DecodeError::Truncated)?;
        self.buf = tail;
        Ok(*head)
    }

    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        self.array().map(u8::from_le_bytes)
    }

    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        self.array().map(u16::from_le_bytes)
    }

    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    pub fn f32(&mut self) -> Result<f32, DecodeError> {
        self.array().map(f32::from_le_bytes)
    }

    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        self.array().map(f64::from_le_bytes)
    }

    /// A flag byte: 0 or 1.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Invalid("flag byte is neither 0 nor 1")),
        }
    }

    /// A `len:u16`-prefixed UTF-8 string (the inverse of [`put_str`]).
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        let len = usize::from(self.u16()?);
        std::str::from_utf8(self.bytes(len)?).map_err(|_| DecodeError::BadUtf8)
    }

    /// A `len:u32`-prefixed byte string (the inverse of [`put_bytes`]).
    pub fn len_prefixed(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u32()? as usize;
        self.bytes(len)
    }

    /// A `count:u32` of elements, each at least `min_elem_bytes` wide on
    /// the wire; rejected as truncated when the remaining bytes cannot
    /// hold that many.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        self.fits(n, min_elem_bytes)
    }

    /// [`Reader::count`] for a `count:u16` field.
    pub fn count_u16(&mut self, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        let n = usize::from(self.u16()?);
        self.fits(n, min_elem_bytes)
    }

    /// A `count:u32`-prefixed list, each element read by `read` and at
    /// least `min_elem_bytes` wide (see [`Reader::count`]).
    pub fn list<T>(
        &mut self,
        min_elem_bytes: usize,
        mut read: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.count(min_elem_bytes)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(read(self)?);
        }
        Ok(out)
    }

    fn fits(&self, n: usize, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        match n.checked_mul(min_elem_bytes) {
            Some(bytes) if bytes <= self.buf.len() => Ok(n),
            _ => Err(DecodeError::Truncated),
        }
    }

    /// The bytes read since `mark`, an earlier copy of this reader.
    pub fn since(&self, mark: Reader<'a>) -> &'a [u8] {
        let read = mark.buf.len().saturating_sub(self.buf.len());
        mark.buf
            .split_at_checked(read)
            .map_or(&[], |(head, _)| head)
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Encodes a payload from `from`. News payloads need the full item content
/// (the header alone is not enough to reconstruct the wire form), so the
/// caller passes a resolver from item id to content.
pub fn encode(
    from: NodeId,
    payload: &Payload,
    resolve: impl Fn(u64) -> Option<NewsItem>,
) -> Result<Bytes, FrameTooLarge> {
    let mut buf = BytesMut::with_capacity(256);
    encode_into(&mut buf, from, payload, resolve);
    if buf.len() > MAX_FRAME {
        return Err(FrameTooLarge(buf.len()));
    }
    Ok(buf.freeze())
}

/// Appends the single-message frame for `payload` to `buf` without the
/// [`MAX_FRAME`] check (bundle building blocks; datagram callers use
/// [`encode`]).
pub fn encode_into(
    buf: &mut BytesMut,
    from: NodeId,
    payload: &Payload,
    resolve: impl Fn(u64) -> Option<NewsItem>,
) {
    match payload {
        Payload::RpsRequest(d)
        | Payload::RpsResponse(d)
        | Payload::WupRequest(d)
        | Payload::WupResponse(d) => {
            buf.put_u8(payload.wire_id());
            buf.put_u32_le(from);
            put_descriptors(buf, d);
        }
        Payload::News(msg) => {
            let item =
                resolve(msg.header.id).expect("news content must be resolvable for encoding"); // lint:allow(wire-panic) encode path: the emitting node holds the content it forwards
            buf.put_u8(wire::NEWS);
            buf.put_u32_le(from);
            put_news_item(buf, &item);
            buf.put_u8(msg.dislikes);
            buf.put_u16_le(msg.hops);
            put_profile(buf, &msg.profile);
        }
    }
}

/// Encodes a mailbox bundle from shard `from_shard`: every `(to, from,
/// payload)` triple as an embedded single-message frame, in the given
/// order. No [`MAX_FRAME`] cap — bundles travel channels/sockets, and each
/// embedded message stays individually datagram-sized by construction of
/// the protocol. Each inner message is encoded in place after a 4-byte
/// length placeholder patched once its size is known: one pass, no
/// staging buffer.
pub fn encode_bundle(
    from_shard: u32,
    entries: &[(NodeId, NodeId, Payload)],
    resolve: impl Fn(u64) -> Option<NewsItem>,
) -> Bytes {
    let mut buf = BytesMut::with_capacity(16 + entries.len() * 128);
    buf.put_u8(wire::MAILBOX_BUNDLE);
    buf.put_u32_le(from_shard);
    buf.put_u32_le(wire_count_u32(entries.len(), "bundle entry count"));
    for (to, from, payload) in entries {
        buf.put_u32_le(*to);
        let at = buf.len();
        buf.put_u32_le(0); // length placeholder
        encode_into(&mut buf, *from, payload, &resolve);
        let len = wire_count_u32(buf.len() - at - 4, "bundle inner frame length");
        // lint:allow(wire-panic) encode path: patching the 4-byte placeholder written just above
        buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }
    buf.freeze()
}

/// Narrows an encode-side length/count to its wire field width, loudly.
/// Encode inputs are protocol-bounded (view sizes, profile windows,
/// per-shard mail volumes), so overflow here is a caller bug — but a
/// *silent* `as` truncation would corrupt the frame for every later field,
/// so the narrowing is checked and panics with the field name instead.
/// Decode paths never use these: untrusted input gets typed errors.
pub fn wire_count_u32(n: usize, what: &str) -> u32 {
    // lint:allow(wire-panic) encode path: loud failure beats silent wire truncation
    u32::try_from(n).unwrap_or_else(|_| panic!("{what} {n} exceeds u32 wire bound"))
}

/// As [`wire_count_u32`], for `u16` wire fields.
pub fn wire_count_u16(n: usize, what: &str) -> u16 {
    // lint:allow(wire-panic) encode path: loud failure beats silent wire truncation
    u16::try_from(n).unwrap_or_else(|_| panic!("{what} {n} exceeds u16 wire bound"))
}

/// Writes a `len:u16`-prefixed UTF-8 string ([`Reader::str`] reads it).
pub fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u16_le(wire_count_u16(s.len(), "string field length"));
    buf.put_slice(s.as_bytes());
}

/// Writes a `len:u32`-prefixed byte string ([`Reader::len_prefixed`] reads
/// it).
pub fn put_bytes(buf: &mut BytesMut, b: &[u8]) {
    buf.put_u32_le(wire_count_u32(b.len(), "byte field length"));
    buf.put_slice(b);
}

/// Writes a news item's content — `source:u32 created:u32 title:str
/// desc:str link:str` — the form news travels in on every wire (the id is
/// recomputed from it).
pub fn put_news_item(buf: &mut BytesMut, item: &NewsItem) {
    buf.put_u32_le(item.source);
    buf.put_u32_le(item.created_at);
    put_str(buf, &item.title);
    put_str(buf, &item.description);
    put_str(buf, &item.link);
}

/// Serializes a descriptor list (`count:u16 descriptor*`). Exposed so the
/// simulator's shard exchange can serialize view snapshots with the same
/// encoding gossip frames use.
pub fn put_descriptors(buf: &mut BytesMut, descs: &[Descriptor<SharedProfile>]) {
    buf.put_u16_le(wire_count_u16(descs.len(), "descriptor count"));
    for d in descs {
        buf.put_u32_le(d.node);
        buf.put_u32_le(d.age);
        put_profile(buf, &d.payload);
    }
}

/// Serializes one profile (`len:u16 (item:u64 timestamp:u32 score:f32)*`).
/// Exposed alongside [`put_descriptors`] so the simulator's shard
/// checkpoints reuse the gossip wire encoding (f32 scores round-trip
/// bit-exactly).
pub fn put_profile(buf: &mut BytesMut, p: &Profile) {
    buf.put_u16_le(wire_count_u16(p.len(), "profile entry count"));
    for e in p.entries() {
        buf.put_u64_le(e.item);
        buf.put_u32_le(e.timestamp);
        buf.put_f32_le(e.score);
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Decodes one single-message frame into `(sender, message)`. Mailbox
/// bundles are not messages: their tag is rejected here
/// ([`DecodeError::BadTag`]); open them with [`bundle_view`].
pub fn decode(frame: &[u8]) -> Result<(NodeId, WireMessage), DecodeError> {
    let mut r = Reader::new(frame);
    let tag = r.u8()?;
    let from = r.u32()?;
    let message = match tag {
        wire::RPS_REQUEST | wire::RPS_RESPONSE | wire::WUP_REQUEST | wire::WUP_RESPONSE => {
            WireMessage::Gossip {
                kind: tag,
                descriptors: get_descriptors(&mut r)?,
            }
        }
        wire::NEWS => WireMessage::News {
            item: get_news_item(&mut r)?,
            dislikes: r.u8()?,
            hops: r.u16()?,
            profile: SharedProfile::new(get_profile(&mut r)?),
        },
        other => return Err(DecodeError::BadTag(other)),
    };
    Ok((from, message))
}

/// A borrowed view over an encoded mailbox bundle: iterates `(to, inner
/// frame)` pairs straight out of the frame buffer. Each inner frame decodes
/// with [`decode_bundle_entry`] (nested bundles are rejected); consumers
/// that only route by destination never pay for decoding the message
/// bodies at all.
#[derive(Debug, Clone)]
pub struct BundleView<'a> {
    from_shard: u32,
    remaining_entries: usize,
    rest: Reader<'a>,
}

/// Opens a borrowed iterator over a bundle frame. Errors if the frame is
/// not a bundle header or announces more entries than it can hold;
/// per-entry truncation surfaces lazily from the iterator.
pub fn bundle_view(frame: &[u8]) -> Result<BundleView<'_>, DecodeError> {
    let mut rest = Reader::new(frame);
    let tag = rest.u8()?;
    if tag != wire::MAILBOX_BUNDLE {
        return Err(DecodeError::BadTag(tag));
    }
    let from_shard = rest.u32()?;
    let remaining_entries = rest.count(BUNDLE_ENTRY_MIN_BYTES)?;
    Ok(BundleView {
        from_shard,
        remaining_entries,
        rest,
    })
}

impl<'a> BundleView<'a> {
    /// The emitting shard's index (the frame-level `from`).
    pub fn from_shard(&self) -> u32 {
        self.from_shard
    }

    fn entry(&mut self) -> Result<(NodeId, &'a [u8]), DecodeError> {
        let to = self.rest.u32()?;
        let inner = self.rest.len_prefixed()?;
        // Bundles never nest; reject before a caller decodes the entry.
        match inner.first() {
            Some(&wire::MAILBOX_BUNDLE) => Err(DecodeError::BadTag(wire::MAILBOX_BUNDLE)),
            _ => Ok((to, inner)),
        }
    }
}

impl<'a> Iterator for BundleView<'a> {
    /// `(destination node, borrowed inner single-message frame)`.
    type Item = Result<(NodeId, &'a [u8]), DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining_entries == 0 {
            return None;
        }
        self.remaining_entries -= 1;
        let entry = self.entry();
        if entry.is_err() {
            self.remaining_entries = 0;
        }
        Some(entry)
    }
}

/// Per-bundle news-decode memo. A delivery round fans one item out to many
/// receivers, so a bundle's news entries repeat the same item-content
/// bytes, and sibling fan-out copies repeat identical profile bytes. Byte
/// equality against the last-decoded span is exact — the decoders are pure
/// functions of the bytes — so a hit reuses the previous result: the item
/// header (skipping three string allocations and the content hash) and the
/// shared profile (skipping the entry parse, the allocation and the norm
/// recompute). Profile reuse also restores the sender-side `Arc` sharing
/// that encoding flattened; receivers treat it copy-on-write either way.
#[derive(Debug, Default)]
pub struct NewsDecodeCache {
    item_bytes: Vec<u8>,
    item_header: Option<ItemHeader>,
    profile_bytes: Vec<u8>,
    profile: Option<SharedProfile>,
}

/// Decodes one bundle inner frame straight to its protocol payload, using
/// `cache` to short-circuit repeated news content within the bundle. The
/// third return is the news item's content when it was decoded fresh (the
/// caller must register it with its item store); `None` for gossip frames
/// and for cache hits — a hit means an entry with identical content bytes
/// was already yielded through this cache.
pub fn decode_bundle_entry(
    frame: &[u8],
    cache: &mut NewsDecodeCache,
) -> Result<(NodeId, Payload, Option<NewsItem>), DecodeError> {
    let mut r = Reader::new(frame);
    if r.u8()? != wire::NEWS {
        let (from, message) = decode(frame)?;
        return Ok((from, message.try_into_payload()?, None));
    }
    let from = r.u32()?;
    // Delimit the item content and profile spans; parse each only when it
    // differs from the cached one.
    let mark = r;
    r.bytes(8)?;
    for _ in 0..3 {
        r.str()?;
    }
    let content = r.since(mark);
    let dislikes = r.u8()?;
    let hops = r.u16()?;
    let mark = r;
    let n_entries = r.count_u16(PROFILE_ENTRY_BYTES)?;
    r.bytes(n_entries * PROFILE_ENTRY_BYTES)?;
    let profile_bytes = r.since(mark);

    let (header, fresh_item) = match cache.item_header {
        Some(h) if cache.item_bytes == content => (h, None),
        _ => {
            let item = get_news_item(&mut Reader::new(content))?;
            let header = item.header();
            cache.item_bytes.clear();
            cache.item_bytes.extend_from_slice(content);
            cache.item_header = Some(header);
            (header, Some(item))
        }
    };
    let profile = match &cache.profile {
        Some(p) if cache.profile_bytes == profile_bytes => SharedProfile::clone(p),
        _ => {
            let p = SharedProfile::new(get_profile(&mut Reader::new(profile_bytes))?);
            cache.profile_bytes.clear();
            cache.profile_bytes.extend_from_slice(profile_bytes);
            cache.profile = Some(SharedProfile::clone(&p));
            p
        }
    };
    let news = NewsMessage {
        header,
        profile,
        dislikes,
        hops,
    };
    Ok((from, Payload::News(news), fresh_item))
}

/// Inverse of [`put_news_item`]: the one news-content parser, shared by
/// [`decode`] and [`decode_bundle_entry`].
pub fn get_news_item(r: &mut Reader<'_>) -> Result<NewsItem, DecodeError> {
    Ok(NewsItem {
        source: r.u32()?,
        created_at: r.u32()?,
        title: r.str()?.to_owned(),
        description: r.str()?.to_owned(),
        link: r.str()?.to_owned(),
    })
}

/// Inverse of [`put_descriptors`].
pub fn get_descriptors(r: &mut Reader<'_>) -> Result<Vec<Descriptor<SharedProfile>>, DecodeError> {
    let count = r.count_u16(DESCRIPTOR_MIN_BYTES)?;
    let mut descriptors = Vec::with_capacity(count);
    for _ in 0..count {
        descriptors.push(Descriptor {
            node: r.u32()?,
            age: r.u32()?,
            payload: SharedProfile::new(get_profile(r)?),
        });
    }
    Ok(descriptors)
}

/// Inverse of [`put_profile`].
pub fn get_profile(r: &mut Reader<'_>) -> Result<Profile, DecodeError> {
    let len = r.count_u16(PROFILE_ENTRY_BYTES)?;
    // Fixed-size chunks: the per-field reads below cannot fail, and the
    // compiler folds their checks away on this hot path.
    let (block, _) = r
        .bytes(len * PROFILE_ENTRY_BYTES)?
        .as_chunks::<PROFILE_ENTRY_BYTES>();
    let mut entries = Vec::with_capacity(len);
    for chunk in block {
        let mut e = Reader::new(chunk);
        entries.push(ProfileEntry {
            item: e.u64()?,
            timestamp: e.u32()?,
            score: e.f32()?,
        });
    }
    // Wire profiles are serialized from sorted storage, so this takes the
    // allocation-reusing sorted path on every well-formed frame.
    Ok(Profile::from_vec(entries))
}

// ---------------------------------------------------------------------------
// Anti-entropy frames (scuttlebutt digest/delta reconciliation)
// ---------------------------------------------------------------------------
//
// ```text
// digest       := DIGEST:u8 from:u32 count:u32 (node:u32 incarnation:u32 max_version:u64)*
// delta        := DELTA:u8 from:u32 count:u32 delta_entry*
// delta_entry  := node:u32 incarnation:u32 version:u64 kind:u8 payload
// payload      := heartbeat:u32            (kind 0)
//               | profile_digest:u64       (kind 1)
//               | item:u32 published_at:u32 (kind 2)
// ```
//
// Entries for one node are emitted in ascending version order so that a
// budget-truncated delta always leaves the receiver's per-node max version
// at a resumable point: the next digest advertises exactly the cut, and the
// following delta resumes from there. Out-of-order emission would let the
// digest max leapfrog unsent versions and stall convergence forever.

/// One line of an anti-entropy digest: the highest `(incarnation, version)`
/// the sender holds for `node`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestLine {
    pub node: NodeId,
    pub incarnation: u32,
    pub max_version: u64,
}

/// Bytes each digest line occupies on the wire.
pub const DIGEST_LINE_BYTES: usize = 16;

/// The versioned value carried by one delta entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaValue {
    /// Liveness counter: the cycle stamp of the owner's latest heartbeat.
    Heartbeat(u32),
    /// Opaque 64-bit digest of the owner's interest profile.
    ProfileDigest(u64),
    /// A news key the owner published: `(item index, publication cycle)`.
    NewsKey { item: u32, published_at: u32 },
}

/// One versioned entry of an anti-entropy delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaEntry {
    pub node: NodeId,
    pub incarnation: u32,
    pub version: u64,
    pub value: DeltaValue,
}

/// Frame header bytes shared by digest and delta frames
/// (`tag:u8 from:u32 count:u32`).
pub const ANTI_ENTROPY_HEADER_BYTES: usize = 9;

impl DeltaEntry {
    /// Bytes this entry occupies on the wire (header fields + payload).
    pub fn wire_bytes(&self) -> usize {
        17 + match self.value {
            DeltaValue::Heartbeat(_) => 4,
            DeltaValue::ProfileDigest(_) => 8,
            DeltaValue::NewsKey { .. } => 8,
        }
    }
}

/// Encodes an anti-entropy digest frame. Digests summarize whole states and
/// are not budget-packed, so [`MAX_FRAME`] is the only cap.
pub fn encode_digest(from: NodeId, lines: &[DigestLine]) -> Result<Bytes, FrameTooLarge> {
    let mut buf =
        BytesMut::with_capacity(ANTI_ENTROPY_HEADER_BYTES + lines.len() * DIGEST_LINE_BYTES);
    buf.put_u8(wire::DIGEST);
    buf.put_u32_le(from);
    buf.put_u32_le(wire_count_u32(lines.len(), "digest line count"));
    for line in lines {
        buf.put_u32_le(line.node);
        buf.put_u32_le(line.incarnation);
        buf.put_u64_le(line.max_version);
    }
    if buf.len() > MAX_FRAME {
        return Err(FrameTooLarge(buf.len()));
    }
    Ok(buf.freeze())
}

/// Inverse of [`encode_digest`].
pub fn decode_digest(frame: &[u8]) -> Result<(NodeId, Vec<DigestLine>), DecodeError> {
    let mut r = Reader::new(frame);
    let from = anti_entropy_header(&mut r, wire::DIGEST)?;
    let lines = r.list(DIGEST_LINE_BYTES, |r| {
        Ok(DigestLine {
            node: r.u32()?,
            incarnation: r.u32()?,
            max_version: r.u64()?,
        })
    })?;
    Ok((from, lines))
}

/// Reads a digest/delta frame's `tag:u8 from:u32`, checking the tag.
fn anti_entropy_header(r: &mut Reader<'_>, want: u8) -> Result<NodeId, DecodeError> {
    match r.u8()? {
        tag if tag == want => r.u32(),
        other => Err(DecodeError::BadTag(other)),
    }
}

/// Encodes an anti-entropy delta frame. The caller is responsible for
/// budget-packing the entry list ([`DeltaEntry::wire_bytes`] +
/// [`ANTI_ENTROPY_HEADER_BYTES`] give exact sizes); [`MAX_FRAME`] still
/// applies as the transport's hard cap.
pub fn encode_delta(from: NodeId, entries: &[DeltaEntry]) -> Result<Bytes, FrameTooLarge> {
    let mut buf = BytesMut::with_capacity(ANTI_ENTROPY_HEADER_BYTES + entries.len() * 25);
    buf.put_u8(wire::DELTA);
    buf.put_u32_le(from);
    buf.put_u32_le(wire_count_u32(entries.len(), "delta entry count"));
    for entry in entries {
        buf.put_u32_le(entry.node);
        buf.put_u32_le(entry.incarnation);
        buf.put_u64_le(entry.version);
        match entry.value {
            DeltaValue::Heartbeat(cycle) => {
                buf.put_u8(0);
                buf.put_u32_le(cycle);
            }
            DeltaValue::ProfileDigest(digest) => {
                buf.put_u8(1);
                buf.put_u64_le(digest);
            }
            DeltaValue::NewsKey { item, published_at } => {
                buf.put_u8(2);
                buf.put_u32_le(item);
                buf.put_u32_le(published_at);
            }
        }
    }
    if buf.len() > MAX_FRAME {
        return Err(FrameTooLarge(buf.len()));
    }
    Ok(buf.freeze())
}

/// Inverse of [`encode_delta`].
pub fn decode_delta(frame: &[u8]) -> Result<(NodeId, Vec<DeltaEntry>), DecodeError> {
    let mut r = Reader::new(frame);
    let from = anti_entropy_header(&mut r, wire::DELTA)?;
    // Every entry carries at least its header and a 4-byte heartbeat.
    let entries = r.list(21, |r| {
        Ok(DeltaEntry {
            node: r.u32()?,
            incarnation: r.u32()?,
            version: r.u64()?,
            value: match r.u8()? {
                0 => DeltaValue::Heartbeat(r.u32()?),
                1 => DeltaValue::ProfileDigest(r.u64()?),
                2 => DeltaValue::NewsKey {
                    item: r.u32()?,
                    published_at: r.u32()?,
                },
                other => return Err(DecodeError::BadTag(other)),
            },
        })
    })?;
    Ok((from, entries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use whatsup_core::ItemId;

    fn profile(items: &[(ItemId, f32)]) -> Profile {
        Profile::from_entries(items.iter().map(|&(item, score)| ProfileEntry {
            item,
            timestamp: 7,
            score,
        }))
    }

    #[test]
    fn gossip_roundtrip_all_kinds() {
        let descs = vec![
            Descriptor {
                node: 3,
                age: 2,
                payload: SharedProfile::new(profile(&[(10, 1.0), (11, 0.0)])),
            },
            Descriptor {
                node: 9,
                age: 0,
                payload: SharedProfile::default(),
            },
        ];
        for make in [
            Payload::RpsRequest as fn(_) -> _,
            Payload::RpsResponse,
            Payload::WupRequest,
            Payload::WupResponse,
        ] {
            let payload = make(descs.clone());
            let frame = encode(42, &payload, |_| None).unwrap();
            let (from, wire) = decode(&frame).unwrap();
            assert_eq!(from, 42);
            assert_eq!(wire.try_into_payload().unwrap(), payload);
        }
    }

    #[test]
    fn news_roundtrip_recomputes_id() {
        let item = NewsItem::new("Breaking", "short desc", "https://x/y", 7, 123);
        let payload = Payload::News(NewsMessage {
            header: item.header(),
            profile: SharedProfile::new(profile(&[(5, 0.75)])),
            dislikes: 2,
            hops: 4,
        });
        let content = item.clone();
        let frame = encode(1, &payload, move |id| {
            assert_eq!(id, content.id());
            Some(content.clone())
        })
        .unwrap();
        let (from, wire) = decode(&frame).unwrap();
        assert_eq!(from, 1);
        let decoded = wire.try_into_payload().unwrap();
        assert_eq!(decoded, payload, "id recomputed from content must match");
    }

    #[test]
    fn truncated_frames_error() {
        let descs = vec![Descriptor {
            node: 1,
            age: 0,
            payload: SharedProfile::new(profile(&[(1, 1.0)])),
        }];
        let frame = encode(0, &Payload::RpsRequest(descs), |_| None).unwrap();
        for cut in [0, 3, 6, frame.len() - 1] {
            assert!(decode(&frame[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn bad_tag_rejected() {
        let buf = [99u8, 0, 0, 0, 0, 0, 0];
        assert_eq!(decode(&buf), Err(DecodeError::BadTag(99)));
    }

    #[test]
    fn bundle_is_not_a_payload() {
        // Bundles open only through `bundle_view`; the message decoder
        // rejects their tag.
        let frame = encode_bundle(0, &[], |_| None);
        assert_eq!(
            decode(&frame),
            Err(DecodeError::BadTag(wire::MAILBOX_BUNDLE))
        );
    }

    #[test]
    fn hand_built_gossip_kind_is_a_typed_error() {
        // `decode` never produces this, but a hand-assembled WireMessage
        // can — the conversion must not be a panic site.
        let wire = WireMessage::Gossip {
            kind: 0xEE,
            descriptors: vec![],
        };
        assert_eq!(wire.try_into_payload(), Err(DecodeError::BadTag(0xEE)));
    }

    #[test]
    fn encoded_size_reflects_profile_length() {
        let small = encode(
            0,
            &Payload::RpsRequest(vec![Descriptor {
                node: 1,
                age: 0,
                payload: SharedProfile::default(),
            }]),
            |_| None,
        )
        .unwrap();
        let big = encode(
            0,
            &Payload::RpsRequest(vec![Descriptor {
                node: 1,
                age: 0,
                payload: SharedProfile::new(profile(
                    &(0..100).map(|i| (i as u64, 1.0)).collect::<Vec<_>>(),
                )),
            }]),
            |_| None,
        )
        .unwrap();
        assert_eq!(big.len() - small.len(), 100 * 16);
    }

    type Mail = Vec<(NodeId, NodeId, Payload)>;

    /// Opens a bundle through the one bundle decoder: the shard index and
    /// every `(to, from, payload)` entry.
    fn open_bundle(frame: &[u8]) -> Result<(u32, Mail), DecodeError> {
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

    #[test]
    fn bundle_roundtrip_mixed_entries() {
        let item = NewsItem::new("hello", "world", "https://n/1", 3, 9);
        let news = Payload::News(NewsMessage {
            header: item.header(),
            profile: SharedProfile::new(profile(&[(4, 1.0)])),
            dislikes: 1,
            hops: 2,
        });
        let gossip = Payload::WupRequest(vec![Descriptor {
            node: 8,
            age: 1,
            payload: SharedProfile::new(profile(&[(2, 0.0)])),
        }]);
        let entries = vec![(5u32, 1u32, news.clone()), (6u32, 2u32, gossip.clone())];
        let content = item.clone();
        let frame = encode_bundle(3, &entries, move |id| {
            assert_eq!(id, content.id());
            Some(content.clone())
        });
        assert_eq!(open_bundle(&frame), Ok((3, entries)));
    }

    #[test]
    fn empty_bundle_roundtrips() {
        let frame = encode_bundle(0, &[], |_| None);
        assert_eq!(open_bundle(&frame), Ok((0, vec![])));
    }

    #[test]
    fn truncated_bundle_errors() {
        let entries = vec![(
            1u32,
            0u32,
            Payload::RpsRequest(vec![Descriptor {
                node: 1,
                age: 0,
                payload: SharedProfile::new(profile(&[(1, 1.0)])),
            }]),
        )];
        let frame = encode_bundle(0, &entries, |_| None);
        for cut in [4, 8, 12, frame.len() - 1] {
            assert!(
                open_bundle(&frame[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn reader_rejects_counts_the_frame_cannot_back() {
        // A u32::MAX count with nothing behind it fails before any
        // allocation is sized from it.
        let mut r = Reader::new(&[0xff, 0xff, 0xff, 0xff, 0, 0]);
        assert_eq!(r.count(1), Err(DecodeError::Truncated));
        let mut r = Reader::new(&[2, 0, 0, 0, 7, 7]);
        assert_eq!(r.count(1), Ok(2));
        assert_eq!(r.finish(), Err(DecodeError::Trailing(2)));
        assert_eq!(r.bytes(3), Err(DecodeError::Truncated));
        let mut r = Reader::new(&[2, 0, 0xc3, 0x28]);
        assert_eq!(r.str(), Err(DecodeError::BadUtf8));
        let mut r = Reader::new(&[2]);
        assert!(r.bool().is_err(), "flag bytes are 0 or 1");
    }

    #[test]
    fn oversized_frame_rejected() {
        let huge: Vec<(u64, f32)> = (0..4000u64).map(|i| (i, 1.0)).collect();
        let descs: Vec<Descriptor<SharedProfile>> = (0..10)
            .map(|n| Descriptor {
                node: n,
                age: 0,
                payload: SharedProfile::new(profile(&huge)),
            })
            .collect();
        let err = encode(0, &Payload::WupRequest(descs), |_| None);
        assert!(matches!(err, Err(FrameTooLarge(_))));
    }
}
