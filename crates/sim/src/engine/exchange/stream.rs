//! Byte-stream plumbing of the framed transport: length-prefixed framing
//! over generic [`Read`]/[`Write`], the versioned bootstrap handshake, and
//! the worker serve loop with its frame dispatch ([`handle_frame`]) — the
//! one place a worker turns bytes into typed values and back.
//!
//! # Bootstrap handshake
//!
//! Workers start first (already listening, or spawned by the driver, which
//! waits for their `LISTEN` announcement), the driver dials second. Every
//! conversation opens the same way:
//!
//! 1. **worker → driver** *hello*: `magic:u32 version:u16` — sent as soon
//!    as the worker accepts the connection.
//! 2. **driver → worker** *handshake*: `magic:u32 version:u16` followed by
//!    the [`ShardInit`](crate::engine::shard::ShardInit) payload
//!    ([`frames::encode_handshake`]).
//! 3. Command/reply frames until a `Stop` command ends the conversation.
//!
//! Each side validates the other's magic and version *before* touching the
//! payload, so mixed-version deployments fail with a one-line typed error
//! (bump [`frames::PROTOCOL_VERSION`] whenever a frame layout changes).
//! Past the gate, a frame that does not decode is a typed error too:
//! [`WorkerError::Malformed`] on the worker, never a panic.

use super::frames::{self, encode_hello, PROTOCOL_VERSION};
use super::{Bundle, Command, Reply, TransportError, TransportErrorKind};
use crate::engine::shard::ShardState;
use std::fmt;
use std::io::{self, Read, Write};
use std::time::Duration;
use whatsup_core::{ItemId, NewsItem};
use whatsup_net::codec::{self, DecodeError};

/// How long the driver waits for a TCP connect to a worker.
pub const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// How long either side waits for the other's half of the handshake
/// before declaring the peer dead or foreign, armed as a read timeout. It
/// also bounds the wait for a spawned worker's `LISTEN` announcement (a
/// child can be alive yet silent — e.g. not a shard worker at all).
pub const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Upper bound on a single frame, as a guard against garbage length
/// prefixes from a confused peer (a real init frame for a million-node
/// run stays well under this).
pub const MAX_FRAME_LEN: usize = 1 << 28;

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Writes one `len:u32` + payload frame and flushes.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    let len = u32::try_from(frame.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds u32 length"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(frame)?;
    w.flush()
}

/// Reads one frame; `Ok(None)` on a clean EOF at a frame boundary. EOF
/// inside a frame (a truncated write from a dying peer) is an
/// [`io::ErrorKind::UnexpectedEof`] error, an oversized length prefix an
/// [`io::ErrorKind::InvalidData`] error. The payload buffer grows with the
/// bytes that actually arrive, so a forged length prefix cannot make the
/// reader reserve memory up front.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    let (first, rest) = header.split_at_mut(1);
    loop {
        match r.read(first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            // Retry EINTR like read_exact does: a signal landing on a
            // header byte must not abort a healthy run.
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    r.read_exact(rest).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => io::Error::new(e.kind(), "eof inside frame header"),
        _ => e,
    })?;
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_LEN}-byte limit"),
        ));
    }
    let mut frame = Vec::new();
    r.by_ref().take(len as u64).read_to_end(&mut frame)?;
    if frame.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "eof inside frame payload",
        ));
    }
    Ok(Some(frame))
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

/// Driver side of the bootstrap over an established stream: read and
/// validate the worker's hello (bounded by the caller's read timeout), then
/// send the versioned `handshake` frame ([`frames::encode_handshake`]).
/// `endpoint` names the worker in errors. The init never changes over a
/// transport's lifetime, so the transport encodes it once at bootstrap and
/// replays the same bytes on every restart instead of re-serializing the
/// full shard init (which for large shards dominates recovery time).
pub fn drive_handshake(
    endpoint: &str,
    input: &mut impl Read,
    output: &mut impl Write,
    handshake: &[u8],
) -> Result<(), TransportError> {
    let frame = read_frame(input)
        .map_err(|e| TransportError::io(endpoint, e))?
        .ok_or_else(|| TransportError::closed(endpoint, "worker closed before its hello"))?;
    let kind = match frames::decode_hello(&frame) {
        Ok(PROTOCOL_VERSION) => None,
        Ok(got) => Some(TransportErrorKind::HandshakeVersion {
            got,
            want: PROTOCOL_VERSION,
        }),
        Err(kind) => Some(kind),
    };
    if let Some(kind) = kind {
        return Err(TransportError {
            endpoint: endpoint.into(),
            kind,
        });
    }
    write_frame(output, handshake).map_err(|e| TransportError::io(endpoint, e))
}

// ---------------------------------------------------------------------------
// Worker serve loop
// ---------------------------------------------------------------------------

/// Why a worker conversation ended without a `Stop` — one line for stderr.
#[derive(Debug)]
pub enum WorkerError {
    /// The driver's handshake was missing, foreign, or version-mismatched.
    Handshake(TransportErrorKind),
    /// A frame from the driver — the handshake's init or a command — does
    /// not decode.
    Malformed(DecodeError),
    /// The driver vanished mid-conversation: EOF or I/O error before
    /// `Stop`. A driver killed mid-run lands here.
    ConnectionLost(io::Error),
}

impl fmt::Display for WorkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerError::Handshake(TransportErrorKind::HandshakeVersion { got, want }) => write!(
                f,
                "handshake failed: driver speaks exchange protocol v{got}, \
                 this worker speaks v{want}"
            ),
            WorkerError::Handshake(TransportErrorKind::HandshakeMagic) => {
                write!(f, "handshake failed: peer is not a whatsup-sim driver")
            }
            WorkerError::Handshake(other) => write!(f, "handshake failed: {other:?}"),
            WorkerError::Malformed(e) => write!(f, "malformed frame: {e}"),
            WorkerError::ConnectionLost(e) => write!(f, "driver connection lost: {e}"),
        }
    }
}

impl std::error::Error for WorkerError {}

/// The worker half of the bootstrap over a framed byte stream: send the
/// hello, read + validate the driver's handshake, build the shard state
/// it carries. The caller arms a read timeout around this and disarms it
/// before [`serve_stream`].
pub fn accept_handshake(
    input: &mut impl Read,
    output: &mut impl Write,
) -> Result<ShardState, WorkerError> {
    write_frame(output, &encode_hello(PROTOCOL_VERSION)).map_err(WorkerError::ConnectionLost)?;
    let frame = read_frame(input)
        .map_err(WorkerError::ConnectionLost)?
        .ok_or_else(|| {
            WorkerError::ConnectionLost(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "driver closed the stream before the handshake",
            ))
        })?;
    match frames::decode_handshake(&frame) {
        Ok(init) => Ok(ShardState::from_init(init)),
        Err(TransportErrorKind::Malformed(e)) => Err(WorkerError::Malformed(e)),
        Err(kind) => Err(WorkerError::Handshake(kind)),
    }
}

/// The post-handshake serve loop: one reply frame per command frame, until
/// `Stop` (`Ok`) or the stream dies or sends a malformed frame (`Err`). A
/// driver that merely closes the stream (killed mid-run) is a
/// [`WorkerError::ConnectionLost`], so the worker process can exit
/// non-zero with a one-line message instead of a panic backtrace. Command
/// dispatch is [`handle_frame`], which runs the same [`ShardState::handle`]
/// the channel-thread workers run, so the transports cannot diverge on
/// command semantics.
pub fn serve_stream(
    state: &mut ShardState,
    input: &mut impl Read,
    output: &mut impl Write,
) -> Result<(), WorkerError> {
    loop {
        let frame = read_frame(input)
            .map_err(WorkerError::ConnectionLost)?
            .ok_or_else(|| {
                WorkerError::ConnectionLost(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "driver closed the stream without sending Stop",
                ))
            })?;
        match handle_frame(state, &frame).map_err(WorkerError::Malformed)? {
            Some(reply) => write_frame(output, &reply).map_err(WorkerError::ConnectionLost)?,
            None => return Ok(()),
        }
    }
}

/// Executes one command frame against the shard: `Ok(None)` when the frame
/// is a `Stop`, otherwise the encoded reply frame. The byte-stream dispatch
/// point, and the one place a worker changes values' form: the command is
/// decoded, inbound [`Bundle::Wire`] frames become typed mail before
/// [`ShardState::handle`] (registering fresh news content in the shard's
/// item store, like a real receiver), a `Restore` checkpoint is decoded and
/// applied here, and the reply's typed outbound mail is wire-encoded after
/// `handle` (resolving news content from that store). Any frame that does
/// not decode is a typed error and leaves the shard untouched by it.
pub fn handle_frame(state: &mut ShardState, frame: &[u8]) -> Result<Option<Vec<u8>>, DecodeError> {
    let mut cmd = frames::decode_command(frame)?;
    match &mut cmd {
        Command::Stop => return Ok(None),
        Command::Restore { frame } => {
            state.restore(frames::decode_checkpoint(frame, state.index())?);
            return Ok(Some(frames::encode_reply(&Reply::Ack)));
        }
        Command::DeliverGossip { bundles, .. } | Command::DeliverNews { bundles, .. } => {
            for bundle in bundles.iter_mut() {
                decode_wire_bundle(bundle, &mut |item| {
                    state.known_items.insert(item.id(), item);
                })?;
            }
        }
        _ => {}
    }
    let mut reply = state.handle(cmd);
    let from_shard = codec::wire_count_u32(state.index(), "shard index");
    if let Some(out) = reply.outbound_mut() {
        for bundle in &mut out.bundles {
            encode_mail_bundle(bundle, from_shard, |id| state.known_items.get(&id).cloned());
        }
    }
    Ok(Some(frames::encode_reply(&reply)))
}

/// Replaces a non-empty [`Bundle::Wire`] with the typed mail it carries
/// (an empty one becomes empty mail). Each inner frame is decoded as a
/// borrowed view over the frame and converted straight into its payload;
/// each *distinct* news content is passed to `register` once per
/// repetition run, and consecutive entries with identical content or
/// profile bytes decode through a [`codec::NewsDecodeCache`], which turns a
/// fan-out's repeated copies into `Arc` clones of one parse.
pub(crate) fn decode_wire_bundle(
    bundle: &mut Bundle,
    register: &mut impl FnMut(NewsItem),
) -> Result<(), DecodeError> {
    let Bundle::Wire(frame) = bundle else {
        return Ok(());
    };
    let mut mail = Vec::new();
    if !frame.is_empty() {
        let mut cache = codec::NewsDecodeCache::default();
        for entry in codec::bundle_view(frame)? {
            let (to, inner) = entry?;
            let (from, payload, fresh_item) = codec::decode_bundle_entry(inner, &mut cache)?;
            if let Some(item) = fresh_item {
                register(item);
            }
            mail.push((to, from, payload));
        }
    }
    *bundle = Bundle::Mail(mail);
    Ok(())
}

/// Replaces non-empty [`Bundle::Mail`] from shard `from_shard` with its
/// wire frame. News travels as content on the wire (receivers recompute
/// ids), resolved through `resolve`.
pub(crate) fn encode_mail_bundle(
    bundle: &mut Bundle,
    from_shard: u32,
    resolve: impl Fn(ItemId) -> Option<NewsItem>,
) {
    if let Bundle::Mail(mail) = bundle {
        if !mail.is_empty() {
            *bundle = Bundle::Wire(codec::encode_bundle(from_shard, mail, resolve));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::frames::{decode_handshake, decode_hello, HANDSHAKE_MAGIC};
    use super::*;
    use bytes::{BufMut, BytesMut};

    #[test]
    fn framing_roundtrip_and_clean_eof() {
        let mut pipe = Vec::new();
        write_frame(&mut pipe, b"hello").unwrap();
        write_frame(&mut pipe, b"").unwrap();
        let mut r: &[u8] = &pipe;
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean eof");
        let mut torn: &[u8] = &pipe[..2];
        assert!(read_frame(&mut torn).is_err(), "eof inside header");
    }

    #[test]
    fn truncated_payload_is_a_typed_eof() {
        let mut pipe = Vec::new();
        write_frame(&mut pipe, b"full frame").unwrap();
        let mut torn: &[u8] = &pipe[..7];
        let err = read_frame(&mut torn).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut pipe = Vec::new();
        pipe.extend_from_slice(&(u32::MAX).to_le_bytes());
        pipe.extend_from_slice(b"junk");
        let mut r: &[u8] = &pipe;
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn hello_roundtrips_and_rejects_foreign_greetings() {
        assert_eq!(decode_hello(&encode_hello(7)).unwrap(), 7);
        assert!(matches!(
            decode_hello(b"GET / HTTP/1.1"),
            Err(TransportErrorKind::HandshakeMagic)
        ));
        assert!(matches!(
            decode_hello(&[0, 0, 0, 0, 0, 0]),
            Err(TransportErrorKind::HandshakeMagic)
        ));
    }

    #[test]
    fn handshake_rejects_version_skew_before_touching_the_init() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(HANDSHAKE_MAGIC);
        buf.put_u16_le(PROTOCOL_VERSION + 1);
        // No init payload at all: the version gate must fire first.
        match decode_handshake(&buf) {
            Err(TransportErrorKind::HandshakeVersion { got, want }) => {
                assert_eq!(got, PROTOCOL_VERSION + 1);
                assert_eq!(want, PROTOCOL_VERSION);
            }
            other => panic!("expected version error, got {other:?}"),
        }
        assert!(matches!(
            decode_handshake(b"junk"),
            Err(TransportErrorKind::HandshakeMagic)
        ));
    }
}
