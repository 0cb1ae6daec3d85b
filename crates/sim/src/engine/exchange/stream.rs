//! Byte-stream plumbing of the framed transport: length-prefixed framing
//! over generic [`Read`]/[`Write`], the versioned bootstrap handshake, and
//! the worker serve loop.
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
//!    the [`ShardInit`] payload ([`super::encode_init`]).
//! 3. Command/reply frames until a `Stop` command ends the conversation.
//!
//! Each side validates the other's magic and version *before* touching the
//! payload, so mixed-version deployments fail with a one-line typed error
//! instead of a frame-decode panic. Bumping [`PROTOCOL_VERSION`] whenever
//! a frame layout changes is what keeps that promise.

use super::{decode_init, encode_init, TransportError, TransportErrorKind};
use crate::engine::shard::{ShardInit, ShardState};
use bytes::{Buf, BufMut, BytesMut};
use std::fmt;
use std::io::{self, Read, Write};
use std::time::Duration;

/// `"WUPS"` — first bytes of every hello/handshake frame.
pub const HANDSHAKE_MAGIC: u32 = 0x5755_5053;

/// Version of the whole exchange protocol (frames, commands, replies).
/// Peers refuse to talk across versions. v2 added the checkpoint/restore
/// command pair (worker supervision); v3 removed the end-of-cycle
/// `TakeCycleCounters`/`CycleCounters` frames (counters are now folded
/// driver-side from the phase replies) and the counter residue from
/// checkpoint frames; v4 added the like-store tag to oracle frames
/// (dense bit-plane or compressed sparse rows).
pub const PROTOCOL_VERSION: u16 = 4;

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
    w.write_all(&(frame.len() as u32).to_le_bytes())?;
    w.write_all(frame)?;
    w.flush()
}

/// Reads one frame; `Ok(None)` on a clean EOF at a frame boundary. EOF
/// inside a frame (a truncated write from a dying peer) is an
/// [`io::ErrorKind::UnexpectedEof`] error, an oversized length prefix an
/// [`io::ErrorKind::InvalidData`] error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                ))
            }
            Ok(n) => filled += n,
            // Retry EINTR like read_exact does below: a signal landing on
            // a header byte must not abort a healthy run.
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_LEN}-byte limit"),
        ));
    }
    let mut frame = vec![0u8; len];
    r.read_exact(&mut frame).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            io::Error::new(io::ErrorKind::UnexpectedEof, "eof inside frame payload")
        } else {
            e
        }
    })?;
    Ok(Some(frame))
}

// ---------------------------------------------------------------------------
// Handshake frames
// ---------------------------------------------------------------------------

/// The worker's greeting: magic + the version it speaks. Takes the version
/// as a parameter so fault-injection tests can impersonate a mismatched
/// worker; real workers always send [`PROTOCOL_VERSION`].
pub fn encode_hello(version: u16) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(6);
    buf.put_u32_le(HANDSHAKE_MAGIC);
    buf.put_u16_le(version);
    Vec::from(buf)
}

/// Parses a hello frame into the peer's version; `Err` when the frame is
/// not a shard-worker greeting at all.
pub fn decode_hello(frame: &[u8]) -> Result<u16, TransportErrorKind> {
    let mut buf = frame;
    if buf.len() != 6 || buf.get_u32_le() != HANDSHAKE_MAGIC {
        return Err(TransportErrorKind::HandshakeMagic);
    }
    Ok(buf.get_u16_le())
}

/// The driver's reply to a hello: magic + version + the shard's init.
pub fn encode_handshake(init: &ShardInit) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(1024);
    buf.put_u32_le(HANDSHAKE_MAGIC);
    buf.put_u16_le(PROTOCOL_VERSION);
    buf.put_slice(&encode_init(init));
    Vec::from(buf)
}

/// Validates magic + version, then decodes the carried [`ShardInit`].
pub fn decode_handshake(frame: &[u8]) -> Result<ShardInit, TransportErrorKind> {
    let mut buf = frame;
    if buf.len() < 6 || buf.get_u32_le() != HANDSHAKE_MAGIC {
        return Err(TransportErrorKind::HandshakeMagic);
    }
    let got = buf.get_u16_le();
    if got != PROTOCOL_VERSION {
        return Err(TransportErrorKind::HandshakeVersion {
            got,
            want: PROTOCOL_VERSION,
        });
    }
    Ok(decode_init(buf))
}

/// Driver side of the bootstrap over an established stream: read and
/// validate the worker's hello (bounded by the caller's read timeout), then
/// send the versioned `handshake` frame ([`encode_handshake`]). `endpoint`
/// names the worker in errors. The init never changes over a transport's
/// lifetime, so the transport encodes it once at bootstrap and replays the
/// same bytes on every restart instead of re-serializing the full shard
/// init (which for large shards dominates recovery time).
pub fn drive_handshake(
    endpoint: &str,
    input: &mut impl Read,
    output: &mut impl Write,
    handshake: &[u8],
) -> Result<(), TransportError> {
    let frame = read_frame(input)
        .map_err(|e| TransportError::io(endpoint, e))?
        .ok_or_else(|| TransportError::closed(endpoint, "worker closed before its hello"))?;
    let kind = match decode_hello(&frame) {
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
    let init = decode_handshake(&frame).map_err(WorkerError::Handshake)?;
    Ok(ShardState::from_init(init))
}

/// The post-handshake serve loop: one reply frame per command frame, until
/// `Stop` (`Ok`) or the stream dies (`Err`). A driver that merely closes
/// the stream (killed mid-run) is a [`WorkerError::ConnectionLost`], so the
/// worker process can exit non-zero with a one-line message instead of a
/// panic backtrace. Command dispatch is
/// [`crate::engine::shard::handle_frame`], which converts wire mail at the
/// boundary and runs the same [`ShardState::handle`] the channel-thread
/// workers run, so the transports cannot diverge on command semantics.
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
        match crate::engine::shard::handle_frame(state, &frame) {
            Some(reply) => write_frame(output, &reply).map_err(WorkerError::ConnectionLost)?,
            None => return Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
