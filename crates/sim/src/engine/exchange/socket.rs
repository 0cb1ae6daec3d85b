//! The byte-stream transport: shard workers as `sim-shard-worker --listen`
//! processes reachable over TCP. This is what lets shard workers live on
//! other machines: on this transport, mail bundles cross as `whatsup-net`
//! wire frames, encoded and decoded by the workers themselves
//! ([`crate::engine::shard::handle_frame`]); the driver forwards them
//! unopened.
//!
//! Workers come from one of two places, and the conversation is the same
//! for both:
//!
//! * **dialed** ([`SocketTransport::connect`]) — already-listening workers,
//!   possibly remote. Launch order is *workers first, then driver* — but
//!   only loosely: each worker binds, prints its address, and blocks in
//!   accept, while the driver retries refused/unreachable dials over a
//!   window ([`DIAL_RETRY_WINDOW`] by default), so a worker that comes up
//!   a moment after the driver still gets its shard;
//! * **spawned** ([`SocketTransport::spawn`]) — one local
//!   `sim-shard-worker --listen 127.0.0.1:0` child per shard, its
//!   `LISTEN <addr>` announcement read with a time bound
//!   ([`spawn_listen_worker`]), then dialed over loopback. The transport
//!   owns these children: [`Drop`] kills and reaps them, and
//!   [`SocketTransport::shutdown`] waits for their exit status.
//!
//! Dialing and the handshake are guarded by
//! [`CONNECT_TIMEOUT`]/[`HANDSHAKE_TIMEOUT`], so a worker that stays down,
//! is unreachable, or speaks a different protocol version surfaces as a
//! typed [`TransportError`] naming the address — a run never hangs on
//! bootstrap and never panics on a foreign greeting.
//!
//! The transport keeps every shard's original init and the dial window, so
//! the supervision layer ([`super::SupervisedTransport`]) can restart a
//! crashed worker through [`ShardLink::restart`]: a worker this transport
//! spawned is killed, reaped and respawned on a fresh port; a dialed
//! address is redialed for a replacement listener. Either way the
//! handshake re-runs with the shard's original init. Hang detection is
//! armed through [`ShardLink::set_deadline`]: a per-read/write deadline on
//! every conversation, so a wedged worker surfaces as a timed-out
//! (retryable) I/O error instead of blocking the driver forever.

use super::stream::{drive_handshake, encode_handshake, CONNECT_TIMEOUT, HANDSHAKE_TIMEOUT};
use super::supervisor::ShardLink;
use super::{
    decode_reply, encode_command, read_frame, write_frame, Command, Reply, ShardTransport,
    TransportError, TransportErrorKind,
};
use crate::engine::shard::ShardInit;
use std::io::{self, BufRead, BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::process::{Child, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Default window over which an initial dial (or a supervised redial) is
/// retried before failing. Covers the workers-come-up-late race without
/// making a genuinely-down worker slow to diagnose.
pub const DIAL_RETRY_WINDOW: Duration = Duration::from_secs(3);

pub struct SocketTransport {
    /// One worker address per shard — as given by the caller, or as
    /// announced by a spawned worker (named in errors).
    endpoints: Vec<String>,
    /// Every shard's handshake frame (magic + version + encoded init),
    /// encoded once at bootstrap and replayed verbatim on redial — the
    /// init never changes, so a recovery never re-serializes it.
    handshakes: Vec<Vec<u8>>,
    readers: Vec<BufReader<TcpStream>>,
    writers: Vec<BufWriter<TcpStream>>,
    /// Per-read/write hang deadline; `None` (unsupervised) blocks freely.
    deadline: Option<Duration>,
    /// Retry window for dials, shared by bootstrap and redials.
    dial_window: Duration,
    /// The worker binary when this transport spawned its workers (kept
    /// for supervised respawns); `None` for dialed addresses.
    worker: Option<PathBuf>,
    /// The spawned worker processes, one per shard; empty for dialed
    /// addresses.
    children: Vec<Child>,
    /// Set by [`SocketTransport::shutdown`] so [`Drop`] skips the
    /// best-effort teardown after a graceful one.
    stopped: bool,
}

/// Dials `addr` with [`CONNECT_TIMEOUT`], trying every resolved socket
/// address in order (like `TcpStream::connect`, which has no timeout
/// variant) — `localhost` may resolve to `::1` before `127.0.0.1`.
fn dial_once(addr: &str) -> Result<TcpStream, TransportError> {
    let resolved: Vec<SocketAddr> = addr
        .to_socket_addrs()
        .map_err(|e| TransportError::io(addr, e))?
        .collect();
    let mut last_err = std::io::Error::new(
        std::io::ErrorKind::AddrNotAvailable,
        "address resolved to nothing",
    );
    for sock_addr in resolved {
        match TcpStream::connect_timeout(&sock_addr, CONNECT_TIMEOUT) {
            Ok(stream) => return Ok(stream),
            Err(e) => last_err = e,
        }
    }
    Err(TransportError::io(addr, last_err))
}

/// Dials `addr`, retrying failures over `window` with a short exponential
/// backoff (25 ms doubling to 400 ms). Tolerates workers that bind a
/// moment late — and, under supervision, replacement listeners that take a
/// moment to come up on a crashed worker's address. The last error
/// surfaces once the window closes.
fn dial_retry(addr: &str, window: Duration) -> Result<TcpStream, TransportError> {
    let start = Instant::now();
    let mut pause = Duration::from_millis(25);
    loop {
        match dial_once(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                if start.elapsed() >= window {
                    return Err(e);
                }
                std::thread::sleep(pause.min(window.saturating_sub(start.elapsed())));
                pause = (pause * 2).min(Duration::from_millis(400));
            }
        }
    }
}

/// Dials one worker and runs the bootstrap handshake, returning the framed
/// conversation with `deadline` armed (or unbounded reads if `None`).
fn connect_worker(
    addr: &str,
    handshake: &[u8],
    window: Duration,
    deadline: Option<Duration>,
) -> Result<(BufReader<TcpStream>, BufWriter<TcpStream>), TransportError> {
    let stream = dial_retry(addr, window)?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(HANDSHAKE_TIMEOUT))
        .map_err(|e| TransportError::io(addr, e))?;
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| TransportError::io(addr, e))?,
    );
    let mut writer = BufWriter::new(stream);
    drive_handshake(addr, &mut reader, &mut writer, handshake)?;
    // Handshake done: arm the steady-state deadline. `None` lets long
    // lockstep rounds block freely; supervised runs bound every read and
    // write so a hung worker is detected and treated as dead.
    arm_deadline(addr, writer.get_ref(), deadline)?;
    Ok((reader, writer))
}

/// Applies `deadline` as both the read and write timeout of `stream`.
fn arm_deadline(
    addr: &str,
    stream: &TcpStream,
    deadline: Option<Duration>,
) -> Result<(), TransportError> {
    stream
        .set_read_timeout(deadline)
        .and_then(|()| stream.set_write_timeout(deadline))
        .map_err(|e| TransportError::io(addr, e))
}

/// Spawns `worker --listen <addr>` and reads its `LISTEN <bound-addr>`
/// announcement, returning the child and the address to dial. The read is
/// bounded by [`HANDSHAKE_TIMEOUT`] on a watchdog thread (a child can be
/// alive yet silent — e.g. not a shard worker at all); on timeout, on an
/// early exit or on a malformed line the child is killed and reaped, so
/// the caller never inherits a half-started process. The worker's stderr
/// goes to `stderr`.
pub fn spawn_listen_worker(
    worker: &Path,
    addr: &str,
    stderr: Stdio,
) -> Result<(Child, String), TransportError> {
    let mut child = std::process::Command::new(worker)
        .args(["--listen", addr])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(stderr)
        .spawn()
        .map_err(|e| TransportError::io(format!("spawn {}", worker.display()), e))?;
    let endpoint = format!("sim-shard-worker pid {}", child.id());
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line).map(|_| line);
        let _ = tx.send(read);
    });
    let announced = match rx.recv_timeout(HANDSHAKE_TIMEOUT) {
        Ok(Ok(line)) if line.is_empty() => Err(TransportError::closed(
            &*endpoint,
            "worker exited before announcing its address",
        )),
        Ok(Ok(line)) => match line.trim_end().strip_prefix("LISTEN ") {
            Some(bound) => Ok(bound.to_string()),
            None => Err(TransportError::io(
                &*endpoint,
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected 'LISTEN <addr>', got {line:?}"),
                ),
            )),
        },
        Ok(Err(e)) => Err(TransportError::io(&*endpoint, e)),
        Err(_) => Err(TransportError::io(
            &*endpoint,
            io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "no LISTEN announcement within {HANDSHAKE_TIMEOUT:?} — \
                     is this a sim-shard-worker binary?"
                ),
            ),
        )),
    };
    match announced {
        Ok(bound) => Ok((child, bound)),
        Err(e) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(e)
        }
    }
}

impl SocketTransport {
    /// Dials one worker per init (`workers[k]` becomes shard `k`),
    /// retrying each dial over `dial_window` ([`DIAL_RETRY_WINDOW`] by
    /// default; deployments with slow worker rollout raise it), and runs
    /// the bootstrap handshake with each. Connect and handshake are
    /// bounded by timeouts; after the handshake the streams block freely
    /// (a lockstep round may legitimately take long on big shards) until a
    /// supervisor arms a deadline. The window is kept for supervised
    /// redials.
    pub fn connect(
        workers: &[String],
        inits: &[ShardInit],
        dial_window: Duration,
    ) -> Result<Self, TransportError> {
        assert_eq!(workers.len(), inits.len(), "one worker address per shard");
        let mut t = Self::unconnected(inits, dial_window, None);
        t.endpoints = workers.to_vec();
        t.connect_all()?;
        Ok(t)
    }

    /// Spawns one local `worker --listen 127.0.0.1:0` child per init
    /// (see [`spawn_listen_worker`]), then dials each announced address
    /// and runs the bootstrap handshake with it. The transport owns the
    /// children: on failure, the ones spawned so far are killed and
    /// reaped before returning.
    pub fn spawn(
        worker: &Path,
        inits: &[ShardInit],
        dial_window: Duration,
    ) -> Result<Self, TransportError> {
        let mut t = Self::unconnected(inits, dial_window, Some(worker.to_path_buf()));
        for _ in inits {
            // Failures propagate after the partial registration, so Drop
            // reaps the children spawned so far.
            let (child, addr) = spawn_listen_worker(worker, "127.0.0.1:0", Stdio::inherit())?;
            t.children.push(child);
            t.endpoints.push(addr);
        }
        t.connect_all()?;
        Ok(t)
    }

    /// A transport with no workers yet: the handshakes are encoded once
    /// here and replayed verbatim on every restart.
    fn unconnected(inits: &[ShardInit], dial_window: Duration, worker: Option<PathBuf>) -> Self {
        let n = inits.len();
        debug_assert!(
            inits.iter().enumerate().all(|(s, init)| init.index == s),
            "inits must be in shard order"
        );
        Self {
            endpoints: Vec::with_capacity(n),
            handshakes: inits.iter().map(encode_handshake).collect(),
            readers: Vec::with_capacity(n),
            writers: Vec::with_capacity(n),
            deadline: None,
            dial_window,
            children: Vec::new(),
            worker,
            stopped: false,
        }
    }

    /// Dials every endpoint in shard order and runs the handshakes.
    fn connect_all(&mut self) -> Result<(), TransportError> {
        for (addr, handshake) in self.endpoints.iter().zip(&self.handshakes) {
            let (reader, writer) = connect_worker(addr, handshake, self.dial_window, None)?;
            self.readers.push(reader);
            self.writers.push(writer);
        }
        Ok(())
    }

    /// Stops every worker and closes the connections, then reaps the
    /// spawned workers (a non-zero exit is a
    /// [`TransportErrorKind::WorkerExit`]); errors report the first
    /// failure but still close every stream and reap every child.
    pub fn shutdown(mut self) -> Result<(), TransportError> {
        self.stopped = true;
        let stop = encode_command(&Command::Stop);
        let mut first_err: Option<TransportError> = None;
        for (s, writer) in self.writers.iter_mut().enumerate() {
            if let Err(e) = write_frame(writer, &stop) {
                first_err.get_or_insert(TransportError::io(&*self.endpoints[s], e));
            }
            let _ = writer.get_ref().shutdown(Shutdown::Write);
        }
        // Wait for each worker to acknowledge the Stop by closing its end:
        // a clean EOF here proves the worker exited its serve loop rather
        // than being left behind mid-conversation. Unlike mid-round reads
        // (unbounded — shard compute takes as long as it takes), this is a
        // bounded-time event, so re-arm the timeout: a wedged or
        // partitioned worker must not hang a completed run.
        for (s, reader) in self.readers.iter_mut().enumerate() {
            let _ = reader.get_ref().set_read_timeout(Some(HANDSHAKE_TIMEOUT));
            let endpoint = &*self.endpoints[s];
            let eof = match read_frame(reader) {
                Ok(None) => Ok(()),
                Ok(Some(_)) => Err(TransportError::closed(
                    endpoint,
                    "worker sent a frame after Stop",
                )),
                Err(e) => Err(TransportError::io(endpoint, e)),
            };
            // Reap a spawned worker; one that did not close cleanly is
            // killed first, so the wait cannot block.
            let exit = match self.children.get_mut(s) {
                None => Ok(()),
                Some(child) => {
                    if eof.is_err() {
                        let _ = child.kill();
                    }
                    match child.wait() {
                        Ok(status) if !status.success() => Err(TransportError {
                            endpoint: endpoint.into(),
                            kind: TransportErrorKind::WorkerExit(status.to_string()),
                        }),
                        Ok(_) => Ok(()),
                        Err(e) => Err(TransportError::io(endpoint, e)),
                    }
                }
            };
            if let Err(e) = eof.and(exit) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        if self.stopped {
            return;
        }
        // Early-error path: tell every worker to stop, then close both
        // directions so a worker blocked in read sees EOF immediately.
        // Spawned workers are then killed and reaped, so an aborted run
        // leaves no stray or zombie process behind.
        let stop = encode_command(&Command::Stop);
        for writer in &mut self.writers {
            let _ = write_frame(writer, &stop);
            let _ = writer.get_ref().shutdown(Shutdown::Both);
        }
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl ShardLink for SocketTransport {
    fn n_shards(&self) -> usize {
        self.writers.len()
    }

    fn endpoint(&self, shard: usize) -> String {
        self.endpoints[shard].clone()
    }

    fn send(&mut self, shard: usize, frame: &[u8]) -> Result<(), TransportError> {
        write_frame(&mut self.writers[shard], frame)
            .map_err(|e| TransportError::io(&*self.endpoints[shard], e))
    }

    fn recv(&mut self, shard: usize) -> Result<Vec<u8>, TransportError> {
        read_frame(&mut self.readers[shard])
            .map_err(|e| TransportError::io(&*self.endpoints[shard], e))?
            .ok_or_else(|| {
                TransportError::closed(
                    &*self.endpoints[shard],
                    "worker closed the connection mid-phase",
                )
            })
    }

    fn restart(&mut self, shard: usize) -> Result<(), TransportError> {
        // Close the wedged/dead connection first (a listen worker serves
        // one connection, so its replacement needs the address free), then
        // redial within the dial window. Replacing the reader/writer drops
        // any half-read frame with the old connection.
        let _ = self.writers[shard].get_ref().shutdown(Shutdown::Both);
        if let Some(worker) = &self.worker {
            // A worker this transport spawned: reap it (it may already be
            // gone, or frozen — SIGKILL ends both) so a respawn loop cannot
            // accumulate zombies, then dial its replacement's fresh port.
            let _ = self.children[shard].kill();
            let _ = self.children[shard].wait();
            let (child, addr) = spawn_listen_worker(worker, "127.0.0.1:0", Stdio::inherit())?;
            self.children[shard] = child;
            self.endpoints[shard] = addr;
        }
        let (reader, writer) = connect_worker(
            &self.endpoints[shard],
            &self.handshakes[shard],
            self.dial_window,
            self.deadline,
        )?;
        self.readers[shard] = reader;
        self.writers[shard] = writer;
        Ok(())
    }

    fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
        for (s, writer) in self.writers.iter().enumerate() {
            let _ = arm_deadline(&self.endpoints[s], writer.get_ref(), deadline);
        }
    }

    fn shutdown(self) -> Result<(), TransportError> {
        SocketTransport::shutdown(self)
    }
}

impl ShardTransport for SocketTransport {
    fn n_shards(&self) -> usize {
        self.writers.len()
    }

    fn roundtrip(&mut self, batch: Vec<(usize, Command)>) -> Result<Vec<Reply>, TransportError> {
        let targets: Vec<usize> = batch.iter().map(|(s, _)| *s).collect();
        for (s, cmd) in &batch {
            ShardLink::send(self, *s, &encode_command(cmd))?;
        }
        targets
            .into_iter()
            .map(|s| Ok(decode_reply(&ShardLink::recv(self, s)?)))
            .collect()
    }
}
