//! Worker supervision: checkpoint/replay recovery around the byte-stream
//! transport, so a crashed or hung `sim-shard-worker` becomes a pause
//! instead of a dead run.
//!
//! [`SupervisedTransport`] wraps a [`ShardLink`] (the per-shard
//! conversation primitives of [`super::SocketTransport`]) and implements
//! [`ShardTransport`] itself,
//! so the driver above is oblivious: a round-trip either succeeds — the
//! failure handled internally — or fails only after the restart budget is
//! exhausted or a fatal (non-retryable) error surfaces.
//!
//! # Recovery protocol
//!
//! Per shard, the supervisor keeps the last checkpoint frame (taken every
//! [`Supervision::checkpoint_every`] cycles through the
//! [`ShardTransport::cycle_boundary`] hook) and the log of every command
//! frame issued since. When a shard's conversation fails with a
//! *retryable* error ([`super::TransportErrorKind::is_retryable`]):
//!
//! 1. back off (bounded exponential, deterministic jitter);
//! 2. [`ShardLink::restart`]: respawn the worker (if the link spawned it)
//!    or redial its address, and re-run the versioned handshake with the
//!    shard's original init;
//! 3. send [`Command::Restore`] with the last checkpoint (skipped before
//!    the first checkpoint — the freshly handshaken worker already sits at
//!    the `from_init` state the log starts from);
//! 4. replay the logged commands, discarding the replies — shards are
//!    deterministic functions of `(init, command sequence)`, so the
//!    replayed replies are byte-identical to the ones the driver already
//!    consumed;
//! 5. re-issue the in-flight command and hand its reply to the driver.
//!
//! A crash *during* recovery simply burns another restart from the same
//! budget and tries again; exhaustion surfaces the original error.

use super::{decode_reply, encode_command, Command, Reply, ShardTransport, TransportError};
use bytes::Bytes;
use std::time::Duration;
use whatsup_core::fnv1a64;

/// Supervision knobs. The two first-class ones (restart budget, checkpoint
/// cadence) are what [`crate::Runner::supervised`] and the CLI expose;
/// the rest have defaults tuned for real deployments and are overridable
/// through [`crate::Runner::supervision`] (tests shrink them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Supervision {
    /// Restarts allowed *per shard* before the run gives up and surfaces
    /// the original error.
    pub max_restarts: u32,
    /// Cycles between checkpoints (≥ 1). Checkpoints bound both the
    /// command log replayed on recovery and its memory footprint.
    pub checkpoint_every: u32,
    /// Hang detection: per-read/write deadline on every worker
    /// conversation (a hard-deadline simplification of a phi-accrual
    /// liveness detector). A worker that neither answers nor closes within
    /// the deadline is treated as dead. Generous by default — a lockstep
    /// round on a big shard legitimately takes seconds.
    pub deadline: Duration,
    /// Base of the exponential backoff between restart attempts.
    pub backoff: Duration,
    /// Window over which a redial (and the initial dial) is retried before
    /// the attempt counts as failed.
    pub dial_window: Duration,
}

impl Default for Supervision {
    fn default() -> Self {
        Self {
            max_restarts: 3,
            checkpoint_every: 5,
            deadline: Duration::from_secs(30),
            backoff: Duration::from_millis(100),
            dial_window: Duration::from_secs(3),
        }
    }
}

impl Supervision {
    /// The convenience constructor behind `Runner::supervised`.
    pub fn new(max_restarts: u32, checkpoint_every: u32) -> Self {
        Self {
            max_restarts,
            checkpoint_every,
            ..Self::default()
        }
    }
}

/// Per-shard conversation primitives the byte-stream transport exposes so
/// the supervisor can drive each worker independently. A monolithic
/// `roundtrip` cannot recover one shard without corrupting the others
/// (their streams would hold unread replies); these primitives let the
/// supervisor re-issue exactly the failed shard's traffic.
pub trait ShardLink {
    fn n_shards(&self) -> usize;

    /// Human-readable worker endpoint, named in errors.
    fn endpoint(&self, shard: usize) -> String;

    /// Writes one command frame to one worker.
    fn send(&mut self, shard: usize, frame: &[u8]) -> Result<(), TransportError>;

    /// Reads one reply frame from one worker (EOF is an error: a reply
    /// was owed).
    fn recv(&mut self, shard: usize) -> Result<Vec<u8>, TransportError>;

    /// Tears down and re-establishes the conversation with one worker:
    /// respawn it (if the link spawned it) or redial its address, then
    /// re-run the versioned bootstrap handshake carrying the shard's
    /// original init. On success the replacement worker sits at the
    /// `from_init` state.
    fn restart(&mut self, shard: usize) -> Result<(), TransportError>;

    /// Arms (or disarms) the per-read/write hang deadline on every current
    /// and future conversation.
    fn set_deadline(&mut self, deadline: Option<Duration>);

    /// Graceful teardown: `Stop` every worker and reap/EOF-wait.
    fn shutdown(self) -> Result<(), TransportError>;
}

/// The supervision wrapper. See the module docs for the protocol.
pub struct SupervisedTransport<L: ShardLink> {
    link: L,
    sup: Supervision,
    /// Last checkpoint frame per shard; `None` until the first cadence
    /// point (recovery then replays from the `from_init` state).
    checkpoints: Vec<Option<Bytes>>,
    /// Encoded command frames issued since the last checkpoint, per shard
    /// (appended only after the command's reply arrived).
    logs: Vec<Vec<Vec<u8>>>,
    /// Restarts consumed per shard.
    restarts: Vec<u32>,
}

impl<L: ShardLink> SupervisedTransport<L> {
    /// Wraps `link`, arming its hang deadline from `sup`.
    ///
    /// # Panics
    /// Panics if `sup.checkpoint_every` is 0.
    pub fn new(mut link: L, sup: Supervision) -> Self {
        assert!(sup.checkpoint_every >= 1, "checkpoint cadence must be ≥ 1");
        link.set_deadline(Some(sup.deadline));
        let n = link.n_shards();
        Self {
            link,
            sup,
            checkpoints: vec![None; n],
            logs: vec![Vec::new(); n],
            restarts: vec![0; n],
        }
    }

    /// Total restarts consumed across all shards (observability/tests).
    pub fn restarts_used(&self) -> u32 {
        self.restarts.iter().sum()
    }

    /// Graceful teardown of the underlying link.
    pub fn shutdown(self) -> Result<(), TransportError> {
        self.link.shutdown()
    }

    /// Bounded exponential backoff with deterministic jitter: attempt `k`
    /// sleeps in `[d/2, d)` for `d = backoff·2^k` capped at 2 s. The
    /// jitter is a pure function of `(shard, restart count, attempt)` —
    /// no entropy source, so supervised runs stay reproducible end to end.
    fn backoff_sleep(&self, shard: usize, attempt: u32) {
        if self.sup.backoff.is_zero() {
            return;
        }
        let exp = self.sup.backoff.saturating_mul(1 << attempt.min(4));
        let capped = exp.min(Duration::from_secs(2));
        let mut key = [0u8; 24];
        key[..8].copy_from_slice(&(shard as u64).to_le_bytes());
        key[8..16].copy_from_slice(&u64::from(self.restarts[shard]).to_le_bytes());
        key[16..].copy_from_slice(&u64::from(attempt).to_le_bytes());
        let frac = (fnv1a64(&key) % 1024) as f64 / 2048.0;
        std::thread::sleep(capped.mul_f64(0.5 + frac));
    }

    /// Recovers `shard` after `original` failed its conversation, then
    /// re-issues the in-flight `frame` and returns its reply. Retries the
    /// whole recovery (a replacement can die mid-replay) until the
    /// per-shard restart budget runs out, at which point the *original*
    /// error surfaces; non-retryable errors surface immediately.
    fn recover_and_reissue(
        &mut self,
        shard: usize,
        frame: &[u8],
        original: TransportError,
    ) -> Result<Vec<u8>, TransportError> {
        if !original.kind.is_retryable() {
            return Err(original);
        }
        let mut attempt = 0u32;
        loop {
            if self.restarts[shard] >= self.sup.max_restarts {
                return Err(original);
            }
            self.restarts[shard] += 1;
            self.backoff_sleep(shard, attempt);
            attempt += 1;
            match self.try_recover(shard, frame) {
                Ok(reply) => return Ok(reply),
                Err(e) if e.kind.is_retryable() => continue,
                // A fatal error from the *replacement* (e.g. a
                // version-skewed worker took over the address) must not be
                // restart-looped.
                Err(e) => return Err(e),
            }
        }
    }

    /// One recovery attempt: restart, restore the last checkpoint, replay
    /// the command log (replies discarded — determinism makes them
    /// byte-identical to the ones already consumed), re-issue the
    /// in-flight frame and return its reply.
    fn try_recover(&mut self, shard: usize, inflight: &[u8]) -> Result<Vec<u8>, TransportError> {
        self.link.restart(shard)?;
        if let Some(cp) = &self.checkpoints[shard] {
            let restore = encode_command(&Command::Restore { frame: cp.clone() });
            self.link.send(shard, &restore)?;
            let reply = self.link.recv(shard)?;
            debug_assert!(matches!(decode_reply(&reply), Reply::Ack));
        }
        for logged in &self.logs[shard] {
            self.link.send(shard, logged)?;
            self.link.recv(shard)?;
        }
        self.link.send(shard, inflight)?;
        self.link.recv(shard)
    }
}

impl<L: ShardLink> ShardTransport for SupervisedTransport<L> {
    fn n_shards(&self) -> usize {
        self.link.n_shards()
    }

    fn roundtrip(&mut self, batch: Vec<(usize, Command)>) -> Result<Vec<Reply>, TransportError> {
        let frames: Vec<(usize, Vec<u8>)> = batch
            .iter()
            .map(|(s, cmd)| (*s, encode_command(cmd)))
            .collect();
        // Send phase, pipelined like the plain transports: every command
        // goes out before any reply is read, so the shards compute in
        // parallel. A send failure recovers the shard completely — its
        // reply is parked for the read phase.
        let mut parked: Vec<Option<Vec<u8>>> = vec![None; frames.len()];
        for (i, (s, frame)) in frames.iter().enumerate() {
            if let Err(e) = self.link.send(*s, frame) {
                parked[i] = Some(self.recover_and_reissue(*s, frame, e)?);
            }
        }
        let mut replies = Vec::with_capacity(frames.len());
        for (i, (s, frame)) in frames.iter().enumerate() {
            let reply_frame = match parked[i].take() {
                Some(reply) => reply,
                None => match self.link.recv(*s) {
                    Ok(reply) => reply,
                    Err(e) => self.recover_and_reissue(*s, frame, e)?,
                },
            };
            self.logs[*s].push(frame.clone());
            replies.push(decode_reply(&reply_frame));
        }
        Ok(replies)
    }

    /// The checkpoint cadence: every `checkpoint_every` completed cycles,
    /// snapshot every shard and clear its replay log. The checkpoint
    /// command itself is recovered like any other — and is never logged.
    fn cycle_boundary(&mut self, completed_cycle: u32) -> Result<(), TransportError> {
        if !(completed_cycle + 1).is_multiple_of(self.sup.checkpoint_every) {
            return Ok(());
        }
        let frame = encode_command(&Command::TakeCheckpoint);
        let n = self.link.n_shards();
        let mut parked: Vec<Option<Vec<u8>>> = vec![None; n];
        for (s, slot) in parked.iter_mut().enumerate() {
            if let Err(e) = self.link.send(s, &frame) {
                *slot = Some(self.recover_and_reissue(s, &frame, e)?);
            }
        }
        for (s, slot) in parked.iter_mut().enumerate() {
            let reply_frame = match slot.take() {
                Some(reply) => reply,
                None => match self.link.recv(s) {
                    Ok(reply) => reply,
                    Err(e) => self.recover_and_reissue(s, &frame, e)?,
                },
            };
            let Reply::Checkpoint(cp) = decode_reply(&reply_frame) else {
                panic!("expected a checkpoint reply");
            };
            self.checkpoints[s] = Some(cp);
            self.logs[s].clear();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::exchange::{decode_command, encode_reply, Outbound, TransportErrorKind};
    use std::collections::VecDeque;

    /// A scripted in-memory worker pool: each "worker" is a counter that
    /// `BeginNews` increments — a stand-in for deterministic shard state.
    /// `Collect` exposes the counter (as the outbound `sent` total),
    /// `TakeCheckpoint`/`Restore` snapshot and reinstate it, and `restart`
    /// resets it to 0 (a fresh `from_init` worker). Failures are injected
    /// per shard as a queue of [`Fault`]s consumed by `recv`/`restart`.
    #[derive(Clone, Copy)]
    enum Fault {
        /// The next `recv` fails retryably (the worker "died").
        RecvIo,
        /// The next `restart` fails retryably (redial refused).
        RestartIo,
        /// The next `restart` "reaches" a version-skewed worker: fatal.
        RestartVersionSkew,
    }

    struct MockLink {
        counters: Vec<u64>,
        inbox: Vec<VecDeque<Vec<u8>>>,
        faults: Vec<VecDeque<Fault>>,
        restart_count: Vec<u32>,
    }

    impl MockLink {
        fn new(shards: usize) -> Self {
            Self {
                counters: vec![0; shards],
                inbox: vec![VecDeque::new(); shards],
                faults: vec![VecDeque::new(); shards],
                restart_count: vec![0; shards],
            }
        }

        fn fail_next(&mut self, shard: usize, fault: Fault) {
            self.faults[shard].push_back(fault);
        }

        fn err(&self, shard: usize) -> TransportError {
            TransportError::io(
                self.endpoint(shard),
                std::io::Error::new(std::io::ErrorKind::ConnectionReset, "mock fault"),
            )
        }
    }

    impl ShardLink for MockLink {
        fn n_shards(&self) -> usize {
            self.counters.len()
        }

        fn endpoint(&self, shard: usize) -> String {
            format!("mock worker {shard}")
        }

        fn send(&mut self, shard: usize, frame: &[u8]) -> Result<(), TransportError> {
            let reply = match decode_command(frame) {
                Command::BeginNews => {
                    self.counters[shard] += 1;
                    Reply::Ack
                }
                Command::Collect { .. } => Reply::Outbound(Outbound {
                    sent: self.counters[shard],
                    local: 0,
                    bundles: Vec::new(),
                }),
                Command::TakeCheckpoint => {
                    Reply::Checkpoint(Bytes::copy_from_slice(&self.counters[shard].to_le_bytes()))
                }
                Command::Restore { frame } => {
                    self.counters[shard] =
                        u64::from_le_bytes(frame.as_ref().try_into().expect("8-byte checkpoint"));
                    Reply::Ack
                }
                other => panic!("mock worker got {other:?}"),
            };
            self.inbox[shard].push_back(encode_reply(&reply));
            Ok(())
        }

        fn recv(&mut self, shard: usize) -> Result<Vec<u8>, TransportError> {
            if let Some(Fault::RecvIo) = self.faults[shard].front() {
                self.faults[shard].pop_front();
                self.inbox[shard].clear();
                return Err(self.err(shard));
            }
            Ok(self.inbox[shard].pop_front().expect("a reply was owed"))
        }

        fn restart(&mut self, shard: usize) -> Result<(), TransportError> {
            match self.faults[shard].front() {
                Some(Fault::RestartIo) => {
                    self.faults[shard].pop_front();
                    return Err(self.err(shard));
                }
                Some(Fault::RestartVersionSkew) => {
                    self.faults[shard].pop_front();
                    return Err(TransportError {
                        endpoint: self.endpoint(shard),
                        kind: TransportErrorKind::HandshakeVersion { got: 1, want: 2 },
                    });
                }
                _ => {}
            }
            self.restart_count[shard] += 1;
            self.counters[shard] = 0;
            self.inbox[shard].clear();
            Ok(())
        }

        fn set_deadline(&mut self, _deadline: Option<Duration>) {}

        fn shutdown(self) -> Result<(), TransportError> {
            Ok(())
        }
    }

    /// Zero-backoff supervision so the fault loops run instantly.
    fn sup(max_restarts: u32, checkpoint_every: u32) -> Supervision {
        Supervision {
            max_restarts,
            checkpoint_every,
            backoff: Duration::ZERO,
            ..Supervision::default()
        }
    }

    fn bump(t: &mut SupervisedTransport<MockLink>, shards: usize) {
        let replies = t
            .roundtrip((0..shards).map(|s| (s, Command::BeginNews)).collect())
            .expect("bump");
        assert!(replies.iter().all(|r| matches!(r, Reply::Ack)));
    }

    fn counter(t: &mut SupervisedTransport<MockLink>, shard: usize) -> u64 {
        let replies = t
            .roundtrip(vec![(shard, Command::Collect { cycle: 0 })])
            .expect("counter probe");
        let Reply::Outbound(o) = &replies[0] else {
            panic!("expected outbound");
        };
        o.sent
    }

    #[test]
    fn crash_recovers_from_checkpoint_plus_replay() {
        let mut t = SupervisedTransport::new(MockLink::new(2), sup(3, 1));
        bump(&mut t, 2);
        t.cycle_boundary(0).expect("checkpoint"); // snapshots counter = 1
        bump(&mut t, 2); // logged since the checkpoint
        t.link.fail_next(1, Fault::RecvIo);
        bump(&mut t, 2); // shard 1 dies here and recovers mid-roundtrip
        assert_eq!(counter(&mut t, 0), 3, "undisturbed shard");
        assert_eq!(
            counter(&mut t, 1),
            3,
            "restore(1) + replay(1) + reissue(1) must equal the fault-free state"
        );
        assert_eq!(t.restarts_used(), 1);
        assert_eq!(t.link.restart_count, vec![0, 1]);
    }

    #[test]
    fn crash_before_any_checkpoint_replays_from_scratch() {
        let mut t = SupervisedTransport::new(MockLink::new(1), sup(3, 10));
        bump(&mut t, 1);
        bump(&mut t, 1);
        t.link.fail_next(0, Fault::RecvIo);
        bump(&mut t, 1);
        assert_eq!(counter(&mut t, 0), 3, "full replay from the init state");
    }

    #[test]
    fn crash_during_replay_burns_another_restart_and_recovers() {
        let mut t = SupervisedTransport::new(MockLink::new(1), sup(3, 1));
        bump(&mut t, 1);
        t.cycle_boundary(0).expect("checkpoint");
        bump(&mut t, 1);
        // The worker dies; its first replacement dies again during the
        // replay (first recv after the restart); the second replacement
        // completes recovery.
        t.link.fail_next(0, Fault::RecvIo);
        t.link.fail_next(0, Fault::RecvIo);
        bump(&mut t, 1);
        assert_eq!(counter(&mut t, 0), 3);
        assert_eq!(t.restarts_used(), 2);
        assert_eq!(t.link.restart_count, vec![2]);
    }

    #[test]
    fn failed_restarts_burn_budget_until_exhaustion_surfaces_the_original_error() {
        let mut t = SupervisedTransport::new(MockLink::new(1), sup(2, 1));
        t.link.fail_next(0, Fault::RecvIo);
        t.link.fail_next(0, Fault::RestartIo);
        t.link.fail_next(0, Fault::RestartIo);
        let err = t
            .roundtrip(vec![(0, Command::BeginNews)])
            .expect_err("budget exhausted");
        // The surfaced error is the ORIGINAL conversation failure, not the
        // last redial failure — that is what names the actual fault.
        assert_eq!(err.to_string(), t.link.err(0).to_string());
        assert_eq!(t.restarts_used(), 2);
        assert_eq!(t.link.restart_count, vec![0], "no restart ever succeeded");
    }

    #[test]
    fn fatal_error_during_recovery_surfaces_immediately() {
        let mut t = SupervisedTransport::new(MockLink::new(1), sup(5, 1));
        t.link.fail_next(0, Fault::RecvIo);
        t.link.fail_next(0, Fault::RestartVersionSkew);
        let err = t
            .roundtrip(vec![(0, Command::BeginNews)])
            .expect_err("version skew is fatal");
        assert!(
            matches!(err.kind, TransportErrorKind::HandshakeVersion { .. }),
            "the skew must surface, not be retried or masked: {err}"
        );
        assert_eq!(t.restarts_used(), 1, "only the one attempt that hit it");
    }

    #[test]
    fn non_retryable_original_error_is_not_recovered() {
        let mut t = SupervisedTransport::new(MockLink::new(1), sup(5, 1));
        let fatal = TransportError {
            endpoint: "mock worker 0".into(),
            kind: TransportErrorKind::HandshakeMagic,
        };
        let err = t
            .recover_and_reissue(0, &encode_command(&Command::BeginNews), fatal)
            .expect_err("fatal errors pass through");
        assert!(matches!(err.kind, TransportErrorKind::HandshakeMagic));
        assert_eq!(t.restarts_used(), 0);
    }

    #[test]
    fn checkpoint_cadence_truncates_the_replay_log() {
        let mut t = SupervisedTransport::new(MockLink::new(1), sup(3, 2));
        for cycle in 0..4 {
            bump(&mut t, 1);
            t.cycle_boundary(cycle).expect("boundary");
        }
        // Cadence 2: boundaries after cycles 1 and 3 checkpointed.
        assert_eq!(t.checkpoints[0].as_deref(), Some(&4u64.to_le_bytes()[..]));
        assert!(t.logs[0].is_empty(), "log cleared at the checkpoint");
        bump(&mut t, 1);
        assert_eq!(t.logs[0].len(), 1, "post-checkpoint commands logged");
        t.link.fail_next(0, Fault::RecvIo);
        assert_eq!(counter(&mut t, 0), 5, "restore(4) + replay(1)");
    }
}
