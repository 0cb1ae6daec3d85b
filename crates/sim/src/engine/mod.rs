//! The sharded cycle engine for node-based protocols.
//!
//! Methodology (paper §IV/§V): time is a sequence of gossip cycles. Each
//! cycle:
//!
//! 1. every node runs one RPS and one WUP exchange (requests and the
//!    matching responses are delivered within the cycle);
//! 2. the items scheduled for the cycle are published and each epidemic
//!    runs to completion (hop-ordered BFS), which matches the paper's use
//!    of the gossip cycle as time unit — dissemination is fast relative to
//!    clustering dynamics.
//!
//! Message loss (§V-E) applies to every message of every protocol layer.
//! The engine is a pure function of `(dataset, protocol, config)`.
//!
//! # Architecture: shards, phases, exchanges
//!
//! The node table is split into `S` *shards* — contiguous node-id ranges
//! ([`partition::Partition`]) — each owning its nodes' full state:
//! protocol stacks, per-node mailboxes ([`mailbox::Mailbox`]) and lazily
//! derived phase RNGs ([`shard::ShardState`]). A cycle advances through
//! *phases*; each phase is a lockstep round-trip driven by
//! [`driver::Simulation`]:
//!
//! 1. **Collect** — every shard runs [`whatsup_core::WhatsUpNode::on_cycle`]
//!    for its nodes in id order, emitting RPS/WUP requests.
//! 2. **Route/exchange** — each shard groups its emissions by destination
//!    shard into one *mailbox bundle* per destination
//!    ([`exchange::Bundle`]: typed `(to, from, payload)` mail in
//!    `(sender id, emission order)` order). The driver moves every bundle
//!    to its destination shard through the pluggable
//!    [`exchange::ShardTransport`]. Between in-process shard threads the
//!    bundle travels as a value, shared profile `Arc`s intact, and never
//!    touches the codec. Only a byte stream needs bytes: there the bundle
//!    is the `whatsup-net` wire codec's bundle frame (addressed
//!    single-message frames), encoded and decoded at the worker's frame
//!    dispatch ([`exchange::stream::handle_frame`]) and forwarded unopened
//!    by the driver. Messages that stay on their own shard wait in the shard's
//!    local pending queue.
//! 3. **Deliver** — each shard merges the inbound bundles *in source-shard
//!    order* (its own pending queue takes its shard's slot) into per-node
//!    mailboxes, then drains each receiver in ascending id order, drawing
//!    the per-message loss coin from the receiver's phase stream in mailbox
//!    order. Replies feed the next route/deliver round until the cycle is
//!    quiet (requests, then responses — gossip needs exactly two delivery
//!    rounds).
//! 4. **Churn** — shards draw per-node crash coins in parallel and report
//!    `(crasher, contact)` pairs; the driver fetches the contacts' view
//!    snapshots (all taken from the *pre-churn* state) from their owning
//!    shards and hands each crashing shard the snapshots to rejoin from.
//! 5. **Publish** — each scheduled item's epidemic runs as a BFS over the
//!    same route/exchange/deliver machinery: all copies at hop distance `h`
//!    are delivered before any copy at `h + 1`. Shards report per-receiver
//!    reception outcomes; the driver folds them into the records in
//!    receiver order.
//! 6. **Measurement flush** — the driver flushes the cycle's counters
//!    (accumulated from the phase replies above) into the run's time
//!    series (see "Measurement pipeline" below). Skipped when
//!    `SimConfig::collect_series` is off.
//!
//! Two transports implement the exchange: an in-process one (shards as
//! scoped worker threads trading command and reply values over channels)
//! and a byte-stream one (shards as `sim-shard-worker --listen` processes
//! trading length-prefixed frames over TCP). The byte-stream transport
//! either spawns its workers itself — one local child per shard, dialed
//! over loopback (`--multiprocess`) — or dials workers that are already
//! listening, possibly on other machines (`--transport socket`). With a
//! single shard the driver runs the shard inline. All of these paths
//! execute the same [`shard::ShardState`] code on the same command
//! protocol.
//!
//! # Distributed topology
//!
//! The byte-stream transport turns the simulator into a distributable
//! system: one driver, `S` workers, one TCP connection per worker, each
//! worker owning one shard. The moving parts:
//!
//! * **Launch order** — *workers first, then driver*, but only loosely:
//!   each worker binds its `--listen` address, prints `LISTEN <addr>` on
//!   stdout, and blocks in accept; the driver dials every address
//!   (`--transport socket --workers host:port,…`), retrying refused or
//!   unreachable dials over a bounded window (default 3 s; the
//!   supervision's `dial_window` widens it), so workers that come up
//!   moments after the driver still get their shard. The `k`-th address
//!   becomes shard `k`, and the shard count *is* the worker count. A
//!   multi-process run on one machine (`--multiprocess <worker>`) is the
//!   same topology with the driver as launcher: it spawns one
//!   `sim-shard-worker --listen 127.0.0.1:0` child per shard, reads each
//!   `LISTEN` line within a time bound, and dials the announced ports.
//! * **Handshake frame layout** (all frames `len:u32` little-endian
//!   length-prefixed; see [`exchange::stream`]): on accept the worker
//!   sends a *hello* `magic:u32 = "WUPS", version:u16`; the driver
//!   validates both and answers with a *handshake*
//!   `magic:u32, version:u16, ShardInit payload`
//!   ([`exchange::frames::encode_handshake`] — params, partition,
//!   environment models, oracle, bootstrap contacts). Every frame layout
//!   lives in [`exchange::frames`], and every decoder reads through the
//!   `whatsup-net` codec's fallible `Reader`. Version skew, a foreign
//!   peer, or a frame that does not decode (truncated, corrupted, a forged
//!   count, an unknown opcode) is a typed error naming the address on the
//!   driver and a one-line stderr exit on the worker — never a
//!   frame-decode panic or an allocation the frame does not back.
//! * **Failure paths** — connect and handshake are bounded by timeouts,
//!   so a dead or unreachable worker fails the run cleanly instead of
//!   hanging it. Mid-run, a worker that loses its driver (EOF/broken pipe
//!   before `Stop`) exits non-zero with a one-line message; a driver that
//!   loses a worker surfaces a typed [`exchange::TransportError`] naming
//!   the endpoint, and tearing the transport down stops the surviving
//!   workers (and kills + reaps the ones it spawned).
//! * **Determinism** — the contract below is transport-blind: a scenario
//!   report is bit-identical whether the shards run inline, as threads,
//!   as spawned local workers, or spread over socket workers on other
//!   machines, because every ordering and every RNG draw is fixed by the
//!   command protocol itself, not by who executes it (property-tested
//!   across all of them, CI-smoked over loopback sockets).
//!
//! # Supervision & recovery
//!
//! The byte-stream transport can be wrapped in
//! [`exchange::SupervisedTransport`] ([`crate::Runner::supervised`],
//! `whatsup-sim run --supervise`), which turns a crashed or hung worker
//! from a fatal [`exchange::TransportError`] into a recoverable event —
//! without changing a single byte of the final report. Three pieces:
//!
//! * **Checkpoints** — every `checkpoint_every` completed cycles the
//!   supervisor sends each shard a `TakeCheckpoint` command at the cycle
//!   boundary (mailboxes are provably drained there, so no in-flight mail
//!   is ever serialized). The `Checkpoint` reply is one frame
//!   ([`exchange::frames::Checkpoint`]) holding the shard's dynamic state
//!   via the standard codec: the partition, per-node channel states, known
//!   items sorted by id, the oracle copy, then per-node profile / RPS
//!   view / WUP view / seen-set / stats blocks (static state comes from
//!   the handshake; per-cycle counters live in the driver, so there is no
//!   counter residue to capture). A `Restore` command feeds the same frame
//!   back into a fresh worker, whose frame dispatch decodes and checks it
//!   against the shard's range before applying it, and is acknowledged
//!   with `Ack`. The driver keeps checkpoints as opaque bytes.
//! * **Command log + replay** — every command frame sent since the last
//!   checkpoint is logged (after its reply arrives) and cleared when a
//!   checkpoint succeeds. On a retryable failure the supervisor restarts
//!   the worker (a spawned worker is killed and respawned on a fresh
//!   port, a dialed address is redialed),
//!   re-runs the versioned handshake with the original `ShardInit`,
//!   restores the last checkpoint, replays the logged frames discarding
//!   their replies, then re-issues the in-flight command. Replay is exact
//!   because a shard is a deterministic function of
//!   `(init, command sequence)` — the determinism contract below means
//!   the replayed replies are byte-identical to the originals, so
//!   discarding them loses nothing and the driver above the
//!   [`exchange::ShardTransport`] trait never notices. The restart budget
//!   (`max_restarts` per shard) bounds the loop; when it is exhausted the
//!   *original* error surfaces, not the last recovery attempt's. Fatal
//!   errors (handshake magic/version skew, a malformed frame —
//!   [`exchange::TransportErrorKind::is_retryable`]) are never retried:
//!   a replay would reproduce them.
//! * **Hang detection** — the transport arms read/write deadlines on
//!   every stream, spawned or dialed, so a frozen worker trips a timeout
//!   (a retryable I/O error) instead of hanging the run. Initial dials
//!   retry over a bounded window, and supervised redials reuse it.
//!
//! The fault-injection suite (`tests/transport_faults.rs`) kills and
//! freezes workers mid-run, both spawned and dialed, and asserts the
//! recovered report is bit-identical to a fault-free run; CI repeats the
//! kill over loopback sockets and `cmp`s the report JSON.
//!
//! # Shard-exchange protocol
//!
//! On a byte stream a bundle is one wire frame; in-process it is the typed
//! mail that frame decodes to, and [`exchange::stream::handle_frame`] is
//! the only place that converts between the two (a unit test pins typed
//! and wire delivery to equal replies, payloads and registered news
//! content). View snapshots likewise stay typed
//! ([`whatsup_core::ColdStart`]) in process and are framed only by the
//! byte-stream transport.
//! Wire layout (see `whatsup_net::codec`): `tag=MAILBOX_BUNDLE`,
//! `from_shard:u32`, `count:u32`, then `count` entries of
//! `to:u32 len:u32 frame`, where `frame` is the standard single-message
//! wire frame — the simulator and the deployment stack share one message
//! encoding, so anything that crosses a shard boundary is by construction
//! expressible on the real network. News frames carry full item content;
//! receiving shards recompute ids and cache content for re-forwarding,
//! exactly like real receivers.
//!
//! Ordering guarantees, which make the exchange invisible to the results:
//!
//! * a bundle preserves the emitting shard's `(sender id, emission order)`
//!   order;
//! * receivers merge bundles in ascending source-shard order, and shard
//!   ranges are contiguous and ascending — so every mailbox ends up in the
//!   same global `(sender id, emission order)` total order a single-shard
//!   run produces;
//! * outcome folds (news receptions, churn resets) happen in ascending
//!   receiver order across shards.
//!
//! # Measurement pipeline
//!
//! Measurement is streaming and windowed, not a single end-of-run
//! aggregate. The driver accumulates a per-cycle counter block
//! ([`whatsup_metrics::CycleStats`]) from the phase replies every cycle
//! already produces — the counters ride the existing round-trips, so
//! there is no dedicated end-of-cycle counter exchange:
//!
//! * *gossip_sent* from the `Outbound` totals of the collect + gossip
//!   delivery rounds, *news_sent* from the publish + BFS rounds — lost
//!   messages included, mirroring the paper's "number of sent messages";
//! * *first_receptions* / *hits* as the per-receiver news outcomes are
//!   folded (a hit is a liked first reception);
//! * *interested* at publish time from the driver's own oracle (each item
//!   counted exactly once);
//! * *crashed* from the churn decisions and explicit node resets;
//!   *live_nodes* is stamped with the population total at the flush.
//!
//! At the end of every cycle the driver flushes the accumulator into the
//! run's [`whatsup_metrics::CycleSeries`]. Every input arrives through
//! reply folds that happen **in shard-index (or ascending receiver)
//! order**, and the fold is pure integer addition over that fixed order,
//! so the series inherits the engine's determinism contract verbatim:
//! **the full time series is bit-identical across shard counts and
//! transports** (property-tested in `tests/determinism.rs` and
//! `tests/scenario.rs`, CI-smoked by `cmp`ing report JSON across shard
//! counts).
//!
//! Because every epidemic completes within its publication cycle, one
//! cycle's pooled counters are exactly that cycle's micro-averaged IR
//! numbers, and the scenario's measurement windows
//! ([`crate::scenario::Measurement`]) are resolved against the finished
//! series at `into_report` time — window-scoped aggregates plus recovery
//! metrics (dip depth, time-to-recover, messages spent) for
//! event-anchored windows.
//!
//! # Hot path & allocation discipline
//!
//! The route → deliver loop runs millions of times per simulated cycle,
//! so its steady state is built to allocate nothing and copy bytes once:
//!
//! * **Arena mailboxes** — a shard's mailboxes are one contiguous arena
//!   (`Vec` of `(from, payload, next)` cells) plus per-node chain
//!   heads/tails, not one heap `Vec` per node. A route push is `O(1)` into
//!   the arena; a deliver drain walks the receiver's chain, moving each
//!   payload out and leaving an allocation-free empty behind; `recycle()`
//!   then clears the arena *keeping its capacity*, so after warm-up no
//!   delivery round allocates. Receiver lists cycle through a spare
//!   buffer (`take_receivers`/`restore_receiver_buf`) for the same
//!   reason.
//! * **Typed in-process exchange** — cross-shard mail between shard
//!   threads moves as typed values: the emitting shard's route step moves
//!   each payload into its destination's bundle, the driver moves the
//!   bundle into the receiving shard's command, and the receiver pushes
//!   the payloads into its arena. Nothing is encoded, decoded or copied,
//!   which matters because every news copy carries its aggregated item
//!   profile (`~2 KB` at 5k nodes).
//! * **Codec only behind byte streams** — a `sim-shard-worker`'s frame
//!   dispatch decodes inbound wire bundles with `codec::bundle_view`, an
//!   iterator of borrowed `(to, frame)` slices over the received buffer
//!   (no per-entry frame copies), and encodes the reply's outbound mail
//!   once, straight from the typed bundles. Churn snapshots travel the
//!   same way: typed `ColdStart` values between threads, frames only on a
//!   byte stream.
//! * **Staging reuse** — outbound routing drains the per-shard
//!   `emit_scratch` rather than dropping it, so its capacity carries
//!   cycle-over-cycle; the per-destination bundles it fills are consumed
//!   by their receivers.
//! * **Copy-on-write item profiles** — a news message carries its
//!   aggregated profile as an `Arc` ([`whatsup_core::SharedProfile`]):
//!   fanning one reception out to `fLIKE` targets clones the pointer, not
//!   the entries, and the next hop that actually aggregates builds its
//!   merged profile straight from the shared predecessor. In-process the
//!   `Arc` crosses shard boundaries as is. Behind a byte stream, the
//!   per-bundle `codec::NewsDecodeCache` restores the sharing on the
//!   receiving side: consecutive bundle entries with byte-identical item
//!   content or profile spans reuse one parse (byte equality is exact —
//!   the decoders are pure functions of the bytes).
//! * **Profile fingerprints** — every [`whatsup_core::Profile`] maintains
//!   a 128-bit Bloom fingerprint of its rated items at mutation time; the
//!   similarity metrics reject provably disjoint pairs before the scalar
//!   merge-join scan. The rejection is exact for the metrics' semantics
//!   (no shared rated item ⇒ the score is `+0.0` bit-for-bit), so the
//!   fast path cannot perturb determinism — property-tested against the
//!   scan-only reference implementations in `whatsup_core::similarity`.
//! * **Memoized view-merge scores** — each node caches WUP merge
//!   similarity scores keyed by candidate-snapshot identity (`Arc`
//!   address, entry pinning its snapshot alive so the address cannot be
//!   reused) and clears the cache whenever its own profile mutates; a hit
//!   returns the exact `f64` the metric would recompute on the same
//!   operands, so ranking order — and every downstream bit — is
//!   unchanged.
//!
//! None of this changes observable ordering: the arena preserves push
//! order per receiver, routing preserves `(sender id, emission order)`,
//! and the borrowed decode yields entries in exactly the order the
//! encoder wrote. The determinism suites (shard counts × transports) are
//! the regression net for that claim.
//!
//! # Memory model
//!
//! At scale the footprint is **standing live state, not transient
//! spikes**: peak RSS equals the standing RSS at every cycle boundary
//! (measured by the counting-allocator probe in
//! `bench/examples/hotpath_probe.rs`), and allocator overhead is ~10% of
//! RSS — so the only levers that matter are the bytes the protocol
//! actually keeps alive. The budget below is the measured breakdown of a
//! 100 k-node, 10-cycle uniform run (1 shard, metrics off,
//! `Simulation::memory_breakdown`); absolute numbers scale with nodes ×
//! cycles × publication rate, the *shape* is what to remember:
//!
//! | standing state                | 100 k example | grows with                  |
//! |-------------------------------|--------------:|-----------------------------|
//! | own profiles                  |      ~210 MiB | rated items per node        |
//! | pinned view snapshots         |      ~260 MiB | view size × profile size    |
//! | seen sets                     |       ~95 MiB | receptions per node (8 B/id)|
//! | view descriptors + score memo |       ~60 MiB | view size (memo dropped)    |
//! | item records (driver)         |      ~120 MiB | receptions per item         |
//! | mailbox arena + scratch       |       ~40 MiB | peak per-round traffic      |
//! | oracle (CSR)                  |   likes-sized | non-zero likes (4 B each)   |
//!
//! What keeps each row tight:
//!
//! * **Exact-fit compaction** — at every cycle start
//!   ([`shard::ShardState`]'s collect) each node runs
//!   [`whatsup_core::WhatsUpNode::compact`]: profile and seen-set
//!   capacity slack from amortized growth is trimmed to fit (capacities
//!   never influence behavior, so this is invisible to reports), and the
//!   merge-score memo is dropped. The memo is *also* dropped at
//!   `BeginNews` — its hits all happen within a gossip phase, so holding
//!   it (and the candidate snapshots it pins) across the news phase
//!   would stack dead weight under live growth.
//! * **Snapshot sharing** — a disclosed profile is one `Arc` allocation
//!   shared by every view slot and in-flight message that references it,
//!   on every in-process shard: typed cross-shard mail carries the `Arc`
//!   itself. "Pinned view snapshots" counts each allocation once across
//!   all shards (deduplicated by address, excluding every shard's own
//!   profiles), and a unit test keeps the 2-shard figure within 1.25× of
//!   1 shard. Byte-stream workers decode their own copies; only the
//!   per-bundle decode cache shares them, so interning remote profiles
//!   would only pay off there.
//! * **Sparse oracle** — [`crate::Oracle`] holds likes as CSR or dense
//!   bit-plane, chosen by measured byte cost
//!   (`whatsup_datasets::LikeStore`), and is **process-`Arc`-shared**:
//!   in-process transports hand every shard one pointer. Only
//!   `sim-shard-worker` processes (spawned or remote) pay one copy per
//!   worker, which is the price of actually being distributed.
//! * **Report data is sacred** — item records (per-reception hop and
//!   opinion vectors) feed `SimReport` and cannot be thinned without
//!   changing results; they are driver-owned and exist once regardless
//!   of shard count.
//!
//! Ownership is strictly two-tier. **Shard-owned** (per shard, moves
//! with its partition): node protocol stacks, mailbox arena and scratch,
//! phase RNGs, per-node stats. **Process-shared** (one per process,
//! `Arc`): the oracle and the dataset's item table. Nothing is globally
//! mutable — a shard can be checkpointed, moved, or restored from its
//! own frame alone ([`exchange::SupervisedTransport`]).
//!
//! [`partition::Partition`] is load-aware: `Partition::plan` consumes
//! the scenario's scheduled joins so shards are balanced by their
//! *eventual* node counts, not the bootstrap counts — the contract is
//! that contiguous ascending id ranges cover the final population
//! exactly, and the determinism section below makes the boundary
//! placement invisible to results (only to per-shard RSS).
//!
//! # Determinism contract & static checks
//!
//! Reports are **bit-identical across shard counts and transports**
//! (including the single-shard inline case) for a fixed seed, because no
//! randomness or ordering leaks from the partitioned execution:
//!
//! * every node draws from its own counter-based RNG stream, derived by
//!   [`node_stream`]`(seed, node, cycle, phase)` — never from a shared
//!   generator, and never dependent on how many other nodes exist, where
//!   the shard boundaries fall, or which transport moves the bundles.
//!   Adding nodes (`add_joining_node`) therefore never shifts the streams
//!   of existing nodes;
//! * mailbox contents and the driver folds follow the fixed total orders
//!   above;
//! * message-loss coins are drawn from the *receiver's* stream at delivery
//!   time, in mailbox order;
//! * churn rejoins inherit contact views snapshotted from the pre-churn
//!   state, so application order cannot matter;
//! * the wire codec is lossless for everything behavior depends on
//!   (profiles round-trip entry-exact, scores bit-exact, item ids are
//!   recomputed from identical content), so a byte-stream worker fed
//!   decoded mail handles exactly the payloads an in-process shard
//!   receives as typed values.
//!
//! The interactive mutators (`add_joining_node`, `swap_interests`,
//! `reset_node`) draw from a dedicated engine RNG on the driving thread and
//! are deterministic in call order. They run through the same shard
//! commands as the scenario events below, so they work on every transport.
//!
//! The contract is *enforced statically* by the in-tree `whatsup-lint`
//! pass (`cargo run -p whatsup-lint -- --check`, a blocking CI gate):
//! `det-map` forbids `HashMap`/`HashSet` in the crates that feed a
//! `SimReport` — unspecified iteration order is exactly the kind of
//! nondeterminism the property tests can miss — and `det-clock` forbids
//! `Instant::now`/`SystemTime` outside the real-network runtime, so
//! simulated time stays the only clock the engines can observe. Sites
//! that are individually safe (probe-only maps keyed by the deterministic
//! `BuildIdHasher`, maps whose iteration is sorted before it escapes)
//! carry a `// lint:allow(<rule>) <reason>` annotation, which the lint
//! records in its report instead of suppressing silently — the audit
//! trail for every exception lives next to the code it excuses.
//!
//! # Scenario application points
//!
//! A [`crate::scenario::Scenario`] is applied entirely at phase boundaries,
//! which is what extends the determinism contract to every scenario. In
//! cycle order:
//!
//! 1. **Start of cycle** (before collect): the churn model's mass-join
//!    arrivals, then every timeline event stamped `at == cycle`, in list
//!    order. Joins and resets draw their random contact from the driver's
//!    engine RNG (one stream, driving thread, call order = list order) and
//!    move view snapshots via `TakeSnapshots`/`Admit`/`ApplyChurn`
//!    commands; interest swaps broadcast `SwapInterests` so every shard's
//!    oracle copy stays in lockstep.
//! 2. **Collect**: each shard advances its nodes' Gilbert–Elliott channel
//!    chains (one transition per node per cycle, from the node's CHANNEL
//!    stream) before emitting; the states are fixed for the whole cycle.
//! 3. **Deliver (gossip and news)**: the loss model drops messages at the
//!    receiver — constant and Gilbert–Elliott draw one coin per message
//!    from the receiver's phase stream (no draw when the effective
//!    probability is zero); a partition window drops frontier-crossing
//!    messages deterministically, coin-free.
//! 4. **Churn phase**: the churn model's `crash_rate(cycle)` feeds the
//!    per-node crash coins (uniform churn has a constant rate; a crash
//!    wave is non-zero for exactly one cycle).
//! 5. **Publish**: the workload's schedule decides which items publish
//!    this cycle; dissemination itself is scenario-independent. Delivery
//!    round-trips skip shards with no inbound mail (empty bundles
//!    everywhere and nothing pending locally) — a pure traffic
//!    optimization in the sparse BFS tail that cannot change any mailbox.
//!
//! The workload schedule is a pure function of `(workload, config,
//! topics)` computed once at build time; it never consumes engine
//! randomness.

pub mod driver;
pub mod exchange;
pub mod mailbox;
pub mod partition;
pub mod shard;

pub use driver::{planned_shard_node_counts, Simulation};
pub use exchange::{
    Bundle, ChannelTransport, Command, Reply, ShardTransport, SocketTransport, SupervisedTransport,
    Supervision, TransportError,
};
pub use partition::Partition;
pub use shard::{ShardInit, ShardState};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use whatsup_core::NodeId;

/// Phase tags for [`node_stream`] derivation. Distinct phases of the same
/// cycle must never share a stream, or coins drawn in one phase would shift
/// draws in another depending on message volume.
pub mod phase {
    /// `on_cycle` emissions (RPS/WUP initiation).
    pub const CYCLE: u8 = 0;
    /// Gossip mailbox drains (request/response handling + loss coins).
    pub const GOSSIP: u8 = 1;
    /// Churn crash coin and rejoin contact choice.
    pub const CHURN: u8 = 2;
    /// News delivery (BEEP decisions + loss coins).
    pub const NEWS: u8 = 3;
    /// Gilbert–Elliott channel-state transition (scenario loss models).
    pub const CHANNEL: u8 = 4;
}

/// SplitMix64 finalizer.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The counter-based per-node RNG stream for one `(cycle, phase)`.
///
/// A pure function of its arguments: independent of node count, execution
/// order, shard boundaries and transport. This is the engine's only source
/// of randomness inside a cycle.
pub fn node_stream(seed: u64, node: NodeId, cycle: u32, phase: u8) -> ChaCha8Rng {
    const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = mix64(seed ^ GOLDEN.wrapping_mul(node as u64 ^ 0xfeed_5eed));
    h = mix64(h ^ GOLDEN.wrapping_mul(cycle as u64 + 1));
    h = mix64(h ^ GOLDEN.wrapping_mul(phase as u64 + 1));
    ChaCha8Rng::seed_from_u64(h)
}
