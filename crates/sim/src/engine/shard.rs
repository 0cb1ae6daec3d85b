//! One shard: the node states of a contiguous id range plus the phase
//! logic the driver orchestrates.
//!
//! A shard mutates only its own nodes. Everything it learns about the rest
//! of the network arrives as mailbox bundles or snapshot requests through
//! the exchange protocol, and everything it emits leaves the same way —
//! which is exactly what keeps the execution identical across shard counts
//! and transports (see the module docs of [`crate::engine`]).

use crate::engine::exchange::frames::{self, Checkpoint};
use crate::engine::exchange::{Bundle, Command, FirstReception, NewsOutcome, Outbound, Reply};
use crate::engine::mailbox::{MailEntry, Mailbox};
use crate::engine::partition::Partition;
use crate::engine::{node_stream, phase};
use crate::oracle::Oracle;
use crate::scenario::{ChurnModel, LossModel};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
// lint:allow(det-map) import for the probe-only item store annotated below
use std::collections::HashMap;
use whatsup_core::{
    ColdStart, ItemId, NewsItem, NodeId, NodeStats, Opinions, OutMessage, Params, Payload, Profile,
    SharedProfile, WhatsUpNode,
};

/// Fixed-item opinion view for the news phase: one publication round
/// delivers exactly one item, so the oracle's id→index map is probed once
/// per round here instead of once per reception (millions of map lookups
/// per cycle at scale).
struct ItemOpinions<'a> {
    oracle: &'a Oracle,
    /// Dataset index of the round's item; `None` for an unknown item
    /// (outside the workload — nobody likes it).
    idx: Option<u32>,
}

impl Opinions for ItemOpinions<'_> {
    fn likes(&self, node: NodeId, _item: ItemId) -> bool {
        match self.idx {
            Some(ix) => self.oracle.likes_index(node, ix),
            None => false,
        }
    }
}

/// Everything needed to build one shard's state — produced by the driver,
/// consumed directly (in-process) or via the handshake frame
/// ([`frames::encode_handshake`], worker processes). Both paths construct
/// through [`ShardState::from_init`], so the transports cannot diverge at
/// bootstrap.
#[derive(Debug, Clone)]
pub struct ShardInit {
    pub index: usize,
    pub partition: Partition,
    pub seed: u64,
    pub loss: LossModel,
    pub churn: ChurnModel,
    pub params: Params,
    pub oracle: Oracle,
    /// Bootstrap contacts per owned node, in local id order (drawn by the
    /// driver so the engine RNG stays on the driving thread).
    pub bootstrap: Vec<Vec<NodeId>>,
}

/// The owned state of one shard.
pub struct ShardState {
    index: usize,
    partition: Partition,
    seed: u64,
    loss: LossModel,
    churn: ChurnModel,
    /// Per-node Gilbert–Elliott channel state (`true` = Bad), advanced once
    /// per cycle at the collect phase from each node's CHANNEL stream. The
    /// channel belongs to the *network*, so churn resets leave it alone;
    /// unused (all-Good) under the other loss models.
    channel_bad: Vec<bool>,
    params: Params,
    /// This shard's oracle copy; the driver keeps every copy in lockstep
    /// when interests are re-mapped.
    oracle: Oracle,
    nodes: Vec<WhatsUpNode>,
    /// Per-node counters, SoA: parallel to [`Self::nodes`]. Cold data the
    /// hot loops only append to — keeping it out of [`WhatsUpNode`] keeps
    /// node iteration from dragging the counter bytes through cache.
    node_stats: Vec<NodeStats>,
    /// Per-node phase RNGs, lazily derived per `(cycle, phase)`.
    phase_rngs: Vec<Option<ChaCha8Rng>>,
    mailbox: Mailbox,
    /// Self-destined emissions of the current round, merged (unserialized)
    /// into the mailboxes at this shard's slot of the next deliver.
    pending_local: Vec<MailEntry>,
    /// News content this shard can re-encode (learned from publishes and
    /// inbound news frames, like a real receiver). Only the byte-stream
    /// boundary ([`crate::engine::exchange::stream::handle_frame`]) reads
    /// it; in-process mail never encodes.
    // lint:allow(det-map) BuildIdHasher keys, probed by id only; checkpoint encode sorts entries
    pub(crate) known_items: HashMap<ItemId, NewsItem, whatsup_core::hash::BuildIdHasher>,
    /// Route-phase staging, reused round-over-round (capacity kept): the
    /// emissions of the current phase loop, which [`Self::route_out`]
    /// groups by destination shard.
    emit_scratch: Vec<(NodeId, OutMessage)>,
}

impl ShardState {
    /// Builds the shard: fresh nodes for the owned range, views seeded from
    /// the driver-drawn bootstrap contacts (empty profiles, RPS gets all
    /// contacts, WUP the first half).
    pub fn from_init(init: ShardInit) -> Self {
        let range = init.partition.range(init.index);
        assert_eq!(range.len(), init.bootstrap.len(), "bootstrap list mismatch");
        let mut nodes = Vec::with_capacity(range.len());
        // Every bootstrap descriptor carries the same empty profile: one
        // allocation for the whole shard instead of one per view slot.
        let empty = SharedProfile::new(Profile::new());
        for (local, id) in range.clone().enumerate() {
            let mut node = WhatsUpNode::new(id, init.params.clone());
            let contacts = &init.bootstrap[local];
            let wup_take = (contacts.len() / 2).max(1);
            node.seed_views_arcs(
                contacts.iter().map(|&c| (c, SharedProfile::clone(&empty))),
                contacts
                    .iter()
                    .take(wup_take)
                    .map(|&c| (c, SharedProfile::clone(&empty))),
            );
            nodes.push(node);
        }
        let n_local = nodes.len();
        Self {
            index: init.index,
            partition: init.partition,
            seed: init.seed,
            loss: init.loss,
            churn: init.churn,
            channel_bad: vec![false; n_local],
            params: init.params,
            oracle: init.oracle,
            nodes,
            node_stats: vec![NodeStats::default(); n_local],
            phase_rngs: vec![None; n_local],
            mailbox: Mailbox::new(range),
            pending_local: Vec::new(),
            known_items: HashMap::default(), // lint:allow(det-map) see field declaration
            emit_scratch: Vec::new(),
        }
    }

    pub fn index(&self) -> usize {
        self.index
    }

    fn base(&self) -> NodeId {
        self.partition.range(self.index).start
    }

    fn local(&self, id: NodeId) -> usize {
        let local = id
            .checked_sub(self.base())
            .expect("node not owned by this shard") as usize;
        assert!(local < self.nodes.len(), "node not owned by this shard");
        local
    }

    /// The owned node `id`.
    pub fn node(&self, id: NodeId) -> &WhatsUpNode {
        &self.nodes[self.local(id)]
    }

    /// The owned nodes, in id order.
    pub fn nodes(&self) -> &[WhatsUpNode] {
        &self.nodes
    }

    /// View snapshot of an owned node.
    pub fn snapshot_of(&self, id: NodeId) -> ColdStart {
        self.node(id).views_snapshot()
    }

    /// Addresses of the owned nodes' live profiles — the keys
    /// [`Self::memory_breakdown`] excludes from pinned snapshots.
    pub(crate) fn own_profile_keys(&self) -> impl Iterator<Item = usize> + '_ {
        self.nodes
            .iter()
            .map(|n| n.profile().entries().as_ptr() as usize)
    }

    /// Heap accounting by component (diagnostics; backs the byte-budget
    /// table in the engine module docs). Returns `(component, bytes)`
    /// rows. In-process shards share profile `Arc`s, so the snapshot dedup
    /// state spans the whole simulation: a pinned profile counts once, on
    /// the first shard that reaches it (its address enters `pinned`), and
    /// any node's own live profile (`own`, from every shard's
    /// [`Self::own_profile_keys`]) is never counted as a snapshot.
    pub(crate) fn memory_breakdown(
        &self,
        // lint:allow(det-map) membership probe only; never iterated
        own: &std::collections::HashSet<usize>,
        // lint:allow(det-map) dedup probe for byte totals; never iterated
        pinned: &mut std::collections::HashSet<usize>,
    ) -> Vec<(&'static str, usize)> {
        let mut profiles = 0usize;
        let mut seen = 0usize;
        let mut caches = 0usize;
        let mut snapshot_bytes = 0usize;
        for node in &self.nodes {
            let (p, s, c) = node.debug_heap_stats(&mut |shared| {
                let key = shared.entries().as_ptr() as usize;
                if !own.contains(&key) && pinned.insert(key) {
                    // Two allocations per snapshot: the Arc block (counts +
                    // Profile struct) and the entries buffer (capacity).
                    snapshot_bytes += shared.entries_capacity()
                        * std::mem::size_of::<whatsup_core::profile::ProfileEntry>()
                        + std::mem::size_of::<whatsup_core::profile::Profile>()
                        + 16;
                }
            });
            profiles += p;
            seen += s;
            caches += c;
        }
        vec![
            ("own profiles", profiles),
            ("pinned snapshots", snapshot_bytes),
            ("seen sets", seen),
            ("node caches", caches),
            ("mailbox arena", self.mailbox.capacity_bytes()),
            (
                "emit scratch",
                self.emit_scratch.capacity() * std::mem::size_of::<(NodeId, OutMessage)>(),
            ),
            (
                "pending local",
                self.pending_local.capacity() * std::mem::size_of::<MailEntry>(),
            ),
            (
                "phase rngs",
                self.phase_rngs.capacity() * std::mem::size_of::<Option<ChaCha8Rng>>(),
            ),
        ]
    }

    /// Registers a node joining at the end of the id space with interests
    /// cloned from `reference`. Every shard updates its partition and
    /// oracle copies; the owning (last) shard additionally receives the
    /// rejoin view `snapshot` and builds the node from it (§II-D cold
    /// start).
    pub fn admit(&mut self, reference: NodeId, snapshot: Option<ColdStart>) {
        self.oracle.add_clone_of(reference);
        let id = self.partition.push_node();
        if let Some(snapshot) = snapshot {
            assert_eq!(
                self.index + 1,
                self.partition.n_shards(),
                "joiners belong to the last shard"
            );
            let mut node = WhatsUpNode::new(id, self.params.clone());
            node.cold_start(snapshot, &self.oracle);
            self.nodes.push(node);
            self.node_stats.push(NodeStats::default());
            self.phase_rngs.push(None);
            self.channel_bad.push(false);
            self.mailbox.grow();
        }
    }

    /// Executes one phase command. The single entry point shared by the
    /// inline driver, the channel workers and the worker processes.
    pub fn handle(&mut self, cmd: Command) -> Reply {
        match cmd {
            Command::Collect { cycle } => Reply::Outbound(self.collect(cycle)),
            Command::DeliverGossip { cycle, bundles } => {
                Reply::Outbound(self.deliver_gossip(cycle, bundles))
            }
            Command::ChurnDecide { cycle } => Reply::ChurnDecisions(self.churn_decide(cycle)),
            Command::TakeSnapshots { ids } => {
                Reply::Snapshots(ids.iter().map(|&id| self.snapshot_of(id)).collect())
            }
            Command::ApplyChurn { resets } => {
                self.apply_churn(resets);
                Reply::Ack
            }
            Command::Admit {
                reference,
                snapshot,
            } => {
                self.admit(reference, snapshot);
                Reply::Ack
            }
            Command::SwapInterests { a, b } => {
                self.oracle.swap_interests(a, b);
                Reply::Ack
            }
            Command::BeginNews => {
                self.phase_rngs.iter_mut().for_each(|r| *r = None);
                // Gossip is over for this cycle: the merge-score memo's
                // hits all happen within a gossip phase, so drop it (and
                // the candidate snapshots it pins) before the news phase
                // grows into the freed memory. Probe-only — see
                // `WhatsUpNode::drop_score_memo`.
                self.nodes.iter_mut().for_each(WhatsUpNode::drop_score_memo);
                Reply::Ack
            }
            Command::Publish { cycle, item } => self.publish(cycle, item),
            Command::DeliverNews {
                cycle,
                item,
                bundles,
            } => self.deliver_news(cycle, item, bundles),
            Command::TakeCheckpoint => {
                Reply::Checkpoint(frames::encode_checkpoint(&self.checkpoint()))
            }
            // Only byte-stream workers checkpoint, and their dispatch
            // decodes and applies the frame before a command reaches here.
            Command::Restore { .. } => panic!("checkpoint frame reached the shard undecoded"),
            Command::Stop => Reply::Ack,
        }
    }

    /// This shard's full dynamic state, for a checkpoint frame (layout in
    /// [`frames`]). Static state (`index`, `seed`, loss/churn models,
    /// params) is left out: a restoring worker already received it in its
    /// handshake. Phase RNGs are derived per `(cycle, phase)` and the
    /// restart replays from a cycle boundary, so no RNG state is captured.
    ///
    /// # Panics
    /// Panics if any mail is in flight — checkpoints are only meaningful at
    /// cycle boundaries, where every mailbox is provably drained.
    pub fn checkpoint(&self) -> Checkpoint {
        assert!(
            self.mailbox.is_empty() && self.pending_local.is_empty(),
            "checkpoint requires an empty mailbox (cycle boundary)"
        );
        // HashMap iteration order is unspecified; sort for a canonical
        // frame (identical shards must checkpoint to identical bytes).
        let mut known_items: Vec<NewsItem> = self.known_items.values().cloned().collect();
        known_items.sort_unstable_by_key(NewsItem::id);
        Checkpoint {
            partition: self.partition.clone(),
            channel_bad: self.channel_bad.clone(),
            known_items,
            oracle: self.oracle.clone(),
            nodes: self
                .nodes
                .iter()
                .zip(&self.node_stats)
                .map(|(node, stats)| (node.export_state(), *stats))
                .collect(),
        }
    }

    /// Replaces this shard's dynamic state with a decoded checkpoint
    /// (recovery path; [`frames::decode_checkpoint`] checked it against
    /// this shard's range). Mailboxes start empty and phase RNGs re-derive
    /// on first use.
    pub fn restore(&mut self, cp: Checkpoint) {
        self.partition = cp.partition;
        self.channel_bad = cp.channel_bad;
        self.known_items = cp.known_items.into_iter().map(|i| (i.id(), i)).collect();
        self.oracle = cp.oracle;
        let range = self.partition.range(self.index);
        self.node_stats = cp.nodes.iter().map(|(_, stats)| *stats).collect();
        let params = &self.params;
        self.nodes = (range.clone().zip(cp.nodes))
            .map(|(id, (state, _))| WhatsUpNode::from_state(id, params.clone(), state))
            .collect();
        self.phase_rngs = vec![None; self.nodes.len()];
        self.mailbox = Mailbox::new(range);
        self.pending_local = Vec::new();
    }

    /// Groups the staged emissions ([`Self::emit_scratch`]) by destination
    /// shard: local mail queues in the pending queue, remote mail becomes
    /// one typed [`Bundle::Mail`] per destination (in emission order, which
    /// the emitting loops keep in `(sender id, emission order)` order).
    /// The staging buffer is drained, not dropped — its capacity carries to
    /// the next round.
    fn route_out(&mut self) -> Outbound {
        let shards = self.partition.n_shards();
        let sent = self.emit_scratch.len() as u64;
        let mut local = 0u64;
        let mut mail: Vec<Vec<(NodeId, NodeId, Payload)>> = vec![Vec::new(); shards];
        for (from, m) in self.emit_scratch.drain(..) {
            let dest = self.partition.shard_of(m.to);
            if dest == self.index {
                local += 1;
                self.pending_local.push(MailEntry {
                    to: m.to,
                    from,
                    payload: m.payload,
                });
            } else {
                mail[dest].push((m.to, from, m.payload));
            }
        }
        Outbound {
            sent,
            local,
            bundles: mail.into_iter().map(Bundle::Mail).collect(),
        }
    }

    /// Merges one round's inbound mail into the per-node mailboxes, in
    /// ascending source-shard order (this shard's own pending queue takes
    /// its slot). With contiguous ascending shard ranges this reproduces
    /// the global `(sender id, emission order)` mailbox order of a
    /// single-shard run.
    ///
    /// # Panics
    /// Panics on a non-empty [`Bundle::Wire`]: byte-stream mail is decoded
    /// by [`crate::engine::exchange::stream::handle_frame`] before the
    /// command reaches the shard.
    fn merge_inbound(&mut self, bundles: Vec<Bundle>) {
        debug_assert_eq!(bundles.len(), self.partition.n_shards());
        for (src, bundle) in bundles.into_iter().enumerate() {
            if src == self.index {
                for entry in self.pending_local.drain(..) {
                    self.mailbox.push(entry);
                }
                continue;
            }
            match bundle {
                Bundle::Mail(mail) => {
                    for (to, from, payload) in mail {
                        self.mailbox.push_parts(to, from, payload);
                    }
                }
                Bundle::Wire(frame) => {
                    assert!(frame.is_empty(), "wire bundle reached the shard undecoded");
                }
            }
        }
    }

    /// Advances the per-node Gilbert–Elliott channel chains (one transition
    /// per cycle, from each node's CHANNEL stream). No-op for the other
    /// loss models.
    fn advance_channels(&mut self, cycle: u32) {
        let LossModel::GilbertElliott {
            good_to_bad,
            bad_to_good,
            ..
        } = self.loss
        else {
            return;
        };
        let base = self.base();
        for (local, bad) in self.channel_bad.iter_mut().enumerate() {
            let flip = if *bad { bad_to_good } else { good_to_bad };
            if flip > 0.0 {
                let id = base + local as NodeId;
                let mut rng = node_stream(self.seed, id, cycle, phase::CHANNEL);
                if rng.gen_bool(flip) {
                    *bad = !*bad;
                }
            }
        }
    }

    /// Collect phase: every owned node's cycle tick, in id order.
    fn collect(&mut self, cycle: u32) -> Outbound {
        // Cycle start: trim last cycle's allocation slack before growing
        // again (capacities never influence behavior — see
        // `WhatsUpNode::compact`). This keeps standing memory proportional
        // to live state instead of ratcheting to every Vec's high-water.
        self.nodes.iter_mut().for_each(WhatsUpNode::compact);
        // Fresh gossip-phase streams for the delivery rounds that follow,
        // and this cycle's channel states for the loss coins.
        self.phase_rngs.iter_mut().for_each(|r| *r = None);
        self.advance_channels(cycle);
        let base = self.base();
        let seed = self.seed;
        let Self {
            nodes,
            node_stats,
            emit_scratch,
            ..
        } = self;
        {
            for (local, node) in nodes.iter_mut().enumerate() {
                let id = base + local as NodeId;
                let mut rng = node_stream(seed, id, cycle, phase::CYCLE);
                for m in node.on_cycle(cycle, &mut node_stats[local], &mut rng) {
                    emit_scratch.push((id, m));
                }
            }
        }
        self.route_out()
    }

    /// The active partition frontier at `cycle`, if the loss model opens a
    /// split window: node ids below the cut form one side.
    fn partition_cut(&self, cycle: u32) -> Option<NodeId> {
        if let LossModel::Partition {
            from,
            until,
            frontier,
        } = self.loss
        {
            if cycle >= from && cycle < until {
                return Some((frontier * self.partition.total() as f64).floor() as NodeId);
            }
        }
        None
    }

    /// One gossip delivery round over the owned receivers, ascending.
    fn deliver_gossip(&mut self, cycle: u32, bundles: Vec<Bundle>) -> Outbound {
        self.merge_inbound(bundles);
        let receivers = self.mailbox.take_receivers();
        let base = self.base();
        let seed = self.seed;
        let loss = self.loss;
        let cut = self.partition_cut(cycle);
        let Self {
            nodes,
            node_stats,
            phase_rngs,
            mailbox,
            oracle,
            channel_bad,
            emit_scratch,
            ..
        } = self;
        for &id in &receivers {
            let local = (id - base) as usize;
            let rng = phase_rngs[local]
                .get_or_insert_with(|| node_stream(seed, id, cycle, phase::GOSSIP));
            let node = &mut nodes[local];
            let stats = &mut node_stats[local];
            mailbox.drain_mail(id, |from, payload| {
                if message_dropped(loss, channel_bad[local], cut, from, id, rng) {
                    return;
                }
                for reply in node.on_message(from, payload, cycle, oracle, stats, rng) {
                    debug_assert!(
                        !matches!(reply.payload, Payload::News(_)),
                        "news cannot appear in the gossip phase"
                    );
                    emit_scratch.push((id, reply));
                }
            });
        }
        mailbox.restore_receiver_buf(receivers);
        mailbox.recycle();
        self.route_out()
    }

    /// Churn coins for the owned nodes: each node crashes with probability
    /// `churn` and picks a uniform rejoin contact from the whole
    /// population, all from its own CHURN stream.
    fn churn_decide(&mut self, cycle: u32) -> Vec<(NodeId, NodeId)> {
        let n = self.partition.total();
        let rate = self.churn.crash_rate(cycle);
        let mut pairs = Vec::new();
        if rate == 0.0 {
            return pairs;
        }
        for id in self.partition.range(self.index) {
            let mut rng = node_stream(self.seed, id, cycle, phase::CHURN);
            if rng.gen_bool(rate) {
                let contact = loop {
                    let c = rng.gen_range(0..n);
                    if c != id as usize {
                        break c;
                    }
                };
                pairs.push((id, contact as NodeId));
            }
        }
        pairs
    }

    /// Applies churn resets: each crashed node rejoins as a fresh instance
    /// cold-started from its contact's (pre-churn) view snapshot. Snapshot
    /// state makes the application order irrelevant.
    fn apply_churn(&mut self, resets: Vec<(NodeId, ColdStart)>) {
        for (id, snapshot) in resets {
            let mut fresh = WhatsUpNode::new(id, self.params.clone());
            fresh.cold_start(snapshot, &self.oracle);
            let local = self.local(id);
            self.nodes[local] = fresh;
            // A rejoining node is a fresh instance: its counters restart
            // with it, exactly as when they lived inside the node.
            self.node_stats[local] = NodeStats::default();
        }
    }

    /// Publishes `item` from its source node (owned by this shard), drawing
    /// from the source's NEWS stream (shared with its deliveries this
    /// cycle).
    fn publish(&mut self, cycle: u32, item: NewsItem) -> Reply {
        let item_id = item.id();
        self.known_items.insert(item_id, item.clone());
        let source = item.source;
        let local = self.local(source);
        let seed = self.seed;
        let out = {
            let rng = self.phase_rngs[local]
                .get_or_insert_with(|| node_stream(seed, source, cycle, phase::NEWS));
            self.nodes[local].publish(&item, cycle, &mut self.node_stats[local], rng)
        };
        let first_forward_hop = match out.first().map(|m| &m.payload) {
            Some(Payload::News(first)) => Some(first.hops),
            _ => None,
        };
        self.emit_scratch
            .extend(out.into_iter().map(|m| (source, m)));
        let out = self.route_out();
        Reply::Published {
            first_forward_hop,
            out,
        }
    }

    /// One news (BFS) delivery round over the owned receivers, ascending,
    /// reporting per-receiver reception outcomes for the driver's fold.
    fn deliver_news(&mut self, cycle: u32, item_id: ItemId, bundles: Vec<Bundle>) -> Reply {
        self.merge_inbound(bundles);
        let receivers = self.mailbox.take_receivers();
        let base = self.base();
        let seed = self.seed;
        let loss = self.loss;
        let cut = self.partition_cut(cycle);
        let mut outcomes = Vec::with_capacity(receivers.len());
        let Self {
            nodes,
            node_stats,
            phase_rngs,
            mailbox,
            oracle,
            channel_bad,
            emit_scratch,
            ..
        } = self;
        let oracle: &Oracle = oracle;
        let opinions = ItemOpinions {
            oracle,
            idx: oracle.index_of(item_id),
        };
        for &id in &receivers {
            let local = (id - base) as usize;
            let rng =
                phase_rngs[local].get_or_insert_with(|| node_stream(seed, id, cycle, phase::NEWS));
            let node = &mut nodes[local];
            let stats = &mut node_stats[local];
            // Fixed per (receiver, round): hoisted out of the per-message
            // closure instead of re-resolving on every copy.
            let receiver_likes = opinions.likes(id, item_id);
            let mut outcome = NewsOutcome {
                receiver: id,
                first: None,
                forward: None,
            };
            mailbox.drain_mail(id, |from, payload| {
                if message_dropped(loss, channel_bad[local], cut, from, id, rng) {
                    return;
                }
                let Payload::News(news) = &payload else {
                    unreachable!("only news flows in the publication phase")
                };
                debug_assert_eq!(news.header.id, item_id);
                if !node.has_seen(item_id) {
                    outcome.first = Some(FirstReception {
                        hop: news.hops + 1,
                        sender_liked: opinions.likes(from, item_id),
                        receiver_likes,
                        dislikes: news.dislikes,
                    });
                }
                let replies = node.on_message(from, payload, cycle, &opinions, stats, rng);
                if let Some(Payload::News(first_out)) = replies.first().map(|m| &m.payload) {
                    outcome.forward = Some((first_out.hops, receiver_likes));
                }
                emit_scratch.extend(replies.into_iter().map(|m| (id, m)));
            });
            outcomes.push(outcome);
        }
        mailbox.restore_receiver_buf(receivers);
        mailbox.recycle();
        let out = self.route_out();
        Reply::NewsDelivered { out, outcomes }
    }
}

/// Whether one message `from → to` is dropped at delivery time.
///
/// Constant and Gilbert–Elliott losses draw one coin from the *receiver's*
/// phase stream per message (never when the effective probability is zero,
/// so lossless runs draw nothing); the partition window is deterministic —
/// a message crossing the id-space `cut` during the window always drops.
fn message_dropped(
    loss: LossModel,
    receiver_bad: bool,
    cut: Option<NodeId>,
    from: NodeId,
    to: NodeId,
    rng: &mut ChaCha8Rng,
) -> bool {
    match loss {
        LossModel::Constant { p } => p > 0.0 && rng.gen_bool(p),
        LossModel::GilbertElliott { p_good, p_bad, .. } => {
            let p = if receiver_bad { p_bad } else { p_good };
            p > 0.0 && rng.gen_bool(p)
        }
        LossModel::Partition { .. } => match cut {
            Some(cut) => (from < cut) != (to < cut),
            None => false,
        },
    }
}

/// The channel-worker serve loop: pull [`Command`] *values*, dispatch
/// through [`ShardState::handle`], push [`Reply`] values — until a `Stop`
/// command or the input closes.
///
/// No codec runs here: in-process workers share the driver's address
/// space, so cross-shard mail arrives and leaves as typed
/// [`Bundle::Mail`] values with its profile `Arc`s intact. Byte-stream
/// workers reach the same [`ShardState::handle`] through
/// [`crate::engine::exchange::stream::handle_frame`], which converts at the
/// boundary, so both transports execute identical shard code on identical
/// mail.
pub fn serve(
    state: &mut ShardState,
    mut next: impl FnMut() -> Option<Command>,
    mut send: impl FnMut(Reply),
) {
    while let Some(cmd) = next() {
        if matches!(cmd, Command::Stop) {
            return;
        }
        send(state.handle(cmd));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Protocol, SimConfig};
    use crate::engine::exchange::stream::{decode_wire_bundle, encode_mail_bundle, handle_frame};
    use crate::scenario::Scenario;
    use bytes::Bytes;
    use whatsup_core::{NewsMessage, SharedProfile};
    use whatsup_datasets::{survey, SurveyConfig};

    #[test]
    fn bundle_roundtrip_restores_mail_and_registers_items() {
        let item = NewsItem::new("t", "d", "l", 4, 2);
        let mut items: HashMap<ItemId, NewsItem> = HashMap::new(); // lint:allow(det-map) probed by id only
        items.insert(item.id(), item.clone());
        let mail = vec![
            (
                7u32,
                4u32,
                Payload::News(NewsMessage {
                    header: item.header(),
                    profile: SharedProfile::new(Profile::new()),
                    dislikes: 0,
                    hops: 1,
                }),
            ),
            (8u32, 5u32, Payload::WupRequest(vec![])),
        ];
        let resolve = |id| items.get(&id).cloned();
        let mut bundle = Bundle::Mail(mail.clone());
        encode_mail_bundle(&mut bundle, 0, resolve);
        assert!(matches!(bundle, Bundle::Wire(_)), "non-empty mail encodes");
        let mut registered = Vec::new();
        decode_wire_bundle(&mut bundle, &mut |i| registered.push(i)).unwrap();
        assert_eq!(bundle, Bundle::Mail(mail));
        assert_eq!(registered, vec![item]);

        let mut empty = Bundle::Wire(Bytes::new());
        decode_wire_bundle(&mut empty, &mut |_| panic!("nothing to register")).unwrap();
        assert_eq!(empty, Bundle::Mail(Vec::new()));
        encode_mail_bundle(&mut empty, 0, resolve);
        assert_eq!(empty, Bundle::Mail(Vec::new()), "empty mail stays typed");
    }

    /// Runs `cmd` through the byte-stream boundary: command codec,
    /// [`handle_frame`], reply codec.
    fn via_frames(state: &mut ShardState, cmd: &Command) -> Reply {
        let frame = handle_frame(state, &frames::encode_command(cmd))
            .unwrap()
            .expect("not a Stop");
        frames::decode_reply(&frame).unwrap()
    }

    /// `bundles` with every wire frame decoded to typed mail.
    fn decoded(mut bundles: Vec<Bundle>) -> Vec<Bundle> {
        for b in &mut bundles {
            decode_wire_bundle(b, &mut |_| {}).unwrap();
        }
        bundles
    }

    /// The reply with its outbound wire bundles decoded (typed replies
    /// pass through unchanged).
    fn typed_reply(mut reply: Reply) -> Reply {
        if let Some(out) = reply.outbound_mut() {
            out.bundles = decoded(std::mem::take(&mut out.bundles));
        }
        reply
    }

    fn outbound(reply: &mut Reply) -> Outbound {
        std::mem::take(reply.outbound_mut().expect("a phase reply"))
    }

    /// The same shards twice: one set driven with typed mail through
    /// [`ShardState::handle`] (the in-process path), one through the frame
    /// codec and [`handle_frame`] with wire mail (the byte-stream path).
    struct Twin {
        typed: Vec<ShardState>,
        wire: Vec<ShardState>,
    }

    impl Twin {
        /// Sends one command to shard `s` on both paths — `typed_cmd`
        /// through [`ShardState::handle`], `wire_cmd` through
        /// [`via_frames`] — asserting that they deliver equal mail and
        /// return equal replies. Returns both replies.
        fn step(&mut self, s: usize, typed_cmd: Command, wire_cmd: Command) -> (Reply, Reply) {
            if let (
                Command::DeliverGossip { bundles: t, .. } | Command::DeliverNews { bundles: t, .. },
                Command::DeliverGossip { bundles: w, .. } | Command::DeliverNews { bundles: w, .. },
            ) = (&typed_cmd, &wire_cmd)
            {
                assert_eq!(&decoded(w.clone()), t, "delivered payloads diverged");
            }
            let t = self.typed[s].handle(typed_cmd);
            let w = via_frames(&mut self.wire[s], &wire_cmd);
            assert_eq!(typed_reply(w.clone()), t, "replies diverged");
            (t, w)
        }

        /// Routes `outs` to every destination until a round sends nothing.
        fn deliver_until_quiet(
            &mut self,
            mut t_outs: Vec<Outbound>,
            mut w_outs: Vec<Outbound>,
            deliver: impl Fn(Vec<Bundle>) -> Command,
        ) -> usize {
            let shards = self.typed.len();
            let mut rounds = 0;
            while t_outs.iter().map(|o| o.sent).sum::<u64>() > 0 {
                let mut t_next = Vec::new();
                let mut w_next = Vec::new();
                for dest in 0..shards {
                    let take = |outs: &mut Vec<Outbound>| -> Vec<Bundle> {
                        outs.iter_mut()
                            .map(|o| std::mem::take(&mut o.bundles[dest]))
                            .collect()
                    };
                    let (mut t, mut w) =
                        self.step(dest, deliver(take(&mut t_outs)), deliver(take(&mut w_outs)));
                    t_next.push(outbound(&mut t));
                    w_next.push(outbound(&mut w));
                }
                t_outs = t_next;
                w_outs = w_next;
                rounds += 1;
            }
            rounds
        }
    }

    #[test]
    fn byte_stream_boundary_matches_typed_mail() {
        let d = survey::generate(&SurveyConfig::paper().scaled(0.12), 42);
        let cfg = SimConfig {
            cycles: 20,
            publish_from: 2,
            measure_from: 8,
            shards: 2,
            ..Default::default()
        };
        let scenario = Scenario::from_config(&cfg);
        let protocol = Protocol::WhatsUp { f_like: 5 };
        let (core, inits) = crate::engine::driver::build(&d, protocol, cfg, scenario, None);
        let partition = inits[0].partition.clone();
        let mut twin = Twin {
            typed: inits.iter().cloned().map(ShardState::from_init).collect(),
            wire: inits.into_iter().map(ShardState::from_init).collect(),
        };
        let shards = twin.typed.len();
        assert_eq!(shards, 2);
        let mut cross_shard_news = 0;
        for cycle in 0..2u32 {
            // One gossip phase: collect, then requests and responses.
            let (mut t_outs, mut w_outs) = (Vec::new(), Vec::new());
            for s in 0..shards {
                let collect = Command::Collect { cycle };
                let (mut t, mut w) = twin.step(s, collect.clone(), collect);
                t_outs.push(outbound(&mut t));
                w_outs.push(outbound(&mut w));
            }
            assert!(t_outs
                .iter()
                .any(|o| o.bundles.iter().any(|b| !b.is_empty())));
            let rounds = twin.deliver_until_quiet(t_outs, w_outs, |bundles| {
                Command::DeliverGossip { cycle, bundles }
            });
            assert_eq!(rounds, 2, "gossip is requests then responses");

            // One news epidemic, published from its source's shard.
            for s in 0..shards {
                twin.step(s, Command::BeginNews, Command::BeginNews);
            }
            let index = cycle as usize;
            let item = core.items[index].clone();
            let owner = partition.shard_of(core.sources[index]);
            let publish = Command::Publish {
                cycle,
                item: item.clone(),
            };
            let (mut t, mut w) = twin.step(owner, publish.clone(), publish);
            let mut t_outs: Vec<Outbound> = (0..shards).map(|_| Outbound::empty(shards)).collect();
            let mut w_outs = t_outs.clone();
            t_outs[owner] = outbound(&mut t);
            w_outs[owner] = outbound(&mut w);
            twin.deliver_until_quiet(t_outs, w_outs, |bundles| Command::DeliverNews {
                cycle,
                item: item.id(),
                bundles,
            });

            // News content reached the other shard only as wire content,
            // and what the boundary registered is the published item.
            let other = 1 - owner;
            match twin.wire[other].known_items.get(&item.id()) {
                Some(registered) => {
                    assert_eq!(registered, &item, "registered news content diverged");
                    cross_shard_news += 1;
                }
                None => assert!(
                    twin.typed[other]
                        .nodes()
                        .iter()
                        .all(|n| !n.has_seen(item.id())),
                    "a shard received news without registering its content"
                ),
            }
            for (t, w) in twin.typed.iter().zip(&twin.wire) {
                for (tn, wn) in t.nodes().iter().zip(w.nodes()) {
                    assert_eq!(tn.export_state(), wn.export_state(), "node state diverged");
                }
            }
        }
        assert!(cross_shard_news > 0, "no news crossed shards");
    }
}
