//! The peer event core shared by the emulator and the UDP runtime.
//!
//! A [`Peer`] wraps the sans-io `WhatsUpNode` with:
//! * the wire codec (encode outgoing, decode incoming),
//! * ground-truth opinions (the like matrix, as in the simulator),
//! * first-delivery recording for the quality metrics,
//! * traffic accounting for the bandwidth metrics.
//!
//! Transports stay trivial: they move `(to, Bytes)` pairs and call
//! [`Peer::tick`] once per gossip cycle.

use crate::codec;
use crate::stats::TrafficStats;
use crate::swarm::{Delivery, ItemTable, SwarmConfig};
use bytes::Bytes;
use parking_lot::Mutex;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use whatsup_core::{
    ItemId, NodeId, NodeStats, Opinions, OutMessage, Payload, Profile, WhatsUpNode,
};
use whatsup_datasets::LikeMatrix;

/// Ground-truth opinions backed by the dataset (shared, read-only).
#[derive(Debug, Clone)]
pub struct NetOracle {
    matrix: Arc<LikeMatrix>,
    table: Arc<ItemTable>,
}

impl NetOracle {
    pub fn new(matrix: Arc<LikeMatrix>, table: Arc<ItemTable>) -> Self {
        Self { matrix, table }
    }

    pub fn table(&self) -> &ItemTable {
        &self.table
    }
}

impl Opinions for NetOracle {
    fn likes(&self, node: NodeId, item: ItemId) -> bool {
        match self.table.by_id.get(&item) {
            Some(&idx) => self.matrix.likes(node as usize, idx as usize),
            None => false,
        }
    }
}

/// One peer: protocol node + codec + recording.
pub struct Peer {
    node: WhatsUpNode,
    /// Protocol counters (the node itself stores none — see
    /// [`WhatsUpNode`]'s SoA contract).
    node_stats: NodeStats,
    rng: ChaCha8Rng,
    oracle: NetOracle,
    stats: Arc<TrafficStats>,
    deliveries: Arc<Mutex<Vec<Delivery>>>,
    loss: f64,
}

impl Peer {
    pub fn new(
        id: NodeId,
        cfg: &SwarmConfig,
        oracle: NetOracle,
        stats: Arc<TrafficStats>,
        deliveries: Arc<Mutex<Vec<Delivery>>>,
    ) -> Self {
        let node = WhatsUpNode::new(id, cfg.params.clone());
        let rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ (id as u64).wrapping_mul(0x9e37_79b9));
        Self {
            node,
            node_stats: NodeStats::default(),
            rng,
            oracle,
            stats,
            deliveries,
            loss: cfg.loss,
        }
    }

    pub fn id(&self) -> NodeId {
        self.node.id()
    }

    pub fn node(&self) -> &WhatsUpNode {
        &self.node
    }

    /// Seeds the bootstrap views (same contact-graph shape as the
    /// simulator: `degree` random contacts, half of them in the WUP view).
    pub fn bootstrap(&mut self, n: usize, degree: usize) {
        let id = self.node.id();
        let mut contacts: Vec<NodeId> = Vec::with_capacity(degree);
        while contacts.len() < degree.min(n.saturating_sub(1)) {
            let c = self.rng.gen_range(0..n) as NodeId;
            if c != id && !contacts.contains(&c) {
                contacts.push(c);
            }
        }
        let wup_take = (contacts.len() / 2).max(1);
        self.node.seed_views(
            contacts.iter().map(|&c| (c, Profile::new())),
            contacts.iter().take(wup_take).map(|&c| (c, Profile::new())),
        );
    }

    /// One gossip cycle at logical time `now`.
    pub fn tick(&mut self, now: u32) -> Vec<(NodeId, Bytes)> {
        let out = self.node.on_cycle(now, &mut self.node_stats, &mut self.rng);
        self.encode_all(out)
    }

    /// Publishes the dataset item with the given index.
    pub fn publish(&mut self, index: u32, now: u32) -> Vec<(NodeId, Bytes)> {
        let item = self.oracle.table.items[index as usize].clone();
        let out = self
            .node
            .publish(&item, now, &mut self.node_stats, &mut self.rng);
        self.encode_all(out)
    }

    /// Handles one received frame. Applies receive-side loss injection,
    /// records first deliveries, and returns the frames to send in response.
    pub fn handle_frame(&mut self, frame: &[u8], now: u32) -> Vec<(NodeId, Bytes)> {
        if self.loss > 0.0 && self.rng.gen_bool(self.loss) {
            return Vec::new();
        }
        // Corrupt frames are dropped: robustness over crash. Mailbox
        // bundles are the simulator's shard-exchange batches, never a
        // peer-level datagram: `decode` rejects their tag, so a confused or
        // malicious sender cannot smuggle a batch past the per-message path.
        let Ok((from, payload)) =
            codec::decode(frame).and_then(|(from, wire)| Ok((from, wire.try_into_payload()?)))
        else {
            return Vec::new();
        };
        if let Payload::News(msg) = &payload {
            let id = msg.header.id;
            if !self.node.has_seen(id) {
                if let Some(&idx) = self.oracle.table.by_id.get(&id) {
                    let liked = self.oracle.likes(self.node.id(), id);
                    self.deliveries.lock().push(Delivery {
                        item_index: idx,
                        node: self.node.id(),
                        liked,
                    });
                }
            }
        }
        let out = self.node.on_message(
            from,
            payload,
            now,
            &self.oracle.clone(),
            &mut self.node_stats,
            &mut self.rng,
        );
        self.encode_all(out)
    }

    fn encode_all(&mut self, out: Vec<OutMessage>) -> Vec<(NodeId, Bytes)> {
        let id = self.node.id();
        out.into_iter()
            .filter_map(|m| {
                let kind = m.payload.kind();
                let table = &self.oracle.table;
                let encoded = codec::encode(id, &m.payload, |item_id| {
                    table
                        .by_id
                        .get(&item_id)
                        .map(|&idx| table.items[idx as usize].clone())
                });
                match encoded {
                    Ok(bytes) => {
                        self.stats.record(kind, bytes.len());
                        Some((m.to, bytes))
                    }
                    Err(e) => {
                        // An oversized frame is a configuration error
                        // (gigantic profile window); drop loudly.
                        eprintln!("peer {id}: dropping frame: {e}");
                        None
                    }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::swarm::ItemTable;
    use whatsup_datasets::{survey, SurveyConfig};

    fn setup(loss: f64) -> (Vec<Peer>, Arc<Mutex<Vec<Delivery>>>, Arc<ItemTable>) {
        let dataset = survey::generate(&SurveyConfig::paper().scaled(0.1), 3);
        let cfg = SwarmConfig {
            loss,
            ..Default::default()
        };
        let table = Arc::new(ItemTable::build(&dataset, &cfg));
        let matrix = Arc::new(dataset.likes.clone());
        let stats = Arc::new(TrafficStats::new());
        let deliveries = Arc::new(Mutex::new(Vec::new()));
        let n = dataset.n_users();
        let peers = (0..n as NodeId)
            .map(|id| {
                let oracle = NetOracle::new(Arc::clone(&matrix), Arc::clone(&table));
                let mut p = Peer::new(
                    id,
                    &cfg,
                    oracle,
                    Arc::clone(&stats),
                    Arc::clone(&deliveries),
                );
                p.bootstrap(n, 6);
                p
            })
            .collect();
        (peers, deliveries, table)
    }

    #[test]
    fn bundle_frames_from_the_network_are_dropped() {
        // A shard-exchange bundle is not a peer-level datagram: a confused
        // or malicious sender must not crash the peer or smuggle a batch
        // past the per-message path.
        let (mut peers, _, _) = setup(0.0);
        let inner = vec![(0u32, 7u32, whatsup_core::Payload::RpsRequest(vec![]))];
        let bundle = codec::encode_bundle(0, &inner, |_| None);
        assert!(peers[0].handle_frame(&bundle, 0).is_empty());
    }

    #[test]
    fn tick_produces_encoded_gossip() {
        let (mut peers, _, _) = setup(0.0);
        let frames = peers[0].tick(0);
        assert!(!frames.is_empty());
        for (_, bytes) in &frames {
            assert!(codec::decode(bytes).is_ok());
        }
    }

    #[test]
    fn publish_and_deliver_records_first_reception() {
        let (mut peers, deliveries, table) = setup(0.0);
        // Find item 0's source and let it publish.
        let source = table.items[0].source;
        let frames = peers[source as usize].publish(0, 1);
        assert!(
            !frames.is_empty(),
            "source must have bootstrap WUP neighbors"
        );
        let (to, bytes) = &frames[0];
        let replies = peers[*to as usize].handle_frame(bytes, 1);
        let recorded = deliveries.lock();
        assert_eq!(recorded.len(), 1);
        assert_eq!(recorded[0].item_index, 0);
        assert_eq!(recorded[0].node, *to);
        drop(recorded);
        // Duplicate delivery is not recorded twice.
        let _ = peers[*to as usize].handle_frame(bytes, 1);
        assert_eq!(deliveries.lock().len(), 1);
        let _ = replies;
    }

    #[test]
    fn full_loss_silences_everything() {
        let (mut peers, deliveries, table) = setup(1.0);
        let source = table.items[0].source;
        let frames = peers[source as usize].publish(0, 1);
        for (to, bytes) in &frames {
            let replies = peers[*to as usize].handle_frame(bytes, 1);
            assert!(replies.is_empty());
        }
        assert!(deliveries.lock().is_empty());
    }

    #[test]
    fn corrupt_frames_are_dropped() {
        let (mut peers, _, _) = setup(0.0);
        let out = peers[0].handle_frame(&[0xff, 0x01], 0);
        assert!(out.is_empty());
    }

    #[test]
    fn gossip_roundtrip_between_peers() {
        let (mut peers, _, _) = setup(0.0);
        let frames = peers[0].tick(0);
        let mut responses = Vec::new();
        for (to, bytes) in frames {
            responses.extend(peers[to as usize].handle_frame(&bytes, 0));
        }
        assert!(!responses.is_empty(), "gossip requests produce responses");
    }
}
