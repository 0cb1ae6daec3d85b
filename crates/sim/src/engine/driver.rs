//! The simulation driver: owns the run-level state (records, counters,
//! oracle, schedule), orchestrates the phase round-trips against any
//! [`ShardTransport`], and exposes the public [`Simulation`] API.
//!
//! The driver never touches node state directly during a cycle — every
//! phase is a command to the shards and a fold of their replies, in shard
//! order (= node-id order, since shard ranges are contiguous ascending).
//! That is what lets the same `run_cycle` drive the inline single-shard
//! path, the in-process channel workers, and `sim-shard-worker` processes
//! — spawned locally or remote — to bit-identical reports.

use crate::config::{Protocol, SimConfig, Transport};
use crate::engine::exchange::socket::DIAL_RETRY_WINDOW;
use crate::engine::exchange::{
    Bundle, Command, NewsOutcome, Outbound, Reply, ShardTransport, SocketTransport,
    SupervisedTransport, Supervision, TransportError,
};
use crate::engine::partition::Partition;
use crate::engine::shard::{self, ShardInit, ShardState};
use crate::engine::{node_stream, ChannelTransport};
use crate::oracle::Oracle;
use crate::record::{ItemRecord, NodeIr, SimReport};
use crate::scenario::{Event, Scenario, WindowSpec};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::io;
use whatsup_core::{ColdStart, NewsItem, NodeId, Opinions, Params, Profile, WhatsUpNode};
use whatsup_datasets::Dataset;
use whatsup_graph::Graph;
use whatsup_metrics::{CycleSeries, CycleStats};

/// Driver-side run state: everything that is not node state.
pub(crate) struct DriverCore {
    protocol: Protocol,
    cfg: SimConfig,
    scenario: Scenario,
    params: Params,
    dataset_name: String,
    pub(super) items: Vec<NewsItem>,
    /// Cached content hashes of `items` (hashing is string-heavy).
    item_ids: Vec<whatsup_core::ItemId>,
    pub(super) sources: Vec<NodeId>,
    /// cycle → dataset item indices published that cycle. Also serves the
    /// windowed ground-truth lookups (O(window), not O(items)).
    published_at_cycle: Vec<Vec<u32>>,
    oracle: Oracle,
    records: Vec<ItemRecord>,
    /// Driving-thread RNG for bootstrap and the interactive mutators; the
    /// cycle phases use [`node_stream`] exclusively.
    rng: ChaCha8Rng,
    cycle: u32,
    gossip_messages: u64,
    news_messages_all: u64,
    news_messages_measured: u64,
    /// Liked first receptions per node during the current cycle (Fig. 7c).
    liked_this_cycle: Vec<u32>,
    /// Per-node delivery counters over measured items (Fig. 11).
    per_node: Vec<NodeIr>,
    /// The current cycle's counters, accumulated from the phase replies
    /// the driver already folds (route totals, churn resets, reception
    /// outcomes) and flushed into `series` at the end of every cycle — no
    /// dedicated counter round-trip. Lives on the core (not `run_cycle`)
    /// so interactive mutators between cycles land in the next flush.
    cycle_stats: CycleStats,
    /// Per-cycle measurement series (empty when `cfg.collect_series` is
    /// off).
    series: CycleSeries,
    partition: Partition,
}

impl DriverCore {
    fn into_report(self) -> SimReport {
        let mut report = SimReport {
            protocol: self.protocol.label(),
            dataset: self.dataset_name,
            fanout: self.protocol.fanout(),
            n_nodes: self.partition.total(),
            cycles: self.cycle,
            items: self.records,
            per_node: self.per_node,
            news_messages: self.news_messages_measured,
            news_messages_all: self.news_messages_all,
            gossip_messages: self.gossip_messages,
            series: self.series,
            windows: Vec::new(),
        };
        // Resolve the scenario's measurement windows against the finished
        // series: anchors were validated at build time, so a recovery
        // window that cannot resolve here is a bug, not bad input.
        report.windows = self
            .scenario
            .measurements
            .iter()
            .map(|m| {
                let (from, until, recovery) = match &m.window {
                    WindowSpec::Cycles { from, until } => {
                        (*from, (*until).min(report.cycles), None)
                    }
                    WindowSpec::Recovery { anchor, baseline } => {
                        let at = anchor
                            .resolve(&self.scenario)
                            .expect("anchor validated against the scenario");
                        let recovery = report.series.recovery(at, *baseline);
                        let until = recovery
                            .and_then(|r| r.recovered_at)
                            .map(|c| c + 1)
                            .unwrap_or(report.cycles);
                        (at, until, recovery)
                    }
                };
                report.window_report(&m.name, from, until, recovery)
            })
            .collect();
        report
    }
}

/// The per-shard node counts a run over `n` nodes with `requested` shards
/// (0 = auto) and `scenario` will *end* with: the load-aware initial
/// split, plus every scheduled join on the last shard. Run-summary
/// instrumentation for the CLI — the engine computes the same partition
/// in `build`, and the counts never appear in [`SimReport`] (which must
/// stay byte-identical across shard counts).
pub fn planned_shard_node_counts(n: usize, requested: usize, scenario: &Scenario) -> Vec<usize> {
    let joins = scenario.expected_joins();
    let partition = Partition::plan(n, resolve_shards(requested, n), joins);
    let mut counts: Vec<usize> = (0..partition.n_shards())
        .map(|s| partition.range(s).len())
        .collect();
    *counts.last_mut().expect("at least one shard") += joins;
    counts
}

/// Resolves the configured shard count: `0` = one per available core,
/// always clamped to the population size.
fn resolve_shards(requested: usize, n: usize) -> usize {
    let auto = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let s = if requested == 0 { auto } else { requested };
    s.clamp(1, n)
}

/// Builds the driver core and one init per shard from `(dataset, protocol,
/// config, scenario)` — shared by the in-process constructor and the
/// external-worker runner so both start from identical state. `force_store`
/// overrides the oracle's dense/sparse byte-cost choice (`Some(true)` =
/// CSR, `Some(false)` = bit-plane); the equivalence property tests use it
/// to pin both representations to the same reports.
pub(super) fn build(
    dataset: &Dataset,
    protocol: Protocol,
    cfg: SimConfig,
    scenario: Scenario,
    force_store: Option<bool>,
) -> (DriverCore, Vec<ShardInit>) {
    cfg.validate().expect("invalid simulation config");
    scenario.validate(&cfg).expect("invalid scenario");
    let params = cfg
        .build_params(&protocol)
        .expect("protocol does not run on the node engine");
    let n = dataset.n_users();
    assert!(n > 0, "dataset has no users");
    scenario.validate_events(n).expect("invalid scenario");
    let topics: Vec<u32> = dataset.items.iter().map(|spec| spec.topic).collect();
    let item_cycles = scenario.workload.schedule(&cfg, &topics);
    let mut schedule = vec![Vec::new(); cfg.cycles as usize];
    let mut items = Vec::with_capacity(dataset.n_items());
    let mut sources = Vec::with_capacity(dataset.n_items());
    let mut id_to_index = crate::oracle::ItemIndexMap::with_capacity_and_hasher(
        dataset.n_items(),
        Default::default(),
    );
    for spec in &dataset.items {
        let cycle = item_cycles[spec.index as usize];
        let item = NewsItem::new(
            format!("{}-news-{}", dataset.name, spec.index),
            format!("topic-{}", spec.topic),
            format!("https://news.example/{}/{}", dataset.name, spec.index),
            spec.source,
            cycle,
        );
        id_to_index.insert(item.id(), spec.index);
        schedule[cycle as usize].push(spec.index);
        items.push(item);
        sources.push(spec.source);
    }
    assert_eq!(id_to_index.len(), items.len(), "item id (hash) collision");
    let item_ids: Vec<whatsup_core::ItemId> = items.iter().map(|i| i.id()).collect();
    let oracle = match force_store {
        None => Oracle::new(dataset.likes.clone(), id_to_index),
        Some(sparse) => Oracle::new_forced(dataset.likes.clone(), id_to_index, sparse),
    };

    // Bootstrap: every node learns `bootstrap_degree` distinct random
    // contacts (empty profiles), split across both layers, as a stand-in
    // for the paper's bootstrap server. Partial Fisher–Yates over the
    // other `n - 1` ids; drawn here so the engine RNG stays on the driving
    // thread and the contact lists are shard-independent.
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let take = cfg.bootstrap_degree.min(n - 1);
    let mut bootstrap: Vec<Vec<NodeId>> = Vec::with_capacity(n);
    for id in 0..n {
        let contacts: Vec<NodeId> = rand::seq::index::sample(&mut rng, n - 1, take)
            .into_iter()
            // Skip over `id` itself: [0, n-1) minus {id} ≅ shift ≥ id.
            .map(|c| if c >= id { c + 1 } else { c } as NodeId)
            .collect();
        bootstrap.push(contacts);
    }

    let records = dataset
        .items
        .iter()
        .map(|spec| ItemRecord {
            index: spec.index,
            published_at: item_cycles[spec.index as usize],
            measured: item_cycles[spec.index as usize] >= cfg.measure_from,
            ..ItemRecord::default()
        })
        .collect();

    // Load-aware split: the last shard absorbs every scheduled join, so
    // plan its initial range against the final population. Boundaries
    // never affect results — any contiguous split is bit-identical.
    let partition = Partition::plan(n, resolve_shards(cfg.shards, n), scenario.expected_joins());
    let inits = (0..partition.n_shards())
        .map(|s| ShardInit {
            index: s,
            partition: partition.clone(),
            seed: cfg.seed,
            loss: scenario.environment.loss,
            churn: scenario.environment.churn,
            params: params.clone(),
            oracle: oracle.clone(),
            bootstrap: partition
                .range(s)
                .map(|id| bootstrap[id as usize].clone())
                .collect(),
        })
        .collect();

    let core = DriverCore {
        protocol,
        cfg,
        scenario,
        params,
        dataset_name: dataset.name.clone(),
        items,
        item_ids,
        sources,
        published_at_cycle: schedule,
        oracle,
        records,
        rng,
        cycle: 0,
        gossip_messages: 0,
        news_messages_all: 0,
        news_messages_measured: 0,
        liked_this_cycle: vec![0; n],
        per_node: vec![NodeIr::default(); n],
        cycle_stats: CycleStats::default(),
        series: CycleSeries::new(),
        partition,
    };
    (core, inits)
}

fn expect_outbound(replies: Vec<Reply>) -> Vec<Outbound> {
    replies
        .into_iter()
        .map(|r| match r {
            Reply::Outbound(o) => o,
            other => panic!("expected Outbound, got {other:?}"),
        })
        .collect()
}

/// Moves the bundles destined for `dest` out of `outs`, one per source
/// shard in shard order (typed mail moves without a copy; wire frames are
/// forwarded unopened).
fn bundles_for(outs: &mut [Outbound], dest: usize) -> Vec<Bundle> {
    outs.iter_mut()
        .map(|o| std::mem::take(&mut o.bundles[dest]))
        .collect()
}

/// Fetches one node's view snapshot from its owning shard.
fn fetch_snapshot(
    core: &DriverCore,
    t: &mut impl ShardTransport,
    id: NodeId,
) -> Result<ColdStart, TransportError> {
    let owner = core.partition.shard_of(id);
    let reply = t
        .roundtrip(vec![(owner, Command::TakeSnapshots { ids: vec![id] })])?
        .pop()
        .expect("one snapshot reply");
    let Reply::Snapshots(mut snapshots) = reply else {
        panic!("expected Snapshots");
    };
    Ok(snapshots.pop().expect("one snapshot"))
}

/// Admits a node cloning `reference`'s interests: cold start from a random
/// contact's views (drawn from the driver RNG), state built on the owning
/// (last) shard. Returns the joiner's id.
fn join_clone(
    core: &mut DriverCore,
    t: &mut impl ShardTransport,
    reference: NodeId,
) -> Result<NodeId, TransportError> {
    let contact = core.rng.gen_range(0..core.partition.total()) as NodeId;
    let snapshot = fetch_snapshot(core, t, contact)?;
    let id = core.oracle.add_clone_of(reference);
    core.partition.push_node();
    let last = t.n_shards() - 1;
    let batch = (0..t.n_shards())
        .map(|s| {
            (
                s,
                Command::Admit {
                    reference,
                    snapshot: (s == last).then(|| snapshot.clone()),
                },
            )
        })
        .collect();
    t.roundtrip(batch)?;
    core.liked_this_cycle.push(0);
    core.per_node.push(NodeIr::default());
    Ok(id)
}

/// Applies one timeline event through the transport (see the engine module
/// docs for when events fire and which RNG they draw from).
fn apply_event(
    core: &mut DriverCore,
    t: &mut impl ShardTransport,
    event: Event,
) -> Result<(), TransportError> {
    match event {
        Event::JoinClone { reference } => {
            join_clone(core, t, reference)?;
        }
        Event::SwapInterests { a, b } => {
            core.oracle.swap_interests(a, b);
            let batch = (0..t.n_shards())
                .map(|s| (s, Command::SwapInterests { a, b }))
                .collect();
            t.roundtrip(batch)?;
        }
        Event::ResetNode { node } => {
            let n = core.partition.total();
            assert!(n > 1, "a 1-node network has no rejoin contact");
            let contact = loop {
                let c = core.rng.gen_range(0..n);
                if c != node as usize {
                    break c;
                }
            } as NodeId;
            let snapshot = fetch_snapshot(core, t, contact)?;
            let owner = core.partition.shard_of(node);
            t.roundtrip(vec![(
                owner,
                Command::ApplyChurn {
                    resets: vec![(node, snapshot)],
                },
            )])?;
            core.cycle_stats.crashed += 1;
        }
    }
    Ok(())
}

/// Start-of-cycle scenario boundary: the churn model's mass-join arrivals,
/// then the timeline events stamped for this cycle, in list order.
fn apply_cycle_start(
    core: &mut DriverCore,
    t: &mut impl ShardTransport,
) -> Result<(), TransportError> {
    let cycle = core.cycle;
    for _ in 0..core.scenario.environment.churn.joins_at(cycle) {
        let reference = core.rng.gen_range(0..core.partition.total()) as NodeId;
        join_clone(core, t, reference)?;
    }
    let due: Vec<Event> = core
        .scenario
        .events
        .iter()
        .filter(|e| e.at == cycle)
        .map(|e| e.event)
        .collect();
    for event in due {
        apply_event(core, t, event)?;
    }
    Ok(())
}

/// Advances the run by one cycle over `t`: scenario events, gossip, churn,
/// publications.
fn run_cycle(core: &mut DriverCore, t: &mut impl ShardTransport) -> Result<(), TransportError> {
    apply_cycle_start(core, t)?;
    let cycle = core.cycle;
    let shards = t.n_shards();
    core.liked_this_cycle.iter_mut().for_each(|c| *c = 0);

    // --- Gossip phase: collect, then route/deliver until quiet ------------
    let mut outs = expect_outbound(
        t.roundtrip(
            (0..shards)
                .map(|s| (s, Command::Collect { cycle }))
                .collect(),
        )?,
    );
    loop {
        let sent: u64 = outs.iter().map(|o| o.sent).sum();
        if sent == 0 {
            break;
        }
        core.gossip_messages += sent;
        core.cycle_stats.gossip_sent += sent;
        let batch = (0..shards)
            .map(|dest| {
                (
                    dest,
                    Command::DeliverGossip {
                        cycle,
                        bundles: bundles_for(&mut outs, dest),
                    },
                )
            })
            .collect();
        outs = expect_outbound(t.roundtrip(batch)?);
    }

    // --- Churn phase ------------------------------------------------------
    // Decisions come from per-node CHURN streams on the shards; the driver
    // moves contact view snapshots (all taken from the pre-churn state, so
    // application order cannot matter) to the crashing shards.
    if core.scenario.environment.churn.crash_rate(cycle) > 0.0 && core.partition.total() > 1 {
        let decisions = t.roundtrip(
            (0..shards)
                .map(|s| (s, Command::ChurnDecide { cycle }))
                .collect(),
        )?;
        let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
        for reply in decisions {
            let Reply::ChurnDecisions(p) = reply else {
                panic!("expected ChurnDecisions");
            };
            pairs.extend(p);
        }
        core.cycle_stats.crashed += pairs.len() as u64;
        if !pairs.is_empty() {
            let mut wanted: Vec<Vec<NodeId>> = vec![Vec::new(); shards];
            for &(_, contact) in &pairs {
                wanted[core.partition.shard_of(contact)].push(contact);
            }
            for w in &mut wanted {
                w.sort_unstable();
                w.dedup();
            }
            let batch: Vec<(usize, Command)> = wanted
                .iter()
                .enumerate()
                .filter(|(_, w)| !w.is_empty())
                .map(|(s, w)| (s, Command::TakeSnapshots { ids: w.clone() }))
                .collect();
            let targets: Vec<usize> = batch.iter().map(|(s, _)| *s).collect();
            let replies = t.roundtrip(batch)?;
            let mut snapshots: BTreeMap<NodeId, ColdStart> = BTreeMap::new();
            for (s, reply) in targets.into_iter().zip(replies) {
                let Reply::Snapshots(taken) = reply else {
                    panic!("expected Snapshots");
                };
                for (&id, snapshot) in wanted[s].iter().zip(taken) {
                    snapshots.insert(id, snapshot);
                }
            }
            let mut resets: Vec<Vec<(NodeId, ColdStart)>> = vec![Vec::new(); shards];
            for (node, contact) in pairs {
                resets[core.partition.shard_of(node)].push((node, snapshots[&contact].clone()));
            }
            let batch: Vec<(usize, Command)> = resets
                .into_iter()
                .enumerate()
                .filter(|(_, r)| !r.is_empty())
                .map(|(s, r)| (s, Command::ApplyChurn { resets: r }))
                .collect();
            t.roundtrip(batch)?;
        }
    }

    // --- Publication phase ------------------------------------------------
    if !core.published_at_cycle[cycle as usize].is_empty() {
        t.roundtrip((0..shards).map(|s| (s, Command::BeginNews)).collect())?;
    }
    for k in 0..core.published_at_cycle[cycle as usize].len() {
        let index = core.published_at_cycle[cycle as usize][k];
        disseminate(core, t, index, cycle)?;
    }

    // --- Measurement flush -------------------------------------------------
    // The counters were accumulated from the phase replies this cycle
    // already produced (integer sums in a fixed fold order), so the series
    // stays bit-identical across shard counts and transports without a
    // dedicated end-of-cycle counter round-trip (see the engine module
    // docs' "measurement pipeline").
    let mut stats = std::mem::take(&mut core.cycle_stats);
    stats.live_nodes = core.partition.total() as u64;
    if core.cfg.collect_series {
        core.series.push(stats);
    }
    // Cycle boundary: mailboxes are provably drained here, which is what
    // lets the supervised transports checkpoint shard state without any
    // in-flight mail (plain transports no-op).
    t.cycle_boundary(cycle)?;
    core.cycle += 1;
    Ok(())
}

/// Publishes one item and runs its epidemic to completion as a BFS: every
/// copy at hop distance `h` is delivered before any copy at `h + 1`;
/// outcome folds happen in receiver order.
fn disseminate(
    core: &mut DriverCore,
    t: &mut impl ShardTransport,
    index: u32,
    cycle: u32,
) -> Result<(), TransportError> {
    let shards = t.n_shards();
    let source = core.sources[index as usize];
    let item = core.items[index as usize].clone();
    let item_id = core.item_ids[index as usize];
    let measured = core.records[index as usize].measured;

    // Ground truth at publication (excluding the source).
    let interested: Vec<NodeId> = core
        .oracle
        .interested(index)
        .into_iter()
        .filter(|&u| u != source)
        .collect();
    core.records[index as usize].interested = interested.len() as u32;
    core.cycle_stats.interested += interested.len() as u64;
    if measured {
        for &u in &interested {
            core.per_node[u as usize].interested += 1;
        }
    }

    let owner = core.partition.shard_of(source);
    let reply = t
        .roundtrip(vec![(owner, Command::Publish { cycle, item })])?
        .pop()
        .expect("one publish reply");
    let Reply::Published {
        first_forward_hop,
        out,
    } = reply
    else {
        panic!("expected Published");
    };
    // Fig. 6 forwarding record for the source's own publication.
    if let Some(hop) = first_forward_hop {
        let liked = core.oracle.likes(source, item_id);
        core.records[index as usize].forward_hops.push((hop, liked));
    }

    let mut outs: Vec<Outbound> = (0..shards).map(|_| Outbound::empty(shards)).collect();
    outs[owner] = out;
    loop {
        let sent: u64 = outs.iter().map(|o| o.sent).sum();
        if sent == 0 {
            break;
        }
        core.records[index as usize].news_sent += sent;
        core.news_messages_all += sent;
        core.cycle_stats.news_sent += sent;
        if measured {
            core.news_messages_measured += sent;
        }
        // Sparse BFS tails leave most shards with no inbound mail at all
        // (no bundle addressed to them, nothing in their pending queue).
        // Skipping their round-trip cannot change any mailbox: a skipped
        // shard would merge nothing, drain nothing and emit nothing.
        let active: Vec<usize> = (0..shards)
            .filter(|&dest| {
                outs[dest].local > 0 || outs.iter().any(|o| !o.bundles[dest].is_empty())
            })
            .collect();
        let batch = active
            .iter()
            .map(|&dest| {
                (
                    dest,
                    Command::DeliverNews {
                        cycle,
                        item: item_id,
                        bundles: bundles_for(&mut outs, dest),
                    },
                )
            })
            .collect();
        let replies = t.roundtrip(batch)?;
        let mut next_outs: Vec<Outbound> = (0..shards).map(|_| Outbound::empty(shards)).collect();
        for (&dest, reply) in active.iter().zip(replies) {
            let Reply::NewsDelivered { out, outcomes } = reply else {
                panic!("expected NewsDelivered");
            };
            fold_outcomes(core, index, measured, &outcomes);
            next_outs[dest] = out;
        }
        outs = next_outs;
    }
    Ok(())
}

/// Folds one shard's per-receiver outcomes into the shared records
/// (receivers arrive in ascending order, shards fold in shard order).
fn fold_outcomes(core: &mut DriverCore, index: u32, measured: bool, outcomes: &[NewsOutcome]) {
    for o in outcomes {
        let to = o.receiver as usize;
        if let Some(first) = o.first {
            let rec = &mut core.records[index as usize];
            rec.reached += 1;
            rec.infection_hops.push((first.hop, first.sender_liked));
            core.cycle_stats.first_receptions += 1;
            if measured {
                core.per_node[to].received += 1;
            }
            if first.receiver_likes {
                rec.hits += 1;
                core.cycle_stats.hits += 1;
                rec.dislikes_at_liked_reception.push(first.dislikes);
                core.liked_this_cycle[to] += 1;
                if measured {
                    core.per_node[to].hits += 1;
                }
            }
        }
        if let Some((hop, liked)) = o.forward {
            core.records[index as usize].forward_hops.push((hop, liked));
        }
    }
}

/// Single-shard fast path: drive the shard in place, no serialization.
struct InlineTransport<'a> {
    shards: &'a mut [ShardState],
}

impl ShardTransport for InlineTransport<'_> {
    fn n_shards(&self) -> usize {
        self.shards.len()
    }

    fn roundtrip(&mut self, batch: Vec<(usize, Command)>) -> Result<Vec<Reply>, TransportError> {
        Ok(batch
            .into_iter()
            .map(|(s, cmd)| self.shards[s].handle(cmd))
            .collect())
    }
}

/// Runs every remaining cycle of `core` over `t`.
fn drive(core: &mut DriverCore, t: &mut impl ShardTransport) -> Result<(), TransportError> {
    while core.cycle < core.cfg.cycles {
        run_cycle(core, t)?;
    }
    Ok(())
}

/// Runs every cycle of `core` over the worker `link` — under a
/// [`SupervisedTransport`] when `supervision` is set, so crashed or hung
/// workers are restarted and recovered by checkpoint/replay instead of
/// failing the run — then stops the workers and reports.
fn drive_with(
    mut core: DriverCore,
    link: SocketTransport,
    supervision: Option<Supervision>,
) -> Result<SimReport, TransportError> {
    match supervision {
        None => {
            let mut t = link;
            drive(&mut core, &mut t)?;
            t.shutdown()?;
        }
        Some(sup) => {
            let mut t = SupervisedTransport::new(link, sup);
            drive(&mut core, &mut t)?;
            let restarts = t.restarts_used();
            t.shutdown()?;
            if restarts > 0 {
                eprintln!("supervisor: recovered {restarts} worker restart(s)");
            }
        }
    }
    Ok(core.into_report())
}

/// A running simulation of one node-based protocol over one dataset.
pub struct Simulation {
    core: DriverCore,
    shards: Vec<ShardState>,
}

impl Simulation {
    /// Builds a simulation with `cfg.shards` in-process shards under the
    /// legacy scenario the config describes (uniform publications, constant
    /// loss, uniform churn). The crate's unit tests build through it;
    /// everything else builds through [`crate::Runner`].
    ///
    /// # Panics
    /// Panics if `protocol` is one of the global engines (cascade, pub/sub,
    /// centralized) or if the config is invalid.
    #[cfg(test)]
    pub(crate) fn new(dataset: &Dataset, protocol: Protocol, cfg: SimConfig) -> Self {
        let scenario = Scenario::from_config(&cfg);
        Self::with_scenario(dataset, protocol, cfg, scenario)
    }

    /// Builds a simulation running `scenario` (the scenario's environment
    /// replaces the config's `loss`/`churn_per_cycle` knobs).
    pub(crate) fn with_scenario(
        dataset: &Dataset,
        protocol: Protocol,
        cfg: SimConfig,
        scenario: Scenario,
    ) -> Self {
        let (core, inits) = build(dataset, protocol, cfg, scenario, None);
        let shards = inits.into_iter().map(ShardState::from_init).collect();
        Self { core, shards }
    }

    /// `Simulation::new` with the oracle's dense/sparse representation
    /// forced (`true` = CSR, `false` = bit-plane) instead of chosen by
    /// byte cost. Test hook for the representation-equivalence properties;
    /// reports must be byte-identical either way.
    #[doc(hidden)]
    pub fn new_with_forced_store(
        dataset: &Dataset,
        protocol: Protocol,
        cfg: SimConfig,
        sparse: bool,
    ) -> Self {
        let scenario = Scenario::from_config(&cfg);
        let (core, inits) = build(dataset, protocol, cfg, scenario, Some(sparse));
        let shards = inits.into_iter().map(ShardState::from_init).collect();
        Self { core, shards }
    }

    /// Builds and runs the whole simulation on `sim-shard-worker`
    /// processes: spawned locally, one per shard, for
    /// [`Transport::Process`]; dialed at the given addresses for
    /// [`Transport::Socket`] (shard `k` goes to `workers[k]`; the shard
    /// count *is* the worker count, overriding `cfg.shards`). Events flow to
    /// the workers as phase commands, so the full scenario grammar works
    /// across process boundaries. Bit-identical to the in-process engine.
    pub(crate) fn run_external(
        dataset: &Dataset,
        protocol: Protocol,
        mut cfg: SimConfig,
        scenario: Scenario,
        transport: Transport,
        supervision: Option<Supervision>,
    ) -> io::Result<SimReport> {
        if let Transport::Socket(workers) = &transport {
            if workers.is_empty() {
                return Err(io::Error::other(
                    "socket transport needs at least one worker address",
                ));
            }
            if workers.len() > dataset.n_users() {
                return Err(io::Error::other(format!(
                    "{} socket workers for {} nodes — shards cannot outnumber nodes",
                    workers.len(),
                    dataset.n_users()
                )));
            }
            cfg.shards = workers.len();
        }
        let (core, inits) = build(dataset, protocol, cfg, scenario, None);
        let dial_window = supervision
            .as_ref()
            .map_or(DIAL_RETRY_WINDOW, |s| s.dial_window);
        // On any error, dropping the transport sends Stop, closes the
        // connections and reaps spawned workers, so none lingers.
        let link = match transport {
            Transport::Process(worker) => SocketTransport::spawn(&worker, &inits, dial_window)?,
            Transport::Socket(workers) => SocketTransport::connect(&workers, &inits, dial_window)?,
            Transport::InProcess => unreachable!("in-process runs never reach the workers"),
        };
        Ok(drive_with(core, link, supervision)?)
    }

    pub fn protocol(&self) -> Protocol {
        self.core.protocol
    }

    pub fn current_cycle(&self) -> u32 {
        self.core.cycle
    }

    pub fn n_nodes(&self) -> usize {
        self.core.partition.total()
    }

    /// Number of engine shards this simulation runs on.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Nodes currently owned by each shard, in shard order. Run-summary
    /// instrumentation (the CLI prints it next to peak RSS) — deliberately
    /// *not* part of [`SimReport`], which must stay byte-identical across
    /// shard counts.
    pub fn shard_node_counts(&self) -> Vec<usize> {
        (0..self.shards.len())
            .map(|s| self.core.partition.range(s).len())
            .collect()
    }

    /// Aggregated per-component heap accounting across shards
    /// (diagnostics; see `ShardState::memory_breakdown`). Shards share
    /// profile `Arc`s, so pinned snapshots are deduplicated by address over
    /// the whole simulation, excluding every shard's own live profiles.
    #[doc(hidden)]
    pub fn memory_breakdown(&self) -> Vec<(&'static str, usize)> {
        use std::collections::HashSet; // lint:allow(det-map) diagnostics only, result order is fixed below

        // lint:allow(det-map) membership probe only; never iterated
        let own: HashSet<usize> = self
            .shards
            .iter()
            .flat_map(ShardState::own_profile_keys)
            .collect();
        // lint:allow(det-map) dedup probe for byte totals; never iterated
        let mut pinned: HashSet<usize> = HashSet::new();
        let mut totals: Vec<(&'static str, usize)> = Vec::new();
        for shard in &self.shards {
            for (name, bytes) in shard.memory_breakdown(&own, &mut pinned) {
                match totals.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, t)) => *t += bytes,
                    None => totals.push((name, bytes)),
                }
            }
        }
        let core = &self.core;
        let records: usize = core
            .records
            .iter()
            .map(|r| {
                std::mem::size_of::<ItemRecord>()
                    + r.dislikes_at_liked_reception.capacity()
                    + (r.forward_hops.capacity() + r.infection_hops.capacity())
                        * std::mem::size_of::<(u16, bool)>()
            })
            .sum();
        totals.push(("item records", records));
        totals.push((
            "driver per-node",
            core.per_node.capacity() * std::mem::size_of::<NodeIr>()
                + core.liked_this_cycle.capacity() * 4,
        ));
        totals
    }

    pub fn oracle(&self) -> &Oracle {
        &self.core.oracle
    }

    pub fn node(&self, id: NodeId) -> &WhatsUpNode {
        self.shards[self.core.partition.shard_of(id)].node(id)
    }

    /// Liked first receptions per node during the last completed cycle.
    pub fn liked_receptions_last_cycle(&self, id: NodeId) -> u32 {
        self.core.liked_this_cycle[id as usize]
    }

    /// The per-node RNG stream this simulation uses for `(node, cycle,
    /// phase)` — exposed so tests can assert stream stability.
    pub fn stream_for(&self, node: NodeId, cycle: u32, phase: u8) -> ChaCha8Rng {
        node_stream(self.core.cfg.seed, node, cycle, phase)
    }

    /// Runs all remaining cycles and reports.
    pub fn run(mut self) -> SimReport {
        while self.core.cycle < self.core.cfg.cycles {
            self.step();
        }
        self.into_report()
    }

    /// Advances one cycle: gossip phase, churn, then publications. With one
    /// shard the phases run inline; with more, each shard runs on its own
    /// scoped worker thread and the phases exchange typed mail bundles over
    /// channels.
    pub fn step(&mut self) {
        assert!(
            self.core.cycle < self.core.cfg.cycles,
            "simulation already finished"
        );
        let core = &mut self.core;
        let states = &mut self.shards;
        if states.len() == 1 {
            run_cycle(core, &mut InlineTransport { shards: states })
                .expect("inline transport cannot fail");
        } else {
            std::thread::scope(|scope| {
                let mut to = Vec::with_capacity(states.len());
                let mut from = Vec::with_capacity(states.len());
                for state in states.iter_mut() {
                    let (cmd_tx, cmd_rx) = crossbeam::channel::unbounded::<Command>();
                    let (rep_tx, rep_rx) = crossbeam::channel::unbounded::<Reply>();
                    scope.spawn(move || {
                        shard::serve(
                            state,
                            || cmd_rx.recv().ok(),
                            |reply| {
                                let _ = rep_tx.send(reply);
                            },
                        )
                    });
                    to.push(cmd_tx);
                    from.push(rep_rx);
                }
                let mut transport = ChannelTransport::new(to, from);
                // A channel failure means a shard thread panicked; the
                // scope re-raises that panic when it joins, so this
                // expect only adds context.
                run_cycle(core, &mut transport).expect("shard worker thread failed");
                transport.stop();
            });
        }
    }

    /// Crashes `id` and rejoins it fresh (cold start from a random contact
    /// drawn from the engine RNG). Equivalent to a
    /// [`crate::scenario::Event::ResetNode`] timeline event.
    pub fn reset_node(&mut self, id: NodeId) {
        apply_event(
            &mut self.core,
            &mut InlineTransport {
                shards: &mut self.shards,
            },
            Event::ResetNode { node: id },
        )
        .expect("inline transport cannot fail");
    }

    /// Registers a node joining mid-run (§V-C): interests mirror
    /// `reference`, views inherited from a random contact, cold-start
    /// profile from the contact's RPS view (§II-D). The node joins the last
    /// shard; every shard's oracle copy and partition stay in lockstep.
    /// Equivalent to a [`crate::scenario::Event::JoinClone`] timeline event.
    pub fn add_joining_node(&mut self, reference: NodeId) -> NodeId {
        join_clone(
            &mut self.core,
            &mut InlineTransport {
                shards: &mut self.shards,
            },
            reference,
        )
        .expect("inline transport cannot fail")
    }

    /// Swaps the ground-truth interests of two nodes (§V-C). Equivalent to
    /// a [`crate::scenario::Event::SwapInterests`] timeline event.
    pub fn swap_interests(&mut self, a: NodeId, b: NodeId) {
        apply_event(
            &mut self.core,
            &mut InlineTransport {
                shards: &mut self.shards,
            },
            Event::SwapInterests { a, b },
        )
        .expect("inline transport cannot fail");
    }

    /// Mean live similarity between `id`'s profile and the *current*
    /// profiles of its WUP view members.
    pub fn live_view_similarity(&self, id: NodeId) -> f64 {
        self.view_similarity_against(id, self.node(id).profile())
    }

    /// Fig. 7's y-axis: mean similarity between `id`'s *ground-truth
    /// interest profile* (its opinions on the items of the current profile
    /// window) and the live profiles of its WUP view members. Using the
    /// ground truth rather than the node's own lagging profile makes an
    /// interest switch visible immediately: the old view scores poorly for
    /// the new interests until WUP rebuilds it.
    pub fn interest_view_similarity(&self, id: NodeId) -> f64 {
        let gt = self.ground_truth_profile(id);
        self.view_similarity_against(id, &gt)
    }

    /// The windowed ground-truth profile of a node: its true opinion on
    /// every item published within the current profile window. Uses the
    /// per-cycle publication index, so the scan is O(window · items/cycle),
    /// not O(total items).
    pub fn ground_truth_profile(&self, id: NodeId) -> Profile {
        let window = self.core.params.profile_window;
        let now = self.core.cycle;
        let cutoff = now.saturating_sub(window);
        let last = now.min(self.core.published_at_cycle.len() as u32);
        Profile::from_entries((cutoff..last).flat_map(|cycle| {
            self.core.published_at_cycle[cycle as usize]
                .iter()
                .map(move |&index| {
                    let liked = self.core.oracle.likes_index(id, index);
                    whatsup_core::ProfileEntry {
                        item: self.core.item_ids[index as usize],
                        timestamp: cycle,
                        score: if liked { 1.0 } else { 0.0 },
                    }
                })
        }))
    }

    fn view_similarity_against(&self, id: NodeId, reference: &Profile) -> f64 {
        let node = self.node(id);
        let metric = node.params().metric;
        let neighbors = node.wup_neighbor_ids();
        if neighbors.is_empty() {
            return 0.0;
        }
        let sum: f64 = neighbors
            .iter()
            .map(|&nb| metric.score(reference, self.node(nb).profile()))
            .sum();
        sum / neighbors.len() as f64
    }

    /// The current WUP overlay as a directed graph (Fig. 4 analyses).
    pub fn wup_overlay(&self) -> Graph {
        let n = self.core.partition.total();
        let mut g = Graph::new(n);
        for shard in &self.shards {
            for node in shard.nodes() {
                for v in node.wup_neighbor_ids() {
                    if (v as usize) < n {
                        g.add_edge(node.id(), v);
                    }
                }
            }
        }
        g
    }

    /// Report for the cycles executed so far, consuming the simulation (the
    /// records move — nothing is cloned).
    pub fn into_report(self) -> SimReport {
        self.core.into_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whatsup_datasets::{survey, SurveyConfig};

    fn tiny_dataset() -> Dataset {
        survey::generate(&SurveyConfig::paper().scaled(0.12), 42)
    }

    fn quick_cfg() -> SimConfig {
        SimConfig {
            cycles: 20,
            publish_from: 2,
            measure_from: 8,
            ..Default::default()
        }
    }

    #[test]
    fn whatsup_run_produces_sane_report() {
        let d = tiny_dataset();
        let sim = Simulation::new(&d, Protocol::WhatsUp { f_like: 5 }, quick_cfg());
        let report = sim.run();
        assert_eq!(report.n_nodes, d.n_users());
        assert!(report.measured_items() > 0);
        let s = report.scores();
        assert!(s.recall > 0.2, "recall collapsed: {s:?}");
        assert!(s.precision > 0.2, "precision collapsed: {s:?}");
        assert!(report.news_messages > 0);
        assert!(report.gossip_messages > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = tiny_dataset();
        let r1 = Simulation::new(&d, Protocol::WhatsUp { f_like: 4 }, quick_cfg()).run();
        let r2 = Simulation::new(&d, Protocol::WhatsUp { f_like: 4 }, quick_cfg()).run();
        assert_eq!(r1.scores(), r2.scores());
        assert_eq!(r1.news_messages, r2.news_messages);
        assert_eq!(r1.gossip_messages, r2.gossip_messages);
        assert_eq!(r1, r2, "full reports must be bit-identical");
    }

    #[test]
    fn sharded_run_matches_single_shard() {
        let d = tiny_dataset();
        let single = Simulation::new(&d, Protocol::WhatsUp { f_like: 5 }, quick_cfg()).run();
        for shards in [2usize, 3] {
            let cfg = SimConfig {
                shards,
                ..quick_cfg()
            };
            let sim = Simulation::new(&d, Protocol::WhatsUp { f_like: 5 }, cfg);
            assert_eq!(sim.n_shards(), shards);
            let sharded = sim.run();
            assert_eq!(single, sharded, "{shards} shards diverged");
        }
    }

    #[test]
    fn shard_count_is_clamped_to_population() {
        let d = tiny_dataset();
        let cfg = SimConfig {
            shards: 10_000_000,
            ..quick_cfg()
        };
        let sim = Simulation::new(&d, Protocol::WhatsUp { f_like: 5 }, cfg);
        assert_eq!(sim.n_shards(), d.n_users());
    }

    #[test]
    fn gossip_floods_with_high_recall_low_precision() {
        let d = tiny_dataset();
        let gossip = Simulation::new(&d, Protocol::Gossip { fanout: 5 }, quick_cfg()).run();
        let s = gossip.scores();
        assert!(s.recall > 0.9, "homogeneous gossip must flood: {s:?}");
        // Flooding precision ≈ mean like rate (well below 0.6).
        assert!(s.precision < 0.6, "flooding precision too high: {s:?}");
    }

    #[test]
    fn whatsup_beats_gossip_precision_at_same_fanout() {
        let d = tiny_dataset();
        let wu = Simulation::new(&d, Protocol::WhatsUp { f_like: 5 }, quick_cfg()).run();
        let go = Simulation::new(&d, Protocol::Gossip { fanout: 5 }, quick_cfg()).run();
        assert!(
            wu.scores().precision > go.scores().precision,
            "whatsup {:?} vs gossip {:?}",
            wu.scores(),
            go.scores()
        );
    }

    #[test]
    fn loss_degrades_recall() {
        let d = tiny_dataset();
        let clean = Simulation::new(&d, Protocol::WhatsUp { f_like: 3 }, quick_cfg()).run();
        let lossy_cfg = SimConfig {
            loss: 0.5,
            ..quick_cfg()
        };
        let lossy = Simulation::new(&d, Protocol::WhatsUp { f_like: 3 }, lossy_cfg).run();
        assert!(
            lossy.scores().recall < clean.scores().recall,
            "50% loss must hurt recall: clean {:?} lossy {:?}",
            clean.scores(),
            lossy.scores()
        );
    }

    #[test]
    fn dislike_counters_stay_within_ttl() {
        let d = tiny_dataset();
        let report = Simulation::new(&d, Protocol::WhatsUp { f_like: 5 }, quick_cfg()).run();
        let dist = report.dislike_distribution(4);
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for r in &report.items {
            assert!(r.dislikes_at_liked_reception.iter().all(|&x| x <= 4));
        }
    }

    #[test]
    fn overlay_graph_has_out_degree_bounded_by_view() {
        let d = tiny_dataset();
        let mut sim = Simulation::new(&d, Protocol::WhatsUp { f_like: 5 }, quick_cfg());
        for _ in 0..10 {
            sim.step();
        }
        let g = sim.wup_overlay();
        assert_eq!(g.len(), d.n_users());
        for u in 0..g.len() as u32 {
            assert!(g.out_degree(u) <= 10, "view size bound violated");
        }
    }

    #[test]
    fn joining_node_integrates() {
        let d = tiny_dataset();
        let mut sim = Simulation::new(&d, Protocol::WhatsUp { f_like: 5 }, quick_cfg());
        for _ in 0..6 {
            sim.step();
        }
        let joiner = sim.add_joining_node(0);
        assert_eq!(joiner as usize, d.n_users());
        for _ in 6..quick_cfg().cycles as usize {
            sim.step();
        }
        // The joiner must have acquired neighbors and a profile.
        assert!(!sim.node(joiner).wup_neighbor_ids().is_empty());
        assert!(sim.live_view_similarity(joiner) >= 0.0);
    }

    #[test]
    fn joining_node_integrates_on_sharded_engine() {
        let d = tiny_dataset();
        let cfg = SimConfig {
            shards: 3,
            ..quick_cfg()
        };
        let mut sim = Simulation::new(&d, Protocol::WhatsUp { f_like: 5 }, cfg);
        for _ in 0..6 {
            sim.step();
        }
        let joiner = sim.add_joining_node(0);
        sim.swap_interests(1, 2);
        for _ in 6..quick_cfg().cycles as usize {
            sim.step();
        }
        assert!(!sim.node(joiner).wup_neighbor_ids().is_empty());
        assert!(sim.live_view_similarity(joiner) >= 0.0);
    }

    #[test]
    fn measured_flag_follows_threshold() {
        let d = tiny_dataset();
        let report = Simulation::new(&d, Protocol::WhatsUp { f_like: 4 }, quick_cfg()).run();
        for r in &report.items {
            assert_eq!(r.measured, r.published_at >= quick_cfg().measure_from);
        }
    }

    #[test]
    fn churn_keeps_running_and_degrades_gracefully() {
        let d = tiny_dataset();
        let churny = SimConfig {
            churn_per_cycle: 0.05,
            ..quick_cfg()
        };
        let a = Simulation::new(&d, Protocol::WhatsUp { f_like: 5 }, churny.clone()).run();
        let b = Simulation::new(&d, Protocol::WhatsUp { f_like: 5 }, churny).run();
        assert_eq!(a, b, "churn must stay deterministic");
        assert!(a.scores().recall > 0.0);
    }

    /// Pinned snapshot bytes of a `shards`-shard run after `cycles` steps.
    fn pinned_snapshot_bytes(d: &Dataset, shards: usize, cycles: usize) -> usize {
        let cfg = SimConfig {
            shards,
            ..quick_cfg()
        };
        let mut sim = Simulation::new(d, Protocol::WhatsUp { f_like: 5 }, cfg);
        for _ in 0..cycles {
            sim.step();
        }
        sim.memory_breakdown()
            .into_iter()
            .find(|(name, _)| *name == "pinned snapshots")
            .expect("pinned snapshots row")
            .1
    }

    #[test]
    fn cross_shard_mail_keeps_snapshot_sharing() {
        // In-process shards trade typed mail, so a profile disclosed across
        // a shard boundary stays one `Arc`: pinned snapshot memory must not
        // grow with the shard count. A per-copy decode would give every
        // remote copy its own allocation and roughly triple it.
        let d = survey::generate(&SurveyConfig::paper().scaled(0.35), 42);
        let one = pinned_snapshot_bytes(&d, 1, 12);
        let two = pinned_snapshot_bytes(&d, 2, 12);
        assert!(one > 0, "the run pins no snapshots");
        assert!(
            two as f64 <= 1.25 * one as f64,
            "2 shards pin {two} snapshot bytes against {one} at 1 shard"
        );
    }

    #[test]
    #[should_panic(expected = "does not run on the node engine")]
    fn global_protocols_rejected() {
        let d = tiny_dataset();
        let _ = Simulation::new(&d, Protocol::Cascade, quick_cfg());
    }
}
