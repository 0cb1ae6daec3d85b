//! The two kinds of run. Both are closed loops with one client: one
//! simulation at a time, back to back, until the time budget is spent.
//!
//! * [`untraced`] times `Runner::build` and `Simulation::run` and nothing
//!   else, each simulation in a fresh process; it gives the end-to-end
//!   metrics.
//! * [`traced`] steps the same simulation cycle by cycle inside spans,
//!   probes the layers at the end of the run, and gives the per-layer
//!   metrics. It runs in the `perfbench-traced` executable, whose counting
//!   allocator would otherwise slow the untraced numbers.

use crate::check;
use crate::host;
use crate::trace::{self, CycleClass, Trace};
use crate::workload::Inputs;
use crate::Args;
use bytes::BytesMut;
use serde::json::Value;
use std::hint::black_box;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;
use whatsup_core::{Descriptor, NodeId, Payload, SharedProfile};
use whatsup_net::codec::{self, WireMessage};
use whatsup_sim::{SimReport, Simulation};

/// Before the simulations, a run times `Runner::build` back to back for
/// this long (and at least [`SETUP_MIN_REPS`] times), so the `setup_s`
/// median rests on many samples even when a run fits only a few
/// simulations.
pub const SETUP_SECONDS: f64 = 0.5;
pub const SETUP_MIN_REPS: usize = 5;

/// One named, unit-carrying number of the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit: unit.into(),
            value,
        }
    }
}

/// What a run measured and how many of its simulations passed the checks.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// The report digest; every simulation of a run must agree on it.
    pub digest: Option<String>,
    pub metrics: Vec<Metric>,
    /// Nodes × cycles per second of wall time (median over simulations).
    pub node_cycles_per_s: f64,
}

impl Outcome {
    /// Records one simulation's check result.
    fn record(&mut self, digest: String, mut problems: Vec<String>) {
        self.attempted += 1;
        match &self.digest {
            Some(first) if *first != digest => problems.push(format!(
                "report_digest {digest} differs from the run's first simulation ({first})"
            )),
            Some(_) => {}
            None => self.digest = Some(digest),
        }
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Runs simulations back to back until `seconds` since `started` are
/// spent: another one starts only while the previous one's duration still
/// fits, and at least one always runs.
fn closed_loop(started: Instant, seconds: f64, mut one: impl FnMut()) {
    loop {
        let t = Instant::now();
        one();
        let last = t.elapsed().as_secs_f64();
        if started.elapsed().as_secs_f64() + last > seconds {
            break;
        }
    }
}

/// Timed builds for [`SETUP_SECONDS`], each dropped at once; `around`
/// wraps each build (the traced run records a span there).
fn setup_samples(inputs: &Inputs, mut around: impl FnMut(&mut dyn FnMut())) -> Vec<f64> {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < SETUP_MIN_REPS || started.elapsed().as_secs_f64() < SETUP_SECONDS {
        let t = Instant::now();
        around(&mut || drop(black_box(inputs.build())));
        samples.push(t.elapsed().as_secs_f64());
    }
    samples
}

/// Wall time less the CPU time the hypervisor stole from the host's vCPUs
/// meanwhile, crediting at most half the wall time. On a shared host,
/// steal comes in episodes that slow a run by up to half (both shard
/// threads wait at every phase barrier for a stolen vCPU); the program
/// neither causes nor can avoid it. Where no steal is reported, this is
/// the plain wall time.
pub fn unstolen(wall_s: f64, steal_s: f64) -> f64 {
    wall_s - steal_s.clamp(0.0, wall_s / 2.0)
}

fn node_cycles(report: &SimReport) -> f64 {
    report.n_nodes as f64 * f64::from(report.cycles)
}

/// One simulation's end-to-end numbers and check result.
#[derive(Debug, Clone, PartialEq)]
pub struct Simulated {
    /// `Runner::build` wall time.
    pub setup_s: f64,
    /// `Simulation::run` wall time, and the host steal during it.
    pub wall_s: f64,
    pub steal_s: f64,
    pub node_cycles: f64,
    pub peak_rss_mib: f64,
    pub f1: f64,
    pub msgs_per_node_cycle: f64,
    pub digest: String,
    pub problems: Vec<String>,
}

impl Simulated {
    pub fn node_cycles_per_s(&self) -> f64 {
        self.node_cycles / unstolen(self.wall_s, self.steal_s)
    }

    pub fn to_json(&self) -> Value {
        let n = Value::Number;
        Value::object(vec![
            ("setup_s", n(self.setup_s)),
            ("wall_s", n(self.wall_s)),
            ("steal_s", n(self.steal_s)),
            ("node_cycles", n(self.node_cycles)),
            ("peak_rss_mib", n(self.peak_rss_mib)),
            ("f1", n(self.f1)),
            ("msgs_per_node_cycle", n(self.msgs_per_node_cycle)),
            ("report_digest", Value::String(self.digest.clone())),
            (
                "problems",
                Value::Array(self.problems.iter().cloned().map(Value::String).collect()),
            ),
        ])
    }

    pub fn parse(line: &str) -> Result<Simulated, String> {
        let v = serde::json::parse(line).map_err(|e| format!("unparsable simulation line: {e}"))?;
        let num = |key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("simulation line lacks {key:?}"))
        };
        let problems = v
            .get("problems")
            .and_then(Value::as_array)
            .ok_or("simulation line lacks \"problems\"")?
            .iter()
            .map(|p| p.as_str().map(String::from).ok_or("non-string problem"))
            .collect::<Result<_, _>>()?;
        Ok(Simulated {
            setup_s: num("setup_s")?,
            wall_s: num("wall_s")?,
            steal_s: num("steal_s")?,
            node_cycles: num("node_cycles")?,
            peak_rss_mib: num("peak_rss_mib")?,
            f1: num("f1")?,
            msgs_per_node_cycle: num("msgs_per_node_cycle")?,
            digest: v
                .get("report_digest")
                .and_then(Value::as_str)
                .ok_or("simulation line lacks \"report_digest\"")?
                .to_string(),
            problems,
        })
    }
}

/// Builds and runs one simulation in this process, timing `Runner::build`
/// and `Simulation::run`. The peak RSS is this process's since the inputs
/// were generated, so the caller must be a fresh process.
pub fn one_simulation(inputs: &Inputs, seed: u64) -> Simulated {
    host::reset_peak_rss();
    let t = Instant::now();
    let sim = black_box(inputs.build());
    let setup_s = t.elapsed().as_secs_f64();
    let steal = host::steal_seconds();
    let t = Instant::now();
    let report = black_box(sim.run());
    let wall_s = t.elapsed().as_secs_f64();
    let steal_s = host::steal_seconds() - steal;
    let peak_rss_mib = host::peak_rss_mib().unwrap_or(f64::NAN);
    let (digest, problems) = check::check(inputs, seed, &report);
    Simulated {
        setup_s,
        wall_s,
        steal_s,
        node_cycles: node_cycles(&report),
        peak_rss_mib,
        f1: report.scores().f1,
        msgs_per_node_cycle: (report.gossip_messages + report.news_messages_all) as f64
            / node_cycles(&report),
        digest,
        problems,
    }
}

/// Runs [`one_simulation`] in a fresh process: `exe` (the `perfbench`
/// executable) with `args` plus `--one-simulation`. A fresh process per
/// simulation keeps `peak_rss_mib` that simulation's own: freed heap of an
/// earlier simulation stays resident in the allocator's arenas even after
/// `malloc_trim`, and would count again (see `tests/rss_isolation.rs`).
pub fn simulate_in_child(exe: &Path, args: &Args) -> Result<Simulated, String> {
    let mut child_args = args.to_command_line();
    child_args.push("--one-simulation".into());
    Simulated::parse(&run_child(exe, &child_args)?)
}

/// Runs `exe` with `args` to completion and returns the last line of its
/// standard output (its standard error passes through).
pub fn run_child(exe: &Path, args: &[String]) -> Result<String, String> {
    let child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running {}: {e}", exe.display()))?;
    if !child.status.success() {
        return Err(format!("{} failed ({})", exe.display(), child.status));
    }
    let stdout = String::from_utf8_lossy(&child.stdout);
    Ok(stdout.lines().last().unwrap_or_default().to_string())
}

/// The end-to-end run: `setup_s`, `node_cycles_per_s`, `peak_rss_mib`,
/// `f1` and `msgs_per_node_cycle`. `setup_s` pools this process's build
/// samples with each simulation's; `simulate` runs one simulation.
pub fn untraced(
    inputs: &Inputs,
    seconds: f64,
    mut simulate: impl FnMut() -> Result<Simulated, String>,
) -> Outcome {
    let started = Instant::now();
    let mut out = Outcome::default();
    let mut setup = setup_samples(inputs, |build| build());
    let mut sims: Vec<Simulated> = Vec::new();
    closed_loop(started, seconds, || match simulate() {
        Ok(sim) => {
            eprintln!(
                "perfbench: simulation {}: wall {:.3} s, host steal {:.2} s, {:.1} node-cycles/s, peak RSS {:.1} MiB",
                sims.len() + 1,
                sim.wall_s,
                sim.steal_s,
                sim.node_cycles_per_s(),
                sim.peak_rss_mib
            );
            setup.push(sim.setup_s);
            out.record(sim.digest.clone(), sim.problems.clone());
            sims.push(sim);
        }
        Err(problem) => {
            out.attempted += 1;
            out.failed += 1;
            out.problems.push(problem);
        }
    });
    let med = |f: fn(&Simulated) -> f64| median(&sims.iter().map(f).collect::<Vec<_>>());
    out.node_cycles_per_s = med(Simulated::node_cycles_per_s);
    out.metrics = vec![
        Metric::new("node_cycles_per_s", "node_cycles/s", out.node_cycles_per_s),
        Metric::new("setup_s", "s", median(&setup)),
        Metric::new("peak_rss_mib", "MiB", med(|s| s.peak_rss_mib)),
        Metric::new("f1", "ratio", med(|s| s.f1)),
        Metric::new(
            "msgs_per_node_cycle",
            "msgs",
            med(|s| s.msgs_per_node_cycle),
        ),
    ];
    out
}

/// Per-simulation numbers of a traced run; the run reports their medians.
#[derive(Default)]
struct TracedRep {
    values: Vec<(String, &'static str, f64)>,
}

impl TracedRep {
    fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.values.push((name.into(), unit, value));
    }
}

/// End-of-run similarity probe: the node's own metric scored over every
/// (node, WUP neighbour) pair. Returns `(evals, ns per eval, mean profile
/// entries)`.
fn similarity_probe(sim: &Simulation) -> (f64, f64, f64) {
    let n = sim.n_nodes();
    let mut pairs = Vec::new();
    let mut entries = 0usize;
    for id in 0..n as NodeId {
        let node = sim.node(id);
        entries += node.profile().len();
        pairs.extend(
            node.wup_neighbor_ids()
                .into_iter()
                .filter(|&nb| (nb as usize) < n)
                .map(|nb| (id, nb)),
        );
    }
    let t = Instant::now();
    let mut acc = 0.0;
    for &(a, b) in &pairs {
        let node = sim.node(a);
        acc += node
            .params()
            .metric
            .score(node.profile(), sim.node(b).profile());
    }
    let ns = t.elapsed().as_nanos() as f64;
    black_box(acc);
    let evals = pairs.len().max(1) as f64;
    (
        pairs.len() as f64,
        ns / evals,
        entries as f64 / n.max(1) as f64,
    )
}

/// End-of-run codec probe: every node's WUP view encoded and decoded as a
/// gossip frame. Returns `(bytes per descriptor, encode ns per byte,
/// decode ns per byte)`, or a problem when a frame does not round-trip.
fn codec_probe(sim: &Simulation) -> Result<(f64, f64, f64), String> {
    let n = sim.n_nodes();
    let frames: Vec<(NodeId, Payload)> = (0..n as NodeId)
        .map(|id| {
            let view = sim
                .node(id)
                .wup_neighbor_ids()
                .into_iter()
                .filter(|&nb| (nb as usize) < n)
                .map(|nb| Descriptor::fresh(nb, SharedProfile::new(sim.node(nb).profile().clone())))
                .collect();
            (id, Payload::WupRequest(view))
        })
        .collect();
    let descriptors: usize = frames
        .iter()
        .map(|(_, p)| match p {
            Payload::WupRequest(d) => d.len(),
            _ => 0,
        })
        .sum();
    let t = Instant::now();
    let encoded: Vec<BytesMut> = frames
        .iter()
        .map(|(from, payload)| {
            let mut buf = BytesMut::new();
            codec::encode_into(&mut buf, *from, payload, |_| None);
            buf
        })
        .collect();
    let encode_ns = t.elapsed().as_nanos() as f64;
    let bytes: usize = encoded.iter().map(|b| b.len()).sum();
    let t = Instant::now();
    let decoded: Vec<_> = encoded.iter().map(|b| codec::decode(b)).collect();
    let decode_ns = t.elapsed().as_nanos() as f64;
    for ((from, payload), got) in frames.iter().zip(decoded) {
        let Payload::WupRequest(want) = payload else {
            unreachable!("frames are built as WUP requests")
        };
        match got {
            Ok((f, WireMessage::Gossip { descriptors, .. }))
                if f == *from && descriptors == *want => {}
            other => {
                return Err(format!(
                    "codec probe: node {from}'s frame decoded to {other:?}"
                ))
            }
        }
    }
    let bytes_f = bytes.max(1) as f64;
    Ok((
        bytes as f64 / descriptors.max(1) as f64,
        encode_ns / bytes_f,
        decode_ns / bytes_f,
    ))
}

/// Mean step self time per class, and µs per message per class, from the
/// step spans under `run` joined with the report's per-cycle series.
fn cycle_metrics(
    rep: &mut TracedRep,
    trace: &Trace,
    run: usize,
    classes: &[CycleClass],
    report: &SimReport,
) {
    let series = report.series.cycles();
    let steps: Vec<(u32, f64)> = trace
        .named("step")
        .filter(|&i| trace.spans()[i].parent == Some(run))
        .filter_map(|i| Some((trace.spans()[i].cycle?, trace.self_ns(i) as f64)))
        .collect();
    let mean_ms = |keep: &dyn Fn(u32) -> bool| {
        let v: Vec<f64> = steps
            .iter()
            .filter(|(c, _)| keep(*c))
            .map(|(_, ns)| ns / 1e6)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    // A workload without flash or churn cycles reports the publish-class
    // mean for those classes, so every class reads a measured time.
    let in_class = |class| move |c: u32| classes[c as usize] == class;
    for class in CycleClass::ALL {
        let present = classes.contains(&class);
        let ms = mean_ms(&in_class(if present { class } else { CycleClass::Publish }));
        rep.put(format!("engine.cycle_ms.{}", class.name()), "ms", ms);
    }
    let cycles = report.cycles;
    rep.put(
        "engine.cycle_ms.early",
        "ms",
        mean_ms(&|c| trace::third(c, cycles) == Some(true)),
    );
    rep.put(
        "engine.cycle_ms.late",
        "ms",
        mean_ms(&|c| trace::third(c, cycles) == Some(false)),
    );
    for class in [CycleClass::GossipOnly, CycleClass::Publish] {
        let (mut ns, mut msgs) = (0.0, 0u64);
        for &(c, step_ns) in steps.iter().filter(|(c, _)| classes[*c as usize] == class) {
            ns += step_ns;
            msgs += series
                .get(c as usize)
                .map_or(0, |s| s.gossip_sent + s.news_sent);
        }
        let us = if msgs == 0 {
            0.0
        } else {
            ns / 1e3 / msgs as f64
        };
        rep.put(format!("engine.us_per_msg.{}", class.name()), "us", us);
    }
}

/// One traced simulation: build, step loop, end-of-run probes, report.
fn traced_rep(
    inputs: &Inputs,
    seed: u64,
    trace: &mut Trace,
    out: &mut Outcome,
    setup: &mut Vec<f64>,
) -> TracedRep {
    let mut rep = TracedRep::default();
    let classes = trace::classify(&inputs.cfg, &inputs.scenario);
    host::reset_peak_rss();
    host::reset_heap_peak();
    let live_before = host::live_heap_mib();

    let t = Instant::now();
    let mut sim = trace.time("build", None, || inputs.build());
    setup.push(t.elapsed().as_secs_f64());

    let steal = host::steal_seconds();
    let run = trace.open("run", None, None);
    let (user0, sys0) = host::cpu_seconds();
    let t = Instant::now();
    while sim.current_cycle() < inputs.cfg.cycles {
        let step = trace.open("step", Some(run), Some(sim.current_cycle()));
        sim.step();
        trace.close(step);
    }
    let loop_s = t.elapsed().as_secs_f64();
    let (user1, sys1) = host::cpu_seconds();
    trace.close(run);
    let mut stolen = host::steal_seconds() - steal;

    let shards = sim.n_shards() as f64;
    rep.put(
        "engine.shard_busy_frac",
        "ratio",
        (user1 - user0 + sys1 - sys0) / (loop_s * shards),
    );
    rep.put("engine.sys_s", "s", sys1 - sys0);
    let counts = sim.shard_node_counts();
    let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
    rep.put(
        "engine.shard_skew",
        "ratio",
        *counts.iter().max().unwrap_or(&0) as f64 / mean,
    );

    let live_sim = host::live_heap_mib() - live_before;
    let breakdown = sim.memory_breakdown();
    let mib = |b: usize| b as f64 / (1024.0 * 1024.0);
    for (name, bytes) in &breakdown {
        let stem = name.replace([' ', '-'], "_");
        rep.put(format!("heap.component.{stem}_mib"), "MiB", mib(*bytes));
    }
    let attributed: usize = breakdown.iter().map(|(_, b)| b).sum();
    rep.put("heap.attributed_frac", "ratio", mib(attributed) / live_sim);

    let mut probe_problems = Vec::new();
    let (evals, ns_per_eval, entries) =
        trace.time("probe.similarity", None, || similarity_probe(&sim));
    rep.put("similarity.evals", "count", evals);
    rep.put("similarity.ns_per_eval", "ns", ns_per_eval);
    rep.put("profile.mean_entries", "count", entries);
    let (per_desc, enc, dec) = trace
        .time("probe.codec", None, || codec_probe(&sim))
        .unwrap_or_else(|problem| {
            probe_problems.push(problem);
            (f64::NAN, f64::NAN, f64::NAN)
        });
    rep.put("codec.bytes_per_descriptor", "bytes", per_desc);
    rep.put("codec.encode_ns_per_byte", "ns/byte", enc);
    rep.put("codec.decode_ns_per_byte", "ns/byte", dec);

    let steal = host::steal_seconds();
    let into_report = trace.open("into_report", None, None);
    let report = sim.into_report();
    trace.close(into_report);
    stolen += host::steal_seconds() - steal;
    let rss = host::peak_rss_mib().unwrap_or(f64::NAN);
    let live_peak = host::peak_heap_mib();
    rep.put("heap.live_peak_mib", "MiB", live_peak);
    rep.put("heap.rss_over_live", "ratio", rss / live_peak);

    let summary = trace.open("summary_json", None, None);
    let text = report.summary_json().pretty();
    trace.close(summary);

    let run_ns = trace.spans()[run].duration_ns() + trace.spans()[into_report].duration_ns();
    let run_s = unstolen(run_ns as f64 / 1e9, stolen);
    rep.put(
        "node_cycles_per_s",
        "node_cycles/s",
        node_cycles(&report) / run_s,
    );
    rep.put(
        "record.into_report_s",
        "s",
        trace.spans()[into_report].duration_ns() as f64 / 1e9,
    );
    rep.put(
        "record.summary_json_s",
        "s",
        trace.spans()[summary].duration_ns() as f64 / 1e9,
    );
    rep.put("record.report_bytes", "bytes", text.len() as f64);
    cycle_metrics(&mut rep, trace, run, &classes, &report);

    let series = report.series.cycles();
    let first: u64 = series.iter().map(|c| c.first_receptions).sum();
    let sent: u64 = series.iter().map(|c| c.news_sent).sum();
    rep.put(
        "beep.useful_frac",
        "ratio",
        first as f64 / sent.max(1) as f64,
    );
    let nc = node_cycles(&report);
    rep.put(
        "gossip.msgs_per_node_cycle",
        "msgs",
        report.gossip_messages as f64 / nc,
    );
    rep.put(
        "news.msgs_per_node_cycle",
        "msgs",
        report.news_messages_all as f64 / nc,
    );

    let (digest, mut problems) = check::check(inputs, seed, &report);
    problems.extend(probe_problems);
    out.record(digest, problems);
    rep
}

/// The per-layer run. Returns every per-layer metric except
/// `trace.overhead_frac`, which needs the untraced rate, plus the spans.
pub fn traced(inputs: &Inputs, seed: u64, seconds: f64) -> (Outcome, Trace) {
    let started = Instant::now();
    let mut out = Outcome::default();
    let mut trace = Trace::new();
    let mut setup = setup_samples(inputs, |build| trace.time("build", None, build));
    let mut reps = Vec::new();
    closed_loop(started, seconds, || {
        reps.push(traced_rep(inputs, seed, &mut trace, &mut out, &mut setup))
    });

    let mut metrics = vec![Metric::new("runner.build_s", "s", median(&setup))];
    let Some(first) = reps.first() else {
        return (out, trace);
    };
    // Every simulation puts the same metrics in the same order.
    for (i, (name, unit, _)) in first.values.iter().enumerate() {
        let samples: Vec<f64> = reps.iter().map(|r| r.values[i].2).collect();
        let value = median(&samples);
        if name == "node_cycles_per_s" {
            out.node_cycles_per_s = value;
        } else {
            metrics.push(Metric::new(name.clone(), unit, value));
        }
    }
    out.metrics = metrics;
    (out, trace)
}
