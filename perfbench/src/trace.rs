//! Spans recorded from outside the program, around the benchmark's own
//! calls into each layer's public functions, plus the classifier that
//! labels every cycle from the scenario.
//!
//! Spans stay in memory and are written out once, when the run ends, so
//! recording never does I/O between the calls it times.

use std::time::Instant;
use whatsup_sim::scenario::{Anchor, Scenario};
use whatsup_sim::SimConfig;

/// One timed interval, in nanoseconds since the trace's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The simulated cycle a `step` span executed.
    pub cycle: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span list.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, cycle: Option<u32>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            cycle,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, None);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Span ids whose name is `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = usize> + 'a {
        (0..self.spans.len()).filter(move |&i| self.spans[i].name == name)
    }

    /// Self time of span `id`: its duration minus the part of its
    /// interval that its child spans cover (overlapping children count
    /// once; a child sticking out of the parent counts only inside it).
    pub fn self_ns(&self, id: usize) -> u64 {
        let parent = &self.spans[id];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = parent.start_ns;
        for (a, b) in children {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        parent.duration_ns() - covered
    }

    /// The spans as one JSON document (written out once, at the end).
    pub fn to_json(&self) -> serde::json::Value {
        use serde::json::Value;
        let opt = |v: Option<u64>| v.map_or(Value::Null, |n| Value::Number(n as f64));
        Value::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Value::object(vec![
                        ("id", Value::Number(i as f64)),
                        ("name", Value::String(s.name.into())),
                        ("parent", opt(s.parent.map(|p| p as u64))),
                        ("cycle", opt(s.cycle.map(u64::from))),
                        ("start_ns", Value::Number(s.start_ns as f64)),
                        ("end_ns", Value::Number(s.end_ns as f64)),
                        ("self_ns", Value::Number(self.self_ns(i) as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// What a cycle does, read from the run configuration and the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleClass {
    /// Before `publish_from`: only RPS/WUP gossip runs.
    GossipOnly,
    /// An ordinary publication cycle.
    Publish,
    /// The flash-crowd burst cycle.
    Flash,
    /// A cycle with churn: a crash wave, a mass join, uniform churn or a
    /// timeline event.
    Churn,
}

impl CycleClass {
    pub const ALL: [CycleClass; 4] = [
        CycleClass::GossipOnly,
        CycleClass::Publish,
        CycleClass::Flash,
        CycleClass::Churn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            CycleClass::GossipOnly => "gossip_only",
            CycleClass::Publish => "publish",
            CycleClass::Flash => "flash",
            CycleClass::Churn => "churn",
        }
    }
}

/// Labels every cycle of a run. A cycle with both a burst and churn is a
/// flash cycle: the burst dominates its cost.
pub fn classify(cfg: &SimConfig, scenario: &Scenario) -> Vec<CycleClass> {
    // The schedule clamps the burst into the publication window; so do we.
    let flash = Anchor::FlashCrowd
        .resolve(scenario)
        .map(|at| at.clamp(cfg.publish_from, cfg.cycles.saturating_sub(1)));
    let churn = &scenario.environment.churn;
    (0..cfg.cycles)
        .map(|c| {
            if c < cfg.publish_from {
                CycleClass::GossipOnly
            } else if flash == Some(c) {
                CycleClass::Flash
            } else if churn.crash_rate(c) > 0.0
                || churn.joins_at(c) > 0
                || scenario.events.iter().any(|e| e.at == c)
            {
                CycleClass::Churn
            } else {
                CycleClass::Publish
            }
        })
        .collect()
}

/// Which third of the run a cycle falls in: `Some(true)` for the first
/// third, `Some(false)` for the last, `None` for the middle.
pub fn third(cycle: u32, cycles: u32) -> Option<bool> {
    let t = cycles / 3;
    if cycle < t {
        Some(true)
    } else if cycle >= cycles - t {
        Some(false)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{self, Kind, Size};

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            cycle: None,
            start_ns,
            end_ns,
        }
    }

    fn traced(spans: Vec<Span>) -> Trace {
        Trace {
            origin: Instant::now(),
            spans,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let trace = traced(vec![
            span("run", None, 0, 100),
            span("step", Some(0), 10, 20),
            span("step", Some(0), 15, 30),
            // Sticks out of the parent: only [90, 100) counts.
            span("probe", Some(0), 90, 120),
            // A grandchild is the child's business, not the root's.
            span("inner", Some(1), 12, 18),
        ]);
        assert_eq!(trace.self_ns(0), 100 - 20 - 10);
        assert_eq!(trace.self_ns(1), 10 - 6);
        assert_eq!(trace.self_ns(4), 6);
    }

    #[test]
    fn self_time_of_a_leaf_is_its_duration() {
        let trace = traced(vec![span("a", None, 5, 9), span("b", None, 7, 30)]);
        assert_eq!(trace.self_ns(0), 4);
        assert_eq!(trace.self_ns(1), 23);
    }

    #[test]
    fn classifier_finds_flash_and_crash_wave_cycles_from_the_scenario() {
        let inputs = workload::inputs(Kind::ChurnFlash, 3, Size::Full);
        let classes = classify(&inputs.cfg, &inputs.scenario);
        assert_eq!(classes.len(), inputs.cfg.cycles as usize);
        let cycles_of = |class| {
            (0..classes.len() as u32)
                .filter(|&c| classes[c as usize] == class)
                .collect::<Vec<_>>()
        };
        let flash = Anchor::FlashCrowd.resolve(&inputs.scenario).unwrap();
        let crash = Anchor::CrashWave.resolve(&inputs.scenario).unwrap();
        assert_eq!(cycles_of(CycleClass::Flash), vec![flash]);
        assert!(cycles_of(CycleClass::Churn).contains(&crash));
        let mut event_cycles: Vec<u32> = inputs.scenario.events.iter().map(|e| e.at).collect();
        event_cycles.push(crash);
        event_cycles.sort_unstable();
        event_cycles.dedup();
        assert_eq!(cycles_of(CycleClass::Churn), event_cycles);
        assert_eq!(
            cycles_of(CycleClass::GossipOnly),
            (0..inputs.cfg.publish_from).collect::<Vec<_>>()
        );
    }

    #[test]
    fn classifier_moves_with_the_scenario() {
        let mut inputs = workload::inputs(Kind::ChurnFlash, 3, Size::Small);
        inputs.scenario = workload::churn_flash_scenario(30, 200, 9);
        inputs.cfg.cycles = 30;
        let classes = classify(&inputs.cfg, &inputs.scenario);
        assert_eq!(classes[15], CycleClass::Flash);
        assert_eq!(classes[21], CycleClass::Churn);
    }

    #[test]
    fn uniform_workloads_have_no_flash_or_churn_cycles() {
        for kind in [Kind::PaperSurvey, Kind::Shard5k] {
            let inputs = workload::inputs(kind, 1, Size::Small);
            let classes = classify(&inputs.cfg, &inputs.scenario);
            assert!(classes
                .iter()
                .all(|c| matches!(c, CycleClass::GossipOnly | CycleClass::Publish)));
        }
    }

    #[test]
    fn thirds_split_the_run() {
        let early: Vec<u32> = (0..65).filter(|&c| third(c, 65) == Some(true)).collect();
        let late: Vec<u32> = (0..65).filter(|&c| third(c, 65) == Some(false)).collect();
        assert_eq!(early, (0..21).collect::<Vec<_>>());
        assert_eq!(late, (44..65).collect::<Vec<_>>());
    }
}
