//! The benchmark's workloads: each one a dataset, a run configuration and a
//! scenario, generated from the workload seed. The simulator only ever sees
//! these generated inputs. Why each workload exists is in `README.md`.

use whatsup_datasets::{survey, synthetic, Dataset, SurveyConfig, SyntheticConfig};
use whatsup_sim::scenario::{
    Anchor, ChurnModel, Environment, Event, LossModel, Measurement, Scenario, TimedEvent,
    WindowSpec, Workload,
};
use whatsup_sim::{Protocol, Runner, SimConfig, Simulation};

/// Every workload runs WhatsUp with `f_like = 5`.
pub const PROTOCOL: Protocol = Protocol::WhatsUp { f_like: 5 };

/// The benchmark's workloads, by their `BENCHMARK.json` names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's own experiment: survey dataset, 480 users, 65 cycles.
    PaperSurvey,
    /// `scale_engine`'s 5000-user survey recipe, young profiles, 2 shards.
    Shard5k,
    /// Synthetic paper-scale dataset under flash crowd, loss and churn.
    ChurnFlash,
}

pub const ALL: [Kind; 3] = [Kind::PaperSurvey, Kind::Shard5k, Kind::ChurnFlash];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperSurvey => "paper-survey",
            Kind::Shard5k => "shard-5k",
            Kind::ChurnFlash => "churn-flash",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Full-size inputs, or a small variant of the same shape for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Small,
}

/// One workload's generated inputs.
pub struct Inputs {
    pub kind: Kind,
    pub size: Size,
    pub dataset: Dataset,
    pub cfg: SimConfig,
    pub scenario: Scenario,
}

impl Inputs {
    /// `Runner::build`, exactly as a user would call it: oracle,
    /// partition, bootstrap and shard init.
    pub fn build(&self) -> Simulation {
        Runner::new(&self.dataset, PROTOCOL)
            .config(self.cfg.clone())
            .scenario(self.scenario.clone())
            .build()
    }

    /// The same inputs on another shard count (reports must not change).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.cfg.shards = shards;
        self
    }
}

/// SplitMix64: a tiny, stable generator for the scenario's event draws, so
/// the inputs depend on the seed alone and never on a library's RNG
/// version.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: u32) -> u32 {
        (self.next_u64() % u64::from(n)) as u32
    }
}

/// Every workload's dataset is generated from this fixed seed (the one
/// `scale_engine` uses): like the paper's survey, the dataset is part of
/// the workload's definition. The workload seed drives everything else —
/// the simulator's RNG (peer sampling, BEEP coins, loss and churn draws)
/// and the scenario's event draws. Across seeds, a dataset seed moves
/// message volume by ±12% on `paper-survey` (and more on `shard-5k`),
/// which would drown any regression bound; the simulator seed alone does
/// not.
pub const DATASET_SEED: u64 = 7;

/// The simulator's RNG seed for workload seed `seed`.
fn sim_seed(seed: u64) -> u64 {
    SplitMix::new(seed ^ 0x513d_5eed).next_u64()
}

/// Generates `kind`'s inputs from `seed`.
pub fn inputs(kind: Kind, seed: u64, size: Size) -> Inputs {
    let full = size == Size::Full;
    match kind {
        Kind::PaperSurvey => {
            let data_cfg = if full {
                SurveyConfig::paper()
            } else {
                SurveyConfig::paper().scaled(0.25)
            };
            Inputs {
                kind,
                size,
                dataset: survey::generate(&data_cfg, DATASET_SEED),
                cfg: SimConfig {
                    cycles: if full { 65 } else { 30 },
                    seed: sim_seed(seed),
                    shards: 1,
                    ..SimConfig::default()
                },
                scenario: Scenario::default(),
            }
        }
        Kind::Shard5k => {
            // `scale_engine`'s recipe: fixed item load, users scale
            // through the replication base.
            let users = if full { 5000 } else { 1000 };
            let data_cfg = SurveyConfig {
                base_users: users / 4,
                base_items: 100,
                ..SurveyConfig::paper()
            };
            Inputs {
                kind,
                size,
                dataset: survey::generate(&data_cfg, DATASET_SEED),
                cfg: SimConfig {
                    cycles: if full { 10 } else { 6 },
                    publish_from: 2,
                    measure_from: 4,
                    seed: sim_seed(seed),
                    shards: 2,
                    ..SimConfig::default()
                },
                scenario: Scenario::default(),
            }
        }
        Kind::ChurnFlash => {
            let data_cfg = if full {
                SyntheticConfig::paper()
            } else {
                SyntheticConfig::paper().scaled(0.15)
            };
            let dataset = synthetic::generate(&data_cfg, DATASET_SEED);
            let cycles = if full { 40 } else { 24 };
            let cfg = SimConfig {
                cycles,
                publish_from: 3,
                measure_from: cycles / 4,
                seed: sim_seed(seed),
                shards: 2,
                ..SimConfig::default()
            };
            let scenario = churn_flash_scenario(cycles, dataset.n_users() as u32, seed);
            Inputs {
                kind,
                size,
                dataset,
                cfg,
                scenario,
            }
        }
    }
}

/// The churn-flash scenario over `cycles` cycles and `n` initial nodes:
/// a 25% flash crowd at mid-run, bursty Gilbert–Elliott loss, a 12% crash
/// wave, batches of `join_clone`, `swap_interests` and `reset_node`
/// events, and two measurement windows (burst and recovery). Every event
/// cycle is placed at a fixed fraction of the run, so the small test
/// variant has the same shape.
pub fn churn_flash_scenario(cycles: u32, n: u32, seed: u64) -> Scenario {
    let at = |fraction: f64| (f64::from(cycles) * fraction) as u32;
    let flash = at(0.5);
    let crash = at(0.7);
    let mut rng = SplitMix::new(seed ^ 0xc40b_f1a5);
    let batch = (n / 80).max(2);
    let mut events = Vec::new();
    for join_at in [at(0.3), at(0.8)] {
        for _ in 0..batch {
            events.push(TimedEvent {
                at: join_at,
                event: Event::JoinClone {
                    reference: rng.below(n),
                },
            });
        }
    }
    for _ in 0..batch / 2 {
        let a = rng.below(n);
        let b = (a + 1 + rng.below(n - 1)) % n;
        events.push(TimedEvent {
            at: at(0.4),
            event: Event::SwapInterests { a, b },
        });
    }
    for _ in 0..batch {
        events.push(TimedEvent {
            at: at(0.6),
            event: Event::ResetNode { node: rng.below(n) },
        });
    }
    events.sort_by_key(|e| e.at);
    Scenario::default()
        .with_workload(Workload::FlashCrowd {
            at: flash,
            fraction: 0.25,
        })
        .with_environment(Environment {
            loss: LossModel::GilbertElliott {
                p_good: 0.02,
                p_bad: 0.45,
                good_to_bad: 0.15,
                bad_to_good: 0.5,
            },
            churn: ChurnModel::CrashWave {
                at: crash,
                fraction: 0.12,
            },
        })
        .with_events(events)
        .with_measurements(vec![
            Measurement {
                name: "burst".into(),
                window: WindowSpec::Cycles {
                    from: flash,
                    until: flash + 3,
                },
            },
            Measurement {
                name: "recovery".into(),
                window: WindowSpec::Recovery {
                    anchor: Anchor::CrashWave,
                    baseline: 3,
                },
            },
        ])
}
