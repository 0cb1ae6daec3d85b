//! # WhatsUp — a decentralized instant news recommender
//!
//! Rust reproduction of *WHATSUP: A Decentralized Instant News Recommender*
//! (Boutet, Frey, Guerraoui, Jégou, Kermarrec — IEEE IPDPS 2013).
//!
//! WhatsUp delivers news items to the users that want them with no central
//! server, no explicit subscriptions and no content analysis. Each node:
//!
//! * maintains an **implicit social network** (WUP): a random-peer-sampling
//!   overlay plus a clustering overlay that keeps the most similar peers
//!   under an asymmetric similarity metric tuned for push dissemination,
//!   spam resistance and fast cold starts;
//! * disseminates with **BEEP**, a biased epidemic: liked items are
//!   *amplified* (fanout `fLIKE` towards the social network), disliked items
//!   are *oriented* (one copy towards the peer whose profile best matches
//!   the item's aggregated profile, TTL-bounded) — keeping serendipity
//!   without flooding.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`core`] | profiles, similarity metrics, WUP+BEEP node (sans-io) |
//! | [`gossip`] | random peer sampling + clustering substrate |
//! | [`graph`] | SCC/WCC/clustering-coefficient analytics, generators |
//! | [`datasets`] | synthetic Arxiv/Digg/survey workloads |
//! | [`sim`] | cycle simulator, baselines, paper experiments |
//! | [`net`] | wire codec, ModelNet-like emulator, UDP swarm |
//! | [`metrics`] | precision/recall/F1, histograms, tables |
//!
//! ## Quickstart
//!
//! ```
//! use whatsup::prelude::*;
//!
//! // A small survey-like workload and a 30-cycle simulated run.
//! let dataset = whatsup::datasets::survey::generate(
//!     &SurveyConfig::paper().scaled(0.1), 42);
//! let cfg = SimConfig { cycles: 30, publish_from: 2, measure_from: 10,
//!                       ..Default::default() };
//! let report = run_protocol(&dataset, Protocol::WhatsUp { f_like: 5 }, &cfg);
//! let scores = report.scores();
//! assert!(scores.f1 > 0.0);
//! println!("precision {:.2} recall {:.2} F1 {:.2}",
//!          scores.precision, scores.recall, scores.f1);
//! ```

pub use whatsup_core as core;
pub use whatsup_datasets as datasets;
pub use whatsup_gossip as gossip;
pub use whatsup_graph as graph;
pub use whatsup_metrics as metrics;
pub use whatsup_net as net;
pub use whatsup_sim as sim;

/// One-stop imports for applications and examples.
pub mod prelude {
    pub use whatsup_core::prelude::*;
    pub use whatsup_datasets::{Dataset, DiggConfig, LikeMatrix, SurveyConfig, SyntheticConfig};
    pub use whatsup_metrics::{IrAggregate, IrScores, ItemOutcome, Series, SeriesSet, TextTable};
    pub use whatsup_net::{EmulatorConfig, SwarmConfig, SwarmReport, UdpConfig};
    pub use whatsup_sim::scenario::{
        ChurnModel, Environment, Event, LossModel, TimedEvent, Workload,
    };
    pub use whatsup_sim::{
        run_protocol, Protocol, Runner, Scenario, ScenarioFile, SimConfig, SimReport, Simulation,
    };
}
