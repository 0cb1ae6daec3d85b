//! Output checks. A run whose report fails any of them is a failed
//! operation.
//!
//! * **Digest.** `report_digest` is FNV-1a 64 over the full report
//!   rendering (the whole `SimReport` as the serde shim writes it: items,
//!   per-node counters, series and windows). For the seeds listed in
//!   `reference_digests.txt` it must equal the committed reference. The
//!   multi-shard workloads' references were taken at 1 shard, so the
//!   comparison also pins shard invariance.
//! * **Structure.** At every seed: the run covers the configured cycles,
//!   the per-cycle series has one row per cycle, the headline metrics are
//!   positive, and every scenario window is present — with recovery
//!   metrics where the window is a recovery window.

use crate::workload::{Inputs, Kind, Size};
use whatsup_sim::scenario::WindowSpec;
use whatsup_sim::SimReport;

/// Committed reference digests: `<workload> <seed> <digest>` per line.
const REFERENCES: &str = include_str!("../reference_digests.txt");

/// The stable digest of `report`, as 16 hex digits.
pub fn report_digest(report: &SimReport) -> String {
    let text = format!("{report:?}");
    format!("{:016x}", whatsup_core::fnv1a64(text.as_bytes()))
}

/// The committed reference digest for `(kind, seed)`, if any.
pub fn reference(kind: Kind, seed: u64) -> Option<&'static str> {
    REFERENCES
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let mut fields = l.split_whitespace();
            let (w, s, d) = (fields.next()?, fields.next()?, fields.next()?);
            (w == kind.name() && s.parse() == Ok(seed)).then_some(d)
        })
}

/// Every structural problem of `report` against its inputs.
pub fn structural(inputs: &Inputs, report: &SimReport) -> Vec<String> {
    let mut problems = Vec::new();
    let cycles = inputs.cfg.cycles;
    if report.cycles != cycles {
        problems.push(format!(
            "report covers {} of {cycles} cycles",
            report.cycles
        ));
    }
    if report.series.len() != report.cycles as usize {
        problems.push(format!(
            "series has {} rows for {} cycles",
            report.series.len(),
            report.cycles
        ));
    }
    let f1 = report.scores().f1;
    if !(f1 > 0.0 && f1 <= 1.0) {
        problems.push(format!("F1 {f1} outside (0, 1]"));
    }
    if report.gossip_messages == 0 || report.news_messages_all == 0 {
        problems.push("a message counter is zero".into());
    }
    for m in &inputs.scenario.measurements {
        match report.windows.iter().find(|w| w.name == m.name) {
            None => problems.push(format!("window {:?} missing", m.name)),
            Some(w) => {
                let wants_recovery = matches!(m.window, WindowSpec::Recovery { .. });
                if wants_recovery && w.recovery.is_none() {
                    problems.push(format!("window {:?} lacks recovery metrics", m.name));
                }
            }
        }
    }
    problems
}

/// Checks `report` and returns its digest plus every problem found.
pub fn check(inputs: &Inputs, seed: u64, report: &SimReport) -> (String, Vec<String>) {
    let digest = report_digest(report);
    let mut problems = structural(inputs, report);
    if let Some(want) = reference(inputs.kind, seed).filter(|_| inputs.size == Size::Full) {
        if want != digest {
            problems.push(format!(
                "report_digest {digest} differs from the committed reference {want}"
            ));
        }
    }
    (digest, problems)
}
