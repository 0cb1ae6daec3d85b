//! A simulation's `peak_rss_mib` is its own: each runs in a fresh process,
//! so a larger simulation before it cannot raise its peak. (Within one
//! process, `malloc_trim` plus `clear_refs` is not enough: after a
//! 2-shard simulation the allocator's thread arenas keep tens of MiB
//! resident, and the next simulation's peak starts from there.)

use whatsup_perfbench::measure;
use whatsup_perfbench::workload::Kind;
use whatsup_perfbench::{Args, DEFAULT_SEED};

fn peak_rss(kind: Kind) -> f64 {
    let args = Args {
        kind,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
        shards: None,
        one_simulation: false,
    };
    let exe = std::path::Path::new(env!("CARGO_BIN_EXE_perfbench"));
    let sim = measure::simulate_in_child(exe, &args).expect("simulation runs");
    assert!(sim.problems.is_empty(), "{kind:?}: {:?}", sim.problems);
    sim.peak_rss_mib
}

#[test]
fn paper_survey_peak_does_not_depend_on_an_earlier_shard_5k_run() {
    let alone = peak_rss(Kind::PaperSurvey);
    let big = peak_rss(Kind::Shard5k);
    let after = peak_rss(Kind::PaperSurvey);
    assert!(
        big > 4.0 * alone,
        "shard-5k ({big} MiB) should dwarf paper-survey ({alone} MiB)"
    );
    assert!(
        (after - alone).abs() <= 0.05 * alone + 1.0,
        "paper-survey peak {after:.1} MiB after shard-5k vs {alone:.1} MiB alone"
    );
}
