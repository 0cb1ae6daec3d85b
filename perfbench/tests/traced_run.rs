//! The traced run measures without perturbing: one step span per cycle,
//! the same report as the untraced run, and every per-layer metric that
//! `BENCHMARK.json` declares. The only test in this binary, so the
//! counting allocator sees no other test's heap.

use serde::json::Value;
use whatsup_perfbench::host::CountingAlloc;
use whatsup_perfbench::measure;
use whatsup_perfbench::workload::{self, Size};

// As in the traced executable, so the heap metrics are measured.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The metric names `BENCHMARK.json` declares under `section`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let v = serde::json::parse(&text).expect("BENCHMARK.json parses");
    let mut names: Vec<String> = v
        .get(section)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    names.sort();
    names
}

fn names(out: &measure::Outcome) -> Vec<String> {
    let mut n: Vec<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
    n.sort();
    n
}

#[test]
fn traced_run_matches_untraced_and_declares_every_metric() {
    for kind in workload::ALL {
        let inputs = workload::inputs(kind, 2, Size::Small);
        let untraced = measure::untraced(&inputs, 0.0, || Ok(measure::one_simulation(&inputs, 2)));
        let (traced, trace) = measure::traced(&inputs, 2, 0.0);
        assert!(
            untraced.correct() && traced.correct(),
            "{kind:?}: {:?} {:?}",
            untraced.problems,
            traced.problems
        );
        assert_eq!(
            traced.digest, untraced.digest,
            "{kind:?}: tracing changed the report"
        );

        // Exactly one step span per cycle, in cycle order, under the run span.
        let run = trace.named("run").next().expect("a run span");
        let cycles: Vec<u32> = trace
            .named("step")
            .map(|i| {
                assert_eq!(trace.spans()[i].parent, Some(run));
                trace.spans()[i]
                    .cycle
                    .expect("step spans carry their cycle")
            })
            .collect();
        assert_eq!(
            cycles,
            (0..inputs.cfg.cycles).collect::<Vec<_>>(),
            "{kind:?}"
        );

        assert_eq!(names(&untraced), declared("end_to_end"), "{kind:?}");
        let mut per_layer = names(&traced);
        // Added by the main executable, which alone sees both rates.
        per_layer.push("trace.overhead_frac".into());
        per_layer.sort();
        assert_eq!(per_layer, declared("per_layer"), "{kind:?}");
        for m in &traced.metrics {
            assert!(m.value.is_finite() && m.value >= 0.0, "{kind:?}: {m:?}");
            if m.unit == "ms" {
                assert!(
                    m.value > 0.0,
                    "{kind:?}: a time of 0 is not a measurement: {m:?}"
                );
            }
        }
    }
}
