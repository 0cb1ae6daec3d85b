//! The benchmark's entry point (see the crate docs and `README.md`).
//!
//! `--trace 0` runs the end-to-end measurement: each simulation in a fresh
//! child process (`--one-simulation`). `--trace 1` runs one such
//! simulation, then the traced run in the sibling `perfbench-traced`
//! executable, and checks that both produced the same report.

use std::path::Path;
use whatsup_perfbench::measure::{self, Metric, Outcome};
use whatsup_perfbench::{parse_result, result_json, Args};

fn traced(exe: &Path, args: &Args) -> Result<Outcome, String> {
    let untraced = measure::simulate_in_child(exe, args)?;
    let traced_exe = exe.with_file_name("perfbench-traced");
    let line = measure::run_child(&traced_exe, &args.to_command_line())?;
    let mut out = parse_result(&line)?;
    out.attempted += 1;
    out.problems.extend(untraced.problems.iter().cloned());
    let mismatch = out.digest.as_deref() != Some(untraced.digest.as_str());
    if mismatch {
        out.problems.push(format!(
            "traced report_digest {:?} differs from the untraced {}",
            out.digest, untraced.digest
        ));
    }
    if mismatch || !untraced.problems.is_empty() {
        out.failed += 1;
    }
    let rate = untraced.node_cycles_per_s();
    out.metrics.push(Metric::new(
        "trace.overhead_frac",
        "ratio",
        (rate - out.node_cycles_per_s) / rate,
    ));
    Ok(out)
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.one_simulation {
        let sim = measure::one_simulation(&args.inputs(), args.seed);
        println!("{}", sim.to_json());
        return;
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: locating this executable: {e}");
            std::process::exit(1);
        }
    };
    let out = if args.trace {
        match traced(&exe, &args) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
    } else {
        measure::untraced(&args.inputs(), args.seconds, || {
            measure::simulate_in_child(&exe, &args)
        })
    };
    whatsup_perfbench::log_outcome("perfbench", &args, &out);
    println!("{}", result_json(&out));
}
