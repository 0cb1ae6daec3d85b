//! The traced run (started by `perfbench --trace 1`): the per-layer
//! measurement under a counting global allocator. Prints the per-layer
//! metrics plus the report digest and node-cycle rate, for `perfbench` to
//! compare with its untraced run, and writes the spans to
//! `perfbench/out/`.

use whatsup_perfbench::host::CountingAlloc;
use whatsup_perfbench::{measure, traced_result_json, Args};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench-traced: {e}");
            std::process::exit(2);
        }
    };
    let (out, trace) = measure::traced(&args.inputs(), args.seed, args.seconds);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{}.json", args.kind.name(), args.seed));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace.to_json().pretty()))
    {
        Ok(()) => eprintln!(
            "perfbench-traced: {} spans written to {}",
            trace.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!(
            "perfbench-traced: spans not written to {}: {e}",
            path.display()
        ),
    }
    whatsup_perfbench::log_outcome("perfbench-traced", &args, &out);
    println!("{}", traced_result_json(&out));
}
