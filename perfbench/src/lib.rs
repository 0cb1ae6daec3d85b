//! The repo benchmark for the WhatsUp simulator.
//!
//! `bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! builds this package and runs one workload. With `--trace 0` it prints
//! the end-to-end metrics, with `--trace 1` the per-layer ones; the last
//! line of standard output is always one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md` for
//! the workloads, the metrics and the layer each metric should move.

pub mod check;
pub mod host;
pub mod measure;
pub mod trace;
pub mod workload;

use measure::{Metric, Outcome};
use serde::json::Value;
use workload::Kind;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Shard-count override (the committed multi-shard references are
    /// generated at 1 shard); `None` keeps the workload's own count.
    pub shards: Option<usize>,
    /// Internal: run exactly one simulation in this process and print its
    /// numbers (how `perfbench` isolates each simulation's peak RSS).
    pub one_simulation: bool,
}

/// The seed used when `--seed` is absent. Its digests are committed, as
/// are those of one held-out seed.
pub const DEFAULT_SEED: u64 = 1;

impl Args {
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut kind = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut shards = None;
        let mut one_simulation = false;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    kind = Some(Kind::parse(&name).ok_or_else(|| {
                        let names: Vec<&str> = workload::ALL.iter().map(|k| k.name()).collect();
                        format!("unknown workload {name:?} (known: {})", names.join(", "))
                    })?);
                }
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds >= 0.0 && f64::is_finite(seconds)) {
                        return Err(format!(
                            "--seconds must be a non-negative number, got {seconds}"
                        ));
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                    }
                }
                "--shards" => {
                    let n: usize = value()?.parse().map_err(|e| format!("--shards: {e}"))?;
                    if n == 0 {
                        return Err("--shards must be at least 1".into());
                    }
                    shards = Some(n);
                }
                "--one-simulation" => one_simulation = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Args {
            kind: kind.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            shards,
            one_simulation,
        })
    }

    /// The workload's full-size inputs, on the requested shard count.
    pub fn inputs(&self) -> workload::Inputs {
        let inputs = workload::inputs(self.kind, self.seed, workload::Size::Full);
        match self.shards {
            Some(shards) => inputs.with_shards(shards),
            None => inputs,
        }
    }

    /// The same arguments as a command line.
    pub fn to_command_line(&self) -> Vec<String> {
        let mut v = vec![
            "--workload".into(),
            self.kind.name().into(),
            "--seed".into(),
            self.seed.to_string(),
            "--seconds".into(),
            self.seconds.to_string(),
            "--trace".into(),
            if self.trace { "1" } else { "0" }.into(),
        ];
        if let Some(s) = self.shards {
            v.extend(["--shards".into(), s.to_string()]);
        }
        if self.one_simulation {
            v.push("--one-simulation".into());
        }
        v
    }
}

/// The result object: `correct`, `attempted`, `failed` and every metric
/// as `{"value", "unit"}`.
pub fn result_json(out: &Outcome) -> Value {
    let metrics = out.metrics.iter().map(|m| {
        (
            m.name.clone(),
            Value::object(vec![
                ("value", Value::Number(m.value)),
                ("unit", Value::String(m.unit.clone())),
            ]),
        )
    });
    Value::object(vec![
        ("correct", Value::Bool(out.correct())),
        ("attempted", Value::Number(out.attempted as f64)),
        ("failed", Value::Number(out.failed as f64)),
        ("metrics", Value::object(metrics)),
    ])
}

/// [`result_json`] plus the run's `report_digest` and untraced-comparable
/// `node_cycles_per_s`: what the traced executable hands to the main one.
pub fn traced_result_json(out: &Outcome) -> Value {
    let mut v = result_json(out);
    if let Value::Object(map) = &mut v {
        let digest = out.digest.clone().map_or(Value::Null, Value::String);
        map.insert("report_digest".into(), digest);
        map.insert(
            "node_cycles_per_s".into(),
            Value::Number(out.node_cycles_per_s),
        );
    }
    v
}

/// Writes the run's digest and every problem to standard error, each line
/// prefixed with the executable's name.
pub fn log_outcome(who: &str, args: &Args, out: &Outcome) {
    let reference = match (check::reference(args.kind, args.seed), &out.digest) {
        (None, _) => "none committed",
        (Some(want), Some(got)) if want == got => "matches",
        (Some(_), _) => "MISMATCH",
    };
    eprintln!(
        "{who}: workload={} seed={} shards={} simulations={} failed={} report_digest={} reference={reference}",
        args.kind.name(),
        args.seed,
        args.shards.map_or("default".into(), |s| s.to_string()),
        out.attempted,
        out.failed,
        out.digest.as_deref().unwrap_or("-"),
    );
    for problem in &out.problems {
        eprintln!("{who}: FAILED: {problem}");
    }
}

/// Parses a result object back (the traced executable reports to the
/// main one this way).
pub fn parse_result(line: &str) -> Result<Outcome, String> {
    let v = serde::json::parse(line).map_err(|e| format!("unparsable result line: {e}"))?;
    let count = |key: &str| {
        v.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("result line lacks {key:?}"))
    };
    let mut out = Outcome {
        attempted: count("attempted")?,
        failed: count("failed")?,
        digest: v
            .get("report_digest")
            .and_then(Value::as_str)
            .map(String::from),
        node_cycles_per_s: v
            .get("node_cycles_per_s")
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN),
        ..Outcome::default()
    };
    let Some(Value::Object(metrics)) = v.get("metrics") else {
        return Err("result line lacks metrics".into());
    };
    for (name, m) in metrics {
        let value = m.get("value").and_then(Value::as_f64);
        let unit = m.get("unit").and_then(Value::as_str);
        match (value, unit) {
            (Some(value), Some(unit)) => out.metrics.push(Metric::new(name.clone(), unit, value)),
            _ => return Err(format!("malformed metric {name:?}")),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload churn-flash --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.kind, Kind::ChurnFlash);
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.shards),
            (7, 12.0, true, None)
        );
        assert!(!a.one_simulation);
        assert_eq!(Args::parse(a.to_command_line()).unwrap(), a);
        let b = args("--workload shard-5k --shards 1 --one-simulation").unwrap();
        assert_eq!(
            (b.seed, b.shards, b.one_simulation),
            (DEFAULT_SEED, Some(1), true)
        );
        assert_eq!(Args::parse(b.to_command_line()).unwrap(), b);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope",
            "--workload shard-5k --trace 2",
            "--workload shard-5k --seed",
            "--workload shard-5k --seconds -1",
            "--workload shard-5k --shards 0",
            "--workload shard-5k --bogus 1",
        ] {
            assert!(args(bad).is_err(), "{bad:?} was accepted");
        }
    }

    #[test]
    fn result_line_round_trips() {
        let out = Outcome {
            attempted: 3,
            failed: 1,
            metrics: vec![
                Metric::new("setup_s", "s", 0.812_345_678_9),
                Metric::new("node_cycles_per_s", "node_cycles/s", 4321.5),
            ],
            ..Outcome::default()
        };
        let line = result_json(&out).to_string();
        let back = parse_result(&line).unwrap();
        assert_eq!((back.attempted, back.failed), (3, 1));
        let mut want = out.metrics.clone();
        want.sort_by(|a, b| a.name.cmp(&b.name));
        assert_eq!(back.metrics, want);
        assert!(line.contains("\"correct\": false"));
    }
}
