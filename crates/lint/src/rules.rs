//! The rule set: what each check means, where it applies, and the token
//! passes that implement it.

use crate::scan::{scan, TokKind, Token};
use std::collections::BTreeMap;
use std::fmt;

/// The five contract rules. Names (the `lint:allow` keys) are kebab-case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// No `HashMap`/`HashSet` in determinism-critical code: report paths
    /// must never depend on unspecified iteration order. Use `BTreeMap`/
    /// `BTreeSet` or annotate a probe-only/sorted-before-iteration use.
    DetMap,
    /// No wall-clock reads (`Instant::now`, `SystemTime`) outside the
    /// real-network runtime/emulator and the socket-transport deadline
    /// code: simulated time is the only clock the engines may see.
    DetClock,
    /// No `unwrap`/`expect`/`panic!`-family macros or unchecked slice
    /// indexing in wire decode paths: untrusted bytes must surface typed
    /// errors, never a crash.
    WirePanic,
    /// No truncating `as` casts on wire length/count fields: a silently
    /// wrapped count corrupts the frame for every later field.
    WireCast,
    /// Every `unsafe` carries a `// SAFETY:` comment on the same or an
    /// immediately preceding line.
    SafetyComment,
}

pub const ALL_RULES: [Rule; 5] = [
    Rule::DetMap,
    Rule::DetClock,
    Rule::WirePanic,
    Rule::WireCast,
    Rule::SafetyComment,
];

impl Rule {
    pub fn name(self) -> &'static str {
        match self {
            Rule::DetMap => "det-map",
            Rule::DetClock => "det-clock",
            Rule::WirePanic => "wire-panic",
            Rule::WireCast => "wire-cast",
            Rule::SafetyComment => "safety-comment",
        }
    }

    pub fn from_name(name: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where one rule applies: workspace-relative path prefixes (`/`-separated;
/// a prefix of `""` matches everything). A file is in scope when it matches
/// an include prefix and no exclude prefix. Paths containing a `tests/`,
/// `benches/`, `examples/` or `fixtures/` segment are always out of scope —
/// the contracts govern shipped code, not test harnesses.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    pub include: Vec<String>,
    pub exclude: Vec<String>,
}

impl Scope {
    pub fn matches(&self, rel_path: &str) -> bool {
        self.include
            .iter()
            .any(|p| rel_path.starts_with(p.as_str()))
            && !self
                .exclude
                .iter()
                .any(|p| rel_path.starts_with(p.as_str()))
    }
}

/// Per-rule scopes. [`Config::workspace_default`] encodes this repository's
/// contract; fixture tests build narrow configs by hand.
#[derive(Debug, Clone)]
pub struct Config {
    pub scopes: BTreeMap<Rule, Scope>,
}

impl Config {
    /// A config applying every rule to every scanned file (fixture tests).
    pub fn all_everywhere() -> Self {
        let mut scopes = BTreeMap::new();
        for rule in ALL_RULES {
            scopes.insert(
                rule,
                Scope {
                    include: vec![String::new()],
                    exclude: vec![],
                },
            );
        }
        Config { scopes }
    }

    /// This repository's contract, one scope per rule:
    ///
    /// * `det-map` — the determinism-critical crates: `core`, `gossip`,
    ///   `metrics`, and all of `sim` (engine, engines, scenario pipeline —
    ///   everything that feeds a `SimReport`).
    /// * `det-clock` — everywhere except the real-network runtime and
    ///   emulator (`crates/net/src/runtime.rs`, `emulator.rs`), the socket
    ///   transport's deadline code
    ///   (`crates/sim/src/engine/exchange/socket.rs`), the benchmark crate
    ///   (wall clocks are its purpose) and the dependency shims.
    /// * `wire-panic` / `wire-cast` — the untrusted-input decode surface:
    ///   `crates/net/src/codec.rs`, the shard protocol's frame layouts and
    ///   byte-stream boundary (`crates/sim/src/engine/exchange/frames.rs`,
    ///   `stream.rs` — what a listening worker reads from any TCP peer), and
    ///   the anti-entropy digest/delta frame readers.
    /// * `safety-comment` — everywhere except the shims (which mirror
    ///   upstream crates' APIs verbatim).
    pub fn workspace_default() -> Self {
        let mut scopes = BTreeMap::new();
        scopes.insert(
            Rule::DetMap,
            Scope {
                include: vec![
                    "crates/core/src/".into(),
                    "crates/gossip/src/".into(),
                    "crates/metrics/src/".into(),
                    "crates/sim/src/".into(),
                ],
                exclude: vec![],
            },
        );
        scopes.insert(
            Rule::DetClock,
            Scope {
                include: vec!["crates/".into(), "src/".into()],
                exclude: vec![
                    "crates/net/src/runtime.rs".into(),
                    "crates/net/src/emulator.rs".into(),
                    "crates/sim/src/engine/exchange/socket.rs".into(),
                    "crates/bench/".into(),
                    "crates/shims/".into(),
                ],
            },
        );
        let wire = Scope {
            include: vec![
                "crates/net/src/codec.rs".into(),
                "crates/sim/src/engine/exchange/frames.rs".into(),
                "crates/sim/src/engine/exchange/stream.rs".into(),
                "crates/sim/src/engines/antientropy/digest.rs".into(),
                "crates/sim/src/engines/antientropy/delta.rs".into(),
            ],
            exclude: vec![],
        };
        scopes.insert(Rule::WirePanic, wire.clone());
        scopes.insert(Rule::WireCast, wire);
        scopes.insert(
            Rule::SafetyComment,
            Scope {
                include: vec!["crates/".into(), "src/".into()],
                exclude: vec!["crates/shims/".into()],
            },
        );
        Config { scopes }
    }
}

/// One rule hit. `allowed` carries the `lint:allow` reason when the site is
/// annotated — such findings are recorded, not fatal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: Rule,
    pub path: String,
    pub line: u32,
    pub excerpt: String,
    pub allowed: Option<String>,
}

/// Path segments that take a file out of every rule's scope.
fn harness_path(rel_path: &str) -> bool {
    rel_path.split('/').any(|seg| {
        matches!(
            seg,
            "tests" | "benches" | "examples" | "fixtures" | "target"
        )
    })
}

/// Lints one file. `rel_path` is workspace-relative with `/` separators.
pub fn check_file(rel_path: &str, source: &str, config: &Config) -> Vec<Finding> {
    if harness_path(rel_path) {
        return Vec::new();
    }
    let active: Vec<Rule> = ALL_RULES
        .iter()
        .copied()
        .filter(|r| config.scopes.get(r).is_some_and(|s| s.matches(rel_path)))
        .collect();
    if active.is_empty() {
        return Vec::new();
    }

    let scan = scan(source);
    let lines: Vec<&str> = source.lines().collect();
    let excerpt = |line: u32| -> String {
        lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    };

    // Resolve each allow comment to the code line it governs: its own line
    // when trailing, otherwise the next line carrying code.
    let mut allow_map: BTreeMap<(u32, Rule), String> = BTreeMap::new();
    for site in &scan.allows {
        let target = if site.trailing {
            Some(site.line)
        } else {
            scan.code_lines.range(site.line + 1..).next().copied()
        };
        let Some(target) = target else { continue };
        for rule_name in &site.rules {
            let Some(rule) = Rule::from_name(rule_name) else {
                continue;
            };
            // An allow without a reason does not suppress: the recorded
            // justification is the point of the escape hatch.
            if site.reason.is_empty() {
                continue;
            }
            allow_map.insert((target, rule), site.reason.clone());
        }
    }

    let mut findings = Vec::new();
    let mut emit = |rule: Rule, line: u32| {
        findings.push(Finding {
            rule,
            path: rel_path.to_string(),
            line,
            excerpt: excerpt(line),
            allowed: allow_map.get(&(line, rule)).cloned(),
        });
    };

    let toks = &scan.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        for &rule in &active {
            match rule {
                Rule::DetMap => {
                    if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
                        emit(rule, t.line);
                    }
                }
                Rule::DetClock => {
                    if t.kind == TokKind::Ident && t.text == "SystemTime" {
                        emit(rule, t.line);
                    }
                    if t.kind == TokKind::Ident
                        && t.text == "Instant"
                        && matches_seq(toks, i + 1, &["::", "now"])
                    {
                        emit(rule, t.line);
                    }
                }
                Rule::WirePanic => {
                    if t.kind == TokKind::Ident
                        && (t.text == "unwrap" || t.text == "expect")
                        && prev_punct(toks, i) == Some('.')
                    {
                        emit(rule, t.line);
                    }
                    if t.kind == TokKind::Ident
                        && matches!(
                            t.text.as_str(),
                            "panic" | "unreachable" | "todo" | "unimplemented"
                        )
                        && next_punct(toks, i) == Some('!')
                    {
                        emit(rule, t.line);
                    }
                    // Unchecked indexing: `[` as a postfix operator — the
                    // previous token ends an expression. `#[…]` attributes,
                    // array literals and slice types don't match.
                    if t.kind == TokKind::Punct('[') && i > 0 {
                        let prev = &toks[i - 1];
                        let postfix = matches!(prev.kind, TokKind::Ident | TokKind::Number)
                            || matches!(prev.kind, TokKind::Punct(')') | TokKind::Punct(']'));
                        // `ident[` where ident is a macro name (`vec![…]`)
                        // would need a `!` between — which tokenizes as
                        // Punct('!'), so `prev` is not an Ident there.
                        if postfix {
                            emit(rule, t.line);
                        }
                    }
                }
                Rule::WireCast => {
                    if t.kind == TokKind::Ident
                        && t.text == "as"
                        && toks.get(i + 1).is_some_and(|n| {
                            n.kind == TokKind::Ident
                                && matches!(n.text.as_str(), "u8" | "u16" | "u32")
                        })
                        && lookback_has_length_ident(toks, i)
                    {
                        emit(rule, t.line);
                    }
                }
                Rule::SafetyComment => {
                    if t.kind == TokKind::Ident && t.text == "unsafe" {
                        let documented = (t.line.saturating_sub(3)..=t.line)
                            .any(|l| scan.safety_lines.contains(&l));
                        if !documented {
                            emit(rule, t.line);
                        }
                    }
                }
            }
        }
    }
    // Two hits on one line (e.g. `buf[0], buf[1]`) are one finding: the
    // unit of fixing/annotating is the line.
    findings.dedup_by(|a, b| a.rule == b.rule && a.line == b.line);
    findings
}

/// True when one of the 8 tokens before `i` is a length/count identifier —
/// the honest token-level approximation of "this cast truncates a wire
/// length/count field".
fn lookback_has_length_ident(toks: &[Token], i: usize) -> bool {
    let start = i.saturating_sub(8);
    toks[start..i].iter().any(|t| {
        t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "len" | "count" | "length" | "size" | "remaining"
            )
    })
}

fn prev_punct(toks: &[Token], i: usize) -> Option<char> {
    match toks.get(i.wrapping_sub(1))?.kind {
        TokKind::Punct(c) => Some(c),
        _ => None,
    }
}

fn next_punct(toks: &[Token], i: usize) -> Option<char> {
    match toks.get(i + 1)?.kind {
        TokKind::Punct(c) => Some(c),
        _ => None,
    }
}

/// True when tokens starting at `i` spell the given sequence, where each
/// element is either a punctuation string (matched char by char) or an
/// identifier.
fn matches_seq(toks: &[Token], mut i: usize, seq: &[&str]) -> bool {
    for want in seq {
        if want.chars().all(|c| !c.is_alphanumeric()) {
            for c in want.chars() {
                match toks.get(i) {
                    Some(t) if t.kind == TokKind::Punct(c) => i += 1,
                    _ => return false,
                }
            }
        } else {
            match toks.get(i) {
                Some(t) if t.kind == TokKind::Ident && t.text == *want => i += 1,
                _ => return false,
            }
        }
    }
    true
}
