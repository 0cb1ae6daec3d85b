//! The benchmark must measure the build users run: its release profile is
//! the root manifest's, key for key.

use std::collections::BTreeMap;

/// `key = value` lines of `[profile.release]` in the manifest at `path`,
/// comments and blank lines ignored.
fn release_profile(path: &str) -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let mut in_section = false;
    let mut keys = BTreeMap::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap().trim();
        if line.starts_with('[') {
            in_section = line == "[profile.release]";
        } else if in_section && !line.is_empty() {
            let (k, v) = line.split_once('=').expect("key = value");
            keys.insert(k.trim().to_string(), v.trim().to_string());
        }
    }
    keys
}

#[test]
fn release_profile_matches_the_root_manifest() {
    let dir = env!("CARGO_MANIFEST_DIR");
    let root = release_profile(&format!("{dir}/../Cargo.toml"));
    let bench = release_profile(&format!("{dir}/Cargo.toml"));
    assert!(!root.is_empty(), "root manifest has no [profile.release]");
    assert_eq!(
        bench, root,
        "perfbench/Cargo.toml [profile.release] drifted from the root's"
    );
}
