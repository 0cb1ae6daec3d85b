//! Shared helpers for the transport integration tests.

use std::path::Path;
use std::process::{Child, Stdio};
use whatsup_sim::engine::exchange::socket;

/// Spawns `sim-shard-worker --listen 127.0.0.1:0` with piped stderr,
/// waits for its `LISTEN <addr>` line (read by the library's
/// [`socket::spawn_listen_worker`]), and returns the child plus the bound
/// address. Callers own the child: wait on it for an orderly exit, or kill
/// it on the test's failure path.
#[allow(dead_code)]
pub fn spawn_listen_worker() -> (Child, String) {
    spawn_listen_worker_at("127.0.0.1:0")
}

/// [`spawn_listen_worker`] at an explicit address — how the supervisor
/// tests stand up a replacement listener on a crashed worker's port.
#[allow(dead_code)]
pub fn spawn_listen_worker_at(addr: &str) -> (Child, String) {
    let worker = Path::new(env!("CARGO_BIN_EXE_sim-shard-worker"));
    socket::spawn_listen_worker(worker, addr, Stdio::piped())
        .unwrap_or_else(|e| panic!("spawn sim-shard-worker --listen {addr}: {e}"))
}

/// Waits for a worker and asserts it exited 0 without a panic backtrace.
#[allow(dead_code)]
pub fn assert_clean_exit(child: Child, who: &str) {
    let out = child.wait_with_output().expect("wait for worker");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{who} exited with {}: {stderr}",
        out.status
    );
    assert!(!stderr.contains("panicked"), "{who} panicked: {stderr}");
}
