//! Shard worker process for the multi-process and distributed sharded
//! engine.
//!
//! ```text
//! sim-shard-worker --listen <host:port>
//! ```
//!
//! The worker binds `<addr>` (port `0` picks a free one), prints
//! `LISTEN <actual-addr>` on stdout so launchers can discover the port,
//! serves exactly one driver connection, and exits — workers never outlive
//! their run. The conversation is the one in
//! `whatsup_sim::engine::exchange::stream`: the worker sends a versioned
//! hello, the driver answers with a handshake frame carrying this shard's
//! `ShardInit`, then one reply frame per command frame until `Stop`.
//!
//! Workers are either spawned by the driver itself (`whatsup-sim run …
//! --multiprocess <worker>` starts one `--listen 127.0.0.1:0` child per
//! shard and dials it over loopback) or started by hand, possibly on other
//! machines, before the driver dials them (`whatsup-sim run …
//! --transport socket --workers addr,…`).
//!
//! Exit status: `0` after an orderly `Stop`; `1` with a one-line stderr
//! message when the driver vanishes mid-run (EOF/broken pipe), the
//! handshake fails, or a frame does not decode (the worker accepts frames
//! from any TCP peer, so a truncated or forged frame is a typed error);
//! `2` for bad usage (including no arguments). Neither a killed driver nor
//! a hostile peer may ever leave a panic backtrace here.

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpListener;
use std::process::ExitCode;
use whatsup_sim::engine::exchange::stream::{accept_handshake, serve_stream, HANDSHAKE_TIMEOUT};

fn usage() -> ExitCode {
    eprintln!("usage: sim-shard-worker --listen <host:port>");
    ExitCode::from(2)
}

fn fail(err: impl std::fmt::Display) -> ExitCode {
    eprintln!("sim-shard-worker: {err}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [flag, addr] if flag == "--listen" => serve(addr),
        _ => usage(),
    }
}

/// Bind, announce, serve one driver connection, exit.
fn serve(addr: &str) -> ExitCode {
    let listener = match TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => return fail(format_args!("cannot listen on {addr}: {e}")),
    };
    match listener.local_addr() {
        Ok(local) => {
            // The launcher reads this line to learn the bound port
            // (relevant with `--listen host:0`).
            println!("LISTEN {local}");
            let _ = std::io::stdout().flush();
        }
        Err(e) => return fail(format_args!("cannot read bound address: {e}")),
    }
    let (stream, peer) = match listener.accept() {
        Ok(conn) => conn,
        Err(e) => return fail(format_args!("accept failed: {e}")),
    };
    drop(listener);
    let _ = stream.set_nodelay(true);
    // A peer that connects and then says nothing must not wedge the
    // worker forever: bound the handshake reads, then let the lockstep
    // rounds block freely once the driver has proven itself.
    if stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT)).is_err() {
        return fail("cannot arm the handshake timeout");
    }
    let reader = match stream.try_clone() {
        Ok(clone) => clone,
        Err(e) => return fail(format_args!("cannot clone the connection: {e}")),
    };
    let mut input = BufReader::new(reader);
    let mut output = BufWriter::new(stream);
    let mut state = match accept_handshake(&mut input, &mut output) {
        Ok(state) => state,
        Err(e) => return fail(format_args!("driver {peer}: {e}")),
    };
    if output.get_ref().set_read_timeout(None).is_err() {
        return fail("cannot disarm the handshake timeout");
    }
    match serve_stream(&mut state, &mut input, &mut output) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(format_args!("driver {peer}: {e}")),
    }
}
