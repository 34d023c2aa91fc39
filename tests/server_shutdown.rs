//! Shutdown is prompt: `serve()` returns as soon as it is asked to,
//! whichever way it is asked.
//!
//! The SIGINT latch is process-global, so this file holds one test and
//! nothing else: no other server shares its process.

use std::time::{Duration, Instant};

use deadlock_characterization::server::{signal, Client, ServerOptions};
use icn_bench::scratch_dir;

/// Everything `serve()` waits for on the way out — accept loop, handlers,
/// workers, scanner, heartbeat — must notice within this.
const PROMPT: Duration = Duration::from_millis(300);

/// Binds with default options (1.25 s heartbeat tick, 300 ms scan
/// interval), lets every thread settle into its wait, asks for shutdown
/// through `stop`, and returns how long `serve()` took to come back.
fn time_to_stop(tag: &str, stop: impl FnOnce(Client)) -> Duration {
    let dir = scratch_dir(&format!("stop-{tag}"));
    let (client, handle) = Client::serve_local(&ServerOptions::new(&dir)).expect("bind");
    // One request proves the accept loop is up; the pause lets the
    // periodic threads finish their first pass and go to sleep.
    client.stat(&["requests"]).expect("stats");
    std::thread::sleep(Duration::from_millis(100));

    let asked = Instant::now();
    stop(client);
    handle.join().expect("server thread").expect("serve");
    let took = asked.elapsed();
    let _ = std::fs::remove_dir_all(&dir);
    took
}

#[test]
fn serve_returns_promptly_by_request_and_by_signal() {
    signal::reset();
    let took = time_to_stop("post", |client| client.shutdown().expect("shutdown"));
    assert!(took < PROMPT, "POST /shutdown took {took:?}");

    let took = time_to_stop("signal", |_| signal::trigger());
    signal::reset();
    assert!(took < PROMPT, "the SIGINT latch took {took:?}");
}
