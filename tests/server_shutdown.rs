//! Shutdown is prompt: `serve()` returns as soon as it is asked to,
//! whichever way it is asked.
//!
//! The SIGINT latch is process-global, so this file holds one test and
//! nothing else: no other server shares its process.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use deadlock_characterization::server::{http_request, signal, CampaignServer, ServerOptions};

/// Everything `serve()` waits for on the way out — accept loop, handlers,
/// workers, scanner, heartbeat — must notice within this.
const PROMPT: Duration = Duration::from_millis(300);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("campaign-stop-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Binds with default options (1.25 s heartbeat tick, 300 ms scan
/// interval), lets every thread settle into its wait, asks for shutdown
/// through `stop`, and returns how long `serve()` took to come back.
fn time_to_stop(tag: &str, stop: impl FnOnce(std::net::SocketAddr)) -> Duration {
    let dir = temp_dir(tag);
    let server = CampaignServer::bind("127.0.0.1:0", &ServerOptions::new(&dir)).expect("bind");
    let addr = server.addr();
    let handle = std::thread::spawn(move || server.serve().expect("serve"));
    // One request proves the accept loop is up; the pause lets the
    // periodic threads finish their first pass and go to sleep.
    let (status, _) = http_request(addr, "GET", "/stats", None).expect("stats");
    assert_eq!(status, 200);
    std::thread::sleep(Duration::from_millis(100));

    let asked = Instant::now();
    stop(addr);
    handle.join().expect("server thread");
    let took = asked.elapsed();
    let _ = std::fs::remove_dir_all(&dir);
    took
}

#[test]
fn serve_returns_promptly_by_request_and_by_signal() {
    signal::reset();
    let took = time_to_stop("post", |addr| {
        let (status, _) = http_request(addr, "POST", "/shutdown", None).expect("shutdown");
        assert_eq!(status, 200);
    });
    assert!(took < PROMPT, "POST /shutdown took {took:?}");

    let took = time_to_stop("signal", |_| signal::trigger());
    signal::reset();
    assert!(took < PROMPT, "the SIGINT latch took {took:?}");
}
