//! The campaign API from the client's side.
//!
//! One [`Client`] per server address, built on [`http_request_full`].
//! Every call returns `Result<_, String>` with the request, the HTTP
//! status and the body in the message, so a test can `.expect()` it and
//! a CLI can print it. The integration tests and `repro chaos` drive the
//! server through this module; requests it has no method for (cancel,
//! malformed input) go through [`http_request`](crate::http_request)
//! directly.

use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use flexsim::jsonio::{parse, Json};

use crate::http::{http_request_full, FullResponse};
use crate::{CampaignServer, ServerOptions, SweepGrid};

/// How often [`Client::wait_done`] re-reads the job status.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// A campaign server as seen over HTTP.
#[derive(Clone, Copy, Debug)]
pub struct Client {
    pub addr: SocketAddr,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr }
    }

    /// Binds an in-process server on an ephemeral localhost port, serves
    /// it on a new thread and returns its client. The thread ends, with
    /// `serve()`'s result, after [`shutdown`](Self::shutdown).
    pub fn serve_local(
        opts: &ServerOptions,
    ) -> std::io::Result<(Client, JoinHandle<std::io::Result<()>>)> {
        let server = CampaignServer::bind("127.0.0.1:0", opts)?;
        let client = Client::new(server.addr());
        Ok((client, std::thread::spawn(move || server.serve())))
    }

    fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<FullResponse, String> {
        http_request_full(self.addr, method, path, body)
            .map_err(|e| format!("{method} {path} on {}: {e}", self.addr))
    }

    /// [`request`](Self::request) that accepts nothing but a 200.
    fn request_ok(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<FullResponse, String> {
        let reply = self.request(method, path, body)?;
        if reply.0 != 200 {
            return Err(format!(
                "{method} {path} returned HTTP {}: {}",
                reply.0, reply.2
            ));
        }
        Ok(reply)
    }

    /// `POST /jobs`: submits `grid` and returns the job id.
    pub fn submit(&self, grid: &SweepGrid) -> Result<u64, String> {
        let (_, _, body) = self.request_ok("POST", "/jobs", Some(&grid.to_json().to_string()))?;
        parse(&body)
            .ok()
            .and_then(|v| v.get("id").and_then(Json::as_u64))
            .ok_or_else(|| format!("submit body lacks an id: {body}"))
    }

    /// Polls `GET /jobs/:id` until the job's state is `done` and returns
    /// that final status. A 404 is waited out, not an error: a fleet
    /// member that has not yet scanned a sibling's job into memory
    /// answers 404 for a job that exists. Any other non-200 status fails
    /// at once; on timeout the error carries the last body seen.
    pub fn wait_done(&self, id: u64, timeout: Duration) -> Result<Json, String> {
        let path = format!("/jobs/{id}");
        let deadline = Instant::now() + timeout;
        loop {
            let (status, _, body) = self.request("GET", &path, None)?;
            match status {
                200 => {
                    let v = parse(&body).map_err(|e| format!("bad status JSON ({e}): {body}"))?;
                    if v.get("state").and_then(Json::as_str) == Some("done") {
                        return Ok(v);
                    }
                }
                404 => {}
                _ => return Err(format!("GET {path} returned HTTP {status}: {body}")),
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "job {id} did not settle in {timeout:?}; last reply HTTP {status}: {body}"
                ));
            }
            std::thread::sleep(POLL_INTERVAL);
        }
    }

    /// `GET /jobs/:id/results` for a job of `n` configurations: whether
    /// the stream is the final word (`X-Job-Complete: true`) and the
    /// digest of every slot it carries (empty string for a slot with no
    /// result yet). Every line must parse, index a slot and decode.
    pub fn result_digests(&self, id: u64, n: usize) -> Result<(bool, Vec<String>), String> {
        let path = format!("/jobs/{id}/results");
        let (_, headers, stream) = self.request_ok("GET", &path, None)?;
        let complete = headers
            .iter()
            .find(|(name, _)| name == "x-job-complete")
            .map(|(_, value)| value == "true")
            .ok_or_else(|| format!("GET {path} carries no X-Job-Complete header"))?;
        let mut digests = vec![String::new(); n];
        for line in stream.lines().filter(|l| !l.trim().is_empty()) {
            let v = parse(line).map_err(|e| format!("result line does not parse ({e}): {line}"))?;
            let slot = v
                .get("index")
                .and_then(Json::as_u64)
                .and_then(|i| digests.get_mut(usize::try_from(i).ok()?))
                .ok_or_else(|| format!("result line indexes no slot of {n}: {line}"))?;
            *slot = v
                .get("result")
                .and_then(|r| flexsim::decode_result(r).ok())
                .ok_or_else(|| format!("undecodable result line: {line}"))?
                .digest();
        }
        Ok((complete, digests))
    }

    /// One `u64` leaf of `GET /stats`, by key path (`&["cache", "hits"]`).
    pub fn stat(&self, path: &[&str]) -> Result<u64, String> {
        let (_, _, body) = self.request_ok("GET", "/stats", None)?;
        let v = parse(&body).map_err(|e| format!("bad stats JSON ({e}): {body}"))?;
        path.iter()
            .try_fold(&v, |cur, key| cur.get(key))
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("stats has no u64 at `{}`: {body}", path.join(".")))
    }

    /// `POST /shutdown`: the graceful path — in-flight work finishes and
    /// checkpoints before `serve()` returns.
    pub fn shutdown(&self) -> Result<(), String> {
        self.request_ok("POST", "/shutdown", None).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsim::jsonio::{durable, frame_record};
    use flexsim::RunConfig;
    use std::path::PathBuf;

    type Served = JoinHandle<std::io::Result<()>>;

    /// An in-process single-worker server on an ephemeral port.
    fn start(tag: &str) -> (Client, PathBuf, Served) {
        let dir =
            std::env::temp_dir().join(format!("campaign-client-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut opts = ServerOptions::new(&dir);
        opts.workers = 1;
        let (client, handle) = Client::serve_local(&opts).expect("bind");
        (client, dir, handle)
    }

    fn stop(client: Client, dir: PathBuf, handle: Served) {
        client.shutdown().expect("shutdown");
        handle.join().expect("server thread").expect("serve");
        let _ = std::fs::remove_dir_all(dir);
    }

    fn grid(seeds: std::ops::RangeInclusive<u64>) -> SweepGrid {
        let mut base = RunConfig::small_default();
        base.warmup = 200;
        base.measure = 600;
        SweepGrid {
            base,
            seeds: seeds.collect(),
            loads: vec![0.15, 0.25],
            timeout_ms: None,
        }
    }

    #[test]
    fn wait_done_rides_out_a_404_then_returns_the_settled_status() {
        let (client, dir, handle) = start("404");
        // Job ids count from 1, so the poller asks for a job that does
        // not exist yet. `requests` counts its polls and our own reads of
        // it: once it exceeds our reads, a 404 has been answered.
        let poller = std::thread::spawn(move || client.wait_done(1, Duration::from_secs(120)));
        let mut own_reads = 0;
        loop {
            own_reads += 1;
            if client.stat(&["requests"]).expect("stats") > own_reads {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(client.submit(&grid(1..=1)).expect("submit"), 1);
        let status = poller
            .join()
            .expect("poller")
            .expect("the 404 is waited out");
        assert_eq!(status.get("state").and_then(Json::as_str), Some("done"));
        assert_eq!(status.get("completed").and_then(Json::as_u64), Some(2));
        stop(client, dir, handle);
    }

    #[test]
    fn wait_done_times_out_with_the_last_body_in_the_error() {
        let (client, dir, handle) = start("timeout");
        let err = client
            .wait_done(7, Duration::from_millis(120))
            .expect_err("job 7 never exists");
        assert!(err.contains("did not settle"), "{err}");
        assert!(
            err.contains("HTTP 404") && err.contains("no job 7"),
            "{err}"
        );
        stop(client, dir, handle);
    }

    #[test]
    fn result_digests_reports_a_partial_stream_and_rejects_an_undecodable_line() {
        let (client, dir, handle) = start("partial");
        // 80 configs on one worker: still running two round trips later.
        let wide = grid(1..=40);
        let n = wide.expand().len();
        let id = client.submit(&wide).expect("submit");
        let (complete, digests) = client.result_digests(id, n).expect("partial stream");
        assert!(!complete, "the job cannot be done yet");
        assert_eq!(digests.len(), n);

        // A verified record whose result no decoder accepts — what a
        // checkpoint written by a different engine looks like — is
        // streamed by the server and must not pass for a digest.
        let ckpt = dir.join("jobs").join(format!("job-{id}.ckpt.jsonl"));
        let bogus = frame_record("{\"index\":0,\"label\":\"x\",\"result\":{}}");
        durable::append_line(&ckpt, &bogus).expect("append");
        let err = client.result_digests(id, n).expect_err("undecodable");
        assert!(err.contains("undecodable result line"), "{err}");
        // And a slot index outside the job is refused, not dropped.
        let err = client.result_digests(id, 0).expect_err("no slots");
        assert!(err.contains("indexes no slot"), "{err}");

        let (status, _, body) = client
            .request("POST", &format!("/jobs/{id}/cancel"), None)
            .expect("cancel");
        assert_eq!(status, 200, "{body}");
        client
            .wait_done(id, Duration::from_secs(120))
            .expect("a cancelled job settles");
        stop(client, dir, handle);
    }

    #[test]
    fn stat_names_the_missing_path_in_its_error() {
        let (client, dir, handle) = start("stat");
        assert_eq!(client.stat(&["sims_run"]).expect("leaf"), 0);
        assert_eq!(client.stat(&["cache", "hits"]).expect("nested leaf"), 0);
        let err = client.stat(&["cache", "nope"]).expect_err("no such leaf");
        assert!(err.contains("`cache.nope`"), "{err}");
        let err = client.stat(&["engine"]).expect_err("a string, not a u64");
        assert!(err.contains("`engine`"), "{err}");
        stop(client, dir, handle);
    }
}
