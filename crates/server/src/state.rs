//! Shared server state: the job table, the work queue, and the worker
//! loop that drains it through the supervised runner.
//!
//! Every worker pops the one queue, behind the job-table mutex — the unit
//! of work is a whole simulation (milliseconds to minutes), so queue
//! contention is irrelevant. Units are pushed in index order and popped
//! from the back: a job's configurations run highest index first. Grids
//! expand loads outer and seeds inner, so with ascending loads the
//! slowest, highest-load configurations start first instead of
//! lengthening the tail of the run.
//!
//! Results are never kept in memory: a completed unit is appended to its
//! job's checkpoint file as a CRC-framed [`flexsim::checkpoint_line`] via the
//! durable append path, so `GET /jobs/:id/results` is a file read and a
//! restarted server resumes through the job's [`CheckpointTail`] —
//! digest-exact.
//!
//! # Multi-process fleet
//!
//! Any number of server processes may share one data dir. Before running
//! a unit, a worker must win the per-config lease (see [`crate::lease`]);
//! losing means a live sibling owns the config, and the slot returns to
//! `Pending` until the reconciler either adopts the sibling's checkpoint
//! record or reclaims the expired lease. After *winning* a lease the
//! worker consults the checkpoint before simulating — a record appended
//! by a dead former owner is adopted, never recomputed — and the shared
//! content-addressed cache is the final dedup guard.
//!
//! Leases guard work, not lookups: a configuration already in the cache
//! when its job is submitted never reaches a worker. `submit_job` writes
//! its record into the checkpoint the job is born with, before the job is
//! published, so a checkpoint record is appended either by the submitter
//! before publication or by a lease holder, in `Shared::execute_unit` —
//! never by anyone else. A cancel appends nothing itself: its marker
//! raises the job's cancel token, and each unsettled slot's lease holder
//! records `cancelled` unless it adopts a record, as it records a timeout.
//!
//! # Slot transitions
//!
//! A slot settles only from a durable record, or fails (memory-only: a
//! restart retries it). A [`Job`] is the only writer of its slots. Disk
//! state reaches them by one step, [`Job::reconcile`], which the scanner,
//! the cancel endpoint and recovery share; a unit's verdict is
//! [`Job::decide`]'s, and a running slot ends in [`Job::end`] only. A job
//! settles in one write: it says so, once, releases the configurations
//! and says whether the tail may be sealed ([`CheckpointTail::seal`]).
//!
//! Every look at a checkpoint goes through the job's one
//! [`CheckpointTail`]: a refresh reads and verifies only the bytes
//! appended since the previous one, so the post-acquire check, the
//! reconciler and `GET /jobs/:id/results` cost what is new, not what the
//! job has accumulated. The tail has its own mutex, taken before the
//! job-table lock when both are needed and never the other way round.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use flexsim::jsonio::{durable, frame_record};
use flexsim::{
    checkpoint_status_line, run_supervised, splice_checkpoint_line, CancelToken, CheckpointRestore,
    CheckpointTail, EncodedResult, LineSpan, RunConfig, SweepError, Verdict,
};

use crate::cache::ResultCache;
use crate::lease::{HeldLease, LeaseDir};

/// One schedulable piece of work: configuration `index` of job `job`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Unit {
    pub job: u64,
    pub index: usize,
}

/// Lifecycle of one configuration slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SlotState {
    /// Not scheduled in this process (a sibling may own the lease).
    Pending,
    /// In this process's work queue.
    Queued,
    Running,
    Done {
        /// Served from the result cache instead of simulated.
        cached: bool,
        /// Restored from the job checkpoint (at start or by adopting a
        /// sibling's record).
        restored: bool,
    },
    /// The supervised run panicked (the message is the
    /// [`flexsim::SweepError`] rendering), or the verdict's checkpoint
    /// append failed. Memory-only: a restart retries the slot.
    Failed(String),
    /// Terminally cancelled; `timed_out` distinguishes a deadline expiry
    /// from an explicit cancel request.
    Cancelled {
        timed_out: bool,
    },
}

impl SlotState {
    /// The state a durable record read back from the checkpoint settles a
    /// slot to.
    fn restored(verdict: Verdict) -> SlotState {
        match verdict {
            Verdict::Result => SlotState::Done {
                cached: false,
                restored: true,
            },
            Verdict::Cancelled { timed_out } => SlotState::Cancelled { timed_out },
        }
    }
}

/// How a claimant's turn at a slot ends, for [`Job::end`]: the slot's next
/// state, and the record that must be durable before it takes it.
#[derive(Debug)]
pub struct Outcome {
    state: SlotState,
    /// The verdict this lease holder records, and its checkpoint line.
    pub record: Option<(Verdict, String)>,
}

/// Per-job slot counts for status reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub pending: usize,
    pub running: usize,
    pub done: usize,
    pub cached: usize,
    pub restored: usize,
    pub failed: usize,
    pub cancelled: usize,
}

impl Tally {
    /// Adds `slot` to (or, with `add` false, removes it from) the counts.
    /// `Queued` counts as pending — queue residency is a process-local
    /// scheduling detail.
    fn count(&mut self, slot: &SlotState, add: bool) {
        let bump = |n: &mut usize| {
            if add {
                *n += 1
            } else {
                *n -= 1
            }
        };
        match slot {
            SlotState::Pending | SlotState::Queued => bump(&mut self.pending),
            SlotState::Running => bump(&mut self.running),
            SlotState::Done { cached, restored } => {
                bump(&mut self.done);
                if *cached {
                    bump(&mut self.cached);
                }
                if *restored {
                    bump(&mut self.restored);
                }
            }
            SlotState::Failed(_) => bump(&mut self.failed),
            SlotState::Cancelled { .. } => bump(&mut self.cancelled),
        }
    }
}

/// One submitted job.
///
/// Its slots change only through its own methods, and none of them does
/// I/O: the callers pass in what the disk says and append the records, so
/// a test drives the same methods through every event sequence.
#[derive(Debug)]
pub struct Job {
    pub id: u64,
    /// Read only for slots that can still run (by `execute_unit`); empty
    /// once the job has settled.
    pub configs: Vec<RunConfig>,
    /// Written only through `set_slot`, which keeps `counts` in step, and
    /// by [`Job::reconcile`]'s `Pending` → `Queued`, which the counts do
    /// not tell apart.
    slots: Vec<SlotState>,
    counts: Tally,
    /// JSON-lines results/checkpoint file (framed core `checkpoint_line`
    /// records).
    pub ckpt: PathBuf,
    /// The incremental reader every look at `ckpt` goes through.
    pub tail: Arc<Mutex<CheckpointTail>>,
    /// What recovery found in the checkpoint: slots restored, lines lost
    /// to corruption, CRC-failed (quarantined) frames, and whether the
    /// file ended in a torn line (killed mid-append). Surfaced in the job
    /// status; all zero for a job submitted to this process.
    pub recovered: CheckpointRestore,
    /// Cooperative cancellation shared by every run of this job, raised
    /// only by [`Job::reconcile`] once the durable marker is seen.
    pub cancel: CancelToken,
    /// Per-config wall-clock budget (from the grid's `timeout_ms`).
    pub timeout: Option<Duration>,
    /// Stale leases this process broke while working the job — evidence
    /// of reclaimed work from dead siblings, surfaced in `/jobs/:id`.
    pub reclaimed_leases: u64,
}

impl Job {
    /// A job with every slot `Pending` and a checkpoint tail born past
    /// `born`, the result lines the job's checkpoint was created holding
    /// (see [`CheckpointTail::born`]; empty for a job found on disk, whose
    /// tail starts at offset 0).
    pub fn new(
        id: u64,
        configs: Vec<RunConfig>,
        ckpt: PathBuf,
        timeout: Option<Duration>,
        born: &[(usize, LineSpan)],
    ) -> Job {
        let n = configs.len();
        let labels = configs.iter().map(RunConfig::label).collect();
        Job {
            id,
            configs,
            slots: vec![SlotState::Pending; n],
            counts: Tally {
                pending: n,
                ..Tally::default()
            },
            tail: Arc::new(Mutex::new(CheckpointTail::born(&ckpt, labels, born))),
            ckpt,
            recovered: CheckpointRestore::default(),
            cancel: CancelToken::new(),
            timeout,
            reclaimed_leases: 0,
        }
    }

    pub fn slots(&self) -> &[SlotState] {
        &self.slots
    }

    /// The one settle point. Returns `Some(seal)` from the write that
    /// settles the job — once per job, since a settled job has no slot
    /// left that can change — and that write releases the configurations.
    /// `seal` says whether every verdict is durable, so the tail may be
    /// sealed: every settled slot but a `Failed` one (memory-only, a
    /// restart retries it) settled from its record.
    fn set_slot(&mut self, index: usize, state: SlotState) -> Option<bool> {
        let was_settled = self.is_settled();
        self.counts.count(&self.slots[index], false);
        self.counts.count(&state, true);
        self.slots[index] = state;
        if was_settled || !self.is_settled() {
            return None;
        }
        self.configs = Vec::new();
        Some(self.counts.failed == 0)
    }

    /// Slot counts for status reporting, kept current by every slot write.
    pub fn counts(&self) -> Tally {
        self.counts
    }

    /// [`counts`](Job::counts) recounted from the slots — the reference
    /// the running counters are checked against.
    pub fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for s in &self.slots {
            t.count(s, true);
        }
        t
    }

    /// No slot is pending, queued, or running.
    pub fn is_settled(&self) -> bool {
        self.counts.pending == 0 && self.counts.running == 0
    }

    /// Settles `hits`, the slots whose cache hits the job was born with
    /// (`POST /jobs` writes them into its first checkpoint), `done:cached`.
    /// Returns `Some(seal)` if that settled the job.
    pub fn settle_hits(&mut self, hits: impl IntoIterator<Item = usize>) -> Option<bool> {
        let hit = SlotState::Done {
            cached: true,
            restored: false,
        };
        hits.into_iter()
            .fold(None, |settled, i| settled.or(self.set_slot(i, hit.clone())))
    }

    /// The one step from disk to slots, which leaves a settled job alone.
    /// `cancelled` (the durable marker exists) raises the cancel token and
    /// settles nothing; each `Pending` or `Queued` slot takes `record`, its
    /// index's checkpoint verdict (a `Running` one is its claimant's); each
    /// slot still `Pending` is queued, in index order. Returns `Some(seal)`
    /// if this step settled the job.
    pub fn reconcile(
        &mut self,
        record: impl Fn(usize) -> Option<Verdict>,
        cancelled: bool,
        queue: &mut VecDeque<Unit>,
    ) -> Option<bool> {
        if self.is_settled() {
            return None;
        }
        if cancelled {
            self.cancel.cancel();
        }
        let mut settled = None;
        for index in 0..self.slots.len() {
            match (&self.slots[index], record(index)) {
                (SlotState::Pending | SlotState::Queued, Some(verdict)) => {
                    settled = settled.or(self.set_slot(index, SlotState::restored(verdict)));
                }
                (SlotState::Pending, None) => {
                    self.slots[index] = SlotState::Queued;
                    queue.push_back(Unit {
                        job: self.id,
                        index,
                    });
                }
                _ => {}
            }
        }
        settled
    }

    /// A worker takes a `Queued` slot; `false` if it is no longer queued
    /// (settled from disk while the unit sat in the queue).
    pub fn claim(&mut self, index: usize) -> bool {
        if self.slots[index] != SlotState::Queued {
            return false;
        }
        self.set_slot(index, SlotState::Running);
        true
    }

    /// The outcome of a lease a live sibling holds: the next reconcile
    /// step adopts its record or re-queues the slot.
    pub const LEASE_LOST: Outcome = Outcome {
        state: SlotState::Pending,
        record: None,
    };

    /// The one verdict of a unit whose lease this process holds, in this
    /// order: adopt `record`, the checkpoint's verdict for `index`; else,
    /// with `cancel` raised, record `cancelled`; else record the hit
    /// `lookup` finds in the cache; else `run` the configuration labelled
    /// `label` and record how it ended (a panic fails the slot).
    pub fn decide(
        index: usize,
        label: &str,
        record: Option<Verdict>,
        cancel: &CancelToken,
        lookup: impl FnOnce() -> Option<EncodedResult>,
        run: impl FnOnce() -> Result<EncodedResult, SweepError>,
    ) -> Outcome {
        let kept = |state| Outcome {
            state,
            record: None,
        };
        let result = |cached, r: &EncodedResult| Outcome {
            state: SlotState::Done {
                cached,
                restored: false,
            },
            record: Some((Verdict::Result, splice_checkpoint_line(index, label, r))),
        };
        let stopped = |timed_out| Outcome {
            state: SlotState::Cancelled { timed_out },
            record: Some((
                Verdict::Cancelled { timed_out },
                checkpoint_status_line(index, label, timed_out),
            )),
        };
        if let Some(verdict) = record {
            return kept(SlotState::restored(verdict));
        }
        if cancel.is_cancelled() {
            return stopped(false);
        }
        if let Some(hit) = lookup() {
            return result(true, &hit);
        }
        match run() {
            Ok(r) => result(false, &r),
            Err(SweepError::Cancelled { timed_out, .. }) => stopped(timed_out),
            Err(e) => kept(SlotState::Failed(e.to_string())),
        }
    }

    /// The one end of a `Running` slot, by its claimant: it takes the
    /// outcome's state once its record, if any, is appended, or fails if
    /// that append failed (`appended`). Returns `Some(seal)` if it settled.
    pub fn end(
        &mut self,
        index: usize,
        outcome: Outcome,
        appended: io::Result<()>,
    ) -> Option<bool> {
        debug_assert_eq!(self.slots[index], SlotState::Running);
        let state = match appended {
            Ok(()) => outcome.state,
            Err(e) => SlotState::Failed(format!("checkpoint append failed: {e}")),
        };
        self.set_slot(index, state)
    }
}

/// Mutex-guarded portion of the server state.
#[derive(Default)]
pub struct Inner {
    pub jobs: BTreeMap<u64, Job>,
    pub queue: VecDeque<Unit>,
    pub next_job_id: u64,
}

impl Inner {
    /// Puts `job`, whose id the table does not hold yet, in the table and
    /// runs its first [`reconcile`](Job::reconcile) step — the one way a
    /// job, submitted here or found on disk, becomes known to this process.
    /// Returns that step's settle signal. The caller wakes the pool.
    pub fn publish(
        &mut self,
        mut job: Job,
        record: impl Fn(usize) -> Option<Verdict>,
        cancelled: bool,
    ) -> Option<bool> {
        self.next_job_id = self.next_job_id.max(job.id + 1);
        let settled = job.reconcile(record, cancelled, &mut self.queue);
        let known = self.jobs.insert(job.id, job);
        debug_assert!(known.is_none(), "a job is published once");
        settled
    }
}

/// Counters reported by `GET /stats` (per process — each fleet member
/// reports its own share of the work).
#[derive(Default)]
pub struct Stats {
    /// Simulations actually executed (cache hits and restores excluded).
    pub sims_run: AtomicU64,
    pub jobs_submitted: AtomicU64,
    pub jobs_resumed: AtomicU64,
    pub jobs_completed: AtomicU64,
    /// Leases won by this process's workers. Settling a cache hit at
    /// submit takes none.
    pub leases_acquired: AtomicU64,
    /// Stale leases broken (work reclaimed from dead siblings).
    pub leases_reclaimed: AtomicU64,
    /// HTTP requests read off accepted connections.
    pub requests: AtomicU64,
    /// Checkpoint tail refreshes, and the bytes they read.
    pub ckpt_refreshes: AtomicU64,
    pub ckpt_bytes_read: AtomicU64,
}

impl Stats {
    /// Brings `tail` up to date with its file, counting the pass. A
    /// failed read leaves the tail where it was; the next refresh retries.
    pub fn refresh(&self, tail: &mut CheckpointTail) {
        let read = tail.refresh();
        self.count_pass(tail.path(), read);
    }

    /// Counts the job whose settling write [`Job::set_slot`] reported —
    /// call it under the job-table lock, so a poll that sees the job
    /// `done` sees it counted — and says whether to [`seal`](Stats::seal)
    /// its tail once the lock is released.
    pub(crate) fn count_settled(&self, settled: Option<bool>) -> bool {
        if settled.is_some() {
            self.jobs_completed.fetch_add(1, Ordering::Relaxed);
        }
        settled == Some(true)
    }

    /// [`refresh`](Stats::refresh) for the last time: see
    /// [`CheckpointTail::seal`].
    pub(crate) fn seal(&self, tail: &mut CheckpointTail) {
        let read = tail.seal();
        self.count_pass(tail.path(), read);
    }

    fn count_pass(&self, path: &Path, read: std::io::Result<u64>) {
        match read {
            Ok(bytes) => {
                self.ckpt_refreshes.fetch_add(1, Ordering::Relaxed);
                self.ckpt_bytes_read.fetch_add(bytes, Ordering::Relaxed);
            }
            Err(e) => eprintln!("campaign: reading {}: {e}", path.display()),
        }
    }
}

/// Everything the HTTP threads and the workers share.
pub struct Shared {
    pub inner: Mutex<Inner>,
    pub work_cv: Condvar,
    /// Graceful-shutdown latch: workers finish their in-flight unit and
    /// exit; queued units stay in the job checkpoints' debt for the next
    /// server lifetime.
    pub shutdown: AtomicBool,
    /// Where the periodic threads (scanner, heartbeat, SIGINT watcher)
    /// sleep, so the latch wakes them at once.
    shutdown_lock: Mutex<()>,
    shutdown_cv: Condvar,
    pub stats: Stats,
    pub cache: ResultCache,
    pub leases: LeaseDir,
    /// Leases currently held by this process, renewed by the heartbeat
    /// thread.
    pub held: Mutex<HashMap<(u64, usize), HeldLease>>,
}

impl Shared {
    pub fn new(cache: ResultCache, leases: LeaseDir) -> Arc<Shared> {
        let inner = Inner {
            next_job_id: 1,
            ..Inner::default()
        };
        Arc::new(Shared {
            inner: Mutex::new(inner),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            shutdown_lock: Mutex::new(()),
            shutdown_cv: Condvar::new(),
            stats: Stats::default(),
            cache,
            leases,
            held: Mutex::new(HashMap::new()),
        })
    }

    /// The worker loop: pops the queue from the back (see the module
    /// docs). Exits when the shutdown latch rises; the unit in flight at
    /// that moment is finished and checkpointed first.
    pub fn worker_loop(self: &Arc<Shared>) {
        loop {
            let unit = {
                let mut inner = self.inner.lock().unwrap();
                loop {
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    if let Some(u) = inner.queue.pop_back() {
                        break u;
                    }
                    let (guard, _) = self
                        .work_cv
                        .wait_timeout(inner, Duration::from_millis(200))
                        .unwrap();
                    inner = guard;
                }
            };
            self.execute_unit(unit);
        }
    }

    /// What the checkpoint's restorable record for `index` says, for the
    /// post-acquire check: reads what was appended since the tail's last
    /// refresh, then that one line.
    fn checkpoint_verdict(&self, tail: &Mutex<CheckpointTail>, index: usize) -> Option<Verdict> {
        let mut tail = tail.lock().expect("tail lock");
        self.stats.refresh(&mut tail);
        Some(match tail.record(index)? {
            Ok(_) => Verdict::Result,
            Err(timed_out) => Verdict::Cancelled { timed_out },
        })
    }

    /// Runs one unit: claims the slot and the config's lease, reads the
    /// checkpoint, lets [`Job::decide`] use the cache and the runner, appends
    /// the record, [`end`](Job::end)s the slot, then releases the lease.
    fn execute_unit(&self, unit: Unit) {
        let (cfg, ckpt, tail, cancel, timeout) = {
            let mut inner = self.inner.lock().unwrap();
            let Some(job) = inner.jobs.get_mut(&unit.job) else {
                return;
            };
            if !job.claim(unit.index) {
                return;
            }
            (
                job.configs[unit.index].clone(),
                job.ckpt.clone(),
                Arc::clone(&job.tail),
                job.cancel.clone(),
                job.timeout,
            )
        };

        let outcome = match self.leases.try_acquire(unit.job, unit.index) {
            Ok(Some(acquired)) => {
                self.stats.leases_acquired.fetch_add(1, Ordering::Relaxed);
                if acquired.reclaimed {
                    self.stats.leases_reclaimed.fetch_add(1, Ordering::Relaxed);
                    let mut inner = self.inner.lock().unwrap();
                    if let Some(job) = inner.jobs.get_mut(&unit.job) {
                        job.reclaimed_leases += 1;
                    }
                }
                self.held
                    .lock()
                    .unwrap()
                    .insert((unit.job, unit.index), acquired.lease);
                let record = self.checkpoint_verdict(&tail, unit.index);
                let run = || {
                    self.stats.sims_run.fetch_add(1, Ordering::Relaxed);
                    // The direct sweep's workers call the same function, so
                    // a served result is the direct result by construction.
                    // Encoded once: the cache entry and the checkpoint line
                    // share the text.
                    let text = EncodedResult::new(&run_supervised(&cfg, &cancel, timeout)?);
                    // Best-effort: a failed store costs only a re-run.
                    let _ = self.cache.store_encoded(&cfg, &text);
                    Ok(text)
                };
                let lookup = || self.cache.lookup(&cfg);
                Job::decide(unit.index, &cfg.label(), record, &cancel, lookup, run)
            }
            Ok(None) => Job::LEASE_LOST,
            Err(e) => {
                eprintln!(
                    "campaign: lease acquire failed for job {} cfg {}: {e}",
                    unit.job, unit.index
                );
                Job::LEASE_LOST
            }
        };

        // The append happens before the lease release: the lease holder is
        // the sole writer for this index, so release-after-append means no
        // sibling can interleave a duplicate record. No lock is held across
        // it: the durable single-buffer `O_APPEND` write is what keeps
        // appenders — this process's workers and sibling processes alike —
        // from tearing each other, and their fsyncs overlap.
        let appended = match &outcome.record {
            Some((_, line)) => durable::append_line(&ckpt, &frame_record(line)),
            None => Ok(()),
        };
        let seal = {
            let mut inner = self.inner.lock().unwrap();
            let job = inner.jobs.get_mut(&unit.job);
            self.stats
                .count_settled(job.and_then(|job| job.end(unit.index, outcome, appended)))
        };
        if seal {
            self.stats.seal(&mut tail.lock().expect("tail lock"));
        }
        if let Some(held) = self.held.lock().unwrap().remove(&(unit.job, unit.index)) {
            self.leases.release(held);
        }
    }

    /// Runs the reconcile step of every unsettled job. Called
    /// periodically by the fleet scanner thread.
    pub fn reconcile(&self) {
        let ids: Vec<u64> = self.inner.lock().unwrap().jobs.keys().copied().collect();
        for id in ids {
            self.reconcile_job(id);
        }
    }

    /// The scanner's and the cancel endpoint's reconcile step: unless the
    /// job is settled, reads the cancel marker, refreshes the tail off the
    /// job-table lock, runs [`Job::reconcile`] on both, wakes the pool for
    /// the slots it queued (lease lost to a live sibling, or never scheduled
    /// here — `execute_unit` re-arbitrates with the lease, so the worst case
    /// is a cheap failed acquire) and accounts for the job if it settled.
    pub(crate) fn reconcile_job(&self, id: u64) {
        let (marker, tail) = {
            let inner = self.inner.lock().unwrap();
            match inner.jobs.get(&id) {
                Some(job) if !job.is_settled() => {
                    (job.ckpt.with_extension("cancel"), Arc::clone(&job.tail))
                }
                _ => return,
            }
        };
        let cancelled = marker.exists();
        let mut tail = tail.lock().expect("tail lock");
        self.stats.refresh(&mut tail);
        let mut inner = self.inner.lock().unwrap();
        let Inner { jobs, queue, .. } = &mut *inner;
        let Some(job) = jobs.get_mut(&id) else {
            return;
        };
        let settled = job.reconcile(|index| tail.verdict(index), cancelled, queue);
        let seal = self.stats.count_settled(settled);
        drop(inner);
        self.work_cv.notify_all();
        if seal {
            self.stats.seal(&mut tail);
        }
    }

    /// Renews every lease this process holds. Called by the heartbeat
    /// thread several times per expiry window.
    pub fn heartbeat(self: &Arc<Shared>) {
        let mut held = self.held.lock().unwrap();
        for lease in held.values_mut() {
            let _ = self.leases.renew(lease);
        }
    }

    /// Raises the shutdown latch and wakes every waiter: the periodic
    /// threads on the shutdown condvar, the workers on the work condvar.
    /// Each latch store happens under the waiters' mutex, so none of them
    /// can check the latch, miss the wake-up and sleep out its timeout.
    pub fn trigger_shutdown(&self) {
        {
            let _periodic = self.shutdown_lock.lock().unwrap();
            let _workers = self.inner.lock().unwrap();
            self.shutdown.store(true, Ordering::SeqCst);
        }
        self.shutdown_cv.notify_all();
        self.work_cv.notify_all();
    }

    /// Sleeps for `period` or until the shutdown latch rises, whichever
    /// comes first. Returns whether the latch is up.
    pub fn wait_shutdown(&self, period: Duration) -> bool {
        let guard = self.shutdown_lock.lock().unwrap();
        let _ = self
            .shutdown_cv
            .wait_timeout_while(guard, period, |_| !self.shutdown.load(Ordering::SeqCst))
            .unwrap();
        self.shutdown.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsim::checkpoint_line;

    fn dummy_job(id: u64, slots: Vec<SlotState>) -> Job {
        let configs = vec![RunConfig::small_default(); slots.len()];
        let mut job = Job::new(id, configs, PathBuf::from("/nonexistent"), None, &[]);
        for (index, slot) in slots.into_iter().enumerate() {
            job.set_slot(index, slot);
        }
        job
    }

    /// Only `Pending` slots are queued, in index order, so popping the
    /// back runs a job's highest index first.
    #[test]
    fn pending_slots_queue_in_index_order() {
        let mut inner = Inner::default();
        let mut slots = vec![SlotState::Pending; 4];
        slots[2] = SlotState::Cancelled { timed_out: false };
        assert_eq!(inner.publish(dummy_job(1, slots), |_| None, false), None);
        let indices: Vec<usize> = inner.queue.iter().map(|u| u.index).collect();
        assert_eq!(indices, [0, 1, 3]);
        assert_eq!(inner.jobs[&1].counts().pending, 3);
        assert_eq!(inner.next_job_id, 2);
        assert_eq!(inner.queue.pop_back(), Some(Unit { job: 1, index: 3 }));
        // Queued slots are not queued twice.
        let Inner { jobs, queue, .. } = &mut inner;
        jobs.get_mut(&1).unwrap().reconcile(|_| None, false, queue);
        assert_eq!(inner.queue.len(), 2);
    }

    #[test]
    fn tally_and_settled() {
        let job = dummy_job(
            1,
            vec![
                SlotState::Pending,
                SlotState::Queued,
                SlotState::Running,
                SlotState::Done {
                    cached: true,
                    restored: false,
                },
                SlotState::Done {
                    cached: false,
                    restored: true,
                },
                SlotState::Failed("boom".into()),
                SlotState::Cancelled { timed_out: true },
            ],
        );
        assert_eq!(
            job.tally(),
            Tally {
                pending: 2,
                running: 1,
                done: 2,
                cached: 1,
                restored: 1,
                failed: 1,
                cancelled: 1,
            }
        );
        assert_eq!(job.counts(), job.tally());
        assert!(!job.is_settled());
        let done = dummy_job(
            2,
            vec![
                SlotState::Failed("x".into()),
                SlotState::Done {
                    cached: false,
                    restored: false,
                },
                SlotState::Cancelled { timed_out: false },
            ],
        );
        assert!(done.is_settled());
    }

    /// Settlement is signalled once per job, by the write that settles it,
    /// and gives the configurations back; the tail is to be sealed only
    /// when every verdict is durable — never with a `Failed` slot, and for
    /// a cancelled job too, whose every other slot settled from a record.
    #[test]
    fn settled_job_has_empty_configs_and_seals_only_durable_verdicts() {
        let stats = Stats::default();
        let done = SlotState::Done {
            cached: true,
            restored: false,
        };
        let timed_out = SlotState::Cancelled { timed_out: true };
        let settle = |job: &mut Job, slots: [SlotState; 2]| {
            let [first, last] = slots;
            assert_eq!(job.set_slot(0, first), None);
            assert_eq!(job.configs.len(), 2);
            let settled = job.set_slot(1, last);
            assert!(settled.is_some());
            stats.count_settled(settled)
        };

        let mut durable = dummy_job(1, vec![SlotState::Running; 2]);
        assert_eq!(durable.configs.len(), 2);
        assert!(settle(&mut durable, [done.clone(), timed_out]));
        assert!(durable.configs.is_empty());

        let mut failed = dummy_job(2, vec![SlotState::Running; 2]);
        assert!(!settle(
            &mut failed,
            [done.clone(), SlotState::Failed("boom".into())]
        ));
        assert!(failed.configs.is_empty());

        let mut cancelled = dummy_job(3, vec![SlotState::Running; 2]);
        cancelled.cancel.cancel();
        let cancel = SlotState::Cancelled { timed_out: false };
        assert!(settle(&mut cancelled, [done, cancel.clone()]));
        // A settled job has no slot left to change: no second signal.
        assert_eq!(cancelled.set_slot(1, cancel), None);

        assert_eq!(stats.jobs_completed.load(Ordering::Relaxed), 3);
    }

    /// What the cache and, after a miss, the runner answer when
    /// [`Job::decide`] asks.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Run {
        /// The cache holds the result.
        Hit,
        Result,
        TimedOut,
        /// The cancel endpoint runs during the run, which stops on the token.
        Cancelled,
        Panicked,
    }

    /// One event of the job protocol, as this process's threads and its
    /// siblings produce it.
    #[derive(Clone, Copy, Debug)]
    enum Event {
        /// Pending slots enter the work queue (the job is published).
        Queue,
        /// A worker claims queued slot `i`.
        Claim(usize),
        /// The claimant loses the lease race for `i`.
        LeaseLost(usize),
        /// The claimant wins the lease for `i` and its turn ends: the
        /// post-acquire check, then the cache and the runner answer as
        /// `Run` says if asked; the bool is whether an append succeeds.
        RunEnds(usize, Run, bool),
        /// A sibling's record for `i` becomes visible in the checkpoint.
        Sibling(usize, Verdict),
        /// The cancel endpoint: the marker, then the reconcile step
        /// (before publication, only a sibling's marker).
        Cancel,
        /// The scanner's reconcile step.
        Reconcile,
    }

    /// A result for the cache and the runner to answer with.
    fn result() -> EncodedResult {
        static RESULT: std::sync::OnceLock<EncodedResult> = std::sync::OnceLock::new();
        let mut cfg = RunConfig::small_default();
        (cfg.warmup, cfg.measure) = (0, 1);
        RESULT
            .get_or_init(|| EncodedResult::new(&flexsim::run(&cfg)))
            .clone()
    }

    /// A 2-config job, what its checkpoint shows, and what the protocol
    /// has done to it so far.
    struct World {
        job: Job,
        queue: VecDeque<Unit>,
        published: bool,
        /// The latest visible record per index, as [`CheckpointTail::verdict`]
        /// would report it.
        records: [Option<Verdict>; 2],
        marker: bool,
        settled: usize,
    }

    impl World {
        fn new() -> World {
            let configs = vec![RunConfig::small_default(); 2];
            World {
                job: Job::new(1, configs, PathBuf::from("/nonexistent"), None, &[]),
                queue: VecDeque::new(),
                published: false,
                records: [None; 2],
                marker: false,
                settled: 0,
            }
        }

        /// An independent copy: its own job, with its own cancel token.
        fn fork(&self) -> World {
            let mut job = Job::new(1, Vec::new(), PathBuf::new(), None, &[]);
            job.configs.clone_from(&self.job.configs);
            (job.slots, job.counts) = (self.job.slots.clone(), self.job.counts);
            if self.job.cancel.is_cancelled() {
                job.cancel.cancel();
            }
            World {
                job,
                queue: self.queue.clone(),
                ..*self
            }
        }

        fn applicable(&self) -> Vec<Event> {
            let mut events = Vec::new();
            if !self.published {
                events.push(Event::Queue);
            }
            for (i, slot) in self.job.slots().iter().enumerate() {
                match slot {
                    SlotState::Queued => events.push(Event::Claim(i)),
                    SlotState::Running => {
                        events.push(Event::LeaseLost(i));
                        for run in [Run::Hit, Run::Result, Run::TimedOut, Run::Cancelled] {
                            events.push(Event::RunEnds(i, run, true));
                            events.push(Event::RunEnds(i, run, false));
                        }
                        events.push(Event::RunEnds(i, Run::Panicked, true));
                    }
                    _ => {}
                }
                // A sibling records `i` only while it holds the lease,
                // which it cannot while this process runs `i`, and only if
                // its post-acquire check found no record.
                if *slot != SlotState::Running && self.records[i].is_none() {
                    events.push(Event::Sibling(i, Verdict::Result));
                    events.push(Event::Sibling(i, Verdict::Cancelled { timed_out: true }));
                    if self.marker {
                        events.push(Event::Sibling(i, Verdict::Cancelled { timed_out: false }));
                    }
                }
            }
            if !self.marker {
                events.push(Event::Cancel);
            }
            if self.published && !self.job.is_settled() {
                events.push(Event::Reconcile);
            }
            events
        }

        /// The reconcile step, as `Shared::reconcile_job` and
        /// `Inner::publish` run it; a cancel raises the marker first.
        fn reconcile(&mut self, cancel: bool) -> Option<bool> {
            self.marker |= cancel;
            let records = self.records;
            self.job
                .reconcile(|i| records[i], self.marker, &mut self.queue)
        }

        /// Applies `event` as the server does and checks every invariant
        /// of the protocol across it.
        fn step(&mut self, event: Event) {
            let before = self.job.slots().to_vec();
            let mut settled = None;
            let mut reconciled = false;
            match event {
                Event::Cancel if !self.published => self.marker = true,
                Event::Queue | Event::Reconcile | Event::Cancel => {
                    self.published = true;
                    settled = self.reconcile(matches!(event, Event::Cancel));
                    reconciled = true;
                }
                Event::Claim(i) => assert!(self.job.claim(i)),
                Event::LeaseLost(i) => settled = self.job.end(i, Job::LEASE_LOST, Ok(())),
                Event::RunEnds(i, run, append_ok) => {
                    let (cancel, record) = (self.job.cancel.clone(), self.records[i]);
                    let raised = cancel.is_cancelled() && record.is_none();
                    let outcome = Job::decide(
                        i,
                        "cfg",
                        record,
                        &cancel,
                        || (run == Run::Hit).then(result),
                        || match run {
                            Run::Hit => unreachable!("a hit is never run"),
                            Run::Result => Ok(result()),
                            Run::Panicked => Err(SweepError::Panicked {
                                label: "cfg".into(),
                                message: "boom".into(),
                            }),
                            Run::TimedOut | Run::Cancelled => {
                                if run == Run::Cancelled && !self.marker {
                                    reconciled = true;
                                    assert_eq!(self.reconcile(true), None, "`i` runs");
                                }
                                let timed_out = run == Run::TimedOut;
                                let label = "cfg".into();
                                Err(SweepError::Cancelled { label, timed_out })
                            }
                        },
                    );
                    let appended = match &outcome.record {
                        Some(_) if !append_ok => Err(io::Error::other("append failed")),
                        Some((verdict, _)) => {
                            let stopped = Verdict::Cancelled { timed_out: false };
                            assert!(
                                !raised || *verdict == stopped,
                                "a token up at the check records `cancelled`"
                            );
                            assert_eq!(self.records[i], None, "one record per index");
                            self.records[i] = Some(*verdict);
                            Ok(())
                        }
                        None => Ok(()),
                    };
                    settled = self.job.end(i, outcome, appended);
                }
                Event::Sibling(i, v) => self.records[i] = Some(v),
            }

            let job = &self.job;
            assert_eq!(job.counts(), job.tally(), "counts follow the slots");
            if let Some(seal) = settled {
                self.settled += 1;
                let durable = job.counts().failed == 0;
                assert_eq!(seal, durable, "seal only when every verdict is durable");
                if seal {
                    assert!(self.records.iter().all(Option::is_some), "sealed = on disk");
                }
                assert!(job.configs.is_empty(), "settling releases the configs");
            }
            assert!(self.settled <= 1, "settling is signalled at most once");
            assert_eq!(self.settled == 1, job.is_settled(), "signalled iff settled");
            for (i, (was, now)) in before.iter().zip(job.slots()).enumerate() {
                if matches!(was, SlotState::Done { .. } | SlotState::Cancelled { .. }) {
                    assert_eq!(was, now, "a settled slot never changes");
                }
                if reconciled
                    && matches!(was, SlotState::Pending | SlotState::Queued)
                    && self.records[i] == Some(Verdict::Result)
                {
                    assert!(
                        matches!(now, SlotState::Done { .. }),
                        "a visible result settles its waiting slot `done`, not {now:?}"
                    );
                }
            }
        }

        /// A restart: a fresh job published on what is on disk settles
        /// every slot settled here, bar a failed one, to the same verdict.
        fn check_restart(&self) {
            let mut restarted = World::new();
            restarted.records = self.records;
            restarted.marker = self.marker;
            restarted.reconcile(false);
            for (now, after) in self.job.slots().iter().zip(restarted.job.slots()) {
                let agrees = match now {
                    SlotState::Done { .. } => matches!(after, SlotState::Done { .. }),
                    SlotState::Cancelled { .. } => now == after,
                    _ => true,
                };
                assert!(agrees, "{now:?} here reads {after:?} after a restart");
            }
        }

        /// Liveness: left to this process alone — no sibling event — a
        /// published job settles in one round: a reconcile, a claim of
        /// every `Queued` slot and an end of every `Running` one with a
        /// result that appends.
        fn check_settles(&self) {
            if !self.published || self.job.is_settled() {
                return;
            }
            let mut world = self.fork();
            world.step(Event::Reconcile);
            for i in 0..world.job.slots().len() {
                if world.job.slots()[i] == SlotState::Queued {
                    world.step(Event::Claim(i));
                }
                if world.job.slots()[i] == SlotState::Running {
                    world.step(Event::RunEnds(i, Run::Result, true));
                }
            }
            assert!(
                world.job.is_settled(),
                "a published job is unsettled after one round: {:?}",
                world.job.slots()
            );
        }
    }

    /// Every event sequence of at most `JOB_PROTOCOL_DEPTH` events on a
    /// fresh 2-config job, each event applied to a copy of its prefix's
    /// world, with the invariants of [`World::step`] checked after every
    /// event, and [`World::check_restart`] and [`World::check_settles`]
    /// after every prefix.
    const JOB_PROTOCOL_DEPTH: usize = 7;

    /// Counts the sequences that extend the `depth` events that made
    /// `world`, whose own invariants are already checked.
    fn explore_job_protocol(world: &World, depth: usize) -> u64 {
        world.check_restart();
        world.check_settles();
        let events = world.applicable();
        if depth == JOB_PROTOCOL_DEPTH || events.is_empty() {
            return 1;
        }
        let mut sequences = 0;
        for event in events {
            let mut next = world.fork();
            next.step(event);
            sequences += explore_job_protocol(&next, depth + 1);
        }
        sequences
    }

    #[test]
    fn job_protocol_holds_on_every_event_sequence() {
        let sequences = explore_job_protocol(&World::new(), 0);
        eprintln!("job protocol: {sequences} sequences, each restart-checked after every event");
        assert_eq!(sequences, 211_658);
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("icn-state-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A record is adopted only if it is *this* configuration's: a forged
    /// record with a matching index but another label, or a status no
    /// server writes, settles nothing — neither through the reconciler
    /// nor through the post-acquire check.
    #[test]
    fn forged_records_are_not_adopted() {
        let dir = temp_dir("forged");
        let shared = Shared::new(
            ResultCache::open(dir.join("cache")).unwrap(),
            LeaseDir::open(dir.join("leases"), Duration::from_secs(5)).unwrap(),
        );
        let mut cfg = RunConfig::small_default();
        cfg.warmup = 20;
        cfg.measure = 60;
        let result = flexsim::run(&cfg);
        let configs: Vec<RunConfig> = [0.1, 0.2, 0.3]
            .iter()
            .map(|&load| RunConfig {
                load,
                ..cfg.clone()
            })
            .collect();
        let labels: Vec<String> = configs.iter().map(RunConfig::label).collect();
        assert_ne!(labels[0], labels[1], "labels tell the configs apart");

        let ckpt = dir.join("job-1.ckpt.jsonl");
        for payload in [
            // Index 0 carrying config 1's label; index 1 with an unknown
            // status; index 2 is genuine.
            checkpoint_line(0, &labels[1], &result),
            checkpoint_status_line(1, &labels[1], false).replace("cancelled", "paused"),
            checkpoint_line(2, &labels[2], &result),
        ] {
            durable::append_line(&ckpt, &frame_record(&payload)).unwrap();
        }
        let job = Job::new(1, configs, ckpt, None, &[]);
        let tail = Arc::clone(&job.tail);
        shared.inner.lock().unwrap().jobs.insert(1, job);

        shared.reconcile();
        {
            let inner = shared.inner.lock().unwrap();
            let job = &inner.jobs[&1];
            assert_eq!(
                job.slots()[0],
                SlotState::Queued,
                "wrong label: not adopted"
            );
            assert_eq!(
                job.slots()[1],
                SlotState::Queued,
                "unknown status: not adopted"
            );
            assert_eq!(
                job.slots()[2],
                SlotState::Done {
                    cached: false,
                    restored: true
                }
            );
            assert_eq!(job.counts(), job.tally());
        }
        assert_eq!(shared.checkpoint_verdict(&tail, 0), None);
        assert_eq!(shared.checkpoint_verdict(&tail, 1), None);
        assert_eq!(shared.checkpoint_verdict(&tail, 2), Some(Verdict::Result));
        let adopted = tail.lock().unwrap().record(2).expect("genuine record");
        assert_eq!(adopted.unwrap().digest(), result.digest());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
