//! Shared server state: the job table, the work-stealing queues, and the
//! worker loop that drains them through the supervised runner.
//!
//! Each worker owns a deque; units are dealt round-robin at submission,
//! a worker pops its own deque LIFO and steals FIFO from the longest
//! sibling when empty. All deques sit behind one mutex — the unit of
//! work is a whole simulation (milliseconds to minutes), so queue
//! contention is irrelevant and the single lock keeps the stealing logic
//! trivially correct.
//!
//! Results are never kept in memory: a completed unit is appended to its
//! job's checkpoint file as a CRC-framed [`checkpoint_line`] via the
//! durable append path, so `GET /jobs/:id/results` is a file read and a
//! restarted server resumes with the core [`flexsim::restore_checkpoint`]
//! — the same machinery, digest-exact.
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
//! before publication or by a lease holder — never by anyone else.
//!
//! A job whose last slot settles is accounted once, in
//! [`Shared::settle`], and gives back what only an unsettled job needs:
//! its configurations, and — when every verdict is durable — the tail's
//! per-index state ([`CheckpointTail::seal`]).
//!
//! Every look at a checkpoint goes through the job's one
//! [`CheckpointTail`]: a refresh reads and verifies only the bytes
//! appended since the previous one, so the post-acquire check, the
//! reconciler and `GET /jobs/:id/results` cost what is new, not what the
//! job has accumulated. The tail has its own mutex, taken before the
//! job-table lock when both are needed and never the other way round.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use flexsim::jsonio::{durable, frame_record};
use flexsim::{
    checkpoint_line, checkpoint_status_line, run_supervised_cancellable, CancelToken,
    CheckpointRestore, CheckpointTail, RunConfig, RunResult, SweepError, SweepOptions, Verdict,
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
    /// Dealt into this process's worker queues.
    Queued,
    Running,
    Done {
        /// Served from the result cache instead of simulated.
        cached: bool,
        /// Restored from the job checkpoint (at start or by adopting a
        /// sibling's record).
        restored: bool,
    },
    /// Supervision exhausted its retries; the message is the
    /// [`flexsim::SweepError`] rendering.
    Failed(String),
    /// Terminally cancelled; `timed_out` distinguishes a deadline expiry
    /// from an explicit cancel request.
    Cancelled {
        timed_out: bool,
    },
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
#[derive(Debug)]
pub struct Job {
    pub id: u64,
    /// Read only for slots that can still run (by `execute_unit` and the
    /// cancel endpoint); empty once the job has settled.
    pub configs: Vec<RunConfig>,
    /// Written only through [`Job::set_slot`], which keeps `counts` in
    /// step.
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
    /// Cooperative cancellation shared by every run of this job.
    pub cancel: CancelToken,
    /// Per-config wall-clock budget (from the grid's `timeout_ms`).
    pub timeout: Option<Duration>,
    /// Stale leases this process broke while working the job — evidence
    /// of reclaimed work from dead siblings, surfaced in `/jobs/:id`.
    pub reclaimed_leases: u64,
}

impl Job {
    /// A job with every slot `Pending` and an unread checkpoint tail.
    pub fn new(id: u64, configs: Vec<RunConfig>, ckpt: PathBuf, timeout: Option<Duration>) -> Job {
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
            tail: Arc::new(Mutex::new(CheckpointTail::new(&ckpt, labels))),
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

    pub fn set_slot(&mut self, index: usize, state: SlotState) {
        self.counts.count(&self.slots[index], false);
        self.counts.count(&state, true);
        self.slots[index] = state;
    }

    /// Slot counts for status reporting, kept current by
    /// [`set_slot`](Job::set_slot).
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

    /// Settles from the checkpoint every slot that is not yet running
    /// here and has a restorable record in `tail`.
    fn adopt(&mut self, tail: &CheckpointTail) {
        for index in 0..self.slots.len() {
            if !matches!(self.slots[index], SlotState::Pending | SlotState::Queued) {
                continue;
            }
            match tail.verdict(index) {
                Some(Verdict::Result) => self.set_slot(
                    index,
                    SlotState::Done {
                        cached: false,
                        restored: true,
                    },
                ),
                Some(Verdict::Cancelled { timed_out }) => {
                    self.set_slot(index, SlotState::Cancelled { timed_out })
                }
                None => {}
            }
        }
    }

    /// Settles every not-yet-running slot of a cancelled job. No status
    /// append here: the endpoint that raised the marker persisted lines
    /// for its own slots, and duplicated lines from every fleet member
    /// would only inflate accounting.
    fn cancel_waiting(&mut self) {
        for index in 0..self.slots.len() {
            if matches!(self.slots[index], SlotState::Pending | SlotState::Queued) {
                self.set_slot(index, SlotState::Cancelled { timed_out: false });
            }
        }
    }

    /// Releases what only an unsettled job needs and says whether the
    /// tail may be sealed too: only when every slot holds a durable
    /// verdict. A `Failed` slot is memory-only (a restart retries it), and
    /// a cancelled job may still receive the record of a sibling that was
    /// mid-run when the marker landed, so both keep a live tail.
    fn release_settled(&mut self) -> bool {
        debug_assert!(self.is_settled());
        self.configs = Vec::new();
        self.counts.failed == 0 && !self.cancel.is_cancelled()
    }

    /// Recovery: the tail's first, whole-file pass. Restores completed
    /// and cancelled slots, records what the pass found, seals a torn
    /// tail with a guard newline so fresh appends start clean, and
    /// applies the durable cancel marker. A job that comes back settled
    /// is released like one that settles here.
    pub fn recover(&mut self, stats: &Stats) {
        let tail = Arc::clone(&self.tail);
        let mut tail = tail.lock().expect("tail lock");
        stats.refresh(&mut tail);
        self.recovered = tail.report();
        if self.recovered.torn_tail {
            let _ = durable::append_line(&self.ckpt, "");
        }
        self.adopt(&tail);
        if self.ckpt.with_extension("cancel").exists() {
            self.cancel.cancel();
            self.cancel_waiting();
        }
        if self.is_settled() && self.release_settled() {
            stats.seal(&mut tail);
        }
    }
}

/// Mutex-guarded portion of the server state.
#[derive(Default)]
pub struct Inner {
    pub jobs: BTreeMap<u64, Job>,
    pub queues: Vec<VecDeque<Unit>>,
    pub next_job_id: u64,
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
    pub fn new(workers: usize, cache: ResultCache, leases: LeaseDir) -> Arc<Shared> {
        let inner = Inner {
            jobs: BTreeMap::new(),
            queues: (0..workers.max(1)).map(|_| VecDeque::new()).collect(),
            next_job_id: 1,
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

    /// Accounts for a job whose last slot has just settled — called
    /// exactly once per job, under the job-table lock, by whoever flipped
    /// that slot. Returns the tail when it is to be sealed, which the
    /// caller does through [`Stats::seal`] once the lock is released (the
    /// seal reads the file).
    #[must_use]
    pub(crate) fn settle(&self, job: &mut Job) -> Option<Arc<Mutex<CheckpointTail>>> {
        self.stats.jobs_completed.fetch_add(1, Ordering::Relaxed);
        job.release_settled().then(|| Arc::clone(&job.tail))
    }

    /// Deals every `Pending` slot of `job_id` round-robin across the
    /// worker queues (marking them `Queued`) and wakes the pool. Caller
    /// holds the lock.
    pub fn enqueue_pending(inner: &mut Inner, job_id: u64) {
        let Some(job) = inner.jobs.get_mut(&job_id) else {
            return;
        };
        let mut units = Vec::new();
        for (index, slot) in job.slots.iter_mut().enumerate() {
            if *slot == SlotState::Pending {
                *slot = SlotState::Queued;
                units.push(Unit { job: job_id, index });
            }
        }
        let n = inner.queues.len();
        for (k, unit) in units.into_iter().enumerate() {
            inner.queues[k % n].push_back(unit);
        }
    }

    /// Pops work for `worker`: own deque from the back (LIFO keeps a
    /// worker on the job it was dealt), else steal from the front of the
    /// longest sibling queue (FIFO takes the oldest backlog).
    fn next_unit(inner: &mut Inner, worker: usize) -> Option<Unit> {
        if let Some(u) = inner.queues[worker].pop_back() {
            return Some(u);
        }
        let victim = (0..inner.queues.len())
            .filter(|&q| q != worker)
            .max_by_key(|&q| inner.queues[q].len())?;
        inner.queues[victim].pop_front()
    }

    /// The worker loop. Exits when the shutdown latch rises; the unit in
    /// flight at that moment is finished and checkpointed first.
    pub fn worker_loop(self: &Arc<Shared>, worker: usize) {
        loop {
            let unit = {
                let mut inner = self.inner.lock().unwrap();
                loop {
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    if let Some(u) = Self::next_unit(&mut inner, worker) {
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

    /// Appends one framed record line to `ckpt`. No lock is held: the
    /// durable single-buffer `O_APPEND` write is what keeps appenders —
    /// this process's workers and sibling processes alike — from tearing
    /// each other, and their fsyncs overlap.
    fn append_record(job: u64, ckpt: &Path, payload: &str) {
        if let Err(e) = durable::append_line(ckpt, &frame_record(payload)) {
            eprintln!("campaign: checkpoint append failed for job {job}: {e}");
        }
    }

    /// The shared checkpoint's restorable record for `index`, if any —
    /// consulted after winning a lease, so work a dead former owner
    /// completed is adopted instead of recomputed. Reads only what was
    /// appended since the tail's last refresh, then one line.
    fn checkpoint_record_for(
        &self,
        tail: &Mutex<CheckpointTail>,
        index: usize,
    ) -> Option<Result<RunResult, bool>> {
        let mut tail = tail.lock().expect("tail lock");
        self.stats.refresh(&mut tail);
        tail.record(index)
    }

    /// Returns a `Running` slot to `Pending` (the lease went to a sibling
    /// or could not be taken); the reconciler re-queues it.
    fn unclaim(&self, unit: Unit) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(job) = inner.jobs.get_mut(&unit.job) {
            if job.slots[unit.index] == SlotState::Running {
                job.set_slot(unit.index, SlotState::Pending);
            }
        }
    }

    /// Runs one unit to completion: lease claim, checkpoint adoption,
    /// cache lookup, supervised run on a miss, durable checkpoint append,
    /// cache store, slot update.
    fn execute_unit(self: &Arc<Shared>, unit: Unit) {
        let (cfg, ckpt, tail, cancel, timeout) = {
            let mut inner = self.inner.lock().unwrap();
            let Some(job) = inner.jobs.get_mut(&unit.job) else {
                return;
            };
            // Only Queued units are runnable; the reconciler may have
            // settled this slot (sibling result, cancellation) while the
            // unit sat in the queue.
            if job.slots[unit.index] != SlotState::Queued {
                return;
            }
            job.set_slot(unit.index, SlotState::Running);
            (
                job.configs[unit.index].clone(),
                job.ckpt.clone(),
                Arc::clone(&job.tail),
                job.cancel.clone(),
                job.timeout,
            )
        };

        // Cancelled while queued: persist the terminal decision now
        // (unless some fleet member already did).
        if cancel.is_cancelled() {
            let persist = self.checkpoint_record_for(&tail, unit.index).is_none();
            self.finish_unit(unit, &cfg, &ckpt, Err(false), false, persist);
            return;
        }

        // Claim the per-config lease; a live sibling owning it means the
        // config is theirs — the reconciler will adopt their record.
        let acquired = match self.leases.try_acquire(unit.job, unit.index) {
            Ok(Some(a)) => a,
            Ok(None) => return self.unclaim(unit),
            Err(e) => {
                eprintln!(
                    "campaign: lease acquire failed for job {} cfg {}: {e}",
                    unit.job, unit.index
                );
                return self.unclaim(unit);
            }
        };
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

        // With the lease won, consult the shared checkpoint: a dead
        // former owner may have finished this config before dying. Its
        // record is adopted, never recomputed — this check is what makes
        // lease reclamation duplicate-free.
        let (verdict, cached, persist) = match self.checkpoint_record_for(&tail, unit.index) {
            Some(verdict) => (verdict, false, false),
            None => match self.cache.lookup(&cfg) {
                Some(hit) => (Ok(hit), true, true),
                None => {
                    self.stats.sims_run.fetch_add(1, Ordering::Relaxed);
                    // Default supervision, always: a served result is the
                    // direct `sweep_supervised(.., &SweepOptions::default())`
                    // result by construction.
                    let sweep = &SweepOptions::default();
                    match run_supervised_cancellable(&cfg, sweep, &cancel, timeout) {
                        Ok(r) => {
                            // Best-effort: a failed store only costs a
                            // future re-run.
                            let _ = self.cache.store(&cfg, &r);
                            (Ok(r), false, true)
                        }
                        Err(SweepError::Cancelled { timed_out, .. }) => {
                            (Err(timed_out), false, true)
                        }
                        Err(e) => {
                            // Retries exhausted: terminal failure (kept
                            // in memory only — a restart retries it).
                            self.release_lease(unit);
                            let mut inner = self.inner.lock().unwrap();
                            if let Some(job) = inner.jobs.get_mut(&unit.job) {
                                job.set_slot(unit.index, SlotState::Failed(e.to_string()));
                                if job.is_settled() {
                                    // A failed slot keeps the tail live.
                                    let _ = self.settle(job);
                                }
                            }
                            return;
                        }
                    }
                }
            },
        };

        // The append happens before the lease release: the lease holder
        // is the sole writer for this index, so release-after-append
        // means no sibling can interleave a duplicate record.
        self.finish_unit(unit, &cfg, &ckpt, verdict, cached, persist);
        self.release_lease(unit);
    }

    fn release_lease(self: &Arc<Shared>, unit: Unit) {
        if let Some(held) = self.held.lock().unwrap().remove(&(unit.job, unit.index)) {
            self.leases.release(held);
        }
    }

    /// Persists (when `persist`) and records a terminal verdict for one
    /// unit: `Ok(result)` appends a result record, `Err(timed_out)` a
    /// status record. Adopted-from-disk verdicts pass `persist: false` —
    /// their record already exists. The fsync'd append comes first, off
    /// the job-table lock; the slot flips only once the record is durable.
    fn finish_unit(
        self: &Arc<Shared>,
        unit: Unit,
        cfg: &RunConfig,
        ckpt: &Path,
        verdict: Result<RunResult, bool>,
        cached: bool,
        persist: bool,
    ) {
        if persist {
            let payload = match &verdict {
                Ok(result) => checkpoint_line(unit.index, &cfg.label(), result),
                Err(timed_out) => checkpoint_status_line(unit.index, &cfg.label(), *timed_out),
            };
            Self::append_record(unit.job, ckpt, &payload);
        }
        let mut inner = self.inner.lock().unwrap();
        let Some(job) = inner.jobs.get_mut(&unit.job) else {
            return;
        };
        job.set_slot(
            unit.index,
            match verdict {
                Ok(_) => SlotState::Done {
                    cached,
                    restored: !persist,
                },
                Err(timed_out) => SlotState::Cancelled { timed_out },
            },
        );
        let seal = job.is_settled().then(|| self.settle(job)).flatten();
        drop(inner);
        if let Some(tail) = seal {
            self.stats.seal(&mut tail.lock().expect("tail lock"));
        }
    }

    /// Reconciles in-memory jobs against the shared checkpoint files:
    /// adopts records appended by sibling processes, applies durable
    /// cancellation markers, and re-queues `Pending` slots whose lease is
    /// free (expired or never taken). Called periodically by the fleet
    /// scanner thread.
    pub fn reconcile(self: &Arc<Shared>) {
        let jobs: Vec<(u64, PathBuf, Arc<Mutex<CheckpointTail>>)> = {
            let inner = self.inner.lock().unwrap();
            inner
                .jobs
                .iter()
                .filter(|(_, j)| !j.is_settled())
                .map(|(id, j)| (*id, j.ckpt.clone(), Arc::clone(&j.tail)))
                .collect()
        };
        let mut woke_work = false;
        for (id, ckpt, tail) in jobs {
            // Read what the fleet appended outside the job-table lock;
            // adoption below re-checks slot states under it.
            let mut tail = tail.lock().expect("tail lock");
            self.stats.refresh(&mut tail);
            let cancel_marker = ckpt.with_extension("cancel").exists();
            let mut inner = self.inner.lock().unwrap();
            let Some(job) = inner.jobs.get_mut(&id) else {
                continue;
            };
            let was_settled = job.is_settled();
            if cancel_marker && !job.cancel.is_cancelled() {
                job.cancel.cancel();
            }
            job.adopt(&tail);
            if job.cancel.is_cancelled() {
                job.cancel_waiting();
            }
            // Re-queue Pending slots (lease lost to a live sibling, or
            // never scheduled here): execute_unit re-arbitrates with the
            // lease, so the worst case is a cheap failed acquire.
            Self::enqueue_pending(&mut inner, id);
            let job = inner.jobs.get_mut(&id).expect("looked up above");
            woke_work |= job.slots.contains(&SlotState::Queued);
            let seal = (!was_settled && job.is_settled())
                .then(|| self.settle(job))
                .flatten();
            drop(inner);
            if seal.is_some() {
                self.stats.seal(&mut tail);
            }
        }
        if woke_work {
            self.work_cv.notify_all();
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

    fn dummy_job(id: u64, slots: Vec<SlotState>) -> Job {
        let configs = vec![RunConfig::small_default(); slots.len()];
        let mut job = Job::new(id, configs, PathBuf::from("/nonexistent"), None);
        for (index, slot) in slots.into_iter().enumerate() {
            job.set_slot(index, slot);
        }
        job
    }

    #[test]
    fn units_deal_round_robin_and_steal_from_longest() {
        let mut inner = Inner {
            queues: vec![VecDeque::new(), VecDeque::new(), VecDeque::new()],
            next_job_id: 2,
            ..Inner::default()
        };
        inner
            .jobs
            .insert(1, dummy_job(1, vec![SlotState::Pending; 7]));
        Shared::enqueue_pending(&mut inner, 1);
        assert!(inner.jobs[&1].slots.iter().all(|s| *s == SlotState::Queued));
        assert_eq!(inner.queues[0].len(), 3);
        assert_eq!(inner.queues[1].len(), 2);
        assert_eq!(inner.queues[2].len(), 2);

        // Own deque first, LIFO.
        let u = Shared::next_unit(&mut inner, 0).unwrap();
        assert_eq!(u.index, 6); // queue 0 held indices 0, 3, 6
                                // Drain own, then steal FIFO from the longest sibling.
        Shared::next_unit(&mut inner, 0).unwrap();
        Shared::next_unit(&mut inner, 0).unwrap();
        let stolen = Shared::next_unit(&mut inner, 0).unwrap();
        // Queues 1 and 2 tie on length; `max_by_key` keeps the last, so
        // the steal takes the oldest unit of queue 2 (indices 2, 5).
        assert_eq!(stolen.index, 2);
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

    /// The running counters follow every slot transition a unit can take.
    #[test]
    fn counters_track_slot_transitions() {
        let mut job = dummy_job(1, vec![SlotState::Pending; 3]);
        let done = SlotState::Done {
            cached: true,
            restored: false,
        };
        for (index, state) in [
            (0, SlotState::Queued),
            (0, SlotState::Running),
            (1, SlotState::Running),
            (0, done.clone()),
            (1, SlotState::Pending),
            (1, SlotState::Failed("boom".into())),
            (2, SlotState::Cancelled { timed_out: true }),
        ] {
            assert!(!job.is_settled());
            job.set_slot(index, state);
            assert_eq!(job.counts(), job.tally());
        }
        assert!(job.is_settled());
        assert_eq!(job.counts().cached, 1);
    }

    /// Settlement is counted per job and gives the configurations back;
    /// the tail is handed out for sealing only when every verdict is
    /// durable — never with a `Failed` slot, never for a cancelled job.
    #[test]
    fn settled_job_has_empty_configs_and_seals_only_durable_verdicts() {
        let dir = temp_dir("settle");
        let shared = Shared::new(
            1,
            ResultCache::open(dir.join("cache")).unwrap(),
            LeaseDir::open(dir.join("leases"), Duration::from_secs(5)).unwrap(),
        );
        let done = SlotState::Done {
            cached: true,
            restored: false,
        };
        let timed_out = SlotState::Cancelled { timed_out: true };

        let mut durable = dummy_job(1, vec![done.clone(), timed_out]);
        assert_eq!(durable.configs.len(), 2);
        assert!(shared.settle(&mut durable).is_some());
        assert!(durable.configs.is_empty());

        let mut failed = dummy_job(2, vec![done.clone(), SlotState::Failed("boom".into())]);
        assert!(shared.settle(&mut failed).is_none());
        assert!(failed.configs.is_empty());

        let mut cancelled = dummy_job(3, vec![done, SlotState::Cancelled { timed_out: false }]);
        cancelled.cancel.cancel();
        assert!(shared.settle(&mut cancelled).is_none());

        assert_eq!(shared.stats.jobs_completed.load(Ordering::Relaxed), 3);
        let _ = std::fs::remove_dir_all(&dir);
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
            1,
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
        let job = Job::new(1, configs, ckpt, None);
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
        assert!(shared.checkpoint_record_for(&tail, 0).is_none());
        assert!(shared.checkpoint_record_for(&tail, 1).is_none());
        let adopted = shared
            .checkpoint_record_for(&tail, 2)
            .expect("genuine record");
        assert_eq!(adopted.unwrap().digest(), result.digest());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
