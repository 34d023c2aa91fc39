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
//! job's checkpoint file as a CRC-framed [`checkpoint_line`] via the
//! durable append path, so `GET /jobs/:id/results` is a file read and a
//! restarted server resumes through the job's [`CheckpointTail`] —
//! digest-exact. A slot flips to `Done` only once its record is durable:
//! a failed append leaves it `Failed`, which a restart retries.
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
//! before publication or by a lease holder, in `Shared::finish_unit` —
//! never by anyone else. A cancel appends nothing: its durable marker is
//! the decision.
//!
//! # Slot transitions
//!
//! A [`Job`] is the only writer of its slots, and its methods do no I/O.
//! Disk state reaches them by one path, [`Job::apply`] (each waiting slot
//! takes its checkpoint record; a cancelled job's other waiting slots
//! settle `cancelled`), called by the one reconcile step
//! `Shared::reconcile_job` — which the scanner, the cancel endpoint and a
//! worker popping a cancelled unit share — and by recovery. A running
//! slot ends in `finish_unit` only. A job settles in [`Job::set_slot`]
//! only: the write that settles it says so, once, releases the
//! configurations and says whether the tail's per-index state may be
//! sealed too ([`CheckpointTail::seal`]).
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
    checkpoint_line, checkpoint_status_line, run_supervised, CancelToken, CheckpointRestore,
    CheckpointTail, RunConfig, RunResult, SweepError, Verdict,
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
/// I/O: the callers read the disk and append records, and a test can drive
/// every transition by enumeration.
#[derive(Debug)]
pub struct Job {
    pub id: u64,
    /// Read only for slots that can still run (by `execute_unit`); empty
    /// once the job has settled.
    pub configs: Vec<RunConfig>,
    /// Written only through [`Job::set_slot`], which keeps `counts` in
    /// step, and by [`Job::queue_pending`]'s `Pending` → `Queued`, which
    /// the counts do not tell apart.
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
    /// only by [`Job::apply`] once the durable marker is seen.
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

    /// The one settle point. Returns `Some(seal)` from the write that
    /// settles the job — once per job, since a settled job has no slot
    /// left that can change — and that write releases the configurations.
    /// `seal` says whether every verdict is durable, so the tail may be
    /// sealed: a `Failed` slot is memory-only (a restart retries it), and a
    /// cancelled job may still receive the record of a sibling that was
    /// mid-run when the marker landed.
    pub fn set_slot(&mut self, index: usize, state: SlotState) -> Option<bool> {
        let was_settled = self.is_settled();
        self.counts.count(&self.slots[index], false);
        self.counts.count(&state, true);
        self.slots[index] = state;
        if was_settled || !self.is_settled() {
            return None;
        }
        self.configs = Vec::new();
        Some(self.counts.failed == 0 && !self.cancel.is_cancelled())
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

    /// Pushes every `Pending` slot onto `queue` in index order, marking it
    /// `Queued`. Returns how many were pushed.
    pub fn queue_pending(&mut self, queue: &mut VecDeque<Unit>) -> usize {
        let before = queue.len();
        for (index, slot) in self.slots.iter_mut().enumerate() {
            if *slot == SlotState::Pending {
                *slot = SlotState::Queued;
                queue.push_back(Unit {
                    job: self.id,
                    index,
                });
            }
        }
        queue.len() - before
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

    /// Returns a claimed slot to `Pending`, for the next reconcile step to
    /// settle or re-queue.
    pub fn unclaim(&mut self, index: usize) {
        if self.slots[index] == SlotState::Running {
            self.set_slot(index, SlotState::Pending);
        }
    }

    /// The one path from disk to slots. `record` is the restorable
    /// checkpoint verdict of an index, `cancelled` whether the durable
    /// cancel marker exists. Each `Pending` or `Queued` slot takes its
    /// record; once the job is cancelled, every slot still waiting settles
    /// as `cancelled`. A running slot belongs to its claimant and is left
    /// alone. Returns what [`set_slot`](Job::set_slot) returned for the
    /// write that settled the job, if one did.
    pub fn apply(
        &mut self,
        record: impl Fn(usize) -> Option<Verdict>,
        cancelled: bool,
    ) -> Option<bool> {
        if cancelled {
            self.cancel.cancel();
        }
        let mut settled = None;
        for index in 0..self.slots.len() {
            if !matches!(self.slots[index], SlotState::Pending | SlotState::Queued) {
                continue;
            }
            let state = match record(index) {
                Some(Verdict::Result) => SlotState::Done {
                    cached: false,
                    restored: true,
                },
                Some(Verdict::Cancelled { timed_out }) => SlotState::Cancelled { timed_out },
                None if self.cancel.is_cancelled() => SlotState::Cancelled { timed_out: false },
                None => continue,
            };
            settled = settled.or(self.set_slot(index, state));
        }
        settled
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
    /// Puts `job` in the table and queues its `Pending` slots — the one
    /// way a job, submitted here or found on disk, becomes known to this
    /// process. `false` (and `job` dropped) when the table already holds
    /// its id: a racing loader got there first. The caller wakes the pool.
    pub fn publish(&mut self, mut job: Job) -> bool {
        if self.jobs.contains_key(&job.id) {
            return false;
        }
        self.next_job_id = self.next_job_id.max(job.id + 1);
        job.queue_pending(&mut self.queue);
        self.jobs.insert(job.id, job);
        true
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

    /// Returns a claimed slot to `Pending` (the lease went to a sibling,
    /// could not be taken, or the job was cancelled while the unit was
    /// queued); the next reconcile step settles or re-queues it.
    fn unclaim(&self, unit: Unit) {
        if let Some(job) = self.inner.lock().unwrap().jobs.get_mut(&unit.job) {
            job.unclaim(unit.index);
        }
    }

    /// Runs one unit to completion: lease claim, checkpoint adoption,
    /// cache lookup, supervised run on a miss, then `finish_unit` before
    /// the lease is released.
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

        // Cancelled while queued: the marker is the decision, and the
        // reconcile step applies it to this slot like any other.
        if cancel.is_cancelled() {
            self.unclaim(unit);
            return self.reconcile_job(unit.job);
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
        let label = cfg.label();
        let (state, record) = match self.checkpoint_record_for(&tail, unit.index) {
            Some(Ok(_)) => (
                SlotState::Done {
                    cached: false,
                    restored: true,
                },
                None,
            ),
            Some(Err(timed_out)) => (SlotState::Cancelled { timed_out }, None),
            None => match self.cache.lookup(&cfg) {
                Some(hit) => (
                    SlotState::Done {
                        cached: true,
                        restored: false,
                    },
                    Some(checkpoint_line(unit.index, &label, &hit)),
                ),
                None => {
                    self.stats.sims_run.fetch_add(1, Ordering::Relaxed);
                    // The direct sweep's workers call the same function,
                    // so a served result is the direct result by
                    // construction.
                    match run_supervised(&cfg, &cancel, timeout) {
                        Ok(r) => {
                            // Best-effort: a failed store only costs a
                            // future re-run.
                            let _ = self.cache.store(&cfg, &r);
                            (
                                SlotState::Done {
                                    cached: false,
                                    restored: false,
                                },
                                Some(checkpoint_line(unit.index, &label, &r)),
                            )
                        }
                        Err(SweepError::Cancelled { timed_out, .. }) => (
                            SlotState::Cancelled { timed_out },
                            Some(checkpoint_status_line(unit.index, &label, timed_out)),
                        ),
                        // The run panicked: a failure kept in memory
                        // only — a restart retries it.
                        Err(e) => (SlotState::Failed(e.to_string()), None),
                    }
                }
            },
        };

        // The append happens before the lease release: the lease holder
        // is the sole writer for this index, so release-after-append
        // means no sibling can interleave a duplicate record.
        self.finish_unit(unit, &ckpt, state, record);
        if let Some(held) = self.held.lock().unwrap().remove(&(unit.job, unit.index)) {
            self.leases.release(held);
        }
    }

    /// The one place a `Running` slot ends, by the holder of its lease.
    /// `record`, when the verdict has one, is appended first — fsync'd,
    /// off the job-table lock — and the slot takes `state` only once the
    /// record is durable; a failed append makes it `Failed` instead. An
    /// adopted record or a failed run appends nothing. No lock is held
    /// across the append: the durable single-buffer `O_APPEND` write is
    /// what keeps appenders — this process's workers and sibling
    /// processes alike — from tearing each other, and their fsyncs
    /// overlap.
    fn finish_unit(&self, unit: Unit, ckpt: &Path, state: SlotState, record: Option<String>) {
        let state = match record.map(|line| durable::append_line(ckpt, &frame_record(&line))) {
            Some(Err(e)) => SlotState::Failed(format!("checkpoint append failed: {e}")),
            _ => state,
        };
        let mut inner = self.inner.lock().unwrap();
        let Some(job) = inner.jobs.get_mut(&unit.job) else {
            return;
        };
        debug_assert_eq!(job.slots()[unit.index], SlotState::Running);
        let seal = self.stats.count_settled(job.set_slot(unit.index, state));
        let tail = Arc::clone(&job.tail);
        drop(inner);
        if seal {
            self.stats.seal(&mut tail.lock().expect("tail lock"));
        }
    }

    /// Runs the reconcile step of every unsettled job. Called
    /// periodically by the fleet scanner thread.
    pub fn reconcile(&self) {
        let ids: Vec<u64> = {
            let inner = self.inner.lock().unwrap();
            inner
                .jobs
                .iter()
                .filter(|(_, j)| !j.is_settled())
                .map(|(id, _)| *id)
                .collect()
        };
        for id in ids {
            self.reconcile_job(id);
        }
    }

    /// The one reconcile step from disk to a job's slots, shared by the
    /// scanner, the cancel endpoint and a worker that pops a cancelled
    /// unit: reads the cancel marker, refreshes the tail off the
    /// job-table lock, [`applies`](Job::apply) both, re-queues `Pending`
    /// slots (lease lost to a live sibling, or never scheduled here —
    /// `execute_unit` re-arbitrates with the lease, so the worst case is
    /// a cheap failed acquire) and accounts for the job if this step
    /// settled it. It appends nothing.
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
        // The marker before the records: every record appended before
        // the marker was seen is then read, and adopted rather than
        // cancelled.
        let cancelled = marker.exists();
        let mut tail = tail.lock().expect("tail lock");
        self.stats.refresh(&mut tail);
        let mut inner = self.inner.lock().unwrap();
        let Inner { jobs, queue, .. } = &mut *inner;
        let Some(job) = jobs.get_mut(&id) else {
            return;
        };
        let seal = self
            .stats
            .count_settled(job.apply(|index| tail.verdict(index), cancelled));
        let queued = job.queue_pending(queue);
        drop(inner);
        if queued > 0 {
            self.work_cv.notify_all();
        }
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

    fn dummy_job(id: u64, slots: Vec<SlotState>) -> Job {
        let configs = vec![RunConfig::small_default(); slots.len()];
        let mut job = Job::new(id, configs, PathBuf::from("/nonexistent"), None);
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
        assert!(inner.publish(dummy_job(1, slots)));
        let indices: Vec<usize> = inner.queue.iter().map(|u| u.index).collect();
        assert_eq!(indices, [0, 1, 3]);
        assert_eq!(inner.jobs[&1].counts().pending, 3);
        assert_eq!(inner.next_job_id, 2);
        assert_eq!(inner.queue.pop_back(), Some(Unit { job: 1, index: 3 }));
        // Queued slots are not queued twice, and a job is published once.
        let Inner { jobs, queue, .. } = &mut inner;
        assert_eq!(jobs.get_mut(&1).unwrap().queue_pending(queue), 0);
        assert_eq!(inner.queue.len(), 2);
        assert!(!inner.publish(dummy_job(1, vec![SlotState::Pending])));
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

    /// Settlement is signalled once per job, by the write that settles it,
    /// and gives the configurations back; the tail is to be sealed only
    /// when every verdict is durable — never with a `Failed` slot, never
    /// for a cancelled job.
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
        assert!(!settle(&mut cancelled, [done, cancel.clone()]));
        // A settled job has no slot left to change: no second signal.
        assert_eq!(cancelled.set_slot(1, cancel), None);

        assert_eq!(stats.jobs_completed.load(Ordering::Relaxed), 3);
    }

    /// How a claimant's run of a slot ends.
    #[derive(Clone, Copy, Debug)]
    enum Run {
        Result,
        TimedOut,
        /// Stopped by the job's cancel token.
        Cancelled,
        /// The supervised run panicked.
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
        /// The claimant loses the lease race for `i` and unclaims it.
        LeaseLost(usize),
        /// The claimant's run of `i` ends; the bool is whether its append
        /// succeeds. The post-acquire check comes first: a visible record
        /// is adopted instead.
        RunEnds(usize, Run, bool),
        /// A sibling's record for `i` becomes visible in the checkpoint.
        Sibling(usize, Verdict),
        /// The cancel endpoint: the marker, then the reconcile step.
        Cancel,
        /// The scanner's reconcile step.
        Reconcile,
    }

    /// A 2-config job, what its checkpoint shows, and what the protocol
    /// has done to it so far.
    struct World {
        job: Job,
        queue: VecDeque<Unit>,
        /// The latest visible record per index, as [`CheckpointTail::verdict`]
        /// would report it.
        records: [Option<Verdict>; 2],
        marker: bool,
        /// Settle signals seen, and records this process appended, by index.
        settled: usize,
        appended: Vec<usize>,
        /// A result record became visible for a slot already `cancelled`:
        /// the late-sibling window.
        late_results: bool,
    }

    impl World {
        fn new() -> World {
            let configs = vec![RunConfig::small_default(); 2];
            World {
                job: Job::new(1, configs, PathBuf::from("/nonexistent"), None),
                queue: VecDeque::new(),
                records: [None; 2],
                marker: false,
                settled: 0,
                appended: Vec::new(),
                late_results: false,
            }
        }

        fn applicable(&self) -> Vec<Event> {
            let mut events = Vec::new();
            if self.job.slots().contains(&SlotState::Pending) {
                events.push(Event::Queue);
            }
            for (i, slot) in self.job.slots().iter().enumerate() {
                match slot {
                    SlotState::Queued => events.push(Event::Claim(i)),
                    SlotState::Running => {
                        events.push(Event::LeaseLost(i));
                        if self.records[i].is_some() {
                            events.push(Event::RunEnds(i, Run::Result, true));
                        } else {
                            let mut runs = vec![Run::Result, Run::TimedOut];
                            if self.job.cancel.is_cancelled() {
                                runs.push(Run::Cancelled);
                            }
                            for run in runs {
                                events.push(Event::RunEnds(i, run, true));
                                events.push(Event::RunEnds(i, run, false));
                            }
                            events.push(Event::RunEnds(i, Run::Panicked, true));
                        }
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
            if !self.job.is_settled() {
                events.push(Event::Reconcile);
            }
            events
        }

        /// Applies `event` as the server does and checks every invariant
        /// of the protocol across it.
        fn step(&mut self, event: Event) {
            let before = self.job.slots().to_vec();
            let mut settled = None;
            let mut reconciled = false;
            match event {
                Event::Queue => {
                    self.job.queue_pending(&mut self.queue);
                }
                Event::Claim(i) => assert!(self.job.claim(i)),
                Event::LeaseLost(i) => self.job.unclaim(i),
                Event::RunEnds(i, run, append_ok) => {
                    let adopted = self.records[i].map(|v| match v {
                        Verdict::Result => SlotState::Done {
                            cached: false,
                            restored: true,
                        },
                        Verdict::Cancelled { timed_out } => SlotState::Cancelled { timed_out },
                    });
                    let (state, record) = adopted.map(|s| (s, None)).unwrap_or(match run {
                        Run::Result => (
                            SlotState::Done {
                                cached: false,
                                restored: false,
                            },
                            Some(Verdict::Result),
                        ),
                        Run::TimedOut => (
                            SlotState::Cancelled { timed_out: true },
                            Some(Verdict::Cancelled { timed_out: true }),
                        ),
                        Run::Cancelled => (
                            SlotState::Cancelled { timed_out: false },
                            Some(Verdict::Cancelled { timed_out: false }),
                        ),
                        Run::Panicked => (SlotState::Failed("panicked".into()), None),
                    });
                    let state = match record {
                        Some(v) if append_ok => {
                            assert_eq!(before[i], SlotState::Running, "only a claimant appends");
                            assert!(!self.appended.contains(&i), "one record per index");
                            self.records[i] = Some(v);
                            self.appended.push(i);
                            state
                        }
                        Some(_) => SlotState::Failed("append failed".into()),
                        None => state,
                    };
                    settled = self.job.set_slot(i, state);
                }
                Event::Sibling(i, v) => {
                    if v == Verdict::Result
                        && before[i] == (SlotState::Cancelled { timed_out: false })
                    {
                        self.late_results = true;
                    }
                    self.records[i] = Some(v);
                }
                Event::Cancel | Event::Reconcile => {
                    self.marker |= matches!(event, Event::Cancel);
                    // `Shared::reconcile_job`: a settled job is left alone.
                    if !self.job.is_settled() {
                        let records = self.records;
                        settled = self.job.apply(|i| records[i], self.marker);
                        self.job.queue_pending(&mut self.queue);
                    }
                    reconciled = true;
                }
            }

            let job = &self.job;
            assert_eq!(job.counts(), job.tally(), "counts follow the slots");
            if let Some(seal) = settled {
                self.settled += 1;
                let durable = job.counts().failed == 0 && !job.cancel.is_cancelled();
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
    }

    /// Every event sequence of at most `JOB_PROTOCOL_DEPTH` events on a
    /// fresh 2-config job, replayed from scratch like
    /// `validate::explore`'s schedules, with the invariants of
    /// [`World::step`] checked after every event.
    const JOB_PROTOCOL_DEPTH: usize = 7;

    /// Counts the sequences below `prefix` (itself already checked), and
    /// those that hit the late-sibling window.
    fn explore_job_protocol(prefix: &mut Vec<Event>) -> (u64, u64) {
        let mut world = World::new();
        for &event in prefix.iter() {
            world.step(event);
        }
        let events = world.applicable();
        if prefix.len() == JOB_PROTOCOL_DEPTH || events.is_empty() {
            return (1, u64::from(world.late_results));
        }
        let mut counts = (0, 0);
        for event in events {
            prefix.push(event);
            let (n, late) = explore_job_protocol(prefix);
            prefix.pop();
            counts = (counts.0 + n, counts.1 + late);
        }
        counts
    }

    #[test]
    fn job_protocol_holds_on_every_event_sequence() {
        let (sequences, late) = explore_job_protocol(&mut Vec::new());
        eprintln!("job protocol: {sequences} sequences, {late} through the late-sibling window");
        assert!(sequences > 100_000, "{sequences}");
        assert!(late > 0, "the late-sibling window is reachable");
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
