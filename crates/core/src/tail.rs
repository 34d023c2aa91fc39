//! Incremental reader over an append-only checkpoint file.
//!
//! A checkpoint only ever grows by whole `durable::append_line` records,
//! so a reader that remembers how far it has verified never needs to look
//! at those bytes again. [`CheckpointTail`] keeps that offset: each
//! [`refresh`](CheckpointTail::refresh) reads only `[offset, len)`, pushes
//! every newline-terminated line through [`record_line`] — the same
//! frame/CRC path [`crate::jsonio::scan_records`] uses — and
//! leaves an unterminated remainder unread until its newline (or a guard
//! newline) arrives. What it keeps per configuration index is where the
//! latest restorable record sits, not the record: fetching one is a
//! re-read and re-verification of that single line.
//!
//! A tail [`born`](CheckpointTail::born) past lines its creator wrote as
//! the file's first content starts with their spans and verdicts
//! recorded, and never reads them.
//!
//! Once every configuration's verdict is durable nothing a reader needs
//! can be appended any more, and [`seal`](CheckpointTail::seal) shrinks
//! the tail to what the results stream needs: the spans of its lines.

use std::fs::File;
use std::io::{self, ErrorKind, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use crate::checkpoint::decode_result;
use crate::jsonio::{durable, record_line, record_payload, Json, RecordLine, FRAME_MARK};
use crate::result::RunResult;

/// What a [`CheckpointTail`] found in its file.
///
/// The zero value (`restored == 0`, `skipped_lines == 0`,
/// `torn_tail == false`) is indistinguishable from a missing file, which
/// is exactly right: an absent checkpoint is an empty one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointRestore {
    /// Result records that settle a slot instead of a re-run.
    pub restored: usize,
    /// Lines that parsed as JSON but could not be restored (undecodable
    /// result, out-of-range index, or a label that no longer matches the
    /// configuration at that index), plus interior lines that failed to
    /// parse outright. Every such line is silent data loss the caller
    /// should surface; a nonzero count on a file a server wrote itself
    /// means corruption.
    pub skipped_lines: usize,
    /// Interior CRC-framed lines whose frame failed verification —
    /// *detected* corruption, counted separately from `skipped_lines`
    /// because the frame proves a record was intended there. These slots
    /// simply re-run; the count is surfaced so operators see the loss.
    pub corrupt_frames: usize,
    /// Status records of terminally cancelled/timed-out slots. These are
    /// not re-run: the cancellation decision survives restarts.
    pub cancelled: usize,
    /// The file ends in a partially written line — the signature of a
    /// writer killed mid-append. Tolerated explicitly (the interrupted
    /// slot simply re-runs) and reported so callers can distinguish
    /// "clean resume" from "resume after a hard kill".
    pub torn_tail: bool,
}

/// Where one line sits in the checkpoint file (newline excluded).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LineSpan {
    pub offset: u64,
    pub len: usize,
}

/// What the latest restorable record of a configuration says.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// A decodable result record.
    Result,
    /// A persisted terminal cancellation.
    Cancelled { timed_out: bool },
}

/// The one predicate deciding whether a verified record may settle a
/// slot: its index is in range, its label equals the configuration's at
/// that index, and it carries either a known terminal status or a result
/// that decodes. `Err(timed_out)` is a terminal cancellation.
fn restorable(v: &Json, labels: &[String]) -> Option<(usize, Result<RunResult, bool>)> {
    let i = usize::try_from(v.get("index").and_then(Json::as_u64)?).ok()?;
    if v.get("label").and_then(Json::as_str) != Some(labels.get(i)?) {
        return None;
    }
    if let Some(status) = v.get("status").and_then(Json::as_str) {
        return match status {
            "cancelled" => Some((i, Err(false))),
            "timed_out" => Some((i, Err(true))),
            _ => None,
        };
    }
    let r = v.get("result").and_then(|r| decode_result(r).ok())?;
    Some((i, Ok(r)))
}

/// One line's text: a trailing `\r` stripped (as `str::lines` does),
/// `None` when the bytes are not UTF-8.
fn line_text(bytes: &[u8]) -> Option<&str> {
    std::str::from_utf8(bytes.strip_suffix(b"\r").unwrap_or(bytes)).ok()
}

/// Incremental, verifying view of one checkpoint file. See the module
/// docs.
#[derive(Debug)]
pub struct CheckpointTail {
    path: PathBuf,
    /// `RunConfig::label()` of each configuration, by index.
    labels: Vec<String>,
    /// Bytes verified so far; always just past a newline (or 0).
    offset: u64,
    /// Latest restorable record per index.
    latest: Vec<Option<(Verdict, LineSpan)>>,
    /// Every verified record carrying a `result`, in file order — the
    /// results stream.
    result_lines: Vec<LineSpan>,
    /// Accounting since creation (or the last reset), in
    /// [`CheckpointRestore`] terms; `torn_tail` describes the latest
    /// refresh.
    report: CheckpointRestore,
    /// Set by [`seal`](Self::seal): the file is never read for new
    /// records again.
    sealed: bool,
}

impl CheckpointTail {
    /// A tail at offset 0 of `path` (which need not exist yet) for
    /// configurations labelled `labels`.
    pub fn new(path: impl Into<PathBuf>, labels: Vec<String>) -> CheckpointTail {
        CheckpointTail {
            path: path.into(),
            latest: vec![None; labels.len()],
            labels,
            offset: 0,
            result_lines: Vec::new(),
            report: CheckpointRestore::default(),
            sealed: false,
        }
    }

    /// A tail already past `batch`, the lines its caller wrote as the
    /// whole first content of `path`: one result record for configuration
    /// `index` at each `(index, span)`, back to back from offset 0. The
    /// tail knows them as a refresh would have found them, without reading
    /// them: it starts past the batch with each span and its
    /// [`Verdict::Result`] recorded.
    ///
    /// Sound only for a file nobody else can have appended to before the
    /// batch ends: the campaign server creates a job's checkpoint
    /// exclusively, holding the batch, before the job is published. Debug
    /// builds read the batch back and assert that a refresh from offset 0
    /// finds the same spans, verdicts and accounting.
    pub fn born(
        path: impl Into<PathBuf>,
        labels: Vec<String>,
        batch: &[(usize, LineSpan)],
    ) -> CheckpointTail {
        let mut tail = CheckpointTail::new(path, labels);
        for &(index, span) in batch {
            debug_assert_eq!(span.offset, tail.offset, "the batch is back to back");
            tail.latest[index] = Some((Verdict::Result, span));
            tail.result_lines.push(span);
            tail.report.restored += 1;
            tail.offset = span.offset + span.len as u64 + 1;
        }
        #[cfg(debug_assertions)]
        if !batch.is_empty() {
            tail.check_born();
        }
        tail
    }

    /// The debug check of [`born`](Self::born): a fresh tail fed the
    /// file's first `offset` bytes knows what this one was told.
    #[cfg(debug_assertions)]
    fn check_born(&self) {
        let bytes = std::fs::read(&self.path).unwrap_or_default();
        let batch = usize::try_from(self.offset).expect("batch fits in memory");
        assert!(bytes.len() >= batch, "the batch is on disk");
        let mut read = CheckpointTail::new(&self.path, self.labels.clone());
        read.consume(&bytes[..batch]);
        assert_eq!(read.offset, self.offset, "born past the batch");
        assert_eq!(read.result_lines, self.result_lines, "born spans");
        assert_eq!(read.latest, self.latest, "born verdicts");
        assert_eq!(read.report, self.report, "born accounting");
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Accounting of everything read so far. `torn_tail` is whether the
    /// file ended in an unterminated, non-blank remainder at the latest
    /// refresh — unlike a whole-document scan the tail never reads such a
    /// remainder, even one that would verify, because nothing may be
    /// appended after it until a newline seals it.
    pub fn report(&self) -> CheckpointRestore {
        self.report
    }

    /// What the latest restorable record for `index` says, if there is
    /// one.
    pub fn verdict(&self, index: usize) -> Option<Verdict> {
        self.latest.get(index)?.map(|(v, _)| v)
    }

    /// Lines of the results stream, in file order.
    pub fn result_lines(&self) -> &[LineSpan] {
        &self.result_lines
    }

    /// Reads what was appended since the last refresh; a later record for
    /// an index supersedes an earlier one. Returns the number of bytes
    /// read.
    pub fn refresh(&mut self) -> io::Result<u64> {
        if self.sealed {
            return Ok(0);
        }
        let file = match File::open(&self.path) {
            Ok(f) => Some(f),
            // An absent checkpoint is an empty one.
            Err(e) if e.kind() == ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        let len = match &file {
            Some(f) => f.metadata()?.len(),
            None => 0,
        };
        if len < self.offset {
            // The file shrank: nothing remembered about it can be trusted.
            self.reset();
        }
        let Some(mut file) = file.filter(|_| len > self.offset) else {
            self.report.torn_tail = false;
            return Ok(0);
        };
        file.seek(SeekFrom::Start(self.offset))?;
        let mut fresh = Vec::with_capacity(usize::try_from(len - self.offset).unwrap_or(0));
        file.take(len - self.offset).read_to_end(&mut fresh)?;
        self.consume(&fresh);
        Ok(fresh.len() as u64)
    }

    /// Takes in `fresh`, the bytes of the file from the current offset
    /// on: verifies every newline-terminated line and moves the offset
    /// past the last one; an unterminated remainder is left unread.
    fn consume(&mut self, fresh: &[u8]) {
        let sealed = fresh.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
        let mut damaged: Vec<String> = Vec::new();
        let mut at = self.offset;
        for chunk in fresh[..sealed].split_inclusive(|&b| b == b'\n') {
            let bytes = &chunk[..chunk.len() - 1];
            let span = LineSpan {
                offset: at,
                len: bytes.len(),
            };
            at += chunk.len() as u64;
            let line = match line_text(bytes) {
                Some(line) => record_line(line),
                None if bytes.first() == Some(&(FRAME_MARK as u8)) => RecordLine::CorruptFrame,
                None => RecordLine::Garbage,
            };
            match line {
                RecordLine::Blank => {}
                RecordLine::Record(v) => {
                    if v.get("result").is_some() {
                        self.result_lines.push(span);
                    }
                    match restorable(&v, &self.labels) {
                        Some((i, r)) => {
                            let verdict = match r {
                                Ok(_) => {
                                    self.report.restored += 1;
                                    Verdict::Result
                                }
                                Err(timed_out) => {
                                    self.report.cancelled += 1;
                                    Verdict::Cancelled { timed_out }
                                }
                            };
                            self.latest[i] = Some((verdict, span));
                        }
                        None => self.report.skipped_lines += 1,
                    }
                }
                lost => {
                    if lost == RecordLine::CorruptFrame {
                        self.report.corrupt_frames += 1;
                    } else {
                        self.report.skipped_lines += 1;
                    }
                    damaged.push(String::from_utf8_lossy(bytes).into_owned());
                }
            }
        }
        self.offset = at;
        self.report.torn_tail = !fresh[sealed..].trim_ascii().is_empty();
        if !damaged.is_empty() {
            // Quarantine, not delete: keep the damaged bytes inspectable.
            let _ =
                durable::append_line(&self.path.with_extension("quarantine"), &damaged.join("\n"));
        }
    }

    /// A last [`refresh`](Self::refresh), after which the tail stops
    /// following its file and keeps only the results stream: `labels` and
    /// the per-index records are released, later refreshes read nothing
    /// and [`record`](Self::record) finds nothing. Meant for a checkpoint
    /// in which every configuration has a durable verdict, so that nothing
    /// a reader needs will be appended. [`read_results`] still verifies
    /// each kept line on the way out. Returns the bytes the last refresh
    /// read; on a failed read the tail stays unsealed.
    pub fn seal(&mut self) -> io::Result<u64> {
        let read = self.refresh()?;
        self.sealed = true;
        self.labels = Vec::new();
        self.latest = Vec::new();
        self.result_lines.shrink_to_fit();
        Ok(read)
    }

    fn reset(&mut self) {
        self.offset = 0;
        self.latest.iter_mut().for_each(|e| *e = None);
        self.result_lines.clear();
        self.report = CheckpointRestore::default();
    }

    /// The latest restorable record for `index`, fetched from disk: one
    /// read of that line, verified and checked again exactly as when the
    /// refresh first saw it. `Err(timed_out)` is a terminal cancellation;
    /// `None` means no such record, or a line that no longer verifies.
    pub fn record(&self, index: usize) -> Option<Result<RunResult, bool>> {
        let (_, span) = (*self.latest.get(index)?)?;
        let mut file = File::open(&self.path).ok()?;
        file.seek(SeekFrom::Start(span.offset)).ok()?;
        let mut bytes = vec![0u8; span.len];
        file.read_exact(&mut bytes).ok()?;
        let RecordLine::Record(v) = record_line(line_text(&bytes)?) else {
            return None;
        };
        restorable(&v, &self.labels)
            .filter(|(i, _)| *i == index)
            .map(|(_, r)| r)
    }
}

/// Renders the results stream of `path` — the payload of each of
/// `lines`, newline-terminated, in order — from one read of the file.
/// Every line is verified again on the way out; one that no longer
/// verifies is left out.
pub fn read_results(path: &Path, lines: &[LineSpan]) -> io::Result<String> {
    let Some(last) = lines.last() else {
        return Ok(String::new());
    };
    let mut bytes = Vec::new();
    File::open(path)?
        .take(last.offset + last.len as u64)
        .read_to_end(&mut bytes)?;
    let mut body = String::with_capacity(bytes.len());
    for span in lines {
        let payload = usize::try_from(span.offset)
            .ok()
            .and_then(|start| bytes.get(start..start.checked_add(span.len)?))
            .and_then(line_text)
            .and_then(record_payload);
        if let Some(payload) = payload {
            body.push_str(payload);
            body.push('\n');
        }
    }
    Ok(body)
}
