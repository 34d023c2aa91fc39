//! `CheckpointTail` against a whole-file `scan_records` pass.
//!
//! The tail reads a checkpoint a few appended bytes at a time; the
//! property is that, wherever its refreshes fall in a random history of
//! appends (good records, duplicates, damage, torn writes completed or
//! sealed later, truncations), it ends up knowing exactly what one scan
//! of the final file's sealed prefix knows.

use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use flexsim::jsonio::{frame_record, parse, scan_records, Json, FRAME_MARK};
use flexsim::{
    checkpoint_line, checkpoint_status_line, decode_result, read_results, run, CheckpointRestore,
    CheckpointTail, RunConfig, RunResult, Verdict,
};
use proptest::prelude::*;

const SLOTS: usize = 5;

fn labels() -> Vec<String> {
    (0..SLOTS).map(|i| format!("cfg-{i}")).collect()
}

fn temp_file(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("icn-tail-{tag}-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("job.ckpt.jsonl");
    let _ = fs::remove_file(&path);
    let _ = fs::remove_file(path.with_extension("quarantine"));
    path
}

fn append(path: &Path, bytes: &[u8]) {
    OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .unwrap()
        .write_all(bytes)
        .unwrap();
}

/// A real result to vary: its `cycles` field tells records apart.
fn template() -> RunResult {
    let mut cfg = RunConfig::small_default();
    cfg.warmup = 20;
    cfg.measure = 60;
    run(&cfg)
}

struct Lcg(u64);

impl Lcg {
    fn next(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % n
    }
}

/// What a whole-file pass over the sealed prefix of `path` knows.
struct Reference {
    verdicts: Vec<Option<Result<String, bool>>>,
    body: String,
    report: CheckpointRestore,
}

fn reference(path: &Path) -> Reference {
    let text = fs::read_to_string(path).unwrap_or_default();
    let sealed = text.rfind('\n').map_or(0, |p| p + 1);
    let scan = scan_records(&text[..sealed]);
    assert!(!scan.torn_tail, "a sealed prefix has no torn tail");
    let lines: Vec<&str> = text[..sealed].lines().collect();
    let labels = labels();
    let mut r = Reference {
        verdicts: vec![None; SLOTS],
        body: String::new(),
        report: CheckpointRestore {
            skipped_lines: scan.skipped,
            corrupt_frames: scan.corrupt_frames,
            torn_tail: !text[sealed..].trim().is_empty(),
            ..CheckpointRestore::default()
        },
    };
    for (lineno, v) in &scan.values {
        if v.get("result").is_some() {
            let line = lines[*lineno];
            let payload = match line.strip_prefix(FRAME_MARK) {
                Some(rest) => rest.splitn(3, ':').nth(2).unwrap(),
                None => line,
            };
            r.body.push_str(payload);
            r.body.push('\n');
        }
        let index = v.get("index").and_then(Json::as_u64).map(|i| i as usize);
        let label = v.get("label").and_then(Json::as_str);
        let verdict = match index {
            Some(i) if i < SLOTS && label == Some(labels[i].as_str()) => {
                match v.get("status").and_then(Json::as_str) {
                    Some("cancelled") => Some(Err(false)),
                    Some("timed_out") => Some(Err(true)),
                    Some(_) => None,
                    None => v
                        .get("result")
                        .and_then(|x| decode_result(x).ok())
                        .map(|x| Ok(x.digest())),
                }
            }
            _ => None,
        };
        match verdict {
            Some(verdict) => {
                match verdict {
                    Ok(_) => r.report.restored += 1,
                    Err(_) => r.report.cancelled += 1,
                }
                r.verdicts[index.unwrap()] = Some(verdict);
            }
            None => r.report.skipped_lines += 1,
        }
    }
    r
}

fn assert_matches(tail: &CheckpointTail, path: &Path) {
    let want = reference(path);
    assert_eq!(tail.report(), want.report, "accounting");
    for (i, want) in want.verdicts.iter().enumerate() {
        let want_verdict = want.as_ref().map(|v| match v {
            Ok(_) => Verdict::Result,
            Err(timed_out) => Verdict::Cancelled {
                timed_out: *timed_out,
            },
        });
        assert_eq!(tail.verdict(i), want_verdict, "verdict for slot {i}");
        let got = tail.record(i).map(|r| r.map(|r| r.digest()));
        assert_eq!(&got, want, "record for slot {i}");
    }
    assert_eq!(
        read_results(path, tail.result_lines()).unwrap(),
        want.body,
        "results stream"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn refreshes_anywhere_equal_one_scan_of_the_final_file(seed in any::<u64>()) {
        let path = temp_file("diff");
        let _ = fs::remove_file(&path);
        let labels = labels();
        let base = template();
        let mut rng = Lcg(seed | 1);
        let mut tail = CheckpointTail::new(&path, labels.clone());
        // The unwritten half of a torn append, if one is pending.
        let mut pending: Option<String> = None;

        let steps = 12 + rng.next(30);
        for step in 0..steps {
            let index = rng.next(SLOTS);
            let mut result = base.clone();
            result.cycles = step as u64;
            let good = frame_record(&checkpoint_line(index, &labels[index], &result));
            match rng.next(14) {
                0..=3 => append(&path, format!("{good}\n").as_bytes()),
                4 => {
                    let timed_out = rng.next(2) == 0;
                    let line = checkpoint_status_line(index, &labels[index], timed_out);
                    append(&path, format!("{}\n", frame_record(&line)).as_bytes());
                }
                5 => {
                    // Records the predicate must refuse: a label from
                    // another slot, an index past the grid, a status no
                    // version of the server ever wrote.
                    let line = match rng.next(3) {
                        0 => checkpoint_line(index, "someone-else", &result),
                        1 => checkpoint_line(SLOTS + 3, &labels[index], &result),
                        _ => checkpoint_status_line(index, &labels[index], false)
                            .replace("cancelled", "paused"),
                    };
                    append(&path, format!("{}\n", frame_record(&line)).as_bytes());
                }
                6 => {
                    // Garbled at rest: one payload byte flipped under an
                    // intact header.
                    let mut bytes = good.clone().into_bytes();
                    let at = bytes.len() - 1 - rng.next(20);
                    bytes[at] ^= 0x01;
                    bytes.push(b'\n');
                    append(&path, &bytes);
                }
                7 => {
                    // A bare (unframed) record line, sometimes
                    // CRLF-terminated: counted loss, never a record.
                    let eol = if rng.next(2) == 0 { "\n" } else { "\r\n" };
                    let line = checkpoint_line(index, &labels[index], &result);
                    append(&path, format!("{line}{eol}").as_bytes());
                }
                8 => append(&path, b"not a record\n"),
                9 => {
                    // A writer killed mid-append...
                    let cut = 1 + rng.next(good.len() - 1);
                    append(&path, &good.as_bytes()[..cut]);
                    pending = Some(good[cut..].to_string());
                }
                10 => {
                    // ...whose write completes after all, or whose
                    // fragment a restarting process seals.
                    match pending.take() {
                        Some(rest) if rng.next(2) == 0 => {
                            append(&path, format!("{rest}\n").as_bytes())
                        }
                        _ => append(&path, b"\n"),
                    }
                }
                11 => {
                    let len = fs::metadata(&path).map_or(0, |m| m.len());
                    if len > 0 {
                        let keep = rng.next(len as usize) as u64;
                        OpenOptions::new().write(true).open(&path).unwrap().set_len(keep).unwrap();
                        pending = None;
                        // A shrink is only visible to the refresh that
                        // meets it.
                        tail.refresh().unwrap();
                    }
                }
                _ => {
                    tail.refresh().unwrap();
                    assert_matches(&tail, &path);
                }
            }
        }
        tail.refresh().unwrap();
        assert_matches(&tail, &path);

        // A tail opened on the final file agrees with the one that
        // watched it grow.
        let mut late = CheckpointTail::new(&path, labels.clone());
        late.refresh().unwrap();
        prop_assert_eq!(late.report(), tail.report());
        prop_assert_eq!(late.result_lines(), tail.result_lines());
    }
}

/// The bytes a refresh reads are the bytes appended since the last one.
#[test]
fn refresh_reads_only_new_bytes() {
    let path = temp_file("linear");
    let labels = labels();
    let base = template();
    let mut tail = CheckpointTail::new(&path, labels.clone());
    assert_eq!(tail.refresh().unwrap(), 0, "an absent file is empty");
    let mut total = 0;
    for step in 0..40usize {
        let line = frame_record(&checkpoint_line(step % SLOTS, &labels[step % SLOTS], &base));
        append(&path, format!("{line}\n").as_bytes());
        let read = tail.refresh().unwrap();
        assert_eq!(read, line.len() as u64 + 1);
        total += read;
        assert_eq!(tail.refresh().unwrap(), 0, "nothing new, nothing read");
    }
    assert_eq!(total, fs::metadata(&path).unwrap().len());
    assert_eq!(tail.report().restored, 40);
    assert_eq!(tail.result_lines().len(), 40);
}

/// A torn tail stays unread — reported, never consumed — until a newline
/// seals it; only then is it examined, and counted as what it is.
#[test]
fn torn_tail_is_unread_until_sealed() {
    let path = temp_file("torn");
    let labels = labels();
    let base = template();
    let good = frame_record(&checkpoint_line(1, &labels[1], &base));
    let mut tail = CheckpointTail::new(&path, labels.clone());

    append(&path, &good.as_bytes()[..good.len() / 2]);
    tail.refresh().unwrap();
    assert!(tail.report().torn_tail);
    assert_eq!(tail.verdict(1), None);
    assert_eq!(tail.report().corrupt_frames, 0);

    // Completed by the same write after all: the record is whole.
    append(&path, format!("{}\n", &good[good.len() / 2..]).as_bytes());
    tail.refresh().unwrap();
    assert!(!tail.report().torn_tail);
    assert_eq!(tail.verdict(1), Some(Verdict::Result));

    // A complete record missing only its newline is still unread: an
    // append landing behind it would fuse with it.
    let second = frame_record(&checkpoint_line(2, &labels[2], &base));
    append(&path, second.as_bytes());
    tail.refresh().unwrap();
    assert!(tail.report().torn_tail);
    assert_eq!(tail.verdict(2), None);
    append(&path, b"\n");
    tail.refresh().unwrap();
    assert_eq!(tail.verdict(2), Some(Verdict::Result));

    // Sealed by a guard newline: the fragment is a corrupt interior frame,
    // quarantined.
    append(&path, &good.as_bytes()[..good.len() / 2]);
    tail.refresh().unwrap();
    append(&path, b"\n");
    tail.refresh().unwrap();
    assert!(!tail.report().torn_tail);
    assert_eq!(tail.report().corrupt_frames, 1);
    let quarantined = fs::read_to_string(path.with_extension("quarantine")).unwrap();
    assert_eq!(quarantined.trim(), &good[..good.len() / 2]);
    assert!(parse(quarantined.trim()).is_err());
}

/// A cleanly newline-terminated checkpoint has no phantom empty line after
/// its final newline, and guard blank lines are not loss either. Absolute
/// counts: the proptest's `scan_records` reference shares the line
/// splitter, so it could not catch a phantom line.
#[test]
fn trailing_newline_is_not_counted_as_skipped() {
    let path = temp_file("newline");
    let labels = labels();
    let base = template();
    for index in [0, 1] {
        let line = frame_record(&checkpoint_line(index, &labels[index], &base));
        append(&path, format!("{line}\n").as_bytes());
    }
    let clean = CheckpointRestore {
        restored: 2,
        ..CheckpointRestore::default()
    };
    let mut tail = CheckpointTail::new(&path, labels.clone());
    tail.refresh().unwrap();
    assert_eq!(
        tail.report(),
        clean,
        "no phantom line after the final newline"
    );

    // The same file plus guard newlines, read fresh.
    append(&path, b"\n\n");
    let mut tail = CheckpointTail::new(&path, labels);
    tail.refresh().unwrap();
    assert_eq!(tail.report(), clean, "blank lines are not loss");
}

/// A framed status line restores as a terminal cancellation, touching no
/// other slot.
#[test]
fn status_lines_restore_as_cancelled() {
    let path = temp_file("status");
    let labels = labels();
    let line = frame_record(&checkpoint_status_line(1, &labels[1], true));
    append(&path, format!("{line}\n").as_bytes());
    let mut tail = CheckpointTail::new(&path, labels);
    tail.refresh().unwrap();
    assert_eq!(
        tail.report(),
        CheckpointRestore {
            cancelled: 1,
            ..CheckpointRestore::default()
        }
    );
    assert_eq!(tail.verdict(0), None, "unrelated slot untouched");
    assert_eq!(
        tail.verdict(1),
        Some(Verdict::Cancelled { timed_out: true })
    );
    assert_eq!(tail.record(1).map(|r| r.err()), Some(Some(true)));
    assert!(tail.result_lines().is_empty(), "a status is not a result");
}

/// A sealed tail reads its last bytes, then never follows the file again:
/// the results stream stays servable, the per-index records are gone.
#[test]
fn sealed_tail_keeps_only_the_results_stream() {
    let path = temp_file("seal");
    let labels = labels();
    let base = template();
    let line = |i: usize| frame_record(&checkpoint_line(i, &labels[i], &base));
    let mut tail = CheckpointTail::new(&path, labels.clone());
    append(&path, format!("{}\n", line(0)).as_bytes());
    tail.refresh().unwrap();
    append(&path, format!("{}\n", line(1)).as_bytes());

    // The seal's own refresh picks up what was appended since the last.
    assert_eq!(tail.seal().unwrap(), line(1).len() as u64 + 1);
    assert_eq!(tail.result_lines().len(), 2);
    assert_eq!(tail.report().restored, 2);
    let body = read_results(&path, tail.result_lines()).unwrap();
    assert_eq!(body.lines().count(), 2);

    append(&path, format!("{}\n", line(2)).as_bytes());
    assert_eq!(tail.refresh().unwrap(), 0, "a sealed tail reads nothing");
    assert_eq!(tail.seal().unwrap(), 0);
    assert_eq!(tail.result_lines().len(), 2, "result_lines intact");
    assert_eq!(read_results(&path, tail.result_lines()).unwrap(), body);
    for index in 0..SLOTS {
        assert!(tail.record(index).is_none());
        assert_eq!(tail.verdict(index), None);
    }
}
