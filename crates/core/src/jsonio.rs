//! Shared hand-rolled JSON plumbing for the orchestration layer.
//!
//! The value tree, parser, writer and the basic typed field accessors
//! live in [`icn_cwg::jsonio`] (the lowest crate that needs them); this
//! module re-exports that surface and centralizes the helpers that used
//! to be copy-pasted across `checkpoint.rs`, `forensics/incident.rs`, and
//! `faults.rs`: typed field accessors with uniform error messages, exact
//! `f64` bit-pattern transport, and the CRC-framed record scanner that
//! understands torn final lines (the signature of an interrupted
//! appender). The campaign server reuses all of it instead of growing a
//! fourth copy.

pub use icn_cwg::jsonio::{
    bad, get, get_bool, get_u64, get_u64_vec, obj, parse, u64_arr, Json, ParseError,
};

pub mod durable;

/// Narrows an untrusted `u64` to the width of the field it fills: a
/// value that does not fit is an error, never a silent truncation.
pub fn narrow<T: TryFrom<u64>>(n: u64, key: &str) -> Result<T, ParseError> {
    T::try_from(n).map_err(|_| bad(&format!("`{key}` is out of range: {n}")))
}

/// Required numeric field (integers widen).
pub fn get_f64(v: &Json, key: &str) -> Result<f64, ParseError> {
    get(v, key)?
        .as_f64()
        .ok_or_else(|| bad(&format!("`{key}` must be a number")))
}

/// Required string field.
pub fn get_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, ParseError> {
    get(v, key)?
        .as_str()
        .ok_or_else(|| bad(&format!("`{key}` must be a string")))
}

/// An `f64` as its `u64` bit pattern, so NaN payloads and signed zeros
/// survive a round trip exactly.
pub fn f64_bits(v: f64) -> Json {
    Json::U64(v.to_bits())
}

/// Reads a field written by [`f64_bits`].
pub fn get_f64_bits(v: &Json, key: &str) -> Result<f64, ParseError> {
    Ok(f64::from_bits(get_u64(v, key)?))
}

/// The eight lookup tables of slicing-by-8 CRC-32: `CRC_TABLES[0][b]` is
/// the reflected IEEE remainder of byte `b`, and `CRC_TABLES[k][b]` that of
/// `b` followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE, reflected) over `bytes` — the integrity check behind
/// framed checkpoint records and cache entries. Slicing-by-8 over
/// compile-time tables: one cached campaign round frames, seals and
/// serves about 255 KB, every byte of it through this function, so it
/// runs eight bytes per step. The bitwise definition it must equal is
/// the oracle in this module's tests.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][(lo >> 8 & 0xff) as usize]
            ^ t[5][(lo >> 16 & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// The sentinel that opens a framed record line.
pub const FRAME_MARK: char = '~';

/// Wraps one JSON-lines payload in a length-prefixed, CRC-guarded frame:
/// `~<len-hex>:<crc32-hex>:<payload>`. The payload stays readable text on
/// its own line; the header lets [`scan_records`] distinguish *verified*
/// records from silently corrupted ones — a flipped byte anywhere in a
/// bare JSON line can still parse (numbers, strings), but it cannot still
/// match the CRC.
pub fn frame_record(payload: &str) -> String {
    debug_assert!(
        !payload.contains('\n'),
        "a framed record is one line by construction"
    );
    format!(
        "{FRAME_MARK}{:x}:{:08x}:{payload}",
        payload.len(),
        crc32(payload.as_bytes())
    )
}

/// Extracts the payload of one record line: the payload of a frame whose
/// length and CRC both verify. `None` for anything else — a corrupt
/// frame, a bare JSON line, garbage — so a line that is not a verified
/// frame never reaches a results-stream client.
pub fn record_payload(line: &str) -> Option<&str> {
    let rest = line.strip_prefix(FRAME_MARK)?;
    let (len_hex, rest) = rest.split_once(':')?;
    let (crc_hex, payload) = rest.split_once(':')?;
    let len = usize::from_str_radix(len_hex, 16).ok()?;
    let crc = u32::from_str_radix(crc_hex, 16).ok()?;
    (payload.len() == len && crc32(payload.as_bytes()) == crc).then_some(payload)
}

/// What one whole line of a checkpoint record stream turned out to be.
#[derive(Clone, Debug, PartialEq)]
pub enum RecordLine {
    /// Empty or whitespace only (guard newlines); never counted.
    Blank,
    /// A record: the payload of a frame whose length and CRC verify,
    /// parsed.
    Record(Json),
    /// Opens like a frame but fails verification (or verifies and does
    /// not parse) — detected corruption.
    CorruptFrame,
    /// A line that is not a frame, bare JSON included.
    Garbage,
}

/// Turns one line of checkpoint text into a verified record or a
/// classified loss. This is the only place checkpoint bytes become
/// trusted values: [`scan_records`] applies it to every line of a whole
/// document, [`crate::CheckpointTail`] to each newly sealed line.
pub fn record_line(line: &str) -> RecordLine {
    if line.trim().is_empty() {
        return RecordLine::Blank;
    }
    match record_payload(line).and_then(|p| parse(p).ok()) {
        Some(v) => RecordLine::Record(v),
        None if line.starts_with(FRAME_MARK) => RecordLine::CorruptFrame,
        None => RecordLine::Garbage,
    }
}

/// Outcome of scanning a checkpoint record stream: framed lines verified
/// against their CRC, and every other line accounted for as damage
/// instead of silently dropped.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecordScan {
    /// Payload values of verified frames that parsed, in file order, with
    /// their 0-based line number.
    pub values: Vec<(usize, Json)>,
    /// Interior lines that are not frames at all (bare JSON included) —
    /// data loss worth surfacing.
    pub skipped: usize,
    /// Interior framed lines whose length or CRC failed verification —
    /// *detected* corruption, distinct from `skipped` because the frame
    /// proves the writer intended a record there.
    pub corrupt_frames: usize,
    /// Raw text of each damaged interior line (corrupt frame or non-frame
    /// line), for quarantining by the caller.
    pub damaged_lines: Vec<String>,
    /// The document ends in a torn (partially written) line — the
    /// signature of a writer killed mid-append. Never counted as loss.
    pub torn_tail: bool,
}

/// Scans a record stream of CRC-framed JSON lines (see [`frame_record`]).
/// Empty lines are ignored. A final non-empty line with no trailing
/// newline that fails to verify/parse is a torn tail; any interior
/// failure is counted (`corrupt_frames` for broken frames, `skipped` for
/// lines that are not frames, bare JSON included) and captured in
/// `damaged_lines`.
pub fn scan_records(text: &str) -> RecordScan {
    let mut scan = RecordScan::default();
    let ends_with_newline = text.is_empty() || text.ends_with('\n');
    let last_line = text.lines().filter(|l| !l.trim().is_empty()).count();
    let mut seen = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let verdict = record_line(line);
        if verdict == RecordLine::Blank {
            continue;
        }
        seen += 1;
        match verdict {
            RecordLine::Record(v) => scan.values.push((lineno, v)),
            _ if seen == last_line && !ends_with_newline => scan.torn_tail = true,
            damaged => {
                if damaged == RecordLine::CorruptFrame {
                    scan.corrupt_frames += 1;
                } else {
                    scan.skipped += 1;
                }
                scan.damaged_lines.push(line.to_string());
            }
        }
    }
    scan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_report_missing_and_mistyped() {
        let v = parse("{\"n\": 3, \"s\": \"x\", \"b\": true, \"f\": 1.5}").unwrap();
        assert_eq!(get_u64(&v, "n").unwrap(), 3);
        assert_eq!(get_str(&v, "s").unwrap(), "x");
        assert!(get_bool(&v, "b").unwrap());
        assert_eq!(get_f64(&v, "f").unwrap(), 1.5);
        assert!(get(&v, "missing").is_err());
        assert!(get_u64(&v, "s").is_err());
    }

    #[test]
    fn f64_bits_round_trips_nan_and_negative_zero() {
        for x in [-0.0f64, f64::NAN, 1.5, f64::INFINITY] {
            let v = obj(vec![("x", f64_bits(x))]);
            let back = get_f64_bits(&v, "x").unwrap();
            assert_eq!(back.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn frame_round_trips_and_detects_flips() {
        let payload = "{\"index\":3,\"label\":\"s7\"}";
        let framed = frame_record(payload);
        assert!(framed.starts_with(FRAME_MARK));
        assert_eq!(
            record_payload(&framed),
            Some(payload),
            "a fresh frame verifies"
        );
        // Any single-byte flip in the payload breaks the CRC.
        let garbled = framed.replace("s7", "s8");
        assert_eq!(record_payload(&garbled), None);
        assert_eq!(record_line(&garbled), RecordLine::CorruptFrame);
        // A truncated frame (torn append) fails the length check.
        let torn = &framed[..framed.len() - 4];
        assert_eq!(record_line(torn), RecordLine::CorruptFrame);
        // A bare JSON line is not a record.
        assert_eq!(record_payload(payload), None);
        assert_eq!(record_line(payload), RecordLine::Garbage);
    }

    /// One byte of the bitwise CRC-32 (IEEE, reflected): the definition,
    /// one bit per step and no table.
    fn crc32_bitwise_step(mut crc: u32, byte: u8) -> u32 {
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
        crc
    }

    #[test]
    fn crc32_known_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        let bitwise = !b"123456789"
            .iter()
            .fold(!0, |c, &b| crc32_bitwise_step(c, b));
        assert_eq!(bitwise, 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The table CRC equals the bitwise oracle on every length from 0 to
    /// 4096 at every offset 0 to 8 of a seeded buffer, so each split into
    /// eight-byte steps and a remainder is covered. The oracle runs once
    /// per offset, its state after `len` bytes being the prefix's CRC.
    #[test]
    fn crc32_equals_the_bitwise_oracle() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let buf: Vec<u8> = (0..4096 + 9)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        for offset in 0..=8 {
            let mut oracle = !0u32;
            for len in 0..=4096 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(crc32(bytes), !oracle, "length {len} at offset {offset}");
                oracle = crc32_bitwise_step(oracle, buf[offset + len]);
            }
        }
    }

    /// A bare JSON line, however well-formed, counts as loss next to a
    /// garbled frame and plain garbage; only verified frames are records.
    #[test]
    fn scan_records_counts_bare_lines_as_loss() {
        let mut doc = String::new();
        doc.push_str(&frame_record("{\"a\":1}"));
        doc.push('\n');
        doc.push_str("{\"a\":2}\n"); // bare line: not a frame
        let mut bad = frame_record("{\"a\":3}");
        bad.truncate(bad.len() - 2); // garbled interior frame
        doc.push_str(&bad);
        doc.push('\n');
        doc.push_str("plain garbage\n");
        doc.push_str(&frame_record("{\"a\":4}"));
        doc.push('\n');
        let s = scan_records(&doc);
        let vals: Vec<u64> = s
            .values
            .iter()
            .map(|(_, v)| get_u64(v, "a").unwrap())
            .collect();
        assert_eq!(vals, [1, 4]);
        assert_eq!(s.corrupt_frames, 1);
        assert_eq!(s.skipped, 2);
        assert_eq!(s.damaged_lines.len(), 3);
        assert_eq!(s.damaged_lines[0], "{\"a\":2}");
        assert!(!s.torn_tail);
    }

    #[test]
    fn scan_records_torn_framed_tail() {
        let mut doc = format!("{}\n", frame_record("{\"a\":1}"));
        let tail = frame_record("{\"a\":2}");
        doc.push_str(&tail[..tail.len() - 3]); // killed mid-append
        let s = scan_records(&doc);
        assert_eq!(s.values.len(), 1);
        assert_eq!(s.corrupt_frames, 0);
        assert_eq!(s.skipped, 0);
        assert!(s.torn_tail);
        assert!(s.damaged_lines.is_empty());
    }

    #[test]
    fn scan_records_empty_and_blank() {
        let s = scan_records("");
        assert_eq!(s, RecordScan::default());
        let s = scan_records("\n\n");
        assert_eq!(s, RecordScan::default());
    }

    /// Framed-line documents: `(line numbers of the values, skipped,
    /// corrupt frames, torn_tail)`. A fragment of a frame is a torn tail
    /// at the end of the file and a corrupt frame anywhere else.
    #[test]
    fn scan_records_tail_and_line_number_edge_cases() {
        let [a1, a2, a3] = ["{\"a\":1}", "{\"a\":2}", "{\"a\":3}"].map(frame_record);
        let cut = |f: &str| f[..f.len() - 3].to_string();
        let cases = [
            // Line numbers skip blank and damaged lines.
            (
                format!("\n{a1}\nnot json\n\n{a2}\n"),
                (vec![1, 4], 1, 0, false),
            ),
            // A newline-terminated bad line is interior loss even in final
            // position; the same bytes without the newline are a torn tail.
            (format!("{a1}\ngarbage\n"), (vec![0], 1, 0, false)),
            (format!("{a1}\ngarbage"), (vec![0], 0, 0, true)),
            // A file holding nothing but a partial first append.
            (cut(&a1), (vec![], 0, 0, true)),
            // `lines()` strips the \r that precedes a \n...
            (format!("{a1}\r\n{a2}\r\n"), (vec![0, 1], 0, 0, false)),
            // ...and a record cut after its \r but before its \n is torn.
            (format!("{a1}\r\n{}\r", cut(&a2)), (vec![0], 0, 0, true)),
            // Kill-and-resume cycles: each resumed writer guards the dead
            // writer's fragment with a newline and appends after it, so only
            // the final partial line is a torn tail; earlier fragments are
            // interior loss.
            (
                format!("{a1}\n{}\n{a2}\n{}", cut(&a2), cut(&a3)),
                (vec![0, 2], 0, 1, true),
            ),
        ];
        for (doc, want) in cases {
            let s = scan_records(&doc);
            let lines: Vec<usize> = s.values.iter().map(|(lineno, _)| *lineno).collect();
            assert_eq!(
                (lines, s.skipped, s.corrupt_frames, s.torn_tail),
                want,
                "{doc:?}"
            );
            assert_eq!(s.damaged_lines.len(), s.skipped + s.corrupt_frames);
        }
    }
}
