//! The write-ahead results journal: crash-safe batch checkpointing.
//!
//! In batch mode the per-job results file is written as a **journal**:
//! a self-describing header line followed by one JSON record per
//! finished job, each appended and fsync'd as the job completes. A
//! killed batch (SIGKILL, OOM, power loss) therefore loses at most the
//! one record that was mid-write; `rmrls batch --resume FILE` replays
//! the journal, skips every job it already holds, and re-runs only the
//! rest.
//!
//! Format:
//!
//! - line 1 — header object:
//!   `{"journal":"rmrls-batch","schema_version":1,"manifest_hash":"…",
//!   "options_fingerprint":"…","jobs_total":N}`. The two hex hashes
//!   bind the journal to the exact job list and result-affecting
//!   configuration, so resuming against a different workload or
//!   different options is refused instead of silently mixing results;
//! - lines 2… — job records exactly as in the results JSONL, plus a
//!   leading `index` field mapping each record back to its admission
//!   slot (journal order is completion order, not admission order; the
//!   CLI rewrites the file in admission order once the run finishes).
//!
//! **Torn-tail rule:** reading stops at the first line that is not a
//! complete JSON record carrying an in-range `index` and a `status`. A
//! torn final line — the SIGKILL case — is tolerated and flagged, never
//! an error; anything after it is ignored. Records with status
//! `skipped` are also excluded from the completed set: a drained job
//! never ran, so a resume must run it.

use std::collections::HashMap;
use std::fs::File;
use std::io::Write;

use rmrls_core::options_to_json;
use rmrls_obs::Json;

use crate::engine::BatchOptions;
use crate::manifest::{Admission, SpecData};

/// Version of the journal format. Bumped whenever the header or record
/// framing changes incompatibly; additive record fields do not bump it.
pub const JOURNAL_SCHEMA_VERSION: u64 = 1;

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub(crate) fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Hash binding a journal to its job list: covers every admission's
/// name, origin, and resolved specification (table or PPRM
/// fingerprint), so reordering, editing, or re-resolving the manifest
/// changes the hash.
pub fn manifest_hash(admissions: &[Admission]) -> u64 {
    let mut h = FNV_OFFSET;
    for a in admissions {
        fnv1a(&mut h, a.name().as_bytes());
        fnv1a(&mut h, a.origin().as_bytes());
        match a {
            Admission::Job(j) => match &j.spec {
                SpecData::Perm(p) => {
                    fnv1a(&mut h, &(p.num_vars() as u64).to_le_bytes());
                    for v in p.as_slice() {
                        fnv1a(&mut h, &v.to_le_bytes());
                    }
                }
                SpecData::Pprm(m) => {
                    fnv1a(&mut h, &(m.num_vars() as u64).to_le_bytes());
                    fnv1a(&mut h, &m.fingerprint().to_le_bytes());
                }
            },
            Admission::Error { message, .. } => fnv1a(&mut h, message.as_bytes()),
        }
    }
    h
}

/// Hash of the result-affecting batch configuration: deadline,
/// canonicalization bound, verification, fallback, and the full
/// synthesis option set. Worker count, cache size and the durable
/// store are deliberately excluded — results are independent of them
/// by construction, so a journal written with 8 workers (or `--store`)
/// resumes fine with 2 (or store-less).
pub fn options_fingerprint(opts: &BatchOptions) -> u64 {
    let mut h = FNV_OFFSET;
    let deadline_ms = opts.deadline.map(|d| d.as_millis() as u64);
    fnv1a(&mut h, format!("{deadline_ms:?}").as_bytes());
    fnv1a(&mut h, &(opts.canon_limit as u64).to_le_bytes());
    fnv1a(&mut h, &[opts.verify as u8, opts.fallback as u8]);
    let mut synthesis = options_to_json(&opts.synthesis);
    // Journals written by older releases hashed options the search no
    // longer has: a relative time limit, `null`, right after
    // `"pruning"`; two memory caps, both `null`, right after
    // `"cancellable"`; the cost tie-break, `false`, right after
    // `"initial_dive"`; and three trailing ones, `"trace":false`,
    // `"profile":false` and `"threads":0`. Putting them back keeps the
    // hashed bytes, and so every existing journal's header, valid for
    // `batch --resume`. No release could set a batch job's time limit,
    // memory cap or cost tie-break from the CLI, and profiling only
    // timed the search, so those releases always hashed these values:
    // a journal written with `--profile` resumes too.
    if let Json::Obj(fields) = &mut synthesis {
        let after = |fields: &[(String, Json)], key: &str| {
            1 + fields
                .iter()
                .position(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("options_to_json writes `{key}`"))
        };
        let at = after(fields, "pruning");
        fields.insert(at, ("time_limit_seconds".to_string(), Json::Null));
        let at = after(fields, "cancellable");
        let caps = ["max_live_terms", "max_queue_bytes"].map(|k| (k.to_string(), Json::Null));
        fields.splice(at..at, caps);
        let at = after(fields, "initial_dive");
        fields.insert(at, ("tie_break_cost".to_string(), Json::Bool(false)));
        fields.push(("trace".to_string(), Json::Bool(false)));
        fields.push(("profile".to_string(), Json::Bool(false)));
        fields.push(("threads".to_string(), Json::uint(0)));
    }
    fnv1a(&mut h, synthesis.to_string().as_bytes());
    h
}

/// The journal's self-describing first line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalHeader {
    /// [`manifest_hash`] of the admitted job list.
    pub manifest_hash: u64,
    /// [`options_fingerprint`] of the batch configuration.
    pub options_fingerprint: u64,
    /// Number of admitted jobs (indices run `0..jobs_total`).
    pub jobs_total: u64,
}

impl JournalHeader {
    /// Header describing `admissions` run under `opts`.
    pub fn new(admissions: &[Admission], opts: &BatchOptions) -> JournalHeader {
        JournalHeader {
            manifest_hash: manifest_hash(admissions),
            options_fingerprint: options_fingerprint(opts),
            jobs_total: admissions.len() as u64,
        }
    }

    /// Serializes the header as the journal's first line.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("journal".to_string(), Json::str("rmrls-batch")),
            (
                "schema_version".to_string(),
                Json::uint(JOURNAL_SCHEMA_VERSION),
            ),
            (
                "manifest_hash".to_string(),
                Json::str(format!("{:016x}", self.manifest_hash)),
            ),
            (
                "options_fingerprint".to_string(),
                Json::str(format!("{:016x}", self.options_fingerprint)),
            ),
            ("jobs_total".to_string(), Json::uint(self.jobs_total)),
        ])
    }

    /// Parses a header object.
    ///
    /// # Errors
    ///
    /// When the object is not an `rmrls-batch` journal header, is from
    /// an unknown schema version, or has malformed fields.
    pub fn from_json(json: &Json) -> Result<JournalHeader, String> {
        if json.get("journal").and_then(Json::as_str) != Some("rmrls-batch") {
            return Err("not an rmrls-batch journal (missing tag)".to_string());
        }
        let version = json
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("journal header has no schema_version")?;
        if version != JOURNAL_SCHEMA_VERSION {
            return Err(format!(
                "unsupported journal schema version {version} (expected {JOURNAL_SCHEMA_VERSION})"
            ));
        }
        let hex = |field: &str| -> Result<u64, String> {
            let s = json
                .get(field)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("journal header has no {field}"))?;
            u64::from_str_radix(s, 16).map_err(|_| format!("journal header {field} is not hex"))
        };
        Ok(JournalHeader {
            manifest_hash: hex("manifest_hash")?,
            options_fingerprint: hex("options_fingerprint")?,
            jobs_total: json
                .get("jobs_total")
                .and_then(Json::as_u64)
                .ok_or("journal header has no jobs_total")?,
        })
    }
}

/// Appends fsync'd records to a journal file.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
}

impl JournalWriter {
    /// Creates (truncating) the journal at `path` and durably writes
    /// its header line.
    ///
    /// # Errors
    ///
    /// When the file cannot be created or written.
    pub fn create(path: &str, header: &JournalHeader) -> Result<JournalWriter, String> {
        let file = File::create(path).map_err(|e| format!("cannot create journal {path}: {e}"))?;
        let mut writer = JournalWriter { file };
        writer
            .write_line(&header.to_json().to_string())
            .map_err(|e| format!("cannot write journal header to {path}: {e}"))?;
        Ok(writer)
    }

    /// Creates (truncating) a journal at `path` with a caller-supplied
    /// header line — for journals that are not batch-results journals
    /// but reuse this framing (the serve request journal writes its own
    /// self-describing header).
    ///
    /// # Errors
    ///
    /// When the file cannot be created or written.
    pub fn create_raw(path: &str, header_line: &str) -> Result<JournalWriter, String> {
        let file = File::create(path).map_err(|e| format!("cannot create journal {path}: {e}"))?;
        let mut writer = JournalWriter { file };
        writer
            .write_line(header_line)
            .map_err(|e| format!("cannot write journal header to {path}: {e}"))?;
        Ok(writer)
    }

    /// Opens an existing journal for appending, without touching its
    /// contents — the crash-recovery path, where the surviving records
    /// have already been read back and the file must keep growing from
    /// its current tail.
    ///
    /// # Errors
    ///
    /// When the file cannot be opened for append.
    pub fn open_append(path: &str) -> Result<JournalWriter, String> {
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open journal {path} for append: {e}"))?;
        Ok(JournalWriter { file })
    }

    /// Durably appends one record line (the line plus `\n`, then
    /// fsync). On return the record either is fully on disk or the
    /// error says it may not be.
    ///
    /// # Errors
    ///
    /// When the write or the fsync fails.
    pub fn append(&mut self, line: &str) -> Result<(), String> {
        self.append_at(line, "engine/journal/append")
    }

    /// [`append`](JournalWriter::append) under a caller-chosen
    /// failpoint, so each journal site (batch results, serve requests)
    /// is injectable independently in the fault matrix.
    ///
    /// # Errors
    ///
    /// When the write or the fsync fails (or the failpoint fires).
    pub fn append_at(&mut self, line: &str, failpoint: &str) -> Result<(), String> {
        // Failpoint: a full disk / dying device at the worst moment.
        // Only record appends are injectable — headers are written
        // before any work starts, where failure is an ordinary error.
        rmrls_obs::fail::trigger(failpoint).map_err(|e| format!("journal append failed: {e}"))?;
        self.write_line(line)
    }

    fn write_line(&mut self, line: &str) -> Result<(), String> {
        let io = (|| -> std::io::Result<()> {
            self.file.write_all(line.as_bytes())?;
            self.file.write_all(b"\n")?;
            self.file.sync_data()
        })();
        io.map_err(|e| format!("journal append failed: {e}"))
    }
}

/// One record recovered from a journal. A resume reads its `status`,
/// `verified`, `solved_by` and `stop_reason` off the JSON.
#[derive(Clone, Debug)]
pub struct CompletedJob {
    /// Admission index the record belongs to.
    pub index: usize,
    /// The record, verbatim (includes the `index` field).
    pub json: Json,
}

/// Everything recovered from reading a journal.
#[derive(Debug)]
pub struct ResumeData {
    /// The parsed header.
    pub header: JournalHeader,
    /// Completed records by admission index (`skipped` records and
    /// anything at or past a torn line are excluded).
    pub completed: HashMap<usize, CompletedJob>,
    /// Whether the journal ended in a torn (unparsable) line — the
    /// at-most-one record a SIGKILL can lose.
    pub torn_tail: bool,
}

/// Reads a journal file, tolerating a torn final line.
///
/// # Errors
///
/// When the file cannot be read or its header line is missing or
/// malformed — record-level damage is never an error (see the torn-tail
/// rule in the module docs).
pub fn read_journal(path: &str) -> Result<ResumeData, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read journal {path}: {e}"))?;
    let mut lines = text.lines();
    let header_line = lines
        .next()
        .ok_or_else(|| format!("journal {path} is empty"))?;
    let header_json =
        Json::parse(header_line).map_err(|e| format!("journal {path}: bad header: {e}"))?;
    let header =
        JournalHeader::from_json(&header_json).map_err(|e| format!("journal {path}: {e}"))?;
    let mut completed = HashMap::new();
    let mut torn_tail = false;
    for line in lines {
        let Some(job) = parse_record(line, header.jobs_total) else {
            torn_tail = true;
            break;
        };
        if job.json.get("status").and_then(Json::as_str) == Some("skipped") {
            continue;
        }
        // Last record wins: a resume-of-a-resume may legitimately
        // journal the same index twice.
        completed.insert(job.index, job);
    }
    Ok(ResumeData {
        header,
        completed,
        torn_tail,
    })
}

fn parse_record(line: &str, jobs_total: u64) -> Option<CompletedJob> {
    let json = Json::parse(line).ok()?;
    let index = json.get("index")?.as_u64()?;
    if index >= jobs_total {
        return None;
    }
    json.get("status")?.as_str()?;
    Some(CompletedJob {
        index: index as usize,
        json,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::suite_admissions;

    fn scratch(name: &str) -> String {
        let dir = std::env::temp_dir().join("rmrls-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_str().unwrap().to_string()
    }

    fn header() -> JournalHeader {
        let jobs = suite_admissions("examples").unwrap();
        JournalHeader::new(&jobs, &BatchOptions::default())
    }

    #[test]
    fn header_round_trips_through_json() {
        let h = header();
        let parsed = JournalHeader::from_json(&h.to_json()).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(parsed.jobs_total, 8);
    }

    #[test]
    fn manifest_hash_tracks_content_and_order() {
        let a = suite_admissions("examples").unwrap();
        let b = suite_admissions("examples").unwrap();
        assert_eq!(manifest_hash(&a), manifest_hash(&b), "deterministic");
        let mut reordered = suite_admissions("examples").unwrap();
        reordered.swap(0, 1);
        assert_ne!(manifest_hash(&a), manifest_hash(&reordered));
        assert_ne!(
            manifest_hash(&a),
            manifest_hash(&suite_admissions("table4").unwrap())
        );
    }

    #[test]
    fn options_fingerprint_ignores_workers_and_cache_only() {
        let base = BatchOptions::default();
        let more_workers = BatchOptions {
            workers: 12,
            cache_size: None,
            ..BatchOptions::default()
        };
        assert_eq!(
            options_fingerprint(&base),
            options_fingerprint(&more_workers),
            "workers/cache do not affect results"
        );
        let fallback = BatchOptions {
            fallback: true,
            ..BatchOptions::default()
        };
        assert_ne!(options_fingerprint(&base), options_fingerprint(&fallback));
        let deadline = BatchOptions {
            deadline: Some(std::time::Duration::from_millis(50)),
            ..BatchOptions::default()
        };
        assert_ne!(options_fingerprint(&base), options_fingerprint(&deadline));
    }

    #[test]
    fn options_fingerprint_is_stable_across_releases() {
        // Values computed by the release that still had a search
        // thread-count option: a journal header written by it must keep
        // matching, or `batch --resume` refuses every older journal.
        let base = BatchOptions::default();
        assert_eq!(options_fingerprint(&base), 0x50205bfabf73c771);
        let tuned = BatchOptions {
            deadline: Some(std::time::Duration::from_millis(250)),
            fallback: true,
            synthesis: BatchOptions::default()
                .synthesis
                .with_pruning(rmrls_core::Pruning::TopK(4)),
            ..BatchOptions::default()
        };
        assert_eq!(options_fingerprint(&tuned), 0xc4afcde0a1ea4e30);
    }

    #[test]
    fn journal_write_read_round_trip() {
        let path = scratch("round-trip.jsonl");
        let h = header();
        let mut w = JournalWriter::create(&path, &h).unwrap();
        w.append(
            r#"{"index":3,"job":"ex4","status":"solved","verified":true,"solved_by":"rmrls"}"#,
        )
        .unwrap();
        w.append(r#"{"index":0,"job":"ex1","status":"unsolved","stop_reason":"node budget"}"#)
            .unwrap();
        drop(w);
        let data = read_journal(&path).unwrap();
        assert_eq!(data.header, h);
        assert!(!data.torn_tail);
        assert_eq!(data.completed.len(), 2);
        let field = |index: usize, key: &str| data.completed[&index].json.get(key).cloned();
        assert_eq!(data.completed[&3].index, 3);
        assert_eq!(field(3, "status"), Some(Json::str("solved")));
        assert_eq!(field(3, "verified"), Some(Json::Bool(true)));
        assert_eq!(field(3, "solved_by"), Some(Json::str("rmrls")));
        assert_eq!(field(0, "stop_reason"), Some(Json::str("node budget")));
    }

    #[test]
    fn torn_final_line_is_tolerated_and_flagged() {
        let path = scratch("torn.jsonl");
        let h = header();
        let mut w = JournalWriter::create(&path, &h).unwrap();
        w.append(r#"{"index":1,"job":"ex2","status":"solved","verified":true}"#)
            .unwrap();
        drop(w);
        // Simulate a SIGKILL mid-append: a truncated record at the end.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(r#"{"index":2,"job":"ex3","sta"#);
        std::fs::write(&path, text).unwrap();
        let data = read_journal(&path).unwrap();
        assert!(data.torn_tail, "truncated tail must be flagged");
        assert_eq!(data.completed.len(), 1, "only the intact record counts");
        assert!(data.completed.contains_key(&1));
    }

    #[test]
    fn skipped_and_out_of_range_records_are_not_completed() {
        let path = scratch("skips.jsonl");
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        w.append(r#"{"index":2,"job":"ex3","status":"skipped"}"#)
            .unwrap();
        w.append(r#"{"index":99,"job":"bogus","status":"solved"}"#)
            .unwrap();
        drop(w);
        let data = read_journal(&path).unwrap();
        assert!(data.completed.is_empty(), "skipped jobs must re-run");
        // The out-of-range index reads as a torn line (it cannot belong
        // to this manifest), so everything after it is ignored too.
        assert!(data.torn_tail);
    }

    #[test]
    fn non_journal_files_are_refused() {
        let path = scratch("not-a-journal.jsonl");
        std::fs::write(&path, "{\"job\":\"x\",\"status\":\"solved\"}\n").unwrap();
        let err = read_journal(&path).unwrap_err();
        assert!(err.contains("not an rmrls-batch journal"), "{err}");

        let empty = scratch("empty.jsonl");
        std::fs::write(&empty, "").unwrap();
        assert!(read_journal(&empty).unwrap_err().contains("empty"));
    }

    #[test]
    fn future_schema_versions_are_refused() {
        let mut json = header().to_json();
        if let Json::Obj(fields) = &mut json {
            for (k, v) in fields.iter_mut() {
                if k == "schema_version" {
                    *v = Json::uint(JOURNAL_SCHEMA_VERSION + 1);
                }
            }
        }
        let err = JournalHeader::from_json(&json).unwrap_err();
        assert!(err.contains("unsupported journal schema version"), "{err}");
    }
}
