//! Durable canonical circuit store: crash-safe, corruption-detecting,
//! verified-on-load persistence for the synthesis cache.
//!
//! The in-memory [`CircuitCache`](crate::cache::CircuitCache) dies with
//! the process; this module makes canonicalization pay off across
//! restarts. A [`CircuitStore`] is an append-only file mapping
//! canonical representative → best-known verified circuit, with the
//! `solved_by` tier, gate/cost metadata, and provenance per record,
//! plus an in-memory index built on open.
//!
//! On disk the store is a self-describing JSON header line (in the
//! style of the fsync'd journals) followed by CRC32-framed binary
//! records using the shared [`framing`](crate::framing) codec. The
//! recovery contract, enforced on every open:
//!
//! - a **torn tail** (crash mid-append) is truncated, restoring a clean
//!   append point;
//! - a **mid-file CRC failure** quarantines exactly the damaged region
//!   and keeps reading — later valid records survive;
//! - every loaded circuit is **re-verified against its own canonical
//!   table** before it is trusted; records that fail decoding,
//!   verification, or metadata cross-checks are counted and skipped,
//!   never served.
//!
//! Upgrades are cost-monotonic: re-inserting a key keeps the cheaper
//! circuit (fewer gates, then lower quantum cost), so merging stores
//! or replaying traffic can only improve the best-known result.
//! Superseded and quarantined bytes are reclaimed by [`compact`]
//! (atomic temp-file + rename), and [`fsck`] reports a file's health
//! without modifying it.
//!
//! [`compact`]: CircuitStore::compact
//! [`fsck`]: fsck

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::sync::{Arc, Mutex, MutexGuard};

use rmrls_circuit::{Circuit, Gate};
use rmrls_obs::Json;

use crate::cache::CacheKey;
use crate::engine::SolveTier;
use crate::framing::{encode_frame, FrameEvent, FrameScanner};
use crate::fsutil::write_atomic_bytes;

/// On-disk schema version; files written by a newer schema are refused.
pub const STORE_SCHEMA_VERSION: u64 = 1;

/// Per-record payload format version.
const RECORD_VERSION: u8 = 1;

/// Widest key the store persists: a canonical table of `2^n` entries is
/// materialized per record, so this caps a record at half a megabyte of
/// table. Wider circuits are simply not persisted (the in-memory cache
/// still serves them within a process lifetime).
pub const STORE_MAX_VARS: usize = 16;

/// Longest JSON header line accepted before the file is declared
/// not-a-store.
const MAX_HEADER_LINE: usize = 4096;

/// One live store entry: the best-known verified circuit for a
/// canonical representative.
#[derive(Clone, Debug)]
pub struct StoreEntry {
    /// The canonical circuit (same width as the key).
    pub circuit: Circuit,
    /// Which ladder tier produced it.
    pub tier: SolveTier,
    /// Free-form origin label (`"batch"`, `"serve"`, ...), preserved
    /// across compactions.
    pub provenance: String,
}

impl StoreEntry {
    /// Whether `self` is strictly cheaper than `other`: fewer gates,
    /// then lower quantum cost.
    fn cheaper_than(&self, other: &StoreEntry) -> bool {
        let (a, b) = (&self.circuit, &other.circuit);
        a.gate_count() < b.gate_count()
            || (a.gate_count() == b.gate_count() && a.quantum_cost() < b.quantum_cost())
    }
}

/// Counters describing a store's health and traffic, snapshotted by
/// [`CircuitStore::stats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Live index entries (unique canonical keys).
    pub entries: u64,
    /// Records loaded and verified from disk on open.
    pub records_loaded: u64,
    /// On-disk records superseded by a cheaper same-key record later in
    /// the file (reclaimed by compact).
    pub superseded: u64,
    /// Corrupt regions quarantined on open (CRC failures / unframeable
    /// bytes skipped without losing later records).
    pub quarantined_records: u64,
    /// Total bytes inside quarantined regions.
    pub quarantined_bytes: u64,
    /// Records whose frame was intact but whose payload failed
    /// decoding, metadata cross-checks, or circuit re-verification.
    /// Never served.
    pub verify_rejected: u64,
    /// Bytes of torn tail truncated on open (crash mid-append).
    pub torn_bytes_truncated: u64,
    /// Records appended by this handle since open.
    pub appends: u64,
    /// Appends that failed (the in-memory result is unaffected; the
    /// store merely under-remembers).
    pub append_errors: u64,
    /// Compactions completed by this handle.
    pub compactions: u64,
    /// Current file size in bytes.
    pub file_bytes: u64,
}

impl StoreStats {
    /// The stats as a JSON object (the `rmrls store stats` output).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("entries".to_string(), Json::uint(self.entries)),
            (
                "records_loaded".to_string(),
                Json::uint(self.records_loaded),
            ),
            ("superseded".to_string(), Json::uint(self.superseded)),
            (
                "quarantined_records".to_string(),
                Json::uint(self.quarantined_records),
            ),
            (
                "quarantined_bytes".to_string(),
                Json::uint(self.quarantined_bytes),
            ),
            (
                "verify_rejected".to_string(),
                Json::uint(self.verify_rejected),
            ),
            (
                "torn_bytes_truncated".to_string(),
                Json::uint(self.torn_bytes_truncated),
            ),
            ("appends".to_string(), Json::uint(self.appends)),
            ("append_errors".to_string(), Json::uint(self.append_errors)),
            ("compactions".to_string(), Json::uint(self.compactions)),
            ("file_bytes".to_string(), Json::uint(self.file_bytes)),
        ])
    }
}

/// What [`CircuitStore::insert`] did with an offered circuit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Appended: the key was new or the offer was cheaper.
    Inserted {
        /// Whether an existing (more expensive) entry was superseded.
        superseded: bool,
    },
    /// The existing entry is at least as cheap; nothing written.
    KeptExisting,
    /// The key is too wide (or mis-shaped) for persistence; nothing
    /// written.
    Ineligible,
}

/// Read-only health report produced by [`fsck`].
#[derive(Clone, Debug, Default)]
pub struct FsckReport {
    /// Complete, CRC-valid, verified records.
    pub valid_records: u64,
    /// Unique canonical keys among the valid records.
    pub entries: u64,
    /// Valid records shadowed by a cheaper same-key record.
    pub superseded: u64,
    /// Quarantined corrupt regions as `(offset, length)` pairs.
    pub quarantined: Vec<(u64, u64)>,
    /// Frames whose payload failed decode/verify checks.
    pub verify_rejected: u64,
    /// Bytes of torn tail (would be truncated by a real open).
    pub torn_tail_bytes: u64,
    /// Total file size in bytes.
    pub file_bytes: u64,
}

impl FsckReport {
    /// Whether the file is fully healthy (nothing quarantined, torn, or
    /// rejected).
    pub fn clean(&self) -> bool {
        self.quarantined.is_empty() && self.verify_rejected == 0 && self.torn_tail_bytes == 0
    }

    /// The report as a JSON object (the `rmrls store fsck` output).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("clean".to_string(), Json::Bool(self.clean())),
            ("valid_records".to_string(), Json::uint(self.valid_records)),
            ("entries".to_string(), Json::uint(self.entries)),
            ("superseded".to_string(), Json::uint(self.superseded)),
            (
                "quarantined_records".to_string(),
                Json::uint(self.quarantined.len() as u64),
            ),
            (
                "quarantined".to_string(),
                Json::Arr(
                    self.quarantined
                        .iter()
                        .map(|&(off, len)| {
                            Json::Obj(vec![
                                ("offset".to_string(), Json::uint(off)),
                                ("bytes".to_string(), Json::uint(len)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "verify_rejected".to_string(),
                Json::uint(self.verify_rejected),
            ),
            (
                "torn_tail_bytes".to_string(),
                Json::uint(self.torn_tail_bytes),
            ),
            ("file_bytes".to_string(), Json::uint(self.file_bytes)),
        ])
    }
}

/// Result of a [`CircuitStore::compact`] rewrite.
#[derive(Clone, Copy, Debug)]
pub struct CompactStats {
    /// Live records written to the compacted file.
    pub records_kept: u64,
    /// File size before the rewrite.
    pub bytes_before: u64,
    /// File size after the rewrite.
    pub bytes_after: u64,
}

/// A disk-backed canonical circuit store: append-only file + in-memory
/// index of the best-known verified circuit per canonical key.
#[derive(Debug)]
pub struct CircuitStore {
    path: String,
    file: File,
    index: HashMap<CacheKey, StoreEntry>,
    stats: StoreStats,
    /// Logical end of file: the clean append point.
    end: u64,
}

impl CircuitStore {
    /// Opens (or creates) the store at `path`, building the verified
    /// in-memory index and repairing a torn tail.
    ///
    /// # Errors
    ///
    /// On I/O failure, a header that is not a store (or a newer schema
    /// version), or the `engine/store/load` failpoint.
    pub fn open(path: &str) -> Result<CircuitStore, String> {
        rmrls_obs::fail::trigger("engine/store/load").map_err(|e| e.to_string())?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| format!("cannot open store {path}: {e}"))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| format!("cannot read store {path}: {e}"))?;
        if bytes.is_empty() {
            let header = format!("{}\n", header_json());
            file.write_all(header.as_bytes())
                .and_then(|()| file.sync_data())
                .map_err(|e| format!("cannot initialize store {path}: {e}"))?;
            let end = header.len() as u64;
            return Ok(CircuitStore {
                path: path.to_string(),
                file,
                index: HashMap::new(),
                stats: StoreStats {
                    file_bytes: end,
                    ..StoreStats::default()
                },
                end,
            });
        }
        let body_start = check_header(&bytes).map_err(|e| format!("store {path}: {e}"))?;
        let scan = scan_records(&bytes, body_start);
        if let Some(torn_at) = scan.torn_start {
            file.set_len(torn_at as u64)
                .and_then(|()| file.sync_data())
                .map_err(|e| format!("cannot truncate torn store tail {path}: {e}"))?;
        }
        let end = scan.torn_start.unwrap_or(bytes.len()) as u64;
        let mut stats = scan.stats;
        stats.entries = scan.index.len() as u64;
        stats.file_bytes = end;
        Ok(CircuitStore {
            path: path.to_string(),
            file,
            index: scan.index,
            stats,
            end,
        })
    }

    /// The store's file path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// A snapshot of the store's health and traffic counters.
    pub fn stats(&self) -> StoreStats {
        let mut s = self.stats.clone();
        s.entries = self.index.len() as u64;
        s.file_bytes = self.end;
        s
    }

    /// Looks up the best-known circuit for a canonical key. Entries
    /// were verified on load (or produced verified in this process), so
    /// a hit can be trusted into the cache.
    pub fn get(&self, key: &CacheKey) -> Option<(Circuit, SolveTier)> {
        self.index.get(key).map(|e| (e.circuit.clone(), e.tier))
    }

    /// Iterates over the live entries (arbitrary order).
    pub fn entries(&self) -> impl Iterator<Item = (&CacheKey, &StoreEntry)> {
        self.index.iter()
    }

    /// Offers a circuit for a canonical key, appending it (fsync'd)
    /// when the key is new or the offer is cheaper than the current
    /// best. The append is crash-safe: a process killed mid-write
    /// leaves a torn tail the next open truncates.
    ///
    /// # Errors
    ///
    /// On I/O failure or the `engine/store/append` failpoint; the file
    /// is rolled back to its pre-append length (best effort) and the
    /// in-memory index is left unchanged, so the running process keeps
    /// serving correct results.
    pub fn insert(
        &mut self,
        key: &CacheKey,
        circuit: &Circuit,
        tier: SolveTier,
        provenance: &str,
    ) -> Result<InsertOutcome, String> {
        if key.num_vars == 0
            || key.num_vars > STORE_MAX_VARS
            || circuit.width() != key.num_vars
            || key.table.len() != 1usize << key.num_vars
        {
            return Ok(InsertOutcome::Ineligible);
        }
        let offer = StoreEntry {
            circuit: circuit.clone(),
            tier,
            provenance: provenance.to_string(),
        };
        let superseded = match self.index.get(key) {
            Some(existing) if !offer.cheaper_than(existing) => {
                return Ok(InsertOutcome::KeptExisting)
            }
            Some(_) => true,
            None => false,
        };
        let frame = encode_frame(&encode_payload(key, &offer));
        if let Err(e) = self.append_frame(&frame) {
            self.stats.append_errors += 1;
            return Err(e);
        }
        self.stats.appends += 1;
        if superseded {
            self.stats.superseded += 1;
        }
        self.index.insert(key.clone(), offer);
        Ok(InsertOutcome::Inserted { superseded })
    }

    /// Writes one frame at the clean append point and fsyncs it. The
    /// write is deliberately split around the `engine/store/append`
    /// failpoint so a `panic` action leaves exactly the torn tail a
    /// real crash would.
    fn append_frame(&mut self, frame: &[u8]) -> Result<(), String> {
        let start = self.end;
        let err = |e: std::io::Error| format!("cannot append to store {}: {e}", self.path);
        self.file.seek(SeekFrom::Start(start)).map_err(err)?;
        let half = frame.len() / 2;
        self.file.write_all(&frame[..half]).map_err(err)?;
        if let Err(e) = rmrls_obs::fail::trigger("engine/store/append") {
            let _ = self.file.set_len(start);
            return Err(e.to_string());
        }
        self.file.write_all(&frame[half..]).map_err(err)?;
        self.file.sync_data().map_err(err)?;
        self.end = start + frame.len() as u64;
        Ok(())
    }

    /// Rewrites the file to exactly the live index (dropping
    /// quarantined regions and superseded records) via an atomic
    /// temp-file + rename, then reopens the append handle on the new
    /// file. Entries are written in canonical-key order so two compacts
    /// of the same index are byte-identical.
    ///
    /// # Errors
    ///
    /// On I/O failure or the `engine/store/compact` failpoint; the
    /// original file is left untouched.
    pub fn compact(&mut self) -> Result<CompactStats, String> {
        rmrls_obs::fail::trigger("engine/store/compact").map_err(|e| e.to_string())?;
        let bytes_before = self.end;
        let mut keys: Vec<&CacheKey> = self.index.keys().collect();
        keys.sort_by(|a, b| (a.num_vars, &a.table).cmp(&(b.num_vars, &b.table)));
        let mut out = format!("{}\n", header_json()).into_bytes();
        for key in keys {
            let entry = &self.index[key];
            out.extend_from_slice(&encode_frame(&encode_payload(key, entry)));
        }
        write_atomic_bytes(&self.path, &out)?;
        self.file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.path)
            .map_err(|e| format!("cannot reopen compacted store {}: {e}", self.path))?;
        self.end = out.len() as u64;
        self.stats.compactions += 1;
        self.stats.quarantined_records = 0;
        self.stats.quarantined_bytes = 0;
        self.stats.superseded = 0;
        Ok(CompactStats {
            records_kept: self.index.len() as u64,
            bytes_before,
            bytes_after: self.end,
        })
    }
}

/// A [`CircuitStore`] behind one shared lock, cloneable across the
/// batch workers and serve request handlers (mirroring
/// [`SharedCache`](crate::cache::SharedCache)). Lock poisoning is
/// recovered: the store's file mutations are internally rolled back on
/// error, so a panicked holder leaves a consistent structure.
#[derive(Clone, Debug)]
pub struct SharedStore {
    inner: Arc<Mutex<CircuitStore>>,
}

impl SharedStore {
    /// Opens (or creates) a shared store at `path`.
    ///
    /// # Errors
    ///
    /// Propagates [`CircuitStore::open`] failures.
    pub fn open(path: &str) -> Result<SharedStore, String> {
        Ok(SharedStore {
            inner: Arc::new(Mutex::new(CircuitStore::open(path)?)),
        })
    }

    /// Locks the underlying store, recovering from poisoning.
    pub fn lock(&self) -> MutexGuard<'_, CircuitStore> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Number of live entries right now (takes the lock briefly).
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the store is empty right now.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// A stats snapshot (takes the lock briefly).
    pub fn stats(&self) -> StoreStats {
        self.lock().stats()
    }
}

/// Read-only integrity check of the store at `path`: scans every frame,
/// re-verifies every circuit, and reports damage without modifying the
/// file (unlike `open`, which truncates a torn tail).
///
/// # Errors
///
/// On I/O failure or a header that is not a store.
pub fn fsck(path: &str) -> Result<FsckReport, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read store {path}: {e}"))?;
    let body_start = check_header(&bytes).map_err(|e| format!("store {path}: {e}"))?;
    let scan = scan_records(&bytes, body_start);
    Ok(FsckReport {
        valid_records: scan.stats.records_loaded,
        entries: scan.index.len() as u64,
        superseded: scan.stats.superseded,
        quarantined: scan.quarantined,
        verify_rejected: scan.stats.verify_rejected,
        torn_tail_bytes: scan
            .torn_start
            .map(|at| (bytes.len() - at) as u64)
            .unwrap_or(0),
        file_bytes: bytes.len() as u64,
    })
}

/// The store's self-describing header line (JSON, newline-terminated on
/// disk).
fn header_json() -> Json {
    Json::Obj(vec![
        ("rmrls_store".to_string(), Json::uint(1)),
        (
            "schema_version".to_string(),
            Json::uint(STORE_SCHEMA_VERSION),
        ),
    ])
}

/// Validates the header line and returns the offset of the first frame.
fn check_header(bytes: &[u8]) -> Result<usize, String> {
    let probe = &bytes[..bytes.len().min(MAX_HEADER_LINE)];
    let newline = probe
        .iter()
        .position(|&b| b == b'\n')
        .ok_or("missing header line (not a circuit store)")?;
    let line = std::str::from_utf8(&bytes[..newline])
        .map_err(|_| "header line is not UTF-8 (not a circuit store)".to_string())?;
    let json = Json::parse(line).map_err(|e| format!("unparsable header: {e}"))?;
    if json.get("rmrls_store").and_then(Json::as_u64) != Some(1) {
        return Err("header is not a circuit-store header".to_string());
    }
    match json.get("schema_version").and_then(Json::as_u64) {
        Some(v) if v == STORE_SCHEMA_VERSION => Ok(newline + 1),
        Some(v) => Err(format!(
            "schema version {v} is newer than supported {STORE_SCHEMA_VERSION}"
        )),
        None => Err("header missing schema_version".to_string()),
    }
}

/// Everything one pass over the record area produces.
struct ScanOutcome {
    index: HashMap<CacheKey, StoreEntry>,
    stats: StoreStats,
    quarantined: Vec<(u64, u64)>,
    /// Absolute offset of a torn tail, if any.
    torn_start: Option<usize>,
}

/// Scans the frames after the header, decoding, cross-checking, and
/// re-verifying every record. Shared by `open` and `fsck`.
fn scan_records(bytes: &[u8], body_start: usize) -> ScanOutcome {
    let mut outcome = ScanOutcome {
        index: HashMap::new(),
        stats: StoreStats::default(),
        quarantined: Vec::new(),
        torn_start: None,
    };
    for event in FrameScanner::new(&bytes[body_start..]) {
        match event {
            FrameEvent::Record { payload, .. } => match decode_payload(payload) {
                Some((key, entry)) => {
                    outcome.stats.records_loaded += 1;
                    match outcome.index.get(&key) {
                        Some(existing) if !entry.cheaper_than(existing) => {
                            outcome.stats.superseded += 1;
                        }
                        other => {
                            if other.is_some() {
                                outcome.stats.superseded += 1;
                            }
                            outcome.index.insert(key, entry);
                        }
                    }
                }
                None => outcome.stats.verify_rejected += 1,
            },
            FrameEvent::Corrupt { start, end } => {
                outcome.stats.quarantined_records += 1;
                outcome.stats.quarantined_bytes += (end - start) as u64;
                outcome
                    .quarantined
                    .push(((body_start + start) as u64, (end - start) as u64));
            }
            FrameEvent::Torn { start } => {
                outcome.torn_start = Some(body_start + start);
                outcome.stats.torn_bytes_truncated = (bytes.len() - body_start - start) as u64;
            }
        }
    }
    outcome
}

/// Byte marker for a Toffoli gate record.
const GATE_TOFFOLI: u8 = 0;
/// Byte marker for a Fredkin gate record.
const GATE_FREDKIN: u8 = 1;

/// Serializes one record payload:
/// `version u8 | tier u8 | num_vars u8 | width u8 | gate_count u32 |
/// quantum_cost u64 | table (2^num_vars × u64) |
/// gates (gate_count × [kind u8, controls u32, a u8, b u8]) |
/// provenance (len u16 + UTF-8 bytes)` — all little-endian.
fn encode_payload(key: &CacheKey, entry: &StoreEntry) -> Vec<u8> {
    let gates = entry.circuit.gates();
    let mut out = Vec::with_capacity(16 + key.table.len() * 8 + gates.len() * 7);
    out.push(RECORD_VERSION);
    out.push(entry.tier.code());
    out.push(key.num_vars as u8);
    out.push(entry.circuit.width() as u8);
    out.extend_from_slice(&(gates.len() as u32).to_le_bytes());
    out.extend_from_slice(&entry.circuit.quantum_cost().to_le_bytes());
    for &v in &key.table {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for gate in gates {
        match *gate {
            Gate::Toffoli { controls, target } => {
                out.push(GATE_TOFFOLI);
                out.extend_from_slice(&controls.to_le_bytes());
                out.push(target);
                out.push(0);
            }
            Gate::Fredkin { controls, targets } => {
                out.push(GATE_FREDKIN);
                out.extend_from_slice(&controls.to_le_bytes());
                out.push(targets.0);
                out.push(targets.1);
            }
        }
    }
    let prov = entry.provenance.as_bytes();
    let prov = &prov[..prov.len().min(u16::MAX as usize)];
    out.extend_from_slice(&(prov.len() as u16).to_le_bytes());
    out.extend_from_slice(prov);
    out
}

/// Decodes and fully validates one record payload: structural bounds,
/// gate legality (so the panicking `Gate` constructors are never fed
/// bad input), metadata cross-checks, and the re-verification that the
/// circuit actually computes its stored canonical table. Any failure
/// returns `None` — the caller counts it and moves on.
fn decode_payload(payload: &[u8]) -> Option<(CacheKey, StoreEntry)> {
    let mut r = Reader(payload);
    if r.u8()? != RECORD_VERSION {
        return None;
    }
    let tier = SolveTier::from_code(r.u8()?)?;
    let num_vars = r.u8()? as usize;
    let width = r.u8()? as usize;
    if num_vars == 0 || num_vars > STORE_MAX_VARS || width != num_vars {
        return None;
    }
    let gate_count = r.u32()? as usize;
    let quantum_cost = r.u64()?;
    let table_len = 1usize << num_vars;
    let mut table = Vec::with_capacity(table_len);
    for _ in 0..table_len {
        let v = r.u64()?;
        if v >= table_len as u64 {
            return None;
        }
        table.push(v);
    }
    let wire_mask = ((1u64 << num_vars) - 1) as u32;
    let mut gates = Vec::with_capacity(gate_count.min(1 << 16));
    for _ in 0..gate_count {
        let kind = r.u8()?;
        let controls = r.u32()?;
        let a = r.u8()? as usize;
        let b = r.u8()? as usize;
        if controls & !wire_mask != 0 {
            return None;
        }
        let gate = match kind {
            GATE_TOFFOLI => {
                if a >= num_vars || b != 0 || controls >> a & 1 != 0 {
                    return None;
                }
                Gate::toffoli_mask(controls, a)
            }
            GATE_FREDKIN => {
                if a >= b || b >= num_vars || controls & ((1 << a) | (1 << b)) != 0 {
                    return None;
                }
                Gate::fredkin_mask(controls, a, b)
            }
            _ => return None,
        };
        gates.push(gate);
    }
    let prov_len = r.u16()? as usize;
    let provenance = std::str::from_utf8(r.take(prov_len)?).ok()?.to_string();
    if !r.0.is_empty() {
        return None; // trailing bytes: not a record this schema wrote
    }
    let circuit = Circuit::from_gates(width, gates);
    // Metadata cross-check, then the load-time re-verification: the
    // circuit must compute exactly the canonical table it claims to
    // solve. A record that fails here is never trusted into any cache.
    if circuit.quantum_cost() != quantum_cost || circuit.to_permutation() != table {
        return None;
    }
    let key = CacheKey { num_vars, table };
    Some((
        key,
        StoreEntry {
            circuit,
            tier,
            provenance,
        },
    ))
}

/// Bounds-checked little-endian cursor over a payload.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if n > self.0.len() {
            return None;
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Some(head)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2)
            .map(|b| u16::from_le_bytes(b.try_into().unwrap()))
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::FRAME_HEADER_LEN;

    fn scratch(name: &str) -> String {
        let dir = std::env::temp_dir().join(format!("rmrls-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path.to_str().unwrap().to_string()
    }

    /// A verified (key, circuit) pair: the circuit's own permutation is
    /// its canonical table, so load-time verification passes.
    fn entry(width: usize, gates: Vec<Gate>) -> (CacheKey, Circuit) {
        let circuit = Circuit::from_gates(width, gates);
        let key = CacheKey {
            num_vars: width,
            table: circuit.to_permutation(),
        };
        (key, circuit)
    }

    fn cnot_pair() -> (CacheKey, Circuit) {
        entry(3, vec![Gate::cnot(0, 1), Gate::not(2)])
    }

    fn fredkin_pair() -> (CacheKey, Circuit) {
        entry(3, vec![Gate::fredkin(&[2], 0, 1)])
    }

    #[test]
    fn every_tier_keeps_its_on_disk_code() {
        // Stores written by earlier releases carry these bytes.
        let (key, circuit) = cnot_pair();
        for (tier, code) in SolveTier::ALL.into_iter().zip([0, 1, 2]) {
            let entry = StoreEntry {
                circuit: circuit.clone(),
                tier,
                provenance: "test".to_string(),
            };
            let payload = encode_payload(&key, &entry);
            assert_eq!(payload[1], code, "{}", tier.as_str());
            let (decoded_key, decoded) = decode_payload(&payload).unwrap();
            assert_eq!((decoded_key, decoded.tier), (key.clone(), tier));
        }
    }

    #[test]
    fn create_insert_reopen_round_trip() {
        let path = scratch("roundtrip.store");
        let (key, circuit) = cnot_pair();
        let (fkey, fcirc) = fredkin_pair();
        {
            let mut s = CircuitStore::open(&path).unwrap();
            assert!(s.is_empty());
            assert_eq!(
                s.insert(&key, &circuit, SolveTier::Rmrls, "test").unwrap(),
                InsertOutcome::Inserted { superseded: false }
            );
            assert_eq!(
                s.insert(&fkey, &fcirc, SolveTier::Mmd, "test").unwrap(),
                InsertOutcome::Inserted { superseded: false }
            );
        }
        let s = CircuitStore::open(&path).unwrap();
        assert_eq!(s.len(), 2);
        let (hit, tier) = s.get(&key).unwrap();
        assert_eq!(hit.gates(), circuit.gates());
        assert_eq!(tier, SolveTier::Rmrls);
        assert_eq!(s.get(&fkey).unwrap().1, SolveTier::Mmd);
        let stats = s.stats();
        assert_eq!(stats.records_loaded, 2);
        assert!(stats.quarantined_records == 0 && stats.verify_rejected == 0);
        let report = fsck(&path).unwrap();
        assert!(report.clean());
        assert_eq!(report.entries, 2);
    }

    #[test]
    fn upgrades_are_cost_monotonic() {
        let path = scratch("upgrade.store");
        let mut s = CircuitStore::open(&path).unwrap();
        // A wasteful identity-suffixed circuit and a cheaper equivalent
        // computing the same table.
        let cheap = Circuit::from_gates(3, vec![Gate::cnot(0, 1)]);
        let costly = Circuit::from_gates(3, vec![Gate::cnot(0, 1), Gate::not(2), Gate::not(2)]);
        assert_eq!(cheap.to_permutation(), costly.to_permutation());
        let key = CacheKey {
            num_vars: 3,
            table: cheap.to_permutation(),
        };
        s.insert(&key, &costly, SolveTier::Mmd, "first").unwrap();
        assert_eq!(
            s.insert(&key, &costly, SolveTier::Mmd, "again").unwrap(),
            InsertOutcome::KeptExisting,
            "equal cost does not rewrite"
        );
        assert_eq!(
            s.insert(&key, &cheap, SolveTier::Rmrls, "better").unwrap(),
            InsertOutcome::Inserted { superseded: true }
        );
        assert_eq!(
            s.insert(&key, &costly, SolveTier::Mmd, "regression")
                .unwrap(),
            InsertOutcome::KeptExisting,
            "a worse circuit never replaces a better one"
        );
        assert_eq!(s.get(&key).unwrap().0.gate_count(), 1);
        // Across a reopen the cheaper (later) record still wins, and the
        // shadowed one is counted superseded.
        let s2 = CircuitStore::open(&path).unwrap();
        assert_eq!(s2.get(&key).unwrap().0.gate_count(), 1);
        assert_eq!(s2.stats().superseded, 1);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let path = scratch("torn.store");
        let (key, circuit) = cnot_pair();
        {
            let mut s = CircuitStore::open(&path).unwrap();
            s.insert(&key, &circuit, SolveTier::Rmrls, "test").unwrap();
        }
        // Simulate a crash mid-append: half a frame at the tail.
        let clean_len = std::fs::metadata(&path).unwrap().len();
        let (fkey, fcirc) = fredkin_pair();
        let torn = encode_frame(&encode_payload(
            &fkey,
            &StoreEntry {
                circuit: fcirc,
                tier: SolveTier::Rmrls,
                provenance: "torn".to_string(),
            },
        ));
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&torn[..torn.len() / 2]).unwrap();
        drop(f);
        let report = fsck(&path).unwrap();
        assert_eq!(report.torn_tail_bytes, (torn.len() / 2) as u64);
        let mut s = CircuitStore::open(&path).unwrap();
        assert_eq!(s.len(), 1, "torn record never loads");
        assert_eq!(s.stats().torn_bytes_truncated, (torn.len() / 2) as u64);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            clean_len,
            "file physically truncated back to the clean append point"
        );
        // The store is fully usable after repair.
        s.insert(&fkey, &fredkin_pair().1, SolveTier::Mmd, "after")
            .unwrap();
        assert_eq!(CircuitStore::open(&path).unwrap().len(), 2);
    }

    #[test]
    fn corrupt_record_is_quarantined_and_valid_ones_survive() {
        let path = scratch("quarantine.store");
        let (key, circuit) = cnot_pair();
        let (fkey, fcirc) = fredkin_pair();
        let mid_offset;
        {
            let mut s = CircuitStore::open(&path).unwrap();
            s.insert(&key, &circuit, SolveTier::Rmrls, "keep").unwrap();
            mid_offset = s.end;
            s.insert(&fkey, &fcirc, SolveTier::Mmd, "damage").unwrap();
            let (tkey, tcirc) = entry(2, vec![Gate::not(0)]);
            s.insert(&tkey, &tcirc, SolveTier::Rmrls, "keep2").unwrap();
        }
        // Flip one payload byte of the middle record.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[mid_offset as usize + FRAME_HEADER_LEN] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let report = fsck(&path).unwrap();
        assert_eq!(report.quarantined.len(), 1, "exactly one record damaged");
        assert_eq!(report.quarantined[0].0, mid_offset);
        assert_eq!(report.valid_records, 2, "valid records preserved");
        assert!(!report.clean());
        let s = CircuitStore::open(&path).unwrap();
        assert_eq!(s.len(), 2);
        assert!(s.get(&fkey).is_none(), "quarantined entry never served");
        assert!(s.get(&key).is_some());
        assert_eq!(s.stats().quarantined_records, 1);
    }

    #[test]
    fn tampered_payload_with_valid_crc_is_verify_rejected() {
        let path = scratch("tamper.store");
        let (key, circuit) = cnot_pair();
        {
            let mut s = CircuitStore::open(&path).unwrap();
            s.insert(&key, &circuit, SolveTier::Rmrls, "test").unwrap();
        }
        // Re-frame a payload whose table claims something the circuit
        // does not compute — the CRC is valid, so only the load-time
        // re-verification can catch it.
        let header_len = format!("{}\n", header_json()).len();
        let tampered = StoreEntry {
            circuit,
            tier: SolveTier::Rmrls,
            provenance: "test".to_string(),
        };
        let mut bad_key = key.clone();
        bad_key.table.swap(0, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(header_len);
        bytes.extend_from_slice(&encode_frame(&encode_payload(&bad_key, &tampered)));
        std::fs::write(&path, &bytes).unwrap();
        let s = CircuitStore::open(&path).unwrap();
        assert_eq!(s.len(), 0, "unverifiable circuit never enters the index");
        assert_eq!(s.stats().verify_rejected, 1);
        assert_eq!(s.stats().quarantined_records, 0, "CRC itself was fine");
        assert_eq!(fsck(&path).unwrap().verify_rejected, 1);
    }

    #[test]
    fn compact_drops_quarantined_and_superseded_bytes() {
        let path = scratch("compact.store");
        let (key, _) = cnot_pair();
        let cheap = Circuit::from_gates(3, vec![Gate::cnot(0, 1), Gate::not(2)]);
        let costly = Circuit::from_gates(
            3,
            vec![Gate::cnot(0, 1), Gate::not(2), Gate::not(0), Gate::not(0)],
        );
        let damage_offset;
        {
            let mut s = CircuitStore::open(&path).unwrap();
            s.insert(&key, &costly, SolveTier::Mmd, "old").unwrap();
            let (fkey, fcirc) = fredkin_pair();
            damage_offset = s.end;
            s.insert(&fkey, &fcirc, SolveTier::Rmrls, "damage").unwrap();
            s.insert(&key, &cheap, SolveTier::Rmrls, "new").unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[damage_offset as usize + FRAME_HEADER_LEN] ^= 0x80;
        std::fs::write(&path, &bytes).unwrap();

        let mut s = CircuitStore::open(&path).unwrap();
        let before = s.stats();
        assert_eq!(before.quarantined_records, 1);
        let compacted = s.compact().unwrap();
        assert_eq!(compacted.records_kept, 1);
        assert!(compacted.bytes_after < compacted.bytes_before);
        assert_eq!(s.get(&key).unwrap().0.gate_count(), 2, "best entry kept");
        // The compacted file is clean and holds exactly the live set.
        let report = fsck(&path).unwrap();
        assert!(report.clean());
        assert_eq!(report.valid_records, 1);
        assert_eq!(report.superseded, 0);
        // And the reopened handle keeps appending correctly.
        let (tkey, tcirc) = entry(2, vec![Gate::not(1)]);
        s.insert(&tkey, &tcirc, SolveTier::Rmrls, "after").unwrap();
        assert_eq!(CircuitStore::open(&path).unwrap().len(), 2);
    }

    #[test]
    fn compact_is_deterministic() {
        let path_a = scratch("det-a.store");
        let path_b = scratch("det-b.store");
        let pairs = [
            cnot_pair(),
            fredkin_pair(),
            entry(2, vec![Gate::not(0)]),
            entry(4, vec![Gate::toffoli(&[0, 1], 2), Gate::not(3)]),
        ];
        for (path, order) in [(&path_a, [0, 1, 2, 3]), (&path_b, [3, 1, 0, 2])] {
            let mut s = CircuitStore::open(path).unwrap();
            for &i in &order {
                let (k, c) = &pairs[i];
                s.insert(k, c, SolveTier::Rmrls, "det").unwrap();
            }
            s.compact().unwrap();
        }
        assert_eq!(
            std::fs::read(&path_a).unwrap(),
            std::fs::read(&path_b).unwrap(),
            "same live set compacts to identical bytes regardless of insert order"
        );
    }

    #[test]
    fn oversized_keys_are_ineligible_not_errors() {
        let path = scratch("wide.store");
        let mut s = CircuitStore::open(&path).unwrap();
        let key = CacheKey {
            num_vars: STORE_MAX_VARS + 1,
            table: Vec::new(),
        };
        let circuit = Circuit::new(STORE_MAX_VARS + 1);
        assert_eq!(
            s.insert(&key, &circuit, SolveTier::Rmrls, "wide").unwrap(),
            InsertOutcome::Ineligible
        );
        assert!(s.is_empty());
    }

    #[test]
    fn non_store_files_are_refused() {
        let path = scratch("not-a-store");
        std::fs::write(&path, "just some text\nmore text\n").unwrap();
        let err = CircuitStore::open(&path).unwrap_err();
        assert!(err.contains("unparsable header"), "{err}");
        let json_path = scratch("wrong-json.store");
        std::fs::write(&json_path, "{\"schema_version\":1}\n").unwrap();
        let err = CircuitStore::open(&json_path).unwrap_err();
        assert!(err.contains("not a circuit-store header"), "{err}");
    }

    #[test]
    fn future_schema_versions_are_refused() {
        let path = scratch("future.store");
        std::fs::write(&path, "{\"rmrls_store\":1,\"schema_version\":99}\n").unwrap();
        let err = CircuitStore::open(&path).unwrap_err();
        assert!(err.contains("newer than supported"), "{err}");
    }

    #[test]
    fn shared_store_is_one_store_across_clones_and_threads() {
        let path = scratch("shared.store");
        let shared = SharedStore::open(&path).unwrap();
        let clone = shared.clone();
        let (key, circuit) = cnot_pair();
        let handle = std::thread::spawn(move || {
            clone
                .lock()
                .insert(&key, &circuit, SolveTier::Rmrls, "thread")
                .unwrap();
        });
        handle.join().unwrap();
        assert_eq!(shared.len(), 1);
        assert_eq!(shared.stats().appends, 1);
    }

    #[test]
    fn payload_decode_rejects_malformed_gates() {
        let (key, circuit) = cnot_pair();
        let entry = StoreEntry {
            circuit,
            tier: SolveTier::Rmrls,
            provenance: "x".to_string(),
        };
        let good = encode_payload(&key, &entry);
        assert!(decode_payload(&good).is_some());
        // Gate kind byte out of range.
        let gates_at = 16 + key.table.len() * 8;
        let mut bad = good.clone();
        bad[gates_at] = 9;
        assert!(decode_payload(&bad).is_none());
        // Target wire outside the circuit width.
        let mut bad = good.clone();
        bad[gates_at + 5] = 31;
        assert!(decode_payload(&bad).is_none());
        // Truncated payload.
        assert!(decode_payload(&good[..good.len() - 1]).is_none());
        // Trailing garbage.
        let mut bad = good.clone();
        bad.push(0);
        assert!(decode_payload(&bad).is_none());
    }
}
