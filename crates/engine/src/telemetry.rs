//! Live telemetry for a running batch: a thread-safe metrics registry
//! plus a per-job status board, both scrapeable mid-run.
//!
//! [`BatchTelemetry`] is handed to the engine via
//! [`BatchOptions::telemetry`]; the [`JobRunner`] then
//!
//! - counts on the board's [`SyncRegistry`] instead of a registry of
//!   its own, so the aggregate report's counters and the live
//!   `/metrics` series are one store (the `/healthz` degradation
//!   witnesses read the same counters by name),
//! - records per-job synthesis latency, expansion-batch latency, and
//!   cache-lookup latency into log-bucketed histograms, and
//! - drives the [`JobStatusRegistry`] through
//!   pending → running → done/failed transitions,
//!
//! while [`run_batch`] (and the serve daemon) run a background sampler
//! that publishes point-in-time gauges (frontier depth, live PPRM
//! terms, cache occupancy, busy workers) every [`SAMPLE_INTERVAL`].
//!
//! Everything here is observation-only. Job state lives in
//! per-slot atomics written by workers and read by scrape threads; no
//! telemetry path takes a lock a worker search loop holds, and no
//! search decision reads telemetry state — which is what makes the
//! "byte-identical results with telemetry on" guarantee hold.
//!
//! [`run_batch`]: crate::engine::run_batch
//! [`BatchOptions::telemetry`]: crate::engine::BatchOptions
//! [`JobRunner`]: crate::runner::JobRunner

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rmrls_core::Progress;
use rmrls_obs::{prometheus_text, Json, SyncGauge, SyncHistogram, SyncRegistry};

use crate::engine::{Ending, JobOutcome, SolveTier};

/// Cadence of the background gauge sampler.
pub const SAMPLE_INTERVAL: Duration = Duration::from_millis(250);

/// The run counters `/healthz` reads as degradation witnesses: any of
/// them above zero marks the run degraded.
const DEGRADATION_WITNESSES: [&str; 4] = [
    "panics_contained",
    "verify_failures",
    "journal_append_errors",
    "trace_write_errors",
];

/// Sentinel for "not yet" in the per-slot millisecond timestamps.
const UNSET: u64 = u64::MAX;

/// Slot state of a serve board slot no request has used yet: not a
/// job, so it is neither listed on `/jobs` nor counted in any state.
const IDLE: u8 = 4;

/// Lifecycle of one batch job, as exposed on `/jobs`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Not yet picked up by a worker.
    Pending,
    /// A worker is executing it now.
    Running,
    /// Finished with a circuit (solved, or recovered from a journal
    /// record of a solved job).
    Done,
    /// Finished without a circuit (unsolved, errored, panicked, or
    /// skipped by a drain).
    Failed,
}

impl JobState {
    /// Stable lowercase name used in the `/jobs` JSON.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobState::Pending => "pending",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    /// `None` for an [`IDLE`] slot.
    fn from_u8(v: u8) -> Option<JobState> {
        match v {
            0 => Some(JobState::Pending),
            1 => Some(JobState::Running),
            2 => Some(JobState::Done),
            3 => Some(JobState::Failed),
            _ => None,
        }
    }
}

/// One job's live status cell: all-atomic (except the name, which is
/// only locked on slot reassignment and status reads — never inside a
/// search loop), so workers update and scrape threads read without
/// contending.
struct JobSlot {
    name: Mutex<String>,
    state: AtomicU8,
    /// 0 = none/unsolved, else `SolveTier as u8 + 1`.
    solved_by: AtomicU8,
    started_ms: AtomicU64,
    ended_ms: AtomicU64,
    nodes_expanded: AtomicU64,
    queue_depth: AtomicU64,
    live_terms: AtomicU64,
}

impl JobSlot {
    fn new(name: String, state: u8) -> JobSlot {
        JobSlot {
            name: Mutex::new(name),
            state: AtomicU8::new(state),
            solved_by: AtomicU8::new(0),
            started_ms: AtomicU64::new(UNSET),
            ended_ms: AtomicU64::new(UNSET),
            nodes_expanded: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            live_terms: AtomicU64::new(0),
        }
    }
}

/// Point-in-time view of one job, as served on `/jobs`.
#[derive(Clone, Debug)]
pub struct JobStatus {
    /// Admission index.
    pub index: usize,
    /// Display name from the manifest.
    pub name: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Producing tier, once solved.
    pub solved_by: Option<SolveTier>,
    /// Wall-clock seconds: running → elapsed so far; finished → total;
    /// pending → 0.
    pub elapsed_seconds: f64,
    /// Nodes expanded (live while running, final afterwards).
    pub nodes_expanded: u64,
    /// Frontier queue depth at the last progress beat.
    pub queue_depth: u64,
    /// Live PPRM terms at the last progress beat.
    pub live_terms: u64,
}

impl JobStatus {
    /// Serializes one status row for the `/jobs` endpoint.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("index".into(), Json::uint(self.index as u64)),
            ("job".into(), Json::str(&self.name)),
            ("state".into(), Json::str(self.state.as_str())),
            (
                "solved_by".into(),
                self.solved_by
                    .map(|t| Json::str(t.as_str()))
                    .unwrap_or(Json::Null),
            ),
            ("elapsed_seconds".into(), Json::Num(self.elapsed_seconds)),
            ("nodes_expanded".into(), Json::uint(self.nodes_expanded)),
            ("queue_depth".into(), Json::uint(self.queue_depth)),
            ("live_terms".into(), Json::uint(self.live_terms)),
        ])
    }
}

/// Live per-job state for one batch run.
///
/// Indices are admission indices; the slot vector is sized once at
/// construction and never grows, so readers never race a resize.
pub struct JobStatusRegistry {
    t0: Instant,
    slots: Vec<JobSlot>,
}

impl JobStatusRegistry {
    /// One pending slot per job name, in admission order.
    pub fn new(names: Vec<String>) -> JobStatusRegistry {
        JobStatusRegistry::with_slots(names.into_iter().map(|n| JobSlot::new(n, 0)))
    }

    /// `slots` idle slots for [`assign`](JobStatusRegistry::assign) to
    /// label. Until assigned, a slot is not a job:
    /// [`statuses`](JobStatusRegistry::statuses) skips it and no state
    /// counts it.
    pub fn idle(slots: usize) -> JobStatusRegistry {
        JobStatusRegistry::with_slots((0..slots).map(|_| JobSlot::new(String::new(), IDLE)))
    }

    fn with_slots(slots: impl Iterator<Item = JobSlot>) -> JobStatusRegistry {
        JobStatusRegistry {
            t0: Instant::now(),
            slots: slots.collect(),
        }
    }

    /// Number of slots (idle ones included).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when there are no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    fn now_ms(&self) -> u64 {
        self.t0.elapsed().as_millis() as u64
    }

    /// Reassigns a slot to a new job — the serve daemon's pattern,
    /// where a fixed ring of slots is relabeled as requests arrive
    /// (batch mode names every slot once at construction and never
    /// calls this). Renames the slot and resets every field to a fresh
    /// pending state.
    pub fn assign(&self, index: usize, name: &str) {
        let Some(slot) = self.slots.get(index) else {
            return;
        };
        match slot.name.lock() {
            Ok(mut n) => *n = name.to_string(),
            Err(poisoned) => *poisoned.into_inner() = name.to_string(),
        }
        slot.solved_by.store(0, Ordering::Relaxed);
        slot.started_ms.store(UNSET, Ordering::Relaxed);
        slot.ended_ms.store(UNSET, Ordering::Relaxed);
        slot.nodes_expanded.store(0, Ordering::Relaxed);
        slot.queue_depth.store(0, Ordering::Relaxed);
        slot.live_terms.store(0, Ordering::Relaxed);
        slot.state.store(0, Ordering::Release);
    }

    /// Marks a job picked up by a worker.
    pub fn mark_running(&self, index: usize) {
        let Some(slot) = self.slots.get(index) else {
            return;
        };
        slot.started_ms.store(self.now_ms(), Ordering::Relaxed);
        slot.state.store(1, Ordering::Release);
    }

    /// Marks a job finished, deriving done/failed and the solve tier
    /// from its outcome. A resumed record is done only when its journal
    /// record is solved, and its tier is not shown.
    pub fn mark_finished(&self, index: usize, outcome: &JobOutcome) {
        match (outcome, outcome.ending()) {
            (JobOutcome::Solved { solved_by, .. }, _) => self.mark_done(index, Some(*solved_by)),
            (_, Ending::Solved { .. }) => self.mark_done(index, None),
            _ => self.mark_failed(index),
        }
    }

    /// Marks a job finished with a circuit (tier `None` for jobs
    /// recovered from a journal, where the tier was not replayed).
    pub fn mark_done(&self, index: usize, tier: Option<SolveTier>) {
        self.finish(index, 2, tier);
    }

    /// Marks a job finished without a circuit.
    pub fn mark_failed(&self, index: usize) {
        self.finish(index, 3, None);
    }

    fn finish(&self, index: usize, state: u8, tier: Option<SolveTier>) {
        let Some(slot) = self.slots.get(index) else {
            return;
        };
        slot.solved_by
            .store(tier.map_or(0, |t| t as u8 + 1), Ordering::Relaxed);
        slot.ended_ms.store(self.now_ms(), Ordering::Relaxed);
        slot.state.store(state, Ordering::Release);
    }

    /// Publishes a progress beat from inside a running search.
    pub fn update_progress(
        &self,
        index: usize,
        nodes_expanded: u64,
        queue_depth: u64,
        live_terms: u64,
    ) {
        let Some(slot) = self.slots.get(index) else {
            return;
        };
        slot.nodes_expanded.store(nodes_expanded, Ordering::Relaxed);
        slot.queue_depth.store(queue_depth, Ordering::Relaxed);
        slot.live_terms.store(live_terms, Ordering::Relaxed);
    }

    /// Reads one job's current status (`None` for an idle slot).
    pub fn status(&self, index: usize) -> Option<JobStatus> {
        let slot = self.slots.get(index)?;
        let state = JobState::from_u8(slot.state.load(Ordering::Acquire))?;
        let started = slot.started_ms.load(Ordering::Relaxed);
        let ended = slot.ended_ms.load(Ordering::Relaxed);
        let elapsed_ms = match (state, started, ended) {
            (JobState::Pending, _, _) | (_, UNSET, _) => 0,
            (JobState::Running, s, _) => self.now_ms().saturating_sub(s),
            (_, s, e) => {
                if e == UNSET {
                    0
                } else {
                    e.saturating_sub(s)
                }
            }
        };
        let solved_by = match slot.solved_by.load(Ordering::Relaxed) {
            1 => Some(SolveTier::Rmrls),
            2 => Some(SolveTier::RmrlsRelaxed),
            3 => Some(SolveTier::Mmd),
            _ => None,
        };
        let name = match slot.name.lock() {
            Ok(n) => n.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        };
        Some(JobStatus {
            index,
            name,
            state,
            solved_by,
            elapsed_seconds: elapsed_ms as f64 / 1000.0,
            nodes_expanded: slot.nodes_expanded.load(Ordering::Relaxed),
            queue_depth: slot.queue_depth.load(Ordering::Relaxed),
            live_terms: slot.live_terms.load(Ordering::Relaxed),
        })
    }

    /// Snapshot of every job, in admission order (idle slots skipped).
    pub fn statuses(&self) -> Vec<JobStatus> {
        (0..self.slots.len())
            .filter_map(|i| self.status(i))
            .collect()
    }

    /// Count of jobs currently in `state`.
    pub fn count_in(&self, state: JobState) -> u64 {
        self.slots
            .iter()
            .filter(|s| JobState::from_u8(s.state.load(Ordering::Acquire)) == Some(state))
            .count() as u64
    }

    /// Sums a live field over all *running* jobs — the cluster-wide
    /// "how deep are the frontiers right now" view the sampler
    /// publishes as gauges.
    fn sum_running(&self, field: impl Fn(&JobSlot) -> &AtomicU64) -> u64 {
        self.slots
            .iter()
            .filter(|s| s.state.load(Ordering::Acquire) == 1)
            .map(|s| field(s).load(Ordering::Relaxed))
            .sum()
    }
}

/// Everything a scrape endpoint needs to describe a running batch.
///
/// Construct once per run, share via `Arc`: the engine writes, the
/// HTTP providers read.
pub struct BatchTelemetry {
    registry: SyncRegistry,
    /// Per-job live state, drives `/jobs`.
    pub jobs: JobStatusRegistry,
    /// Per-job wall-clock synthesis latency (seconds).
    pub job_seconds: Arc<SyncHistogram>,
    /// Latency between successive in-search progress beats (one beat
    /// per `TIME_CHECK_INTERVAL` expansions), i.e. expansion-batch
    /// latency in seconds.
    pub expansion_batch_seconds: Arc<SyncHistogram>,
    /// Canonicalization + cache-probe latency per lookup (seconds).
    pub cache_lookup_seconds: Arc<SyncHistogram>,
    queue_depth: Arc<SyncGauge>,
    live_terms: Arc<SyncGauge>,
    cache_entries: Arc<SyncGauge>,
    workers_busy: Arc<SyncGauge>,
    workers_total: Arc<SyncGauge>,
    jobs_running: Arc<SyncGauge>,
    jobs_pending: Arc<SyncGauge>,
    /// 1 while the serve admission queue is shedding load (429s being
    /// returned), 0 otherwise. Registered on the serve board only:
    /// batch has no admission queue to shed from.
    backpressure: Option<Arc<SyncGauge>>,
}

impl fmt::Debug for BatchTelemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BatchTelemetry")
            .field("jobs", &self.jobs.len())
            .finish_non_exhaustive()
    }
}

impl BatchTelemetry {
    /// Builds the telemetry board for a run over the named jobs.
    pub fn new(job_names: Vec<String>) -> BatchTelemetry {
        BatchTelemetry::with_jobs(JobStatusRegistry::new(job_names))
    }

    /// Builds the serve daemon's board: `slots` idle slots that its
    /// workers label per request (see [`JobStatusRegistry::idle`]),
    /// plus the admission backpressure gauge.
    pub fn idle(slots: usize) -> BatchTelemetry {
        let mut board = BatchTelemetry::with_jobs(JobStatusRegistry::idle(slots));
        board.backpressure = Some(board.registry.gauge("admission_backpressure"));
        board
    }

    fn with_jobs(jobs: JobStatusRegistry) -> BatchTelemetry {
        let registry = SyncRegistry::new();
        for name in DEGRADATION_WITNESSES {
            registry.counter(name);
        }
        let latency = rmrls_obs::log2_bounds(1e-6, 128.0);
        BatchTelemetry {
            job_seconds: registry.histogram("job_seconds", &latency),
            expansion_batch_seconds: registry.histogram("expansion_batch_seconds", &latency),
            cache_lookup_seconds: registry.histogram("cache_lookup_seconds", &latency),
            queue_depth: registry.gauge("queue_depth"),
            live_terms: registry.gauge("live_terms"),
            cache_entries: registry.gauge("cache_entries"),
            workers_busy: registry.gauge("workers_busy"),
            workers_total: registry.gauge("workers_total"),
            jobs_running: registry.gauge("jobs_running"),
            jobs_pending: registry.gauge("jobs_pending"),
            backpressure: None,
            jobs,
            registry,
        }
    }

    /// The shared metrics registry: the
    /// [`JobRunner`](crate::runner::JobRunner) counts here, so every
    /// run counter is also a live series.
    pub fn registry(&self) -> &SyncRegistry {
        &self.registry
    }

    /// Records the total worker count (published once at pool start).
    pub fn set_workers_total(&self, n: u64) {
        self.workers_total.set(n);
    }

    /// One sampler beat: reads live state and publishes it as gauges.
    /// `cache_entries` is the memo-cache occupancy, `None` when the
    /// cache is disabled.
    pub fn sample(&self, cache_entries: Option<u64>) {
        self.queue_depth
            .set(self.jobs.sum_running(|s| &s.queue_depth));
        self.live_terms
            .set(self.jobs.sum_running(|s| &s.live_terms));
        if let Some(n) = cache_entries {
            self.cache_entries.set(n);
        }
        let running = self.jobs.count_in(JobState::Running);
        self.workers_busy.set(running);
        self.jobs_running.set(running);
        self.jobs_pending.set(self.jobs.count_in(JobState::Pending));
    }

    /// True when the run has witnessed degradation: a contained panic,
    /// a verification failure, a journal/trace write error, or (serve
    /// mode) active admission backpressure.
    pub fn degraded(&self) -> bool {
        DEGRADATION_WITNESSES
            .iter()
            .any(|name| self.registry.counter(name).get() > 0)
            || self.backpressure.as_ref().is_some_and(|g| g.get() > 0)
    }

    /// Flags (or clears) admission backpressure: the serve daemon sets
    /// this while it is shedding requests with 429, which also flips
    /// `/healthz` to degraded for the duration. A no-op on a batch
    /// board, which has no backpressure gauge.
    pub fn set_backpressure(&self, shedding: bool) {
        if let Some(g) = &self.backpressure {
            g.set(u64::from(shedding));
        }
    }

    /// The progress callback for a search running in board slot
    /// `index`: each beat (one per `TIME_CHECK_INTERVAL` expansions)
    /// publishes the search's live state into the slot and records the
    /// time since the previous beat into `expansion_batch_seconds`. It
    /// only stores into atomics and a histogram, so it cannot influence
    /// the search — results stay byte-identical with telemetry on.
    pub fn progress_hook(self: &Arc<Self>, index: usize) -> impl FnMut(&Progress) + 'static {
        let board = Arc::clone(self);
        let mut last_beat = Instant::now();
        move |p| {
            board
                .jobs
                .update_progress(index, p.nodes_expanded, p.queue_depth as u64, p.live_terms);
            let now = Instant::now();
            board
                .expansion_batch_seconds
                .record(now.duration_since(last_beat).as_secs_f64());
            last_beat = now;
        }
    }

    /// Body of `GET /metrics`: the live registry in Prometheus text
    /// exposition format.
    pub fn metrics_text(&self) -> String {
        prometheus_text(&self.registry.snapshot())
    }

    /// Body of `GET /healthz`: liveness plus the degraded-mode flag.
    pub fn healthz_json(&self) -> String {
        Json::Obj(vec![
            ("status".into(), Json::str("ok")),
            ("degraded".into(), Json::Bool(self.degraded())),
            ("jobs_total".into(), Json::uint(self.jobs.len() as u64)),
            (
                "jobs_running".into(),
                Json::uint(self.jobs.count_in(JobState::Running)),
            ),
            (
                "jobs_done".into(),
                Json::uint(self.jobs.count_in(JobState::Done)),
            ),
            (
                "jobs_failed".into(),
                Json::uint(self.jobs.count_in(JobState::Failed)),
            ),
        ])
        .to_string()
    }

    /// Body of `GET /jobs`: every job's current status, in admission
    /// order.
    pub fn jobs_json(&self) -> String {
        Json::Arr(
            self.jobs
                .statuses()
                .iter()
                .map(JobStatus::to_json)
                .collect(),
        )
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmrls_circuit::Circuit;

    fn telemetry(n: usize) -> BatchTelemetry {
        BatchTelemetry::new((0..n).map(|i| format!("job-{i}")).collect())
    }

    #[test]
    fn jobs_walk_the_lifecycle() {
        let t = telemetry(2);
        assert_eq!(t.jobs.status(0).unwrap().state, JobState::Pending);
        t.jobs.mark_running(0);
        assert_eq!(t.jobs.status(0).unwrap().state, JobState::Running);
        t.jobs.update_progress(0, 512, 40, 900);
        let s = t.jobs.status(0).unwrap();
        assert_eq!(s.nodes_expanded, 512);
        assert_eq!(s.queue_depth, 40);
        assert_eq!(s.live_terms, 900);
        t.jobs.mark_finished(
            0,
            &JobOutcome::Solved {
                circuit: Circuit::new(3),
                verified: Some(true),
                solved_by: SolveTier::RmrlsRelaxed,
            },
        );
        let s = t.jobs.status(0).unwrap();
        assert_eq!(s.state, JobState::Done);
        assert_eq!(s.solved_by, Some(SolveTier::RmrlsRelaxed));
        t.jobs.mark_running(1);
        t.jobs.mark_finished(
            1,
            &JobOutcome::Unsolved {
                stop_reason: "node budget exhausted".into(),
            },
        );
        assert_eq!(t.jobs.status(1).unwrap().state, JobState::Failed);
        assert_eq!(t.jobs.status(1).unwrap().solved_by, None);
        // Out-of-range indices are ignored, not panics.
        t.jobs.mark_running(99);
        assert!(t.jobs.status(99).is_none());
    }

    #[test]
    fn sampler_publishes_running_sums() {
        let t = telemetry(3);
        t.set_workers_total(2);
        t.jobs.mark_running(0);
        t.jobs.mark_running(1);
        t.jobs.update_progress(0, 10, 100, 1000);
        t.jobs.update_progress(1, 20, 50, 500);
        t.sample(Some(7));
        let snap = t.registry().snapshot();
        let gauge = |name: &str| {
            snap.gauges
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|(_, v, _)| *v)
                .unwrap()
        };
        assert_eq!(gauge("queue_depth"), 150);
        assert_eq!(gauge("live_terms"), 1500);
        assert_eq!(gauge("cache_entries"), 7);
        assert_eq!(gauge("workers_busy"), 2);
        assert_eq!(gauge("workers_total"), 2);
        assert_eq!(gauge("jobs_pending"), 1);
        // A finished job leaves the running sums.
        t.jobs.mark_finished(
            0,
            &JobOutcome::Error {
                message: "x".into(),
            },
        );
        t.sample(None);
        let snap = t.registry().snapshot();
        let gauge = |name: &str| {
            snap.gauges
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|(_, v, _)| *v)
                .unwrap()
        };
        assert_eq!(gauge("queue_depth"), 50);
        assert_eq!(gauge("workers_busy"), 1);
    }

    #[test]
    fn healthz_reports_degradation() {
        let t = telemetry(1);
        assert!(t.healthz_json().contains("\"degraded\":false"));
        // The engine counts verification failures under the same
        // registry name, so the witness reads the shared counter.
        t.registry().counter("verify_failures").inc();
        assert!(t.degraded());
        assert!(t.healthz_json().contains("\"degraded\":true"));
    }

    #[test]
    fn backpressure_degrades_health_while_set() {
        let t = BatchTelemetry::idle(1);
        assert!(!t.degraded());
        t.set_backpressure(true);
        assert!(t.degraded());
        assert!(t.healthz_json().contains("\"degraded\":true"));
        t.set_backpressure(false);
        assert!(!t.degraded(), "clears when shedding stops");
    }

    #[test]
    fn assign_relabels_and_resets_a_slot() {
        let t = telemetry(2);
        t.jobs.mark_running(0);
        t.jobs.update_progress(0, 512, 40, 900);
        t.jobs.mark_finished(
            0,
            &JobOutcome::Solved {
                circuit: Circuit::new(3),
                verified: Some(true),
                solved_by: SolveTier::Rmrls,
            },
        );
        t.jobs.assign(0, "request:7");
        let s = t.jobs.status(0).unwrap();
        assert_eq!(s.name, "request:7");
        assert_eq!(s.state, JobState::Pending);
        assert_eq!(s.solved_by, None);
        assert_eq!(s.nodes_expanded, 0);
        assert_eq!(s.elapsed_seconds, 0.0);
        // Out-of-range assigns are ignored, not panics.
        t.jobs.assign(99, "x");
    }

    #[test]
    fn idle_slots_are_not_jobs_until_assigned() {
        let t = BatchTelemetry::idle(3);
        t.sample(None);
        assert_eq!(t.jobs.count_in(JobState::Pending), 0);
        assert!(t.jobs.statuses().is_empty());
        assert_eq!(t.jobs_json(), "[]");
        t.jobs.assign(1, "request:1");
        let rows = t.jobs.statuses();
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].index, rows[0].state), (1, JobState::Pending));
        assert_eq!(t.jobs.count_in(JobState::Pending), 1);
    }

    #[test]
    fn jobs_json_is_parseable_and_ordered() {
        let t = telemetry(2);
        t.jobs.mark_running(1);
        let parsed = Json::parse(&t.jobs_json()).unwrap();
        let rows = parsed.as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("job").unwrap().as_str(), Some("job-0"));
        assert_eq!(rows[1].get("state").unwrap().as_str(), Some("running"));
        assert_eq!(rows[0].get("solved_by"), Some(&Json::Null));
    }

    #[test]
    fn admission_backpressure_is_a_serve_only_family() {
        let family = "# TYPE rmrls_admission_backpressure gauge";
        assert!(!telemetry(1).metrics_text().contains(family));
        assert!(BatchTelemetry::idle(1).metrics_text().contains(family));
    }

    #[test]
    fn metrics_text_has_histogram_series_even_before_traffic() {
        let t = telemetry(1);
        let text = t.metrics_text();
        assert!(text.contains("rmrls_job_seconds_bucket{le=\"+Inf\"} 0\n"));
        assert!(text.contains("# TYPE rmrls_expansion_batch_seconds histogram"));
        assert!(text.contains("# TYPE rmrls_cache_lookup_seconds histogram"));
        t.job_seconds.record(0.25);
        assert!(t.metrics_text().contains("rmrls_job_seconds_count 1\n"));
    }
}
