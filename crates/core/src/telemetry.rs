//! The engine side of the flight recorder (see `mistique_obs::timeline`):
//! burst-boundary capture hooks, lifecycle event emission, and the
//! [`Mistique::timeline`] query API.
//!
//! Telemetry is enabled by [`MistiqueConfig::telemetry_budget_bytes`] (on by
//! default with a 1 MiB ring; `0` disables it entirely). Segments are
//! written under `<store dir>/telemetry/` through the system's
//! [`StorageBackend`], so crash tests exercise the telemetry write path
//! with the same fault injection as the data path — but every telemetry
//! failure is swallowed and counted (`telemetry.write_errors`), never
//! surfaced to the operation that triggered the capture.
//!
//! Capture points:
//! - `log` — after every `log_intermediates` / `log_intermediates_parallel`
//! - `reclaim` — after every reclaim pass (with `reclaim.demote` /
//!   `reclaim.purge` / `compaction` events)
//! - `recovery` — after a `reopen` recovery pass (with a `recovery` event;
//!   this is also the counter-reset boundary)
//! - `plan.flip` / `drift` / `qcache.storm` — query-path anomalies observed
//!   by [`Mistique::push_report`](crate::system)
//! - `interval` — a periodic tick piggybacked on query traffic, at most
//!   once per [`INTERVAL_CAPTURE`]

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mistique_obs::{FlightRecorder, RecorderStats, Timeline};
use mistique_store::{StorageBackend, StoreSubdir, TELEMETRY_SUBDIR};

use crate::error::MistiqueError;
use crate::report::{PlanChoice, QueryReport};
use crate::system::{Mistique, MistiqueConfig};

/// Query-cache evictions within one storm window before a `qcache.storm`
/// event fires.
pub const QCACHE_STORM_EVICTIONS: u64 = 32;

/// Minimum spacing of `interval` captures (piggybacked on query traffic).
pub const INTERVAL_CAPTURE: Duration = Duration::from_secs(2);

/// Per-instance recorder state.
pub(crate) struct TelemetryState {
    pub(crate) recorder: FlightRecorder,
    /// Last Read/Rerun plan per intermediate, for flip detection.
    last_plan: HashMap<String, PlanChoice>,
    /// Whether the previous report was drift-flagged (rising-edge filter).
    drift_flagged: bool,
    /// Query-cache eviction count at the start of the current storm window.
    evict_mark: u64,
    /// When the last capture of any reason happened.
    last_capture: Instant,
}

impl TelemetryState {
    /// Best-effort construction: any I/O failure disables telemetry for the
    /// session rather than failing the open.
    pub(crate) fn create(
        config: &MistiqueConfig,
        backend: &Arc<dyn StorageBackend>,
        dir: &Path,
    ) -> Option<TelemetryState> {
        if config.telemetry_budget_bytes == 0 {
            return None;
        }
        let io = StoreSubdir::create(Arc::clone(backend), dir, TELEMETRY_SUBDIR).ok()?;
        Some(TelemetryState {
            recorder: FlightRecorder::open(Box::new(io), config.telemetry_budget_bytes),
            last_plan: HashMap::new(),
            drift_flagged: false,
            evict_mark: 0,
            last_capture: Instant::now(),
        })
    }
}

impl Mistique {
    /// Record a lifecycle event into the journal (buffered until the next
    /// capture). No-op when telemetry is disabled.
    pub(crate) fn telemetry_event(
        &mut self,
        kind: &str,
        intermediate: Option<&str>,
        details: Vec<(String, String)>,
    ) {
        if let Some(state) = self.telemetry.as_mut() {
            state.recorder.record_event(kind, intermediate, details);
        }
    }

    /// Capture a delta snapshot at a burst boundary. No-op when telemetry is
    /// disabled; all I/O errors are swallowed into `telemetry.write_errors`.
    pub(crate) fn telemetry_capture(&mut self, reason: &str) {
        if self.telemetry.is_none() {
            return;
        }
        let snap = self.obs_snapshot();
        let state = self.telemetry.as_mut().expect("checked above");
        state.recorder.capture(&snap, reason);
        state.last_capture = Instant::now();
    }

    /// Query-path hook: watch finished reports for plan flips, drift
    /// rising edges, and query-cache eviction storms, and keep the periodic
    /// `interval` capture alive under steady query traffic.
    pub(crate) fn telemetry_observe_report(&mut self, report: &QueryReport) {
        if self.telemetry.is_none() {
            return;
        }
        let evictions = self.obs.counter("qcache.evictions").get();
        type PendingEvent = (String, Option<String>, Vec<(String, String)>);
        let mut capture_reason: Option<&'static str> = None;
        let mut events: Vec<PendingEvent> = Vec::new();
        {
            let state = self.telemetry.as_mut().expect("checked above");
            // Plan flips between Read and Rerun (Cached hits don't count —
            // they say nothing about the cost model's read/rerun call).
            if matches!(report.plan, PlanChoice::Read | PlanChoice::Rerun) {
                let prev = state
                    .last_plan
                    .insert(report.intermediate.clone(), report.plan);
                if let Some(prev) = prev {
                    if prev != report.plan {
                        events.push((
                            "plan.flip".to_string(),
                            Some(report.intermediate.clone()),
                            vec![
                                ("from".to_string(), prev.name().to_string()),
                                ("to".to_string(), report.plan.name().to_string()),
                                ("query".to_string(), report.query.clone()),
                            ],
                        ));
                        capture_reason = Some("plan.flip");
                    }
                }
            }
            // Drift rising edge.
            if report.drift_flagged && !state.drift_flagged {
                let mut details = vec![("query".to_string(), report.query.clone())];
                if let Some(r) = report.drift_ratio {
                    details.push(("ratio".to_string(), format!("{r:.3}")));
                }
                events.push((
                    "drift.flagged".to_string(),
                    Some(report.intermediate.clone()),
                    details,
                ));
                capture_reason = capture_reason.or(Some("drift"));
            }
            state.drift_flagged = report.drift_flagged;
            // Query-cache eviction storm.
            if evictions.saturating_sub(state.evict_mark) >= QCACHE_STORM_EVICTIONS {
                events.push((
                    "qcache.storm".to_string(),
                    None,
                    vec![(
                        "evictions".to_string(),
                        (evictions - state.evict_mark).to_string(),
                    )],
                ));
                state.evict_mark = evictions;
                capture_reason = capture_reason.or(Some("qcache.storm"));
            }
            // Periodic tick under query traffic.
            if capture_reason.is_none() && state.last_capture.elapsed() >= INTERVAL_CAPTURE {
                capture_reason = Some("interval");
            }
        }
        for (kind, interm, details) in events {
            self.telemetry_event(&kind, interm.as_deref(), details);
        }
        if let Some(reason) = capture_reason {
            self.telemetry_capture(reason);
        }
    }

    /// Load the persisted telemetry timeline of this instance's directory:
    /// every surviving metric delta point and journal event, in sequence
    /// order. Unflushed (pending) events of the live recorder are included,
    /// stamped with the sequence the next capture will use.
    pub fn timeline(&self) -> Result<Timeline, MistiqueError> {
        let io = StoreSubdir::open_readonly(Arc::clone(&self.backend), &self.dir, TELEMETRY_SUBDIR);
        let mut tl = Timeline::load(&io).map_err(mistique_store::StoreError::Io)?;
        if let Some(state) = &self.telemetry {
            let pending = state.recorder.pending_events();
            if !pending.is_empty() {
                tl.events.extend(pending);
                tl.events.sort_by_key(|e| (e.snap_seq, e.t_ms));
            }
        }
        Ok(tl)
    }

    /// Load a timeline from a directory without opening the system (the
    /// `mistique timeline <dir>` entry point).
    pub fn load_timeline(dir: impl AsRef<Path>) -> Result<Timeline, MistiqueError> {
        let backend: Arc<dyn StorageBackend> = Arc::new(mistique_store::RealFs);
        let io = StoreSubdir::open_readonly(backend, dir.as_ref(), TELEMETRY_SUBDIR);
        Timeline::load(&io).map_err(|e| mistique_store::StoreError::Io(e).into())
    }

    /// Flight-recorder health counters, when telemetry is enabled.
    pub fn telemetry_stats(&self) -> Option<RecorderStats> {
        self.telemetry.as_ref().map(|s| s.recorder.stats())
    }
}
