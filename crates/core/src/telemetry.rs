//! The engine side of the flight recorder (see `mistique_obs::timeline`):
//! burst-boundary capture hooks and the [`Mistique::timeline`] query API.
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
//! - `reclaim` — after every reclaim pass (its ladder steps and compaction
//!   are effects on the audit record of the operation that ran it)
//! - `recovery` — after a `reopen` recovery pass; the point carries the
//!   pass's `store.recovery.*` counters and is the counter-reset boundary
//! - `interval` — a periodic tick piggybacked on query traffic, at most
//!   once per [`INTERVAL_CAPTURE`]

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mistique_obs::{FlightRecorder, RecorderStats, Timeline};
use mistique_store::{StorageBackend, StoreSubdir, TELEMETRY_SUBDIR};

use crate::error::MistiqueError;
use crate::system::{Mistique, MistiqueConfig};

/// Minimum spacing of `interval` captures (piggybacked on query traffic).
pub const INTERVAL_CAPTURE: Duration = Duration::from_secs(2);

/// Per-instance recorder state.
pub(crate) struct TelemetryState {
    pub(crate) recorder: FlightRecorder,
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
            last_capture: Instant::now(),
        })
    }
}

impl Mistique {
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

    /// Query-path hook: keep the periodic `interval` capture alive under
    /// steady query traffic.
    pub(crate) fn telemetry_tick(&mut self) {
        if self
            .telemetry
            .as_ref()
            .is_some_and(|state| state.last_capture.elapsed() >= INTERVAL_CAPTURE)
        {
            self.telemetry_capture("interval");
        }
    }

    /// Load the persisted telemetry timeline of this instance's directory:
    /// every surviving metric delta point, in sequence order.
    pub fn timeline(&self) -> Result<Timeline, MistiqueError> {
        load_timeline_from(Arc::clone(&self.backend), &self.dir)
    }

    /// Load a timeline from a directory without opening the system (the
    /// `mistique timeline <dir>` entry point).
    pub fn load_timeline(dir: impl AsRef<Path>) -> Result<Timeline, MistiqueError> {
        load_timeline_from(Arc::new(mistique_store::RealFs), dir.as_ref())
    }

    /// Flight-recorder health counters, when telemetry is enabled.
    pub fn telemetry_stats(&self) -> Option<RecorderStats> {
        self.telemetry.as_ref().map(|s| s.recorder.stats())
    }
}

fn load_timeline_from(
    backend: Arc<dyn StorageBackend>,
    dir: &Path,
) -> Result<Timeline, MistiqueError> {
    let io = StoreSubdir::open_readonly(backend, dir, TELEMETRY_SUBDIR);
    Timeline::load(&io).map_err(|e| mistique_store::StoreError::Io(e).into())
}
