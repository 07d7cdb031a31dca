//! The cost model (Sec 5): when to re-run a model vs read a stored
//! intermediate (Eq 1–4), and when to materialize (Eq 5's γ) — plus a
//! [`DriftMonitor`] watching how well those predictions track reality.

use std::collections::HashMap;
use std::time::Duration;

use crate::capture::ValueScheme;
use crate::metadata::{IntermediateMeta, ModelKind, ModelMeta};

/// Cost-model parameters. Read bandwidth is calibrated online from observed
/// reads (an exponentially-weighted moving average), so the model's
/// predictions track the machine it runs on — this is what Fig 8b validates
/// against Fig 8a.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Effective bytes/second for reading + decompressing stored chunks
    /// (`rho_d` in Eq 4).
    pub read_bandwidth: f64,
    /// Extra per-value reconstruction factor for KBIT reads (code →
    /// representative lookup); the paper observes 8BIT_QT reads are the
    /// slowest for this reason.
    pub kbit_recon_factor: f64,
    /// EWMA smoothing for calibration updates, in `(0, 1]`.
    pub ewma_alpha: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            read_bandwidth: 400.0 * 1024.0 * 1024.0, // pre-calibration guess
            kbit_recon_factor: 3.0,
            ewma_alpha: 0.3,
        }
    }
}

impl CostModel {
    /// Predicted seconds to read `n_ex` rows of an intermediate (Eq 4):
    /// `n_ex * sizeof(ex) / rho_d`, with the KBIT reconstruction factor
    /// folded into the constant.
    pub fn t_read(&self, meta: &IntermediateMeta, n_ex: usize) -> f64 {
        let bytes = meta.bytes_per_row() * n_ex as f64;
        let factor = match meta.scheme.value {
            ValueScheme::Kbit { .. } => self.kbit_recon_factor,
            _ => 1.0,
        };
        bytes * factor / self.read_bandwidth
    }

    /// Predicted seconds for an **indexed** read (the `IndexedRead` plan):
    /// Eq 4 restricted to the rows the index could not prune — the rows of
    /// the RowBlocks that survive zone-map pruning, or the `k` list entries
    /// of a list-served top-k. Always `≤ t_read(meta, n_rows)`, which is
    /// why the planner only refines a Read decision into an IndexedRead,
    /// never overrides a Rerun one.
    pub fn t_indexed_read(&self, meta: &IntermediateMeta, rows_scanned: usize) -> f64 {
        self.t_read(meta, rows_scanned)
    }

    /// Predicted seconds to re-run the model up to this intermediate for
    /// `n_ex` examples (Eq 2/3). For TRAD models the pipeline always runs
    /// over its full tables, so `n_ex` is ignored; for DNNs the measured
    /// cumulative forward time scales linearly in `n_ex` plus the fixed
    /// model-load cost.
    pub fn t_rerun(&self, model: &ModelMeta, meta: &IntermediateMeta, n_ex: usize) -> f64 {
        let cum = meta.cum_exec_time.as_secs_f64();
        match model.kind {
            ModelKind::Trad => model.model_load.as_secs_f64() + cum,
            ModelKind::Dnn => {
                let per_ex = if model.n_examples > 0 {
                    cum / model.n_examples as f64
                } else {
                    0.0
                };
                model.model_load.as_secs_f64() + per_ex * n_ex as f64
            }
        }
    }

    /// The read-vs-rerun decision (Sec 5.1): read iff `t_rerun >= t_read`.
    pub fn should_read(&self, model: &ModelMeta, meta: &IntermediateMeta, n_ex: usize) -> bool {
        self.t_rerun(model, meta, n_ex) >= self.t_read(meta, n_ex)
    }

    /// γ (Eq 5): query seconds saved per byte of storage if this
    /// intermediate is (or stays) materialized, given its query count.
    /// Computed at `n_ex = TOTAL_EXAMPLES` as the paper specifies.
    ///
    /// Degenerate inputs (zero stored bytes, non-finite timings from a
    /// corrupted meta) yield 0.0 rather than inf/NaN, so γ comparisons in
    /// the materialization and reclamation paths always total-order.
    pub fn gamma(&self, model: &ModelMeta, meta: &IntermediateMeta, stored_bytes: u64) -> f64 {
        self.gamma_at(model, meta, meta.n_queries, stored_bytes)
    }

    /// [`CostModel::gamma`] at an explicit query count — adaptive
    /// materialization projects the count including the query in flight.
    pub fn gamma_at(
        &self,
        model: &ModelMeta,
        meta: &IntermediateMeta,
        n_queries: u64,
        stored_bytes: u64,
    ) -> f64 {
        if stored_bytes == 0 {
            return 0.0;
        }
        let n_ex = model.n_examples;
        let saving = self.t_rerun(model, meta, n_ex) - self.t_read(meta, n_ex);
        if !(saving > 0.0 && saving.is_finite()) {
            return 0.0;
        }
        let g = saving * n_queries as f64 / stored_bytes as f64;
        if g.is_finite() {
            g
        } else {
            0.0
        }
    }

    /// γ against the intermediate's *current* query count and stored size,
    /// with the `stored_bytes.max(1)` guard applied — the one entry point
    /// every materialization/demotion decision should use so a zero-byte
    /// record can never divide γ by zero.
    pub fn gamma_now(&self, model: &ModelMeta, meta: &IntermediateMeta) -> f64 {
        self.gamma(model, meta, meta.stored_bytes.max(1))
    }

    /// Fold an observed read (bytes, wall time) into the calibrated
    /// bandwidth.
    pub fn observe_read(&mut self, bytes: u64, elapsed: Duration) {
        let secs = elapsed.as_secs_f64();
        if secs <= 0.0 || bytes == 0 {
            return;
        }
        let observed = bytes as f64 / secs;
        self.read_bandwidth =
            self.ewma_alpha * observed + (1.0 - self.ewma_alpha) * self.read_bandwidth;
    }
}

/// The engine's drift tolerance: a query class whose smoothed
/// predicted/actual ratio leaves `[1/4, 4]` is flagged as miscalibrated.
pub const DRIFT_TOLERANCE: f64 = 4.0;

/// Tracks cost-model calibration per query class (e.g. the plan chosen:
/// `read` or `rerun`): an EWMA of the predicted/actual time ratio. A
/// calibrated model keeps the ratio near 1; once the smoothed ratio of any
/// class leaves `[1/tolerance, tolerance]`, that class is flagged and the
/// system raises the `cost_model.drift` gauge (see `Mistique`'s query
/// reports).
#[derive(Clone, Debug)]
pub struct DriftMonitor {
    /// EWMA smoothing factor in `(0, 1]`; larger reacts faster.
    alpha: f64,
    /// Flag once the smoothed ratio drifts beyond this factor (≥ 1).
    tolerance: f64,
    /// Smoothed predicted/actual ratio per query class.
    classes: HashMap<String, f64>,
}

impl Default for DriftMonitor {
    fn default() -> Self {
        DriftMonitor::new(0.2, DRIFT_TOLERANCE)
    }
}

impl DriftMonitor {
    /// A monitor with the given EWMA factor and tolerance (both clamped to
    /// sane ranges).
    pub fn new(alpha: f64, tolerance: f64) -> DriftMonitor {
        DriftMonitor {
            alpha: alpha.clamp(f64::MIN_POSITIVE, 1.0),
            tolerance: if tolerance.is_finite() {
                tolerance.max(1.0)
            } else {
                DRIFT_TOLERANCE
            },
            classes: HashMap::new(),
        }
    }

    /// The configured tolerance factor.
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// Fold one (predicted seconds, actual wall time) observation into a
    /// query class; returns `(smoothed_ratio, flagged)`. Non-positive
    /// predictions or instantaneous actuals are skipped (ratios would be
    /// meaningless), returning the class's current state.
    pub fn observe(&mut self, class: &str, predicted_s: f64, actual: Duration) -> (f64, bool) {
        let actual_s = actual.as_secs_f64();
        if !(predicted_s > 0.0 && actual_s > 0.0 && predicted_s.is_finite()) {
            let current = self.ratio(class).unwrap_or(1.0);
            return (current, self.out_of_tolerance(current));
        }
        let ratio = predicted_s / actual_s;
        // A finite prediction over a denormal-small actual can still divide
        // to inf; folding that into the EWMA would poison the class forever
        // (every later smoothed value stays inf). Skip such samples too.
        if !ratio.is_finite() {
            let current = self.ratio(class).unwrap_or(1.0);
            return (current, self.out_of_tolerance(current));
        }
        let smoothed = match self.classes.get(class) {
            Some(&prev) => self.alpha * ratio + (1.0 - self.alpha) * prev,
            None => ratio,
        };
        self.classes.insert(class.to_string(), smoothed);
        (smoothed, self.out_of_tolerance(smoothed))
    }

    fn out_of_tolerance(&self, ratio: f64) -> bool {
        ratio > self.tolerance || ratio < 1.0 / self.tolerance
    }

    /// Smoothed predicted/actual ratio of one class, if observed.
    pub fn ratio(&self, class: &str) -> Option<f64> {
        self.classes.get(class).copied()
    }

    /// Worst symmetric drift factor across classes: 1.0 means perfectly
    /// calibrated, and over- and under-prediction count the same (a ratio of
    /// 0.25 drifts as far as 4.0).
    pub fn worst_drift(&self) -> f64 {
        self.classes
            .values()
            .map(|&r| {
                if r >= 1.0 {
                    r
                } else {
                    1.0 / r.max(f64::MIN_POSITIVE)
                }
            })
            .fold(1.0, f64::max)
    }

    /// Whether any class is currently out of tolerance.
    pub fn any_flagged(&self) -> bool {
        self.worst_drift() > self.tolerance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::CaptureScheme;

    fn model(kind: ModelKind, n_examples: usize, load_ms: u64) -> ModelMeta {
        ModelMeta {
            id: "m".into(),
            kind,
            n_stages: 5,
            model_load: Duration::from_millis(load_ms),
            n_examples,
            intermediates: vec![],
        }
    }

    fn interm(cum_ms: u64, stored_bytes: u64, n_rows: usize) -> IntermediateMeta {
        IntermediateMeta {
            id: "m.i".into(),
            model_id: "m".into(),
            stage_index: 1,
            n_rows,
            columns: vec![],
            scheme: CaptureScheme::full(),
            materialized: true,
            stored_bytes,
            exec_time: Duration::from_millis(cum_ms),
            cum_exec_time: Duration::from_millis(cum_ms),
            n_queries: 0,
            quantizer: None,
            threshold: None,
            shape: None,
            delta_encoded: false,
            chain: None,
        }
    }

    #[test]
    fn read_time_scales_with_rows_and_bytes() {
        let cm = CostModel {
            read_bandwidth: 1000.0,
            ..Default::default()
        };
        let m = interm(0, 8000, 1000); // 8 bytes/row
        assert!((cm.t_read(&m, 1000) - 8.0).abs() < 1e-9);
        assert!((cm.t_read(&m, 500) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn indexed_read_is_never_costlier_than_the_full_scan() {
        let cm = CostModel {
            read_bandwidth: 1000.0,
            ..Default::default()
        };
        let m = interm(0, 8000, 1000);
        let full = cm.t_read(&m, 1000);
        // Pruning to a fraction of the rows prices proportionally cheaper.
        assert!((cm.t_indexed_read(&m, 250) - full / 4.0).abs() < 1e-9);
        for rows in [0usize, 1, 10, 500, 1000] {
            assert!(cm.t_indexed_read(&m, rows) <= full + 1e-12, "rows={rows}");
        }
    }

    #[test]
    fn kbit_reads_pay_reconstruction() {
        let cm = CostModel {
            read_bandwidth: 1000.0,
            kbit_recon_factor: 3.0,
            ..Default::default()
        };
        let mut m = interm(0, 1000, 1000);
        let full = cm.t_read(&m, 1000);
        m.scheme = CaptureScheme {
            value: ValueScheme::Kbit { bits: 8 },
            pool_sigma: None,
        };
        assert!((cm.t_read(&m, 1000) - 3.0 * full).abs() < 1e-9);
    }

    #[test]
    fn dnn_rerun_scales_linearly_with_examples() {
        let cm = CostModel::default();
        let model = model(ModelKind::Dnn, 1000, 1200); // 1.2s load, as the paper
        let m = interm(5000, 0, 1000); // 5s for 1000 examples => 5ms/ex
        let t100 = cm.t_rerun(&model, &m, 100);
        let t1000 = cm.t_rerun(&model, &m, 1000);
        assert!((t100 - (1.2 + 0.5)).abs() < 1e-9);
        assert!((t1000 - (1.2 + 5.0)).abs() < 1e-9);
    }

    #[test]
    fn trad_rerun_ignores_n_ex() {
        let cm = CostModel::default();
        let model = model(ModelKind::Trad, 1000, 0);
        let m = interm(750, 0, 1000);
        assert_eq!(cm.t_rerun(&model, &m, 1), cm.t_rerun(&model, &m, 1000));
    }

    #[test]
    fn decision_flips_with_intermediate_size() {
        // Big, cheap-to-recreate intermediate (Layer1-style): re-run wins.
        let cm = CostModel {
            read_bandwidth: 1000.0,
            ..Default::default()
        };
        let model = model(ModelKind::Dnn, 1000, 0);
        let big_cheap = interm(10, 1_000_000, 1000); // 1000 B/row, 0.01ms/ex
        assert!(!cm.should_read(&model, &big_cheap, 1000));
        // Small, expensive intermediate (deep layer): read wins.
        let small_deep = interm(60_000, 1000, 1000); // 1 B/row, 60ms/ex
        assert!(cm.should_read(&model, &small_deep, 1000));
    }

    #[test]
    fn gamma_grows_with_queries_and_shrinks_with_size() {
        let cm = CostModel {
            read_bandwidth: 1e9,
            ..Default::default()
        };
        let model = model(ModelKind::Trad, 1000, 0);
        let mut m = interm(1000, 1000, 1000);
        m.n_queries = 1;
        let g1 = cm.gamma(&model, &m, 1000);
        m.n_queries = 10;
        let g10 = cm.gamma(&model, &m, 1000);
        assert!(g10 > g1 * 9.9);
        let g_big = cm.gamma(&model, &m, 1_000_000);
        assert!(g_big < g10 / 100.0);
        assert_eq!(cm.gamma(&model, &m, 0), 0.0);
    }

    #[test]
    fn calibration_moves_bandwidth_toward_observations() {
        let mut cm = CostModel {
            read_bandwidth: 100.0,
            ewma_alpha: 0.5,
            ..Default::default()
        };
        cm.observe_read(1000, Duration::from_secs(1)); // observed 1000 B/s
        assert!((cm.read_bandwidth - 550.0).abs() < 1e-9);
        cm.observe_read(0, Duration::from_secs(1)); // ignored
        assert!((cm.read_bandwidth - 550.0).abs() < 1e-9);
    }

    #[test]
    fn calibration_converges_to_steady_observed_bandwidth() {
        let mut cm = CostModel::default(); // 400 MiB/s pre-calibration guess
        let start = cm.read_bandwidth;
        // Steady stream of reads at 100 MB/s, far from the initial guess.
        let target = 1e8;
        for _ in 0..50 {
            cm.observe_read(1_000_000, Duration::from_millis(10));
        }
        assert!(
            (cm.read_bandwidth - target).abs() / target < 1e-3,
            "bandwidth {} did not converge to {target} from {start}",
            cm.read_bandwidth
        );
        // Convergence is monotone-stable: further folds stay put.
        cm.observe_read(1_000_000, Duration::from_millis(10));
        assert!((cm.read_bandwidth - target).abs() / target < 1e-3);
    }

    #[test]
    fn drift_monitor_stays_quiet_when_calibrated() {
        let mut dm = DriftMonitor::new(0.3, 4.0);
        for _ in 0..20 {
            // Predictions within 2x of actual: inside tolerance.
            let (_, flagged) = dm.observe("read", 0.002, Duration::from_millis(1));
            assert!(!flagged);
        }
        assert!(!dm.any_flagged());
        assert!(dm.worst_drift() <= 4.0);
        assert!((dm.ratio("read").unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn drift_monitor_flags_miscalibrated_model() {
        // A model predicting 100x the actual time: the very first
        // observation seeds the EWMA at ratio 100, far past tolerance.
        let mut dm = DriftMonitor::new(0.3, 4.0);
        let (ratio, flagged) = dm.observe("read", 0.1, Duration::from_millis(1));
        assert!((ratio - 100.0).abs() < 1e-9);
        assert!(flagged);
        assert!(dm.any_flagged());
        assert!(dm.worst_drift() > 4.0);
    }

    #[test]
    fn drift_is_symmetric_for_underprediction() {
        // Predicting 100x too LITTLE drifts just as far.
        let mut dm = DriftMonitor::new(0.3, 4.0);
        let (ratio, flagged) = dm.observe("rerun", 0.00001, Duration::from_millis(1));
        assert!(ratio < 1.0);
        assert!(flagged);
        assert!((dm.worst_drift() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn drift_classes_are_independent_and_recover() {
        let mut dm = DriftMonitor::new(0.5, 4.0);
        dm.observe("rerun", 1.0, Duration::from_millis(10)); // ratio 100
        assert!(dm.any_flagged());
        assert_eq!(dm.ratio("read"), None);
        // Calibrated observations pull the class back inside tolerance.
        let mut flagged = true;
        for _ in 0..12 {
            (_, flagged) = dm.observe("rerun", 0.01, Duration::from_millis(10));
        }
        assert!(!flagged, "EWMA recovered: {:?}", dm.ratio("rerun"));
        assert!(!dm.any_flagged());
    }

    #[test]
    fn zero_example_model_yields_finite_costs_and_gamma() {
        // A DNN model registered with 0 examples must not push inf/NaN into
        // t_rerun (cum / n_examples) or γ.
        let cm = CostModel::default();
        let model = model(ModelKind::Dnn, 0, 1200);
        let mut m = interm(5000, 4096, 1000);
        m.n_queries = 3;
        let t = cm.t_rerun(&model, &m, 1000);
        assert!(t.is_finite());
        assert!((t - 1.2).abs() < 1e-9, "load cost only, no per-ex term");
        let g = cm.gamma(&model, &m, m.stored_bytes);
        assert!(g.is_finite());
        assert!(g >= 0.0);
    }

    #[test]
    fn gamma_now_guards_zero_stored_bytes() {
        let cm = CostModel {
            read_bandwidth: 1e9,
            ..Default::default()
        };
        let model = model(ModelKind::Trad, 1000, 0);
        let mut m = interm(1000, 0, 1000); // zero stored bytes on record
        m.n_queries = 5;
        let g = cm.gamma_now(&model, &m);
        assert!(g.is_finite(), "max(1) guard keeps γ finite");
        assert!(g > 0.0, "cheap-to-read intermediate still scores");
        // And gamma_now matches the guarded explicit call.
        assert_eq!(g, cm.gamma(&model, &m, 1));
    }

    #[test]
    fn gamma_rejects_nonfinite_savings() {
        let cm = CostModel {
            read_bandwidth: 1e9,
            ..Default::default()
        };
        let model = model(ModelKind::Trad, 1000, 0);
        let mut m = interm(1000, 1000, 1000);
        m.n_queries = 2;
        m.cum_exec_time = Duration::MAX; // absurd meta: t_rerun overflows
        let g = cm.gamma(&model, &m, 1000);
        assert!(g.is_finite(), "γ never propagates inf: {g}");
    }

    #[test]
    fn drift_skips_infinite_ratio_observations() {
        // Regression: a finite positive prediction over a denormal-small
        // actual divides to inf; folding it in would poison the EWMA.
        let mut dm = DriftMonitor::new(0.3, 4.0);
        dm.observe("read", 0.002, Duration::from_millis(1)); // ratio 2
        let tiny = Duration::from_nanos(1);
        let (ratio, _) = dm.observe("read", 1e300, tiny); // 1e300/1e-9 = inf
        assert!(ratio.is_finite());
        assert!((ratio - 2.0).abs() < 1e-9, "EWMA untouched by inf sample");
        assert!(dm.worst_drift().is_finite());
        // Later good observations still fold in normally.
        let (r2, _) = dm.observe("read", 0.002, Duration::from_millis(1));
        assert!(r2.is_finite() && (r2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn drift_skips_degenerate_observations() {
        let mut dm = DriftMonitor::new(0.3, 4.0);
        let (ratio, flagged) = dm.observe("read", 0.0, Duration::from_millis(1));
        assert_eq!(ratio, 1.0);
        assert!(!flagged);
        let (_, flagged) = dm.observe("read", 1.0, Duration::ZERO);
        assert!(!flagged);
        assert_eq!(dm.ratio("read"), None, "nothing was folded in");
    }
}
