//! Differential harness for the zone-map / max-activation index: every
//! Diagnostics query (topk, select_where_gt, get_rows, get_intermediate)
//! must return bit-identical results with the index on and off, over a
//! mixed TRAD + DNN workload, at every `read_parallelism` setting, and
//! after a reclaim pass demotes the indexed intermediates down the
//! quantization ladder. The index is a pure accelerator: it may change
//! plans, never answers.

use std::sync::Arc;

use mistique_core::{Mistique, MistiqueConfig, PlanChoice, StorageStrategy};
use mistique_nn::{simple_cnn, CifarLike};
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;

/// Build a mixed TRAD + DNN system over deterministic data. `top_m = 0`
/// disables the index; both variants otherwise share every knob, so the
/// stored bytes are identical and any divergence is the index's fault.
fn build(top_m: usize) -> (mistique_testkit::TempDir, Mistique, Vec<String>) {
    let dir = mistique_testkit::tempdir().unwrap();
    let config = MistiqueConfig {
        row_block_size: 32,
        storage: StorageStrategy::Dedup,
        min_read_bytes_per_worker: 0,
        index_top_m: top_m,
        ..MistiqueConfig::default()
    };
    let mut sys = Mistique::open(dir.path(), config).unwrap();
    let trad = Arc::new(ZillowData::generate(200, 1));
    let tid = sys
        .register_trad(zillow_pipelines().remove(0), trad)
        .unwrap();
    let cifar = Arc::new(CifarLike::generate(24, 10, 7));
    let did = sys
        .register_dnn(Arc::new(simple_cnn(24)), 3, 0, cifar, 8)
        .unwrap();
    sys.log_intermediates_parallel(&[&tid, &did]).unwrap();
    let mut interms = sys.intermediates_of(&tid);
    interms.extend(sys.intermediates_of(&did));
    (dir, sys, interms)
}

/// A replay's transcript and the number of its fetches served by a re-run.
#[derive(Debug, PartialEq)]
struct Replay {
    transcript: Vec<String>,
    reruns: u64,
}

/// Replay the full query mix against one system and render every result in
/// a bit-exact printable form (f64s as u64 bit patterns), so transcripts
/// can be compared across systems and worker counts with `assert_eq!`.
///
/// Reads must always beat re-runs, so that the indexed fast path — which
/// only serves when the planner would have chosen Read — is open, and so
/// that a re-run (which serves full precision) never stands in for a read
/// of a demoted scheme. Each read folds its measured bandwidth into the
/// cost model, so the pin is re-set before every intermediate's queries,
/// and the re-run count shows that the plans held.
fn replay(sys: &mut Mistique, interms: &[String], workers: usize) -> Replay {
    sys.set_read_parallelism(workers);
    sys.store_mut().clear_read_cache();
    let reruns_before = reruns(sys);
    let mut out = Vec::new();
    for interm in interms {
        sys.cost_model_mut().read_bandwidth = 1e18;
        let meta = sys.metadata().intermediate(interm).unwrap().clone();
        let col = meta.columns[0].clone();

        // Thresholds derived from the data itself are identical on both
        // systems because the logged values are identical.
        let full = sys
            .get_intermediate(interm, Some(&[col.as_str()]), None)
            .unwrap();
        let vals = full.frame.columns()[0].data.to_f64();
        let vmax = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let vmin = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let mid = vmin + (vmax - vmin) / 2.0;

        // k below, at, and above the max-activation list length, so both
        // the list-served path and the refusal-to-scan fallback replay.
        for k in [1usize, 7, 50] {
            let top = sys.topk(interm, &col, k).unwrap();
            let bits: Vec<(usize, u64)> = top.iter().map(|(r, v)| (*r, v.to_bits())).collect();
            out.push(format!("topk {interm} {col} {k}: {bits:?}"));
        }
        for (label, t) in [("below", vmin - 1.0), ("mid", mid), ("above", vmax)] {
            let rows = sys.select_where_gt(interm, &col, t).unwrap();
            out.push(format!("gt {interm} {col} {label}: {rows:?}"));
        }
        let picks = [0, meta.n_rows / 2, meta.n_rows - 1];
        let gathered = sys.get_rows(interm, &picks, None).unwrap();
        out.push(format!("rows {interm}: {:?}", frame_bits(&gathered.frame)));
        let whole = sys.get_intermediate(interm, None, None).unwrap();
        out.push(format!("full {interm}: {:?}", frame_bits(&whole.frame)));
    }
    Replay {
        transcript: out,
        reruns: reruns(sys) - reruns_before,
    }
}

/// Fetches served by a re-run so far.
fn reruns(sys: &Mistique) -> u64 {
    sys.obs().counter("decision.rerun.count").get()
}

fn frame_bits(frame: &mistique_dataframe::DataFrame) -> Vec<(String, Vec<u64>)> {
    frame
        .columns()
        .iter()
        .map(|c| {
            (
                c.name.clone(),
                c.data.to_f64().iter().map(|v| v.to_bits()).collect(),
            )
        })
        .collect()
}

fn count_plans(sys: &Mistique, plan: PlanChoice) -> usize {
    sys.query_reports(usize::MAX)
        .iter()
        .filter(|r| r.plan == plan)
        .count()
}

#[test]
fn mixed_workload_is_bit_identical_at_every_worker_count() {
    let (_d_on, mut on, interms) = build(16);
    let (_d_off, mut off, interms_off) = build(0);
    assert_eq!(interms, interms_off, "identical registration order");

    let reference = replay(&mut off, &interms, 1);
    for workers in [1usize, 2, 4, 0] {
        let got_on = replay(&mut on, &interms, workers);
        let got_off = replay(&mut off, &interms, workers);
        assert_eq!(got_on, reference, "indexed diverged at workers={workers}");
        assert_eq!(got_off, reference, "scan diverged at workers={workers}");
    }

    // The harness is not vacuous: the indexed system actually served
    // indexed plans, and the scan system never did.
    assert!(
        count_plans(&on, PlanChoice::IndexedRead) > 0,
        "index never fired — the differential test compared scan to scan"
    );
    assert_eq!(count_plans(&off, PlanChoice::IndexedRead), 0);
}

#[test]
fn equivalence_survives_reclaim_demotion_down_the_ladder() {
    let (_d_on, mut on, interms) = build(16);
    let (_d_off, mut off, _) = build(0);

    // The same absolute budget drives both systems down the same ladder
    // steps: data accounting is index-free, and the indexed system sheds
    // its index bytes in a separate pre-phase.
    let budget = off.storage_budget_used() / 3;
    let rep_on = on.reclaim_to(budget).unwrap();
    let rep_off = off.reclaim_to(budget).unwrap();
    assert!(rep_on.within_budget() && rep_off.within_budget());
    assert!(
        rep_off.demotions.iter().any(|d| d.from != "INDEX"),
        "budget must force real ladder steps for the test to mean anything"
    );

    let reference = replay(&mut off, &interms, 1);
    for workers in [1usize, 2, 4, 0] {
        let got_on = replay(&mut on, &interms, workers);
        assert_eq!(
            got_on, reference,
            "indexed reads over demoted schemes diverged at workers={workers}"
        );
    }
}

#[test]
fn dropping_the_index_midstream_changes_no_answers() {
    let (_d, mut sys, interms) = build(16);
    let before = replay(&mut sys, &interms, 1);
    assert!(
        count_plans(&sys, PlanChoice::IndexedRead) > 0,
        "precondition: index was serving"
    );
    let drop_seq = sys.last_report().unwrap().seq;
    for interm in &interms {
        sys.drop_index(interm);
    }
    let after = replay(&mut sys, &interms, 1);
    assert_eq!(before, after, "index drop must be invisible to answers");
    let served_after_drop = sys
        .query_reports(usize::MAX)
        .iter()
        .filter(|r| r.seq > drop_seq && r.plan == PlanChoice::IndexedRead)
        .count();
    assert_eq!(
        served_after_drop, 0,
        "dropped index must stop serving plans"
    );
}

#[test]
fn reopened_store_serves_identical_answers_from_the_persisted_index() {
    let dir = mistique_testkit::tempdir().unwrap();
    let config = MistiqueConfig {
        row_block_size: 32,
        storage: StorageStrategy::Dedup,
        index_top_m: 16,
        ..MistiqueConfig::default()
    };
    let (interms, reference) = {
        let mut sys = Mistique::open(dir.path(), config.clone()).unwrap();
        let data = Arc::new(ZillowData::generate(200, 1));
        let id = sys
            .register_trad(zillow_pipelines().remove(0), data)
            .unwrap();
        sys.log_intermediates(&id).unwrap();
        let interms = sys.intermediates_of(&id);
        sys.persist().unwrap();
        let reference = replay(&mut sys, &interms, 1);
        (interms, reference)
    };
    let mut sys = Mistique::reopen(dir.path(), config).unwrap();
    let got = replay(&mut sys, &interms, 1);
    assert_eq!(got, reference);
    assert!(
        count_plans(&sys, PlanChoice::IndexedRead) > 0,
        "the lazily loaded on-disk index must serve after reopen"
    );
}
