//! Logging a shared DNN prefix once (DESIGN.md §2 "Logging a shared prefix
//! once"), pinned from outside. A checkpoint whose leading layers have the
//! chain digest of a stored intermediate binds them to its chunks and
//! resumes its forward from the stored activation. The contract:
//! - a bound checkpoint reads back bit for bit what a store that logged
//!   only that checkpoint holds;
//! - nothing binds unless the weights and the dataset are really the same,
//!   and the source is still materialized at this log's scheme;
//! - purging or demoting the source afterwards moves no bound read, and the
//!   bound layers' index answers still equal the scan;
//! - chains survive persist / reopen.

use std::sync::Arc;

use mistique_core::{
    CaptureScheme, FetchStrategy, Mistique, MistiqueConfig, PlanChoice, ValueScheme,
};
use mistique_nn::{vgg16_cifar, ArchConfig, CifarLike};

/// Examples per dataset: two RowBlocks of [`RBS`] rows, the second short.
const N: usize = 24;
const RBS: usize = 16;
/// Layers of a VGG checkpoint that bind to an earlier one: the 18 frozen
/// layers and the flatten after them.
const SHARED: u64 = 19;

/// Pooling windows of 4 keep the early conv layers to a few hundred
/// columns; the flatten layer is stored unpooled, so forwards resume.
fn config() -> MistiqueConfig {
    MistiqueConfig {
        row_block_size: RBS,
        dnn_capture: CaptureScheme {
            value: ValueScheme::Full,
            pool_sigma: Some(4),
        },
        ..MistiqueConfig::default()
    }
}

fn open() -> (mistique_testkit::TempDir, Mistique) {
    let dir = mistique_testkit::tempdir().unwrap();
    let sys = Mistique::open(dir.path(), config()).unwrap();
    (dir, sys)
}

fn cifar(seed: u64) -> Arc<CifarLike> {
    Arc::new(CifarLike::generate(N, 10, seed))
}

fn vgg() -> Arc<ArchConfig> {
    Arc::new(vgg16_cifar(32))
}

/// Register and log one checkpoint; returns its id and the layers it bound.
fn log(
    sys: &mut Mistique,
    arch: &Arc<ArchConfig>,
    epoch: u32,
    data: &Arc<CifarLike>,
) -> (String, u64) {
    let before = bound_layers(sys);
    let id = sys
        .register_dnn(Arc::clone(arch), 9, epoch, Arc::clone(data), 8)
        .unwrap();
    sys.log_intermediates(&id).unwrap();
    (id, bound_layers(sys) - before)
}

fn bound_layers(sys: &Mistique) -> u64 {
    sys.obs_snapshot().counter("core.log.bound_layers")
}

/// Every layer of a model as read from the store: per column, the bits of
/// every value.
type Stored = Vec<(String, Vec<(String, Vec<u64>)>)>;

fn stored(sys: &mut Mistique, model: &str) -> Stored {
    sys.intermediates_of(model)
        .into_iter()
        .map(|id| {
            let frame = sys
                .fetch_with_strategy(&id, None, None, FetchStrategy::Read)
                .unwrap()
                .frame;
            let columns = frame
                .columns()
                .iter()
                .map(|c| {
                    let bits = c.data.to_f64().iter().map(|v| v.to_bits()).collect();
                    (c.name.clone(), bits)
                })
                .collect();
            (id, columns)
        })
        .collect()
}

/// What a store that logs only checkpoint `epoch` of `arch` holds for it.
fn logged_alone(arch: &Arc<ArchConfig>, epoch: u32, data: &Arc<CifarLike>) -> Stored {
    let (_dir, mut sys) = open();
    let (id, bound) = log(&mut sys, arch, epoch, data);
    assert_eq!(bound, 0, "a lone checkpoint has nothing to bind to");
    stored(&mut sys, &id)
}

#[test]
fn bound_checkpoints_read_as_if_logged_alone() {
    let (_dir, mut sys) = open();
    let (arch, data) = (vgg(), cifar(11));
    let (_, first) = log(&mut sys, &arch, 0, &data);
    assert_eq!(first, 0);
    for epoch in 1..3 {
        let (id, bound) = log(&mut sys, &arch, epoch, &data);
        assert_eq!(bound, SHARED, "epoch {epoch}");
        assert_eq!(
            stored(&mut sys, &id),
            logged_alone(&arch, epoch, &data),
            "epoch {epoch}"
        );
        // A bound layer takes its source's measured cost, so the planner
        // prices reading and re-running it as it did the source.
        let source = sys
            .metadata()
            .intermediate("CIFAR10_VGG16@epoch0.layer5")
            .unwrap();
        let bound = sys
            .metadata()
            .intermediate(&format!("{id}.layer5"))
            .unwrap();
        assert_eq!(bound.exec_time, source.exec_time);
        assert_eq!(bound.stored_bytes, source.stored_bytes);
    }
    sys.flush().unwrap();
    sys.store().check_invariants().unwrap();
}

#[test]
fn nothing_binds_when_a_weight_or_the_dataset_differs() {
    let data = cifar(11);
    // Layer 17 is a conv that trains in this variant: the chain names the
    // weights it holds, not the architecture's claim about them.
    let mut fewer = vgg16_cifar(32);
    fewer.name = "VGG_FEWER_FROZEN".to_string();
    fewer.frozen_prefix = 16;
    let fewer = Arc::new(fewer);
    let (_dir, mut sys) = open();
    log(&mut sys, &fewer, 0, &data);
    let (id, bound) = log(&mut sys, &fewer, 1, &data);
    assert_eq!(
        bound, 16,
        "binding stops at the first layer whose weights differ"
    );
    assert_eq!(stored(&mut sys, &id), logged_alone(&fewer, 1, &data));

    // Everything claims to be frozen, but the seed differs.
    let mut other_seed = vgg16_cifar(32);
    other_seed.name = "VGG_OTHER_SEED".to_string();
    other_seed.frozen_prefix = other_seed.layers.len();
    let (_dir, mut sys) = open();
    log(&mut sys, &vgg(), 0, &data);
    let id = sys
        .register_dnn(Arc::new(other_seed), 10, 0, Arc::clone(&data), 8)
        .unwrap();
    let before = bound_layers(&sys);
    sys.log_intermediates(&id).unwrap();
    assert_eq!(bound_layers(&sys), before, "other weights");

    // The same shape of dataset, other images.
    let (_dir, mut sys) = open();
    log(&mut sys, &vgg(), 0, &data);
    let (_, bound) = log(&mut sys, &vgg(), 1, &cifar(12));
    assert_eq!(bound, 0, "other dataset");
}

#[test]
fn nothing_binds_to_a_demoted_or_purged_source() {
    let (arch, data) = (vgg(), cifar(11));
    // Demoting layer 5 of the only source stops the bind before it.
    let (_dir, mut sys) = open();
    log(&mut sys, &arch, 0, &data);
    sys.demote_one_step("CIFAR10_VGG16@epoch0.layer5").unwrap();
    let (id, bound) = log(&mut sys, &arch, 1, &data);
    assert_eq!(bound, 4);
    assert_eq!(stored(&mut sys, &id), logged_alone(&arch, 1, &data));

    // Purging layer 1 leaves nothing to bind.
    let (_dir, mut sys) = open();
    log(&mut sys, &arch, 0, &data);
    sys.purge_intermediate("CIFAR10_VGG16@epoch0.layer1")
        .unwrap();
    let (id, bound) = log(&mut sys, &arch, 1, &data);
    assert_eq!(bound, 0);
    assert_eq!(stored(&mut sys, &id), logged_alone(&arch, 1, &data));
}

#[test]
fn a_bound_checkpoint_outlives_its_source() {
    let (arch, data) = (vgg(), cifar(11));
    let (_dir, mut sys) = open();
    log(&mut sys, &arch, 0, &data);
    let (id, bound) = log(&mut sys, &arch, 1, &data);
    assert_eq!(bound, SHARED);
    let want = logged_alone(&arch, 1, &data);

    // Demote half the source's shared layers and purge the rest, then
    // compact away every chunk nothing references.
    for layer in 1..=SHARED {
        let source = format!("CIFAR10_VGG16@epoch0.layer{layer}");
        if layer % 2 == 0 {
            sys.demote_one_step(&source).unwrap();
        } else {
            sys.purge_intermediate(&source).unwrap();
        }
    }
    sys.flush().unwrap();
    sys.store_mut().compact(1.0).unwrap();
    sys.store().check_invariants().unwrap();
    assert_eq!(stored(&mut sys, &id), want);

    // The copied indexes still answer top-k as the scan does.
    sys.cost_model_mut().read_bandwidth = 1e18;
    for layer in 1..=SHARED {
        let interm = format!("{id}.layer{layer}");
        let col = sys.metadata().intermediate(&interm).unwrap().columns[0].clone();
        let scan = sys
            .fetch_with_strategy(&interm, Some(&[col.as_str()]), None, FetchStrategy::Read)
            .unwrap()
            .frame;
        let mut expect: Vec<(usize, f64)> = scan.columns()[0]
            .data
            .to_f64()
            .into_iter()
            .enumerate()
            .collect();
        expect.sort_by(|a, b| b.1.total_cmp(&a.1));
        expect.truncate(5);
        let bits =
            |v: &[(usize, f64)]| v.iter().map(|&(r, x)| (r, x.to_bits())).collect::<Vec<_>>();
        let got = sys.topk(&interm, &col, 5).unwrap();
        assert_eq!(bits(&got), bits(&expect), "{interm}");
    }
    let indexed = sys
        .query_reports(usize::MAX)
        .iter()
        .filter(|r| r.plan == PlanChoice::IndexedRead)
        .count();
    assert_eq!(
        indexed as u64, SHARED,
        "every top-k was served by a copied index"
    );
}

#[test]
fn chains_survive_persist_and_reopen() {
    let (arch, data) = (vgg(), cifar(11));
    let dir = mistique_testkit::tempdir().unwrap();
    let mut sys = Mistique::open(dir.path(), config()).unwrap();
    log(&mut sys, &arch, 0, &data);
    sys.persist().unwrap();
    drop(sys);

    let mut sys = Mistique::reopen(dir.path(), config()).unwrap();
    let chain = sys
        .metadata()
        .intermediate("CIFAR10_VGG16@epoch0.layer3")
        .unwrap()
        .chain;
    assert!(chain.is_some(), "the chain is in the manifest");
    let (id, bound) = log(&mut sys, &arch, 1, &data);
    assert_eq!(bound, SHARED);
    assert_eq!(stored(&mut sys, &id), logged_alone(&arch, 1, &data));
}
