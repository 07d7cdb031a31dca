//! DNN diagnosis: log hidden-layer activations of two CIFAR10_VGG16
//! checkpoints under the default pool(2) scheme, then run the paper's
//! flagship analyses — SVCCA between layers and checkpoints (Sec 1.1),
//! per-class VIS averages (ActiVis), and NetDissect concept scoring.
//!
//! ```sh
//! cargo run --release --example cnn_activations
//! ```

use std::sync::Arc;

use mistique_core::{Mistique, MistiqueConfig};
use mistique_nn::{vgg16_cifar, CifarLike};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = mistique_testkit::tempdir()?;
    let mut mistique = Mistique::open(dir.path(), MistiqueConfig::default())?;

    // 128 synthetic CIFAR-like images, VGG16 at 1/16 channel scale.
    let data = Arc::new(CifarLike::generate(128, 10, 7));
    let arch = Arc::new(vgg16_cifar(16));

    // Two checkpoints: epoch 0 and epoch 9 (conv stack frozen, head trains).
    let e0 = mistique.register_dnn(Arc::clone(&arch), 11, 0, Arc::clone(&data), 64)?;
    let e9 = mistique.register_dnn(Arc::clone(&arch), 11, 9, Arc::clone(&data), 64)?;
    mistique.log_intermediates(&e0)?;
    mistique.log_intermediates(&e9)?;

    let stats = mistique.store().stats();
    println!(
        "logged 2 checkpoints x {} layers; dedup collapsed {} chunks \
         (the frozen conv stack is stored once)",
        mistique.intermediates_of(&e0).len(),
        stats.dedup_hits
    );

    let n_layers = mistique.intermediates_of(&e0).len();

    // SVCCA: how similar is each layer's representation to the logits?
    println!("\nSVCCA(layer, logits) at epoch 0 — deeper layers align more:");
    for layer in [1usize, 6, 11, 16, n_layers - 1] {
        let r = mistique.svcca(
            &format!("{e0}.layer{layer}"),
            &format!("{e0}.layer{n_layers}"),
            0.99,
        )?;
        println!(
            "  layer{layer:>2} vs logits: mean cca = {:.3} (ranks {} x {})",
            r.mean_correlation(),
            r.rank_a,
            r.rank_b
        );
    }

    // SVCCA across checkpoints: frozen layers identical, head diverges.
    println!("\nSVCCA(epoch0, epoch9) per layer — training dynamics:");
    for layer in [1usize, 11, n_layers] {
        let r = mistique.svcca(
            &format!("{e0}.layer{layer}"),
            &format!("{e9}.layer{layer}"),
            0.99,
        )?;
        println!("  layer{layer:>2}: mean cca = {:.3}", r.mean_correlation());
    }

    // VIS: per-class average activation of the last conv block.
    let vis_layer = format!("{e0}.layer16");
    let m = mistique.vis(&vis_layer, &data.labels, 10)?;
    println!("\nVIS: per-class mean activation at layer16 (first 6 neurons):");
    for class in 0..4 {
        let row: Vec<String> = (0..6.min(m.cols()))
            .map(|j| format!("{:+.2}", m[(class, j)]))
            .collect();
        println!("  class {class}: {}", row.join(" "));
    }

    // NetDissect: score unit 0 of layer1 against a synthetic "bright
    // upper-left" concept at the stored (pooled) resolution.
    let l1 = format!("{e0}.layer1");
    let (c, h, w) = mistique
        .metadata()
        .intermediate(&l1)
        .unwrap()
        .shape
        .unwrap();
    println!("\nNetDissect on layer1 ({c} units of {h}x{w} maps):");
    let masks: Vec<Vec<bool>> = (0..data.len())
        .map(|_| {
            (0..h * w)
                .map(|j| {
                    let (y, x) = (j / w, j % w);
                    y < h / 2 && x < w / 2
                })
                .collect()
        })
        .collect();
    for unit in 0..3.min(c) {
        let iou = mistique.netdissect(&l1, unit, &masks, 0.05)?;
        println!("  unit {unit}: IoU with 'upper-left' concept = {iou:.3}");
    }
    Ok(())
}
