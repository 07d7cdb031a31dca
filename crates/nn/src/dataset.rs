//! Synthetic CIFAR10-like dataset.
//!
//! Real CIFAR10 is unavailable; for the diagnostics that matter here (KNN
//! neighbour overlap, SVCCA between layers, per-class activation averages,
//! confusion-style queries) what matters is that images of the same class
//! share structure. Each class gets a characteristic low-frequency pattern;
//! images are the class pattern plus per-image deterministic noise.

use mistique_rng::Rng;

use crate::tensor::Tensor;

/// A labelled synthetic image dataset, 3×32×32 per example.
#[derive(Clone, Debug)]
pub struct CifarLike {
    /// Image tensor, `n x 3 x 32 x 32`.
    pub images: Tensor,
    /// Class labels in `0..n_classes`.
    pub labels: Vec<u8>,
    /// Number of classes.
    pub n_classes: usize,
    /// The `(n, n_classes, seed)` this dataset was generated from, when it
    /// came from [`CifarLike::generate`] — the workload audit journal
    /// records it so `mistique replay` can regenerate the identical inputs.
    pub provenance: Option<(usize, usize, u64)>,
}

impl CifarLike {
    /// Generate `n` images across `n_classes` classes, deterministically
    /// from `seed`.
    pub fn generate(n: usize, n_classes: usize, seed: u64) -> CifarLike {
        assert!(n_classes > 0 && n_classes <= 256, "1..=256 classes");
        let hw = 32usize;
        let mut data = Vec::with_capacity(n * 3 * hw * hw);
        let mut labels = Vec::with_capacity(n);

        // Per-class pattern parameters.
        let mut class_params = Vec::with_capacity(n_classes);
        let mut crng = Rng::seed(seed ^ 0xC1A55);
        for _ in 0..n_classes {
            let fx: f32 = crng.range(0.5..3.0);
            let fy: f32 = crng.range(0.5..3.0);
            let phase: f32 = crng.range(0.0..std::f32::consts::TAU);
            let ch_mix: [f32; 3] = [
                crng.range(0.2..1.0),
                crng.range(0.2..1.0),
                crng.range(0.2..1.0),
            ];
            class_params.push((fx, fy, phase, ch_mix));
        }

        let mut rng = Rng::seed(seed);
        for i in 0..n {
            let label = (i % n_classes) as u8;
            labels.push(label);
            let (fx, fy, phase, mix) = class_params[label as usize];
            let jitter: f32 = rng.range(-0.3..0.3);
            for (c, &m) in mix.iter().enumerate() {
                for y in 0..hw {
                    for x in 0..hw {
                        let sx = x as f32 / hw as f32 * std::f32::consts::TAU;
                        let sy = y as f32 / hw as f32 * std::f32::consts::TAU;
                        let signal =
                            ((sx * fx + phase + jitter).sin() + (sy * fy + phase).cos()) * 0.5 * m;
                        let noise: f32 = rng.range(-0.25..0.25);
                        let _ = c;
                        data.push(signal + noise);
                    }
                }
            }
        }

        CifarLike {
            images: Tensor::from_vec(n, 3, hw, hw, data),
            labels,
            n_classes,
            provenance: Some((n, n_classes, seed)),
        }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Indices of the examples with the given label.
    pub fn indices_of_class(&self, class: u8) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == class)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let a = CifarLike::generate(50, 10, 3);
        let b = CifarLike::generate(50, 10, 3);
        assert_eq!(a.images, b.images);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn labels_cycle_through_classes() {
        let d = CifarLike::generate(25, 10, 1);
        assert_eq!(d.labels[0], 0);
        assert_eq!(d.labels[9], 9);
        assert_eq!(d.labels[10], 0);
        assert_eq!(d.indices_of_class(3), vec![3, 13, 23]);
    }

    #[test]
    fn same_class_images_more_similar_than_cross_class() {
        let d = CifarLike::generate(40, 4, 7);
        let dist = |a: usize, b: usize| -> f32 {
            d.images
                .example(a)
                .iter()
                .zip(d.images.example(b))
                .map(|(x, y)| (x - y) * (x - y))
                .sum()
        };
        // Examples 0, 4, 8 are class 0; example 1 is class 1.
        let same = dist(0, 4) + dist(0, 8) + dist(4, 8);
        let cross = dist(0, 1) + dist(4, 1) + dist(8, 1);
        assert!(same < cross, "same-class {same} vs cross-class {cross}");
    }

    #[test]
    fn pixel_range_is_bounded() {
        let d = CifarLike::generate(20, 10, 2);
        for &v in &d.images.data {
            assert!(v.abs() < 2.0, "pixel {v}");
        }
    }
}
