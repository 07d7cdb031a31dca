//! Property tests for the zone-map / max-activation contracts: the top list
//! always reproduces the scan's exact topk prefix (bit patterns included),
//! pruned block sets are a superset of the blocks containing matches, and
//! the persisted form round-trips exactly. Seeded
//! (`mistique_testkit::cases`), 96 cases each.

use mistique_index::{reference_topk, IndexBuilder, IntermediateIndex};
use mistique_rng::Rng;
use mistique_testkit::cases;

fn arb_value(rng: &mut Rng) -> f64 {
    // Weights 5 : 1 : 1 : 1 : 1 : 1 : 1.
    match rng.range(0..11) {
        0..=4 => rng.range(-100.0..100.0),
        5 => f64::NAN,
        6 => f64::INFINITY,
        7 => f64::NEG_INFINITY,
        8 => 0.0,
        9 => -0.0,
        _ => 7.25, // duplicates force tie-breaks
    }
}

#[test]
fn top_list_always_matches_reference() {
    cases(96, 1, |g| {
        let vals = g.vec(1..80, arb_value);
        let block = g.rng.range(1..16usize);
        let m = g.rng.range(0..24usize);
        let k = g.rng.range(0..24usize);

        let mut b = IndexBuilder::new(m, block);
        for (i, chunk) in vals.chunks(block).enumerate() {
            b.observe_block("c", i, chunk);
        }
        let idx = b.finish("int", "FULL", vals.len(), 1);
        if let Some(served) = idx.topk("c", k) {
            let reference = reference_topk(&vals, k);
            assert_eq!(served.len(), reference.len());
            for (a, b) in served.iter().zip(&reference) {
                assert_eq!(a.0, b.0);
                assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
        } else {
            assert!(k > m && vals.len() > m, "refusal only when unprovable");
        }
    });
}

#[test]
fn pruned_blocks_cover_every_match() {
    cases(96, 2, |g| {
        let vals = g.vec(1..80, arb_value);
        let block = g.rng.range(1..16usize);
        let threshold = arb_value(&mut g.rng);

        let mut b = IndexBuilder::new(4, block);
        for (i, chunk) in vals.chunks(block).enumerate() {
            b.observe_block("c", i, chunk);
        }
        let idx = b.finish("int", "FULL", vals.len(), 1);
        let (keep, total) = idx.blocks_passing_gt("c", threshold).unwrap();
        assert_eq!(total, vals.len().div_ceil(block));
        for (row, v) in vals.iter().enumerate() {
            if *v > threshold {
                assert!(
                    keep.contains(&(row / block)),
                    "row {row} (v={v}) matches but its block was pruned"
                );
            }
        }
    });
}

#[test]
fn persisted_form_round_trips_exactly() {
    cases(96, 3, |g| {
        let vals = g.vec(1..60, arb_value);
        let block = g.rng.range(1..12usize);
        let m = g.rng.range(0..16usize);
        let version = g.rng.range(0..1000u64);

        let mut b = IndexBuilder::new(m, block);
        for (i, chunk) in vals.chunks(block).enumerate() {
            b.observe_block("c", i, chunk);
        }
        let idx = b.finish("model/int.layer1", "POOL_QT(2)+LP_QT", vals.len(), version);
        let bytes = idx.to_bytes().unwrap();
        let back = IntermediateIndex::from_bytes(&bytes).unwrap();
        assert_eq!(back, idx);
    });
}
