//! The catalog's JSON form over randomised catalogs: emit → parse → emit is
//! byte-identical and loses no value, whatever the integers' magnitude, the
//! vectors' length or the characters in a key.

use mistique_obs::json;
use mistique_rng::Rng;
use mistique_store::datastore::{
    CatalogEntry, CatalogExtra, DeltaRecord, LshItemRecord, StoreCatalog, StoreStats,
};
use mistique_store::ChunkKey;

struct Gen(Rng);

impl Gen {
    /// Skewed towards the edges a decimal codec gets wrong: 0, values
    /// around 2^53 (where `f64` stops being exact), and above 2^63.
    fn int(&mut self) -> u64 {
        match self.0.range(0..6) {
            0 => 0,
            1 => (1 << 53) - 2 + self.0.range(0..4u64),
            2 => u64::MAX - self.0.range(0..4u64),
            3 => (1 << 63) + self.0.range(0..1u64 << 62),
            4 => self.0.range(0..1000u64),
            _ => self.0.next_u64(),
        }
    }

    fn text(&mut self) -> String {
        const PIECES: [&str; 10] = [
            "model", ".", "\"", "\\", "\n", "\u{1}", "\u{7f}", "é", "層", "🧪",
        ];
        (0..self.0.range(0..6))
            .map(|_| PIECES[self.0.range(0..10usize)])
            .collect()
    }

    fn vec<T>(&mut self, max: usize, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        (0..self.0.range(0..=max)).map(|_| item(self)).collect()
    }

    fn catalog(&mut self) -> StoreCatalog {
        StoreCatalog {
            entries: self.vec(5, |r| CatalogEntry {
                key: ChunkKey::new(r.text(), r.text(), r.int() as u32),
                digest: (r.int(), r.int()),
                partition: r.int(),
                len: r.int(),
            }),
            next_partition: self.int(),
            stats: StoreStats {
                logical_bytes: self.int(),
                unique_bytes: self.int(),
                dedup_hits: self.int(),
                chunks_stored: self.int(),
                partitions_created: self.int(),
                similarity_placements: self.int(),
                delta_puts: self.int(),
                delta_bytes_saved: self.int(),
            },
            partition_totals: self.vec(4, |r| (r.int(), r.int())),
            deltas: self.vec(3, |r| DeltaRecord {
                digest: (r.int(), r.int()),
                base: (r.int(), r.int()),
            }),
            extras: self.vec(3, |r| CatalogExtra {
                digest: (r.int(), r.int()),
                partition: r.int(),
                len: r.int(),
            }),
            lsh_items: self.vec(3, |r| LshItemRecord {
                item: r.int(),
                partition: r.int(),
                digest: (r.int(), r.int()),
                signature: r.vec(8, Gen::int),
            }),
        }
    }
}

#[test]
fn random_catalogs_survive_text_byte_for_byte() {
    let mut rng = Gen(Rng::seed(1));
    let mut empties = 0;
    for case in 0..500 {
        let catalog = rng.catalog();
        empties += usize::from(catalog.entries.is_empty());
        let text = json::to_string(&catalog, "catalog").unwrap();
        let back: StoreCatalog =
            json::from_str(&text, "catalog").unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
        assert_eq!(format!("{back:?}"), format!("{catalog:?}"), "case {case}");
        assert_eq!(
            json::to_string(&back, "catalog").unwrap(),
            text,
            "case {case}"
        );
    }
    assert!(empties > 0, "the generator must produce empty vectors too");
}
