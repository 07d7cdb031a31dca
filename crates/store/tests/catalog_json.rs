//! The catalog's JSON form over randomised catalogs: emit → parse → emit is
//! byte-identical and loses no value, whatever the integers' magnitude, the
//! vectors' length or the characters in a key.

use mistique_obs::json;
use mistique_store::datastore::{
    CatalogEntry, CatalogExtra, DeltaRecord, LshItemRecord, StoreCatalog, StoreStats,
};
use mistique_store::ChunkKey;

/// xorshift64*: the test owns its generator so the cases are the same
/// everywhere it runs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Skewed towards the edges a decimal codec gets wrong: 0, values
    /// around 2^53 (where `f64` stops being exact), and above 2^63.
    fn int(&mut self) -> u64 {
        match self.next() % 6 {
            0 => 0,
            1 => (1 << 53) - 2 + self.next() % 4,
            2 => u64::MAX - self.next() % 4,
            3 => (1 << 63) + self.next() % (1 << 62),
            4 => self.next() % 1000,
            _ => self.next(),
        }
    }

    fn below(&mut self, n: u64) -> usize {
        (self.next() % n) as usize
    }

    fn text(&mut self) -> String {
        const PIECES: [&str; 10] = [
            "model", ".", "\"", "\\", "\n", "\u{1}", "\u{7f}", "é", "層", "🧪",
        ];
        (0..self.below(6)).map(|_| PIECES[self.below(10)]).collect()
    }

    fn vec<T>(&mut self, max: u64, mut item: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        (0..self.below(max + 1)).map(|_| item(self)).collect()
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
                signature: r.vec(8, Rng::int),
            }),
        }
    }
}

#[test]
fn random_catalogs_survive_text_byte_for_byte() {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
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
