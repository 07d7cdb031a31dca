//! Synthetic Zillow-style dataset generator.
//!
//! The Zestimate competition provides three CSVs: `properties` (home
//! attributes), `train` (parcel id, sale date, logerror target), and `test`
//! (parcel id, candidate sale dates). We generate deterministic synthetic
//! equivalents with the same column shapes: numeric size/area features,
//! categorical region and type codes, missing values, and a target that is a
//! noisy function of the features (so models have signal to learn).

use mistique_dataframe::{Column, ColumnData, DataFrame};
use mistique_rng::Rng;

/// The three Zillow tables, held both as parsed frames (for reference and
/// tests) and as CSV text — `ReadCSV` stages parse the text on every run so
/// that re-running a pipeline pays a realistic ingest cost (Eq 2's
/// `t_read_xformer_input`).
#[derive(Clone, Debug)]
pub struct ZillowData {
    /// Home attributes keyed by `parcel_id`.
    pub properties: DataFrame,
    /// Training examples: `parcel_id`, `sale_month`, `logerror`.
    pub train: DataFrame,
    /// Test examples: `parcel_id`, `sale_month`.
    pub test: DataFrame,
    /// CSV text of `properties`.
    pub properties_csv: String,
    /// CSV text of `train`.
    pub train_csv: String,
    /// CSV text of `test`.
    pub test_csv: String,
    /// The `(n_properties, seed)` this dataset was generated from, when it
    /// came from [`ZillowData::generate`] — the workload audit journal
    /// records it so `mistique replay` can regenerate the identical inputs.
    pub provenance: Option<(usize, u64)>,
}

/// Region names used for the categorical `region` column.
pub const REGIONS: [&str; 6] = ["LA", "SF", "SD", "OC", "SEA", "BOS"];
/// Property types used for the categorical `prop_type` column.
pub const PROP_TYPES: [&str; 4] = ["house", "condo", "victorian", "commercial"];

/// Fraction of property rows with a missing (`NaN`) `lot_size`.
pub const MISSING_FRAC: f64 = 0.08;

impl ZillowData {
    /// Generate the dataset deterministically from a seed.
    ///
    /// `n_properties` rows are generated; the train table references ~70% of
    /// them and the test table the rest.
    pub fn generate(n_properties: usize, seed: u64) -> ZillowData {
        let mut rng = Rng::seed(seed);
        let n = n_properties;

        let mut bedrooms = Vec::with_capacity(n);
        let mut bathrooms = Vec::with_capacity(n);
        let mut sqft = Vec::with_capacity(n);
        let mut lot_size = Vec::with_capacity(n);
        let mut year_built = Vec::with_capacity(n);
        let mut tax_value = Vec::with_capacity(n);
        let mut region = Vec::with_capacity(n);
        let mut prop_type = Vec::with_capacity(n);

        for _ in 0..n {
            let beds = rng.range(1..=6) as f64;
            let baths = (rng.range(2..=8) as f64) / 2.0;
            let area = 400.0 + beds * 350.0 + rng.range(0.0..800.0);
            let lot = if rng.chance(MISSING_FRAC) {
                f64::NAN
            } else {
                area * rng.range(1.2..4.0)
            };
            let year = rng.range(1890..=2020) as f64;
            let reg = REGIONS[rng.range(0..REGIONS.len())];
            let ptype = PROP_TYPES[rng.range(0..PROP_TYPES.len())];
            // Tax value correlates with area, recency, and region.
            let region_mult = 1.0 + (REGIONS.iter().position(|&r| r == reg).unwrap() as f64) * 0.15;
            let value = area * 300.0 * region_mult * (1.0 + (year - 1890.0) / 260.0)
                + rng.range(-20_000.0..20_000.0);

            bedrooms.push(beds);
            bathrooms.push(baths);
            sqft.push(area);
            lot_size.push(lot);
            year_built.push(year);
            tax_value.push(value);
            region.push(reg);
            prop_type.push(ptype);
        }

        let properties = DataFrame::from_columns(vec![
            Column::i64("parcel_id", (0..n as i64).collect()),
            Column::f64("bedrooms", bedrooms.clone()),
            Column::f64("bathrooms", bathrooms),
            Column::f64("sqft", sqft.clone()),
            Column::f64("lot_size", lot_size),
            Column::f64("year_built", year_built.clone()),
            Column::f64("tax_value", tax_value.clone()),
            Column::new("region", ColumnData::cat_from_strings(&region)),
            Column::new("prop_type", ColumnData::cat_from_strings(&prop_type)),
        ]);

        // Train rows: ~70% of parcels, with a synthetic logerror target that
        // depends on features + noise (so ElasticNet/GBDT can fit something).
        let n_train = (n * 7) / 10;
        let mut train_ids = Vec::with_capacity(n_train);
        let mut train_month = Vec::with_capacity(n_train);
        let mut logerror = Vec::with_capacity(n_train);
        for pid in 0..n_train {
            let month = rng.range(1..=12) as f64;
            let area = sqft[pid];
            let age = 2017.0 - year_built[pid];
            // Zestimate error: larger for old homes and extreme sizes.
            let signal = 0.02 * (age / 100.0)
                + 0.00001 * (area - 1800.0).abs() / 100.0
                + 0.005 * (month - 6.0).abs() / 6.0;
            let noise = rng.range(-0.05..0.05);
            train_ids.push(pid as i64);
            train_month.push(month);
            logerror.push(signal + noise);
        }
        let train = DataFrame::from_columns(vec![
            Column::i64("parcel_id", train_ids),
            Column::f64("sale_month", train_month),
            Column::f64("logerror", logerror),
        ]);

        // Test rows: remaining parcels with a candidate sale month.
        let mut test_ids = Vec::new();
        let mut test_month = Vec::new();
        for pid in n_train..n {
            test_ids.push(pid as i64);
            test_month.push(rng.range(1..=12) as f64);
        }
        let test = DataFrame::from_columns(vec![
            Column::i64("parcel_id", test_ids),
            Column::f64("sale_month", test_month),
        ]);

        let properties_csv = crate::csv::frame_to_csv(&properties);
        let train_csv = crate::csv::frame_to_csv(&train);
        let test_csv = crate::csv::frame_to_csv(&test);
        ZillowData {
            properties,
            train,
            test,
            properties_csv,
            train_csv,
            test_csv,
            provenance: Some((n, seed)),
        }
    }

    /// The CSV text backing a table.
    pub fn csv_of(&self, table: crate::stage::Table) -> &str {
        match table {
            crate::stage::Table::Properties => &self.properties_csv,
            crate::stage::Table::Train => &self.train_csv,
            crate::stage::Table::Test => &self.test_csv,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let a = ZillowData::generate(500, 7);
        let b = ZillowData::generate(500, 7);
        assert_eq!(a.properties, b.properties);
        assert_eq!(a.train, b.train);
        assert_eq!(a.test, b.test);
    }

    #[test]
    fn different_seed_differs() {
        let a = ZillowData::generate(500, 7);
        let b = ZillowData::generate(500, 8);
        assert_ne!(a.properties, b.properties);
    }

    #[test]
    fn shapes_are_consistent() {
        let d = ZillowData::generate(1000, 1);
        assert_eq!(d.properties.n_rows(), 1000);
        assert_eq!(d.properties.n_cols(), 9);
        assert_eq!(d.train.n_rows(), 700);
        assert_eq!(d.test.n_rows(), 300);
        assert!(d.properties.column("region").is_some());
    }

    #[test]
    fn lot_size_has_missing_values() {
        let d = ZillowData::generate(2000, 3);
        let lots = d.properties.column("lot_size").unwrap().data.to_f64();
        let missing = lots.iter().filter(|v| v.is_nan()).count();
        let frac = missing as f64 / lots.len() as f64;
        assert!((0.04..0.13).contains(&frac), "missing fraction {frac}");
    }

    #[test]
    fn target_correlates_with_age() {
        let d = ZillowData::generate(4000, 5);
        // Join logerror back to year_built and check the designed signal.
        let years = d.properties.column("year_built").unwrap().data.to_f64();
        let ids = d.train.column("parcel_id").unwrap().data.to_f64();
        let errs = d.train.column("logerror").unwrap().data.to_f64();
        let (mut old_sum, mut old_n, mut new_sum, mut new_n) = (0.0, 0, 0.0, 0);
        for (id, e) in ids.iter().zip(&errs) {
            let y = years[*id as usize];
            if y < 1930.0 {
                old_sum += e;
                old_n += 1;
            } else if y > 1990.0 {
                new_sum += e;
                new_n += 1;
            }
        }
        assert!(
            old_sum / old_n as f64 > new_sum / new_n as f64,
            "old homes have higher error"
        );
    }
}
