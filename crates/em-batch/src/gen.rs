//! `em-batch gen`: synthetic Magellan-style input files.
//!
//! Writes one of the `em-datagen` benchmark datasets as a CSV in the
//! layout `plan` reads, so the CI smoke job and the README walkthrough
//! need no external data. Generation is fully seeded by the dataset
//! definition — the same `(dataset, scale)` always produces the same
//! bytes.

use std::path::Path;

use em_datagen::{DatasetId, MagellanBenchmark};
use em_entity::dataset_to_csv;

use crate::atomic;
use crate::error::BatchError;

/// Generates `dataset` at `scale` and writes it to `out` as CSV.
/// Returns the number of records written.
pub fn generate_csv(dataset: DatasetId, scale: f64, out: &Path) -> Result<usize, BatchError> {
    let generated = MagellanBenchmark::scaled(scale).generate(dataset);
    let csv = dataset_to_csv(&generated);
    atomic::write_atomic(out, csv.as_bytes()).map_err(|e| BatchError::io(out, e))?;
    Ok(generated.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_csv_roundtrips_through_the_importer() {
        let dir = std::env::temp_dir().join("em-batch-gen-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("data.csv");
        let id = DatasetId::all()[0];
        let n = generate_csv(id, 0.02, &out).unwrap();
        assert!(n > 0);
        let back = crate::plan::read_input(&out).unwrap();
        assert_eq!(back.len(), n);
    }

    #[test]
    fn generation_is_deterministic() {
        let dir = std::env::temp_dir().join("em-batch-gen-det");
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b) = (dir.join("a.csv"), dir.join("b.csv"));
        let id = DatasetId::all()[0];
        generate_csv(id, 0.02, &a).unwrap();
        generate_csv(id, 0.02, &b).unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    }
}
