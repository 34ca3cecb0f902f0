//! Serial-vs-parallel speedup report for record-level explanation.
//!
//! Explains the same records twice — once with `ParallelismConfig::serial()`
//! and once with one worker per core — the way the eval harness and
//! em-batch do: records fan out across threads, each explained serially
//! and seeded from the base seed and its record index. (One explanation
//! never forks; see DESIGN.md §7.)
//!
//! Both runs must be bit-identical (the report verifies this); only
//! wall-clock differs. On a single-core host the speedup is ~1.0 by
//! construction.
//!
//! Run with: `cargo run --release -p bench --bin par_speedup`

use std::time::Instant;

use em_datagen::MagellanBenchmark;
use em_entity::{EntityPair, SplitConfig};
use em_eval::technique::explain_record;
use em_eval::Technique;
use em_matchers::{LogisticMatcher, MatcherConfig};
use em_par::{par_map, ParallelismConfig};

fn main() {
    let base = bench::config_from_env();
    let id = bench::datasets_from_env()[0];
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "# Parallel record-level explanation speedup (dataset {})",
        id.short_name()
    );
    println!("# cores detected: {threads}\n");

    let benchmark = MagellanBenchmark {
        scale: base.scale,
        ..Default::default()
    };
    let dataset = benchmark.generate(id);
    let (train, _) = dataset.train_test_split(&SplitConfig::default());
    let matcher = LogisticMatcher::train(&train, &MatcherConfig::default());
    let schema = dataset.schema();

    // At least one record per label: a 0-record run would only time noise.
    let n_records = base.n_records_per_label.clamp(2, 24);
    let records: Vec<EntityPair> = dataset
        .sample_by_label(true, n_records / 2, 3)
        .into_iter()
        .chain(dataset.sample_by_label(false, n_records / 2, 3))
        .map(|r| r.pair.clone())
        .collect();

    // Per-record explanation fan-out (the eval harness loop).
    let explain_all = |parallelism: ParallelismConfig| {
        let start = Instant::now();
        let views = par_map(&parallelism, &records, |i, pair| {
            let record_seed = base.seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9);
            explain_record(
                Technique::LandmarkDouble,
                &matcher,
                schema,
                pair,
                base.n_samples,
                record_seed,
            )
        });
        (start.elapsed(), views)
    };
    let (t_serial, serial) = explain_all(ParallelismConfig::serial());
    let (t_parallel, parallel) = explain_all(ParallelismConfig::with_threads(threads));
    let identical = serial.iter().zip(&parallel).all(|(a, b)| {
        a.iter()
            .zip(b)
            .all(|(x, y)| x.removable == y.removable && x.base_prediction == y.base_prediction)
    });
    println!(
        "## across-record explanation ({} records, {} samples)",
        records.len(),
        base.n_samples
    );
    let (serial_s, parallel_s) = (t_serial.as_secs_f64(), t_parallel.as_secs_f64());
    println!("  serial:   {serial_s:>8.3} s");
    println!("  parallel: {parallel_s:>8.3} s");
    println!("  speedup:  {:>8.2}x", serial_s / parallel_s.max(1e-9));
    println!(
        "  bit-identical results: {}",
        if identical { "yes" } else { "NO" }
    );

    if !identical {
        eprintln!("\nERROR: serial and parallel runs diverged");
        std::process::exit(1);
    }
}
