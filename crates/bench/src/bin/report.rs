//! One-pass reproduction report: evaluates every dataset once and prints
//! Tables 1-4 together.
//!
//! Run with: `SCALE=1.0 RECORDS=100 SAMPLES=500 cargo run --release -p bench --bin report`

use em_datagen::MagellanBenchmark;
use em_eval::tables::{format_table1, format_table2, format_table3, format_table4};
use em_eval::Evaluator;

fn main() {
    let config = bench::config_from_env();
    let datasets = bench::datasets_from_env();
    bench::print_banner("Full reproduction report (Tables 1-4)", &config, &datasets);

    let benchmark = MagellanBenchmark {
        scale: config.scale,
        ..Default::default()
    };
    let rows: Vec<_> = datasets
        .iter()
        .map(|&id| {
            let d = benchmark.generate(id);
            (id, d.len(), d.match_percentage())
        })
        .collect();
    println!("{}", format_table1(&rows));

    let evaluator = Evaluator::new(config);
    let mut results = Vec::new();
    for id in &datasets {
        eprintln!("evaluating {} ...", id.short_name());
        let r = evaluator.evaluate_dataset(*id);
        eprintln!(
            "  matcher F1 = {:.3} ({} match / {} non-match records explained)",
            r.matcher_f1, r.matching.n_records, r.non_matching.n_records
        );
        results.push(r);
    }

    println!("{}", format_table2(&results, true));
    println!("{}", format_table2(&results, false));
    println!("{}", format_table3(&results, true));
    println!("{}", format_table3(&results, false));
    println!("{}", format_table4(&results, true));
    println!("{}", format_table4(&results, false));

    println!("Matcher F1 per dataset (diagnostic, not a paper table):");
    for r in &results {
        println!("  {:<7} F1 = {:.3}", r.dataset, r.matcher_f1);
    }
}
