//! CI perf-regression gate for the explanation pipeline.
//!
//! Compares fresh reports against their committed baseline. The report
//! kind is read from the files; with several fresh reports of one kind
//! the gate compares the median of each number, so one run disturbed by
//! a noisy neighbour cannot fail it alone.
//!
//! * `kernel_speedup` reports (baseline `results/BENCH_kernel.json`) fail
//!   if any fresh run was not bit-identical between kernel and naive
//!   paths (a correctness failure, never tolerated), or if the fresh
//!   speedup fell more than 25% below the baseline speedup. A fresh
//!   speedup *above* baseline passes silently — ratcheting the committed
//!   baseline upward is a human decision, not a CI one;
//! * `stage_profile` reports (baseline `results/BENCH_stages.json`) fail
//!   if, for any explainer, a stage's share of end-to-end time grew by
//!   more than [`STAGE_TOLERANCE`] over the baseline's — that stage got
//!   slower relative to the rest of the explanation. A change that makes
//!   one stage faster on purpose raises the others' shares, and
//!   re-commits the baseline with it.
//!
//! Usage: `perf_gate <baseline.json> <current.json>...`

use em_codec::Value;

/// Fraction of the baseline speedup the fresh run may lose before the
/// gate fails (shared CI runners are noisy; the kernel's margin is not).
const TOLERANCE: f64 = 0.25;

/// Share of end-to-end time (absolute, 0..1) a stage may gain over the
/// baseline before the gate fails. Over every three of twelve local runs
/// at the baseline's settings on a loaded 2-vCPU host, the median share
/// rose at most 0.023 above the committed run's; this is about twice
/// that.
const STAGE_TOLERANCE: f64 = 0.05;

/// A report, reduced to what the gate compares.
enum Report {
    Kernel {
        speedup: f64,
        bit_identical: bool,
    },
    Stages {
        /// Dataset, sample count and records per explainer: reports are
        /// comparable only at equal settings.
        settings: String,
        /// Share of its explainer's end-to-end time per
        /// `"<explainer> <stage>"`.
        shares: Vec<(String, f64)>,
    },
}

fn load(path: &str) -> Report {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let value = Value::parse(&text).unwrap_or_else(|e| die(&format!("cannot parse {path}: {e}")));
    let field = |v: &Value, key: &str| -> Value {
        v.get(key)
            .cloned()
            .unwrap_or_else(|| die(&format!("{path}: missing field {key:?}")))
    };
    let number = |v: &Value, key: &str| -> f64 {
        field(v, key)
            .as_f64()
            .unwrap_or_else(|| die(&format!("{path}: {key} is not a number")))
    };
    let string = |v: &Value, key: &str| -> String {
        field(v, key)
            .as_str()
            .unwrap_or_else(|| die(&format!("{path}: {key} is not a string")))
            .to_string()
    };
    let Some(cells) = value.get("cells") else {
        return Report::Kernel {
            speedup: number(&value, "speedup"),
            bit_identical: field(&value, "bit_identical")
                .as_bool()
                .unwrap_or_else(|| die(&format!("{path}: bit_identical is not a bool"))),
        };
    };
    let mut settings = format!(
        "dataset {}, {} samples",
        string(&value, "dataset"),
        number(&value, "n_samples")
    );
    let mut shares = Vec::new();
    for cell in cells
        .as_array()
        .unwrap_or_else(|| die(&format!("{path}: cells is not an array")))
    {
        let explainer = string(cell, "explainer");
        settings += &format!(", {explainer} {} records", number(cell, "records"));
        let end_to_end = number(cell, "end_to_end_us");
        let stages = field(cell, "stages");
        for (stage, v) in stages
            .as_object()
            .unwrap_or_else(|| die(&format!("{path}: stages is not an object")))
        {
            shares.push((format!("{explainer} {stage}"), number(v, "us") / end_to_end));
        }
    }
    Report::Stages { settings, shares }
}

fn die(msg: &str) -> ! {
    eprintln!("perf_gate: {msg}");
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("\nFAIL: {msg}");
    std::process::exit(1);
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

fn gate_kernel(baseline: f64, current: &[Report]) {
    let (speedups, identical): (Vec<f64>, Vec<bool>) = current
        .iter()
        .map(|r| match r {
            Report::Kernel {
                speedup,
                bit_identical,
            } => (*speedup, *bit_identical),
            Report::Stages { .. } => die("the reports are of different kinds"),
        })
        .unzip();
    let speedup = median(speedups);
    let floor = baseline * (1.0 - TOLERANCE);
    println!("# Kernel perf gate");
    println!("  baseline speedup: {baseline:>7.2}x");
    println!(
        "  current speedup:  {speedup:>7.2}x  (median of {})",
        current.len()
    );
    println!(
        "  allowed floor:    {floor:>7.2}x  (baseline - {:.0}%)",
        TOLERANCE * 100.0
    );
    let all_identical = identical.iter().all(|&b| b);
    println!(
        "  current bit-identical: {}",
        if all_identical { "yes" } else { "NO" }
    );
    if !all_identical {
        fail("a current run was not bit-identical between kernel and naive paths");
    }
    if speedup < floor {
        fail(&format!(
            "kernel speedup regressed: {speedup:.2}x < floor {floor:.2}x"
        ));
    }
}

fn gate_stages(settings: &str, baseline: &[(String, f64)], current: &[Report]) {
    let current: Vec<&[(String, f64)]> = current
        .iter()
        .map(|r| match r {
            Report::Stages {
                settings: s,
                shares,
            } if s == settings => shares.as_slice(),
            Report::Stages { settings: s, .. } => die(&format!(
                "settings differ: baseline {settings}; current {s}"
            )),
            Report::Kernel { .. } => die("the reports are of different kinds"),
        })
        .collect();
    println!(
        "# Stage-share perf gate (share of end-to-end time, median of {}; tolerance +{STAGE_TOLERANCE})",
        current.len()
    );
    let mut failures = Vec::new();
    for (stage, share) in baseline {
        let now = median(
            current
                .iter()
                .map(|shares| {
                    shares
                        .iter()
                        .find(|(s, _)| s == stage)
                        .map_or(0.0, |&(_, v)| v)
                })
                .collect(),
        );
        let grew = now - share > STAGE_TOLERANCE;
        println!(
            "  {stage:<34} baseline {share:.3}  current {now:.3}{}",
            if grew { "  <- grew" } else { "" }
        );
        if grew {
            failures.push(format!("{stage}: {share:.3} -> {now:.3}"));
        }
    }
    if !failures.is_empty() {
        fail(&format!(
            "stage shares grew by more than {STAGE_TOLERANCE}: {} (if another stage \
             got faster on purpose, re-commit the baseline)",
            failures.join("; ")
        ));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() < 3 {
        die("usage: perf_gate <baseline.json> <current.json>...");
    }
    let current: Vec<Report> = args[2..].iter().map(|path| load(path)).collect();
    match load(&args[1]) {
        Report::Kernel { speedup, .. } => gate_kernel(speedup, &current),
        Report::Stages { settings, shares } => gate_stages(&settings, &shares, &current),
    }
    println!("\nPASS");
}
