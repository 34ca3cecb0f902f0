//! CI perf-regression gate for the prepared scoring kernel.
//!
//! Compares a fresh `kernel_speedup` JSON report against the committed
//! baseline (`results/BENCH_kernel.json`) and fails if:
//!
//! * the fresh run was not bit-identical between kernel and naive paths
//!   (a correctness failure, never tolerated), or
//! * the fresh speedup fell more than 25% below the baseline speedup
//!   (a perf regression beyond shared-runner noise).
//!
//! A fresh speedup *above* baseline passes silently — ratcheting the
//! committed baseline upward is a human decision, not a CI one.
//!
//! Usage: `perf_gate <baseline.json> <current.json>`

use em_codec::Value;

/// Fraction of the baseline speedup the fresh run may lose before the
/// gate fails (shared CI runners are noisy; the kernel's margin is not).
const TOLERANCE: f64 = 0.25;

struct Report {
    speedup: f64,
    bit_identical: bool,
}

fn load(path: &str) -> Report {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let value = Value::parse(&text).unwrap_or_else(|e| die(&format!("cannot parse {path}: {e}")));
    let field = |key: &str| -> &Value {
        value
            .get(key)
            .unwrap_or_else(|| die(&format!("{path}: missing field {key:?}")))
    };
    Report {
        speedup: field("speedup")
            .as_f64()
            .unwrap_or_else(|| die(&format!("{path}: speedup is not a number"))),
        bit_identical: field("bit_identical")
            .as_bool()
            .unwrap_or_else(|| die(&format!("{path}: bit_identical is not a bool"))),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("perf_gate: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() != 3 {
        die("usage: perf_gate <baseline.json> <current.json>");
    }
    let baseline = load(&args[1]);
    let current = load(&args[2]);
    let floor = baseline.speedup * (1.0 - TOLERANCE);

    println!("# Kernel perf gate");
    println!(
        "  baseline speedup: {:>7.2}x  ({})",
        baseline.speedup, args[1]
    );
    println!(
        "  current speedup:  {:>7.2}x  ({})",
        current.speedup, args[2]
    );
    println!(
        "  allowed floor:    {floor:>7.2}x  (baseline - {:.0}%)",
        TOLERANCE * 100.0
    );
    println!(
        "  current bit-identical: {}",
        if current.bit_identical { "yes" } else { "NO" }
    );

    if !current.bit_identical {
        eprintln!("\nFAIL: current run was not bit-identical between kernel and naive paths");
        std::process::exit(1);
    }
    if current.speedup < floor {
        eprintln!(
            "\nFAIL: kernel speedup regressed: {:.2}x < floor {:.2}x",
            current.speedup, floor
        );
        std::process::exit(1);
    }
    println!("\nPASS");
}
