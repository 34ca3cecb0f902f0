//! Shared plumbing for the bench binaries.
//!
//! Every binary reads these environment variables so the paper-scale runs
//! and quick smoke runs share one code path:
//!
//! * `SCALE` — benchmark size multiplier in `(0, 1]` (default `0.25`);
//! * `RECORDS` — records sampled per label (default `100`, the paper's
//!   setting);
//! * `SAMPLES` — perturbation samples per explanation (default `500`);
//! * `DATASETS` — comma-separated short names (e.g. `S-BR,S-IA`) to
//!   restrict the run (default: all twelve);
//! * `THREADS` — worker threads for per-record explanation (`0` = one per
//!   core, `1` = serial; default `0`). Results are identical for any value.
//!
//! An unset variable takes its default. A variable that is set but does
//! not parse, or a `DATASETS` entry that names no dataset, stops the
//! binary with exit status 2 and a message naming the bad value.

#![forbid(unsafe_code)]

use em_datagen::DatasetId;
use em_eval::{EvalConfig, ParallelismConfig};

/// Parses an optional variable value such as `RECORDS`: `None` (unset)
/// gives `default`; a set value that does not parse is an error.
fn parse_number<T: std::str::FromStr>(value: Option<&str>, default: T) -> Result<T, String> {
    match value {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| "not a valid number".to_string()),
    }
}

/// Parses `SCALE`: a finite number, clamped to `[0.001, 1.0]`
/// (default `0.25`).
fn parse_scale(value: Option<&str>) -> Result<f64, String> {
    let scale: f64 = parse_number(value, 0.25)?;
    if !scale.is_finite() {
        return Err("not a finite number".to_string());
    }
    Ok(scale.clamp(0.001, 1.0))
}

/// Parses `DATASETS`: comma-separated short names (case-insensitive);
/// all twelve when unset. An unknown name, or a list naming no dataset,
/// is an error.
fn parse_datasets(value: Option<&str>) -> Result<Vec<DatasetId>, String> {
    let Some(list) = value else {
        return Ok(DatasetId::all().to_vec());
    };
    let chosen = list
        .split(',')
        .map(str::trim)
        .filter(|name| !name.is_empty())
        .map(|name| {
            DatasetId::from_short_name(name)
                .ok_or_else(|| format!("{name:?} is not a known dataset"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if chosen.is_empty() {
        return Err("names no dataset".to_string());
    }
    Ok(chosen)
}

/// Reads `key` from the environment and parses it with `parse`; on a bad
/// value prints the variable, its value and the error, and exits with
/// status 2.
fn from_env<T>(key: &str, parse: impl FnOnce(Option<&str>) -> Result<T, String>) -> T {
    let value = std::env::var(key).ok();
    parse(value.as_deref()).unwrap_or_else(|err| {
        eprintln!("error: {key}={:?}: {err}", value.unwrap_or_default());
        std::process::exit(2)
    })
}

/// Builds the experiment configuration from the environment.
pub fn config_from_env() -> EvalConfig {
    EvalConfig {
        scale: from_env("SCALE", parse_scale),
        n_records_per_label: from_env("RECORDS", |v| parse_number(v, 100)),
        n_samples: from_env("SAMPLES", |v| parse_number(v, 500)),
        parallelism: ParallelismConfig::with_threads(from_env("THREADS", |v| parse_number(v, 0))),
        ..Default::default()
    }
}

/// The datasets selected by the `DATASETS` environment variable (all
/// twelve when unset).
pub fn datasets_from_env() -> Vec<DatasetId> {
    from_env("DATASETS", parse_datasets)
}

/// Prints the banner every binary shows before running.
pub fn print_banner(table: &str, config: &EvalConfig, datasets: &[DatasetId]) {
    println!(
        "# {table} — scale={}, records/label={}, samples/explanation={}, datasets={}",
        config.scale,
        config.n_records_per_label,
        config.n_samples,
        datasets
            .iter()
            .map(|d| d.short_name())
            .collect::<Vec<_>>()
            .join(",")
    );
    println!("# (set SCALE=1.0 RECORDS=100 SAMPLES=500 for the full paper-scale run)\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = config_from_env();
        assert!(c.scale > 0.0 && c.scale <= 1.0);
        assert!(c.n_samples > 0);
    }

    #[test]
    fn dataset_filter_falls_back_to_all() {
        // Unset -> all twelve; names are case-insensitive.
        assert_eq!(parse_datasets(None).map(|d| d.len()), Ok(12));
        assert_eq!(
            parse_datasets(Some("S-BR, t-ab,")),
            Ok(vec![DatasetId::SBr, DatasetId::TAb])
        );
        // Set but bad -> an error, never a fallback to all twelve or to
        // the first dataset.
        for bad in ["T-AX", "S-BR,TAB", "", " , "] {
            assert!(
                parse_datasets(Some(bad)).is_err(),
                "DATASETS={bad:?} accepted"
            );
        }
        assert!(parse_datasets(Some("S-BR,T-AX"))
            .expect_err("unknown name")
            .contains("T-AX"));
        assert_eq!(parse_scale(None), Ok(0.25));
        assert_eq!(parse_scale(Some("7")), Ok(1.0));
        for bad in ["abc", "", "NaN", "inf"] {
            assert!(parse_scale(Some(bad)).is_err(), "SCALE={bad:?} accepted");
        }
        assert_eq!(parse_number(None, 100usize), Ok(100));
        assert_eq!(parse_number(Some("4"), 100usize), Ok(4));
        for bad in ["four", "-1", "1.5"] {
            assert!(
                parse_number(Some(bad), 100usize).is_err(),
                "{bad:?} accepted"
            );
        }
    }
}
