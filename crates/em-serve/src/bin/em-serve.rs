//! The `em-serve` binary: trains (or loads) a logistic matcher on a
//! benchmark dataset and serves explanations over HTTP.
//!
//! ```text
//! em-serve --dataset S-FZ --scale 0.25 --port 8080 --threads 0
//! curl -s localhost:8080/healthz
//! ```

use std::process::ExitCode;

use em_codec::ExplainOptions;
use em_datagen::{DatasetId, MagellanBenchmark};
use em_matchers::{
    load_logistic_file, save_logistic_file, FeatureExtractor, LogisticMatcher, MatcherConfig,
};
use em_par::ParallelismConfig;
use em_serve::{Server, ServerConfig};

const USAGE: &str = "\
em-serve — explanation-serving HTTP API

USAGE:
    em-serve [FLAGS]

FLAGS:
    --host HOST          bind address           [default: 127.0.0.1]
    --port PORT          bind port              [default: 8080]
    --threads N          worker threads, 0=auto [default: 0]
    --queue-depth N      pending connections    [default: 64]
    --cache-size N       cached explanations    [default: 1024]
    --cache-shards N     cache shards           [default: 8]
    --dataset NAME       Table 1 dataset (e.g. S-FZ, T-AB) [default: S-FZ]
    --scale F            dataset size multiplier in (0,1]  [default: 0.25]
    --samples N          default perturbation samples      [default: 500]
    --seed N             default explanation seed          [default: 0]
    --slow-ms N          slow-request log threshold (ms), 0 disables [default: 1000]
    --request-timeout-ms N  total per-connection read+write budget (ms) [default: 30000]
    --queue-age-ms N     discard connections queued longer than this (ms) [default: 10000]
    --model PATH         load logistic coefficients instead of training
    --save-model PATH    write trained coefficients after startup training
    --help               print this help
";

struct Args {
    host: String,
    port: u16,
    threads: usize,
    queue_depth: usize,
    cache_size: usize,
    cache_shards: usize,
    dataset: DatasetId,
    scale: f64,
    samples: usize,
    seed: u64,
    slow_ms: u64,
    request_timeout_ms: u64,
    queue_age_ms: u64,
    model: Option<String>,
    save_model: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            host: "127.0.0.1".to_string(),
            port: 8080,
            threads: 0,
            queue_depth: 64,
            cache_size: 1024,
            cache_shards: 8,
            dataset: DatasetId::SFz,
            scale: 0.25,
            samples: 500,
            seed: 0,
            slow_ms: 1_000,
            request_timeout_ms: 30_000,
            queue_age_ms: 10_000,
            model: None,
            save_model: None,
        }
    }
}

fn parse_dataset(name: &str) -> Result<DatasetId, String> {
    DatasetId::from_short_name(name).ok_or_else(|| {
        format!(
            "unknown dataset {name:?}; expected one of {}",
            DatasetId::all().map(DatasetId::short_name).join(", ")
        )
    })
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(None);
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = |what: &str| format!("{flag}: {what} (got {value:?})");
        match flag.as_str() {
            "--host" => args.host = value.clone(),
            "--port" => args.port = value.parse().map_err(|_| bad("expected a port"))?,
            "--threads" => args.threads = value.parse().map_err(|_| bad("expected an integer"))?,
            "--queue-depth" => {
                args.queue_depth = value.parse().map_err(|_| bad("expected an integer"))?
            }
            "--cache-size" => {
                args.cache_size = value.parse().map_err(|_| bad("expected an integer"))?
            }
            "--cache-shards" => {
                args.cache_shards = value.parse().map_err(|_| bad("expected an integer"))?
            }
            "--dataset" => args.dataset = parse_dataset(value)?,
            "--scale" => {
                args.scale = value
                    .parse()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 1.0)
                    .ok_or_else(|| bad("expected a number in (0, 1]"))?
            }
            "--samples" => {
                args.samples = value
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| bad("expected a positive integer"))?
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--slow-ms" => args.slow_ms = value.parse().map_err(|_| bad("expected an integer"))?,
            "--request-timeout-ms" => {
                args.request_timeout_ms = value
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| bad("expected a positive integer"))?
            }
            "--queue-age-ms" => {
                args.queue_age_ms = value
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| bad("expected a positive integer"))?
            }
            "--model" => args.model = Some(value.clone()),
            "--save-model" => args.save_model = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(args))
}

fn run(args: Args) -> Result<(), String> {
    eprintln!(
        "em-serve: generating dataset {} (scale {})",
        args.dataset.short_name(),
        args.scale
    );
    let dataset = MagellanBenchmark::scaled(args.scale).generate(args.dataset);
    let schema = dataset.schema().clone();

    let matcher = match &args.model {
        Some(path) => {
            // The extractor's corpus statistics are refit from the dataset;
            // only the logistic coefficients come from the file.
            let model = load_logistic_file(std::path::Path::new(path), &schema)
                .map_err(|e| format!("loading {path}: {e}"))?;
            eprintln!("em-serve: loaded model from {path}");
            LogisticMatcher::from_parts(FeatureExtractor::fit(&dataset), model)
        }
        None => {
            eprintln!("em-serve: training logistic matcher");
            LogisticMatcher::train(&dataset, &MatcherConfig::default())
        }
    };
    if let Some(path) = &args.save_model {
        save_logistic_file(std::path::Path::new(path), matcher.model(), &schema)
            .map_err(|e| format!("saving {path}: {e}"))?;
        eprintln!("em-serve: saved model to {path}");
    }

    let config = ServerConfig {
        parallelism: ParallelismConfig::with_threads(args.threads),
        queue_depth: args.queue_depth,
        cache_capacity: args.cache_size,
        cache_shards: args.cache_shards,
        defaults: ExplainOptions {
            n_samples: args.samples,
            seed: args.seed,
            ..Default::default()
        },
        slow_request_ms: (args.slow_ms > 0).then_some(args.slow_ms),
        request_timeout: std::time::Duration::from_millis(args.request_timeout_ms),
        max_queue_age: std::time::Duration::from_millis(args.queue_age_ms),
        ..Default::default()
    };
    let workers = config.parallelism.worker_count();
    let server = Server::bind(
        (args.host.as_str(), args.port),
        schema,
        Box::new(matcher),
        config,
    )
    .map_err(|e| format!("binding {}:{}: {e}", args.host, args.port))?;
    eprintln!(
        "em-serve: listening on http://{} ({} workers; POST /explain, /predict; GET /healthz, /metrics)",
        server.local_addr(),
        workers
    );
    server.run();
    eprintln!("em-serve: shut down cleanly");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv) {
        Ok(None) => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Ok(Some(args)) => match run(args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("em-serve: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("em-serve: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
