//! Throughput report for the `em-serve` explanation API.
//!
//! Spawns the server in-process on an ephemeral loopback port, trains a
//! matcher, and drives it over real TCP in two phases:
//!
//! * **cold** — every request uses a fresh seed, so each one computes a
//!   full explanation (cache misses);
//! * **cached** — the same requests repeated, answered from the
//!   explanation cache (and verified byte-identical to the cold bodies).
//!
//! Emits a JSON report with requests/second and p50/p99 latency per phase.
//! Reads the shared `SCALE`/`SAMPLES`/`DATASETS` variables plus `REQUESTS`
//! (requests per phase, default 20).
//!
//! Run with: `cargo run --release -p bench --bin serve_throughput`

use std::time::Instant;

use em_codec::{ExplainOptions, Value};
use em_datagen::MagellanBenchmark;
use em_entity::{EntityPair, Schema};
use em_matchers::{LogisticMatcher, MatcherConfig};
use em_par::ParallelismConfig;
use em_serve::client;
use em_serve::{Server, ServerConfig};

fn explain_body(schema: &Schema, pair: &EntityPair, n_samples: usize, seed: u64) -> String {
    let entity = |e: &em_entity::Entity| {
        Value::Object(
            (0..schema.len())
                .map(|i| (schema.name(i).to_string(), Value::string(e.value(i))))
                .collect(),
        )
    };
    Value::object(vec![
        (
            "pair",
            Value::object(vec![
                ("left", entity(&pair.left)),
                ("right", entity(&pair.right)),
            ]),
        ),
        ("explainer", Value::string("landmark")),
        (
            "config",
            Value::object(vec![
                ("n_samples", n_samples.into()),
                ("seed", Value::Number(seed as f64)),
            ]),
        ),
    ])
    .to_json()
}

/// Runs one phase; returns (per-request latencies in µs, response bodies).
fn drive(
    addr: std::net::SocketAddr,
    bodies: &[String],
    expect_cache: &str,
) -> (Vec<u64>, Vec<String>) {
    let mut latencies = Vec::with_capacity(bodies.len());
    let mut responses = Vec::with_capacity(bodies.len());
    for body in bodies {
        let start = Instant::now();
        let resp = client::request(addr, "POST", "/explain", body).expect("request failed");
        latencies.push(u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX));
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(resp.header("x-cache"), Some(expect_cache));
        responses.push(resp.body);
    }
    (latencies, responses)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn phase_report(name: &str, latencies: &mut [u64]) -> Value {
    latencies.sort_unstable();
    let total_us: u64 = latencies.iter().sum();
    let rps = latencies.len() as f64 / (total_us as f64 / 1e6);
    Value::object(vec![
        ("phase", Value::string(name)),
        ("requests", latencies.len().into()),
        ("requests_per_sec", rps.into()),
        ("p50_us", Value::Number(percentile(latencies, 0.5) as f64)),
        ("p99_us", Value::Number(percentile(latencies, 0.99) as f64)),
    ])
}

fn main() {
    let base = bench::config_from_env();
    let id = bench::datasets_from_env()[0];
    let n_requests: usize = std::env::var("REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20);

    let dataset = MagellanBenchmark {
        scale: base.scale,
        ..Default::default()
    }
    .generate(id);
    let schema = dataset.schema().clone();
    let matcher = LogisticMatcher::train(&dataset, &MatcherConfig::default());

    // One body per distinct seed: distinct cache keys, so the first pass is
    // all misses and the second all hits.
    let records = dataset.records();
    let bodies: Vec<String> = (0..n_requests)
        .map(|i| {
            let pair = &records[i % records.len()].pair;
            explain_body(&schema, pair, base.n_samples, base.seed + i as u64)
        })
        .collect();

    let server = Server::bind(
        "127.0.0.1:0",
        schema,
        Box::new(matcher),
        ServerConfig {
            parallelism: ParallelismConfig::auto(),
            // One shard: exact LRU, so capacity = n_requests guarantees the
            // second pass is all hits regardless of key-hash imbalance.
            cache_capacity: n_requests.max(1),
            cache_shards: 1,
            defaults: ExplainOptions {
                n_samples: base.n_samples,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("bind ephemeral port");
    let handle = server.spawn();
    let addr = handle.addr();

    let (mut cold, cold_bodies) = drive(addr, &bodies, "miss");
    let (mut cached, cached_bodies) = drive(addr, &bodies, "hit");
    let identical = cold_bodies == cached_bodies;

    let metrics = client::request(addr, "GET", "/metrics", "").expect("metrics");
    client::request(addr, "POST", "/shutdown", "").expect("shutdown");
    handle.join();

    let report = Value::object(vec![
        ("dataset", Value::string(id.short_name())),
        ("n_samples", base.n_samples.into()),
        ("identical_bodies", identical.into()),
        (
            "phases",
            Value::Array(vec![
                phase_report("cold", &mut cold),
                phase_report("cached", &mut cached),
            ]),
        ),
    ]);
    println!("{}", report.to_json());
    assert!(
        identical,
        "cached bodies must be byte-identical to cold ones"
    );
    assert!(metrics.body.contains("em_serve_cache_hits_total"));
}
