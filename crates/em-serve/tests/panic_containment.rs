//! A request whose handler panics must cost one 500, never the worker.
//!
//! `kernel_width: 1e-50` passes codec validation (a positive number), but
//! every LIME kernel weight then underflows to zero and the surrogate fit
//! panics. On a one-worker server a dead worker would leave every later
//! request hanging, so each exchange here runs under a client timeout:
//! a regression fails the test instead of wedging it.

use std::time::Duration;

use em_codec::explain::{decode_explain_request, run_explain};
use em_codec::{ExplainOptions, Value};
use em_entity::{EntityPair, MatchModel, Schema};
use em_par::ParallelismConfig;
use em_serve::client;
use em_serve::{Server, ServerConfig};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// A deterministic toy matcher: the share of attributes whose values are
/// equal on both sides.
struct EqualValues;

impl MatchModel for EqualValues {
    fn predict_proba(&self, schema: &Schema, pair: &EntityPair) -> f64 {
        let equal = (0..schema.len())
            .filter(|&i| pair.left.value(i) == pair.right.value(i))
            .count();
        equal as f64 / schema.len().max(1) as f64
    }
}

fn explain_body(config: Vec<(&str, Value)>) -> String {
    let entity = |name: &str, price: &str| {
        Value::object(vec![
            ("name", Value::string(name)),
            ("price", Value::string(price)),
        ])
    };
    Value::object(vec![
        (
            "pair",
            Value::object(vec![
                ("left", entity("sony alpha camera", "9")),
                ("right", entity("sony kit", "9")),
            ]),
        ),
        ("explainer", Value::string("lime")),
        ("config", Value::object(config)),
    ])
    .to_json()
}

#[test]
fn a_panicking_handler_answers_500_and_the_worker_survives() {
    let schema = Schema::from_names(vec!["name", "price"]);
    let server = Server::bind(
        "127.0.0.1:0",
        schema.clone(),
        Box::new(EqualValues),
        ServerConfig {
            parallelism: ParallelismConfig::with_threads(1),
            ..Default::default()
        },
    )
    .expect("bind");
    let handle = server.spawn();
    let addr = handle.addr();

    let deadly = explain_body(vec![
        ("kernel_width", Value::Number(1e-50)),
        ("n_samples", 32usize.into()),
        ("seed", 7usize.into()),
    ]);
    for attempt in 0..2 {
        let resp = client::request_with_timeout(addr, "POST", "/explain", &deadly, CLIENT_TIMEOUT)
            .unwrap_or_else(|e| panic!("attempt {attempt}: no answer from the worker: {e:?}"));
        assert_eq!(resp.status, 500, "attempt {attempt}: {}", resp.body);
        assert_eq!(resp.body, r#"{"error":"internal error"}"#);
    }

    let health = client::request_with_timeout(addr, "GET", "/healthz", "", CLIENT_TIMEOUT)
        .expect("the one worker still answers /healthz");
    assert_eq!(health.status, 200);

    let normal = explain_body(vec![("n_samples", 32usize.into()), ("seed", 7usize.into())]);
    let served = client::request_with_timeout(addr, "POST", "/explain", &normal, CLIENT_TIMEOUT)
        .expect("a normal explain after the panics");
    assert_eq!(served.status, 200, "{}", served.body);
    let decoded =
        decode_explain_request(&normal, &schema, &ExplainOptions::default()).expect("decodes");
    let direct = run_explain(&EqualValues, &schema, &decoded).to_json();
    assert_eq!(
        served.body, direct,
        "served body diverged from a direct run"
    );

    // The panics are charged as errors to the unparseable-request
    // endpoint; no new series appears.
    let text = client::request_with_timeout(addr, "GET", "/metrics", "", CLIENT_TIMEOUT)
        .expect("metrics")
        .body;
    assert!(
        text.contains("em_serve_request_errors_total{endpoint=\"other\"} 2\n"),
        "{text}"
    );

    let bye = client::request_with_timeout(addr, "POST", "/shutdown", "", CLIENT_TIMEOUT)
        .expect("shutdown");
    assert_eq!(bye.status, 200);
    handle.join();
}
