//! Readiness vs. liveness: `GET /readyz` must flip to 503 after
//! `POST /drain` while `/healthz` keeps answering 200 — a draining node
//! is alive (it still serves traffic sent directly at it) but must not
//! receive *new* traffic from a routing tier.

use em_codec::Value;
use em_entity::{EntityPair, MatchModel, Schema};
use em_serve::client;
use em_serve::{Server, ServerConfig};

/// A trivial model: these tests exercise the lifecycle only.
struct ConstModel;

impl MatchModel for ConstModel {
    fn predict_proba(&self, _schema: &Schema, _pair: &EntityPair) -> f64 {
        0.5
    }
}

fn spawn_server() -> em_serve::ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        Schema::from_names(vec!["name"]),
        Box::new(ConstModel),
        ServerConfig {
            parallelism: em_par::ParallelismConfig::with_threads(2),
            ..Default::default()
        },
    )
    .expect("bind ephemeral port")
    .spawn()
}

#[test]
fn readyz_reports_503_while_draining() {
    let handle = spawn_server();
    let addr = handle.addr();

    // Before draining: ready, not draining, queue depth reported.
    let ready = client::request(addr, "GET", "/readyz", "").unwrap();
    assert_eq!(ready.status, 200);
    let body = Value::parse(&ready.body).unwrap();
    assert_eq!(body.get("ready").unwrap().as_bool(), Some(true));
    assert_eq!(body.get("draining").unwrap().as_bool(), Some(false));
    assert!(
        body.get("queue_depth").unwrap().as_f64().is_some(),
        "queue_depth must be a number: {}",
        ready.body
    );

    // Drain is acknowledged...
    let drain = client::request(addr, "POST", "/drain", "").unwrap();
    assert_eq!(drain.status, 200);
    assert_eq!(
        Value::parse(&drain.body)
            .unwrap()
            .get("draining")
            .unwrap()
            .as_bool(),
        Some(true)
    );

    // ...after which readiness is 503 but liveness stays 200: the node
    // still answers direct traffic, it just wants no new assignments.
    let draining = client::request(addr, "GET", "/readyz", "").unwrap();
    assert_eq!(draining.status, 503);
    let body = Value::parse(&draining.body).unwrap();
    assert_eq!(body.get("ready").unwrap().as_bool(), Some(false));
    assert_eq!(body.get("draining").unwrap().as_bool(), Some(true));
    let health = client::request(addr, "GET", "/healthz", "").unwrap();
    assert_eq!(health.status, 200);

    // A draining node still serves: /predict keeps working.
    let pred = client::request(
        addr,
        "POST",
        "/predict",
        r#"{"pair":{"left":{"name":"a"},"right":{"name":"b"}}}"#,
    )
    .unwrap();
    assert_eq!(pred.status, 200);

    // Wrong methods are rejected, not silently tolerated.
    assert_eq!(
        client::request(addr, "POST", "/readyz", "").unwrap().status,
        405
    );
    assert_eq!(
        client::request(addr, "GET", "/drain", "").unwrap().status,
        405
    );

    let bye = client::request(addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(bye.status, 200);
    handle.join();
}
