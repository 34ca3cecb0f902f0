//! Misbehaving clients thrown at the routing tier, over real TCP.
//!
//! The router runs on em-serve's connection skeleton, so it inherits the
//! per-connection deadline. This suite pins that at the router's own
//! port: connect-and-hold and slowloris header-drip connections run
//! against a router (1 s budget) in front of one healthy backend while
//! routed `/explain` traffic flows. Healthy responses must stay
//! byte-identical to an unloaded run, every attack connection must be
//! reaped within its deadline plus slack, and
//! `em_route_deadline_rejects_total` must count the attacks.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use em_codec::{ExplainOptions, Value};
use em_datagen::{DatasetId, MagellanBenchmark};
use em_entity::{EntityPair, Schema};
use em_matchers::{LogisticMatcher, MatcherConfig};
use em_par::ParallelismConfig;
use em_route::{BackendSpec, Router, RouterConfig};
use em_serve::client;
use em_serve::deadline::is_timeout;
use em_serve::{Server, ServerConfig};

/// The router's per-connection budget.
const CHAOS_DEADLINE: Duration = Duration::from_secs(1);

/// Every attack connection must be reaped within its deadline plus this
/// slack (queue wait + scheduling).
const REAP_SLACK: Duration = Duration::from_secs(2);

/// How often the slowloris attack feeds the router one byte.
const DRIP_INTERVAL: Duration = Duration::from_millis(100);

/// Attack connections of each kind.
const ATTACKS_PER_KIND: usize = 2;

fn explain_body(schema: &Schema, pair: &EntityPair) -> String {
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
            Value::object(vec![("n_samples", 32usize.into()), ("seed", 7usize.into())]),
        ),
    ])
    .to_json()
}

/// Reads `name value` from the Prometheus text output.
fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| {
            line.strip_prefix(name)
                .and_then(|rest| rest.strip_prefix(' ').and_then(|v| v.parse().ok()))
        })
        .unwrap_or_else(|| panic!("metric {name} not found"))
}

/// Drains the socket until EOF/reset (the router has finished with us)
/// and returns how long the connection lived since `started`, dripping
/// `drip` between polls if the attack drips.
fn await_reaped(stream: &TcpStream, started: Instant, drip: Option<&[u8]>) -> Duration {
    stream
        .set_read_timeout(Some(DRIP_INTERVAL))
        .expect("set read timeout");
    let mut buf = [0u8; 4096];
    loop {
        match (&mut (&*stream)).read(&mut buf) {
            // A 408 means the router is done with us; drain to the close.
            Ok(n) if n > 0 => continue,
            Ok(_) => return started.elapsed(),
            Err(e) if is_timeout(&e) => {
                if let Some(bytes) = drip {
                    if (&mut (&*stream)).write_all(bytes).is_err() {
                        return started.elapsed();
                    }
                }
            }
            Err(_) => return started.elapsed(),
        }
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "attack connection never reaped"
        );
    }
}

/// Connect-and-hold: open the connection and send nothing at all.
fn connect_and_hold(addr: SocketAddr) -> Duration {
    let started = Instant::now();
    let stream = TcpStream::connect(addr).expect("hold connect");
    await_reaped(&stream, started, None)
}

/// Slowloris: a real request line, then header bytes dripped one at a
/// time, forever. Only the total deadline stops it.
fn slowloris_header_drip(addr: SocketAddr) -> Duration {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("slowloris connect");
    stream
        .write_all(b"POST /explain HTTP/1.1\r\n")
        .expect("request line");
    await_reaped(&stream, started, Some(b"X"))
}

#[test]
fn routed_traffic_survives_hold_and_slowloris_attacks() {
    let suite_started = Instant::now();
    let dataset = MagellanBenchmark::scaled(0.05).generate(DatasetId::SFz);
    let schema = dataset.schema().clone();
    let matcher = LogisticMatcher::train(&dataset, &MatcherConfig::default());
    let backend = Server::bind(
        "127.0.0.1:0",
        schema.clone(),
        Box::new(matcher),
        ServerConfig {
            parallelism: ParallelismConfig::with_threads(2),
            defaults: ExplainOptions::default(),
            ..Default::default()
        },
    )
    .expect("bind backend")
    .spawn();
    let router = Router::bind(
        "127.0.0.1:0",
        schema.clone(),
        vec![BackendSpec::new("b0", backend.addr())],
        RouterConfig {
            parallelism: ParallelismConfig::with_threads(4),
            request_timeout: CHAOS_DEADLINE,
            max_queue_age: Duration::from_secs(30),
            ..Default::default()
        },
    )
    .expect("bind router")
    .spawn();
    let addr = router.addr();

    // Unloaded baseline through the router: one body per distinct pair.
    let bodies: Vec<String> = dataset
        .records()
        .iter()
        .take(4)
        .map(|r| explain_body(&schema, &r.pair))
        .collect();
    let baselines: Vec<String> = bodies
        .iter()
        .map(|b| {
            let resp = client::request(addr, "POST", "/explain", b).expect("baseline");
            assert_eq!(resp.status, 200, "{}", resp.body);
            resp.body
        })
        .collect();
    let before = client::request(addr, "GET", "/metrics", "")
        .expect("metrics")
        .body;
    let rejects_before = metric(&before, "em_route_deadline_rejects_total");

    std::thread::scope(|scope| {
        let attacks: Vec<_> = (0..ATTACKS_PER_KIND)
            .flat_map(|_| {
                vec![
                    scope.spawn(move || ("connect-and-hold", connect_and_hold(addr))),
                    scope.spawn(move || ("slowloris", slowloris_header_drip(addr))),
                ]
            })
            .collect();
        // Give the attacks a head start so they hold router workers.
        std::thread::sleep(Duration::from_millis(150));

        let healthy: Vec<_> = (0..2)
            .map(|t| {
                let bodies = &bodies;
                let baselines = &baselines;
                scope.spawn(move || {
                    for i in 0..6 {
                        let k = (t + i) % bodies.len();
                        let resp = client::request_with_timeout(
                            addr,
                            "POST",
                            "/explain",
                            &bodies[k],
                            Duration::from_secs(20),
                        )
                        .expect("healthy routed request must complete under attack");
                        assert_eq!(resp.status, 200, "healthy request failed under attack");
                        assert_eq!(
                            resp.body, baselines[k],
                            "routed response under attack diverged from the unloaded run"
                        );
                    }
                })
            })
            .collect();
        for h in healthy {
            h.join().expect("healthy client");
        }
        for a in attacks {
            let (kind, lived) = a.join().expect("attack client");
            assert!(
                lived <= CHAOS_DEADLINE + REAP_SLACK,
                "{kind} connection outlived deadline+slack: {lived:?}"
            );
        }
    });

    let after = client::request(addr, "GET", "/metrics", "")
        .expect("metrics")
        .body;
    let counted = metric(&after, "em_route_deadline_rejects_total") - rejects_before;
    assert!(
        counted >= 2 * ATTACKS_PER_KIND as u64,
        "expected every attack counted as a deadline reject: {after}"
    );

    for (addr, handle) in [(addr, router), (backend.addr(), backend)] {
        let bye = client::request(addr, "POST", "/shutdown", "").expect("shutdown");
        assert_eq!(bye.status, 200);
        handle.join();
    }
    assert!(
        suite_started.elapsed() < Duration::from_secs(60),
        "router chaos suite must stay under the CI wall-clock bound, took {:?}",
        suite_started.elapsed()
    );
}
