//! The two serving workloads: client → em-route → two em-serve backends.
//!
//! * `serve_cold`: T-AB at full Table-1 scale, landmark explainer, 500
//!   samples; every request carries a fresh (record, seed) pair, so every
//!   request misses the cache and the explainer layers do the work.
//! * `serve_hot`: S-BR; keys follow a Zipf law over a fixed universe of
//!   (record, explainer, seed) with a small `n_samples`, plus a fixed
//!   share of `POST /predict`. Each backend's cache holds less than its
//!   share of the universe, so the tail misses, inserts and evicts while
//!   HTTP, codec, cache and ring do most of the work.
//!
//! A run binds the fleet, warms it, then measures an open-loop phase at
//! the workload's fixed rate (`p50_ms`, `p95_ms`) followed by a
//! closed-loop phase with `nproc` connections (`goodput_rps`,
//! `records_per_s`). The traced run sends the same seeded open-loop
//! traffic to a fresh fleet, keeps the responses, and replays every
//! request single-threaded through the public calls the router and the
//! backend make (see [`replay_request`]).

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use em_codec::explain::{
    cache_key, decode_explain_request, decode_pair, encode_prediction, run_explain, ExplainOptions,
    ExplainRequest, ExplainerKind,
};
use em_codec::json::Value;
use em_datagen::{DatasetId, MagellanBenchmark};
use em_entity::{EntityPair, EntitySide, Schema};
use em_matchers::{LogisticMatcher, MatcherConfig};
use em_serve::client::{self, ClientResponse};
use em_serve::http::{read_request, Response};
use em_serve::ShardedCache;

use crate::fleet::{CounterDelta, Fleet};
use crate::load::{self, Completion, Failure, Outcome, Request};
use crate::replay::{self, Counts};
use crate::report::{self, peak_rss_mb, Report, Runner};
use crate::rng::{Rng, Zipf};
use crate::spans::Recorder;
use crate::stats;

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Every request misses.
    Cold,
    /// Zipf-keyed mixed traffic against undersized caches.
    Hot,
}

/// Fixed parameters of a serving workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The workload.
    pub kind: Kind,
    /// Dataset the records come from.
    pub dataset: DatasetId,
    /// Perturbation samples per explanation.
    pub n_samples: usize,
    /// Open-loop arrival rate, requests per second.
    pub rate: f64,
    /// Latency limit for goodput, milliseconds.
    pub limit_ms: f64,
    /// Explanation-cache entries per backend.
    pub cache_capacity: usize,
    /// Requests sent before timing starts.
    pub warmup: usize,
}

/// `serve_cold`.
pub const COLD: Spec = Spec {
    kind: Kind::Cold,
    dataset: DatasetId::TAb,
    n_samples: 500,
    rate: 50.0,
    limit_ms: 100.0,
    cache_capacity: 256,
    warmup: 64,
};

/// `serve_hot`.
pub const HOT: Spec = Spec {
    kind: Kind::Hot,
    dataset: DatasetId::SBr,
    n_samples: 32,
    rate: 500.0,
    limit_ms: 20.0,
    cache_capacity: 256,
    warmup: 3000,
};

/// Explainers in the hot universe.
const HOT_EXPLAINERS: [ExplainerKind; 3] = [
    ExplainerKind::Landmark,
    ExplainerKind::Lime,
    ExplainerKind::MojitoCopy,
];
/// Seeds per (record, explainer) in the hot universe.
const HOT_SEEDS: u64 = 2;
/// Zipf exponent of hot keys and hot predictions.
const ZIPF_S: f64 = 1.0;
/// Share of hot traffic that is `POST /predict`.
const PREDICT_SHARE: f64 = 0.2;
/// The `POST /predict` decision threshold (em-serve's default).
const PREDICT_THRESHOLD: f64 = 0.5;
/// Cached requests timed through the router and direct for
/// `em-route.added_us`.
const PROBES: usize = 100;

/// Request streams: each phase draws from its own.
const WARMUP: u64 = 0;
const OPEN: u64 = 1;
const CLOSED: u64 = 2;
const STREAM_SPAN: usize = 1 << 32;

/// Masks a seed below 2^53 so it survives a JSON number.
fn json_seed(x: u64) -> u64 {
    x & ((1 << 53) - 1)
}

/// The seeded request population of one run.
struct Traffic {
    spec: Spec,
    seed: u64,
    schema: Schema,
    pairs: Vec<EntityPair>,
    /// Seeded record order.
    order: Vec<usize>,
    /// Hot universe: (record, explainer, seed), shuffled so Zipf rank
    /// and record are unrelated.
    universe: Vec<(usize, ExplainerKind, u64)>,
    key_zipf: Zipf,
    record_zipf: Zipf,
}

impl Traffic {
    fn new(spec: Spec, seed: u64, schema: Schema, pairs: Vec<EntityPair>) -> Traffic {
        let mut rng = Rng::new(seed, 0x7261_6666);
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        rng.shuffle(&mut order);
        let mut universe = Vec::new();
        if spec.kind == Kind::Hot {
            for record in 0..pairs.len() {
                for explainer in HOT_EXPLAINERS {
                    for s in 0..HOT_SEEDS {
                        universe.push((record, explainer, json_seed(seed.wrapping_add(s))));
                    }
                }
            }
            rng.shuffle(&mut universe);
        }
        Traffic {
            key_zipf: Zipf::new(universe.len().max(1), ZIPF_S),
            record_zipf: Zipf::new(pairs.len(), ZIPF_S),
            spec,
            seed,
            schema,
            pairs,
            order,
            universe,
        }
    }

    /// Request `i` of `stream`.
    fn request(&self, stream: u64, i: usize) -> Request {
        let key = match self.spec.kind {
            Kind::Cold => stream as usize * STREAM_SPAN + i,
            Kind::Hot => {
                let mut rng = Rng::new(self.seed, (stream << 40) ^ i as u64);
                if rng.unit() < PREDICT_SHARE {
                    self.universe.len() + self.order[self.record_zipf.sample(&mut rng)]
                } else {
                    self.key_zipf.sample(&mut rng)
                }
            }
        };
        let (path, body) = self.body(key);
        Request { path, body, key }
    }

    /// What key `key` asks: an explain request, or a prediction for a
    /// record.
    fn item(&self, key: usize) -> Result<ExplainRequest, usize> {
        let (record, explainer, seed) = match self.spec.kind {
            Kind::Cold => {
                let (stream, i) = (key / STREAM_SPAN, key % STREAM_SPAN);
                let record = self.order[(i + stream * 7919) % self.pairs.len()];
                let seed = json_seed(Rng::new(self.seed, key as u64).next_u64());
                (record, ExplainerKind::Landmark, seed)
            }
            Kind::Hot => match self.universe.get(key) {
                Some(&entry) => entry,
                None => return Err(key - self.universe.len()),
            },
        };
        Ok(ExplainRequest {
            pair: self.pairs[record].clone(),
            explainer,
            options: ExplainOptions {
                n_samples: self.spec.n_samples,
                seed,
                ..ExplainOptions::default()
            },
        })
    }

    fn pair_value(&self, pair: &EntityPair) -> Value {
        let entity = |side| {
            Value::Object(
                (0..self.schema.len())
                    .map(|i| {
                        let e: &em_entity::Entity = pair.entity(side);
                        (self.schema.name(i).to_string(), Value::string(e.value(i)))
                    })
                    .collect(),
            )
        };
        Value::object(vec![
            ("left", entity(EntitySide::Left)),
            ("right", entity(EntitySide::Right)),
        ])
    }

    fn body(&self, key: usize) -> (&'static str, String) {
        match self.item(key) {
            Ok(req) => (
                "/explain",
                Value::object(vec![
                    ("pair", self.pair_value(&req.pair)),
                    ("explainer", Value::string(req.explainer.name())),
                    (
                        "config",
                        Value::object(vec![
                            ("n_samples", req.options.n_samples.into()),
                            ("seed", Value::Number(req.options.seed as f64)),
                        ]),
                    ),
                ])
                .to_json(),
            ),
            Err(record) => (
                "/predict",
                Value::object(vec![("pair", self.pair_value(&self.pairs[record]))]).to_json(),
            ),
        }
    }

    /// The body a correct server answers for `key`, computed in-process.
    fn expected(&self, model: &LogisticMatcher, key: usize) -> String {
        match self.item(key) {
            Ok(req) => run_explain(model, &self.schema, &req).to_json(),
            Err(record) => encode_prediction(
                em_entity::MatchModel::predict_proba(model, &self.schema, &self.pairs[record]),
                PREDICT_THRESHOLD,
            )
            .to_json(),
        }
    }

    /// For each (key, 2xx body hash), whether the body differs from the
    /// in-process answer. The expected bodies are computed after the
    /// timed phases, on `threads` threads.
    fn mismatches(
        &self,
        model: &LogisticMatcher,
        answers: &[(usize, Option<u64>)],
        threads: usize,
    ) -> Vec<bool> {
        let keys: Vec<usize> = answers
            .iter()
            .filter(|(_, hash)| hash.is_some())
            .map(|(key, _)| *key)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let chunk = keys.len().div_ceil(threads.max(1)).max(1);
        let expected: BTreeMap<usize, u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = keys
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        part.iter()
                            .map(|&k| (k, em_codec::fnv1a64(self.expected(model, k).as_bytes())))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("verification thread panicked"))
                .collect()
        });
        answers
            .iter()
            .map(|(key, hash)| hash.is_some_and(|h| expected.get(key) != Some(&h)))
            .collect()
    }

    fn open_requests(&self, n: usize) -> Vec<Request> {
        (0..n).map(|i| self.request(OPEN, i)).collect()
    }

    fn warm(&self, fleet: &Fleet, threads: usize) {
        let make = |i: usize| self.request(WARMUP, i % self.spec.warmup.max(1));
        let addr = fleet.router_addr();
        let per_thread = self.spec.warmup.div_ceil(threads.max(1));
        std::thread::scope(|scope| {
            for t in 0..threads.max(1) {
                scope.spawn(move || {
                    for j in 0..per_thread {
                        let r = make(t * per_thread + j);
                        let _ = client::exchange_with_timeout(
                            addr,
                            "POST",
                            r.path,
                            &r.body,
                            load::REQUEST_TIMEOUT,
                        );
                    }
                });
            }
        });
    }
}

/// Dataset, matcher and traffic: what every setup rebuilds.
fn prepare(spec: Spec, seed: u64) -> (Traffic, LogisticMatcher) {
    let dataset = MagellanBenchmark::default().generate(spec.dataset);
    let matcher = LogisticMatcher::train(&dataset, &MatcherConfig::default());
    let pairs = dataset.records().iter().map(|r| r.pair.clone()).collect();
    (
        Traffic::new(spec, seed, dataset.schema().clone(), pairs),
        matcher,
    )
}

/// Everything a serving run sets up, `runner.setups` times; the first
/// set-up is timed from process start.
fn setup(
    spec: Spec,
    runner: &Runner,
    started: Instant,
) -> std::io::Result<(Traffic, LogisticMatcher, Fleet, Vec<f64>)> {
    let mut times = Vec::new();
    let mut last: Option<(Traffic, LogisticMatcher, Fleet)> = None;
    for _ in 0..runner.setups.max(1) {
        let t0 = match last.take() {
            Some((_, _, fleet)) => {
                fleet.shutdown();
                Instant::now()
            }
            None => started,
        };
        let (traffic, matcher) = prepare(spec, runner.seed);
        let fleet = Fleet::start(&traffic.schema, &matcher, runner.nproc, spec.cache_capacity)?;
        traffic.warm(&fleet, runner.nproc);
        times.push(t0.elapsed().as_secs_f64());
        last = Some((traffic, matcher, fleet));
    }
    let (traffic, matcher, fleet) = last.expect("at least one setup");
    Ok((traffic, matcher, fleet, times))
}

/// Latencies in ms, in schedule order, with failures counted at the
/// request timeout (a failed request misses every limit).
fn latencies(outcomes: &[Outcome]) -> Vec<f64> {
    let floor = load::ms(load::REQUEST_TIMEOUT);
    outcomes
        .iter()
        .map(|o| match o.result {
            Ok(_) => o.latency_ms(),
            Err(_) => o.latency_ms().max(floor),
        })
        .collect()
}

/// Answers per second that pass `keep`, in each
/// [`report::WINDOW_SECS`] window of a closed-loop phase that lasted
/// `wall` (a short last window is dropped).
fn windowed_rates(
    answers: &[Completion],
    keep: impl Fn(usize, &Completion) -> bool,
    wall: Duration,
) -> Vec<f64> {
    let windows = ((wall.as_secs_f64() / report::WINDOW_SECS) as usize).max(1);
    let mut counts = vec![0usize; windows];
    for (i, c) in answers.iter().enumerate() {
        if let Some(count) = counts.get_mut((f64::from(c.at) / report::WINDOW_SECS) as usize) {
            *count += usize::from(keep(i, c));
        }
    }
    counts
        .iter()
        .map(|&c| c as f64 / report::WINDOW_SECS)
        .collect()
}

/// Failures by type, for the report.
fn failure_table(results: &[Result<u64, Failure>]) -> BTreeMap<Failure, usize> {
    let mut table = BTreeMap::new();
    for r in results {
        if let Err(f) = r {
            *table.entry(*f).or_default() += 1;
        }
    }
    table
}

/// Checks the benchmark's own failure count against the fleet's
/// counters; returns a description of any disagreement.
fn reconcile(results: &[Result<u64, Failure>], delta: &CounterDelta) -> Option<String> {
    let ok = results.iter().filter(|r| r.is_ok()).count() as f64;
    let non_2xx = results
        .iter()
        .filter(|r| matches!(r, Err(Failure::Status(_))))
        .count() as f64;
    (ok != delta.route_ok || non_2xx != delta.route_non_2xx).then(|| {
        format!(
            "bench saw {ok} 2xx / {non_2xx} non-2xx; router counted {} ok / {} non-2xx",
            delta.route_ok, delta.route_non_2xx
        )
    })
}

fn open_phase(traffic: &Traffic, fleet: &Fleet, runner: &Runner, keep: bool) -> Vec<Outcome> {
    let open_secs = runner.seconds * OPEN_SHARE;
    let n = (traffic.spec.rate * open_secs).round().max(1.0) as usize;
    let mut rng = Rng::new(runner.seed, 0x5343_4845);
    let due = load::poisson_schedule(&mut rng, traffic.spec.rate, n);
    load::open_loop(
        fleet.router_addr(),
        &traffic.open_requests(n),
        &due,
        runner.nproc,
        keep,
    )
}

/// Share of `--seconds` spent in the open-loop phase; the closed loop
/// takes the rest.
const OPEN_SHARE: f64 = 0.6;

/// Runs a serving workload with tracing off: the end-to-end metrics.
pub fn run(spec: Spec, runner: &Runner, started: Instant) -> std::io::Result<Report> {
    let (traffic, matcher, fleet, setups) = setup(spec, runner, started)?;
    let before = fleet.scrape();
    let open = open_phase(&traffic, &fleet, runner, false);
    let make = |i: usize| traffic.request(CLOSED, i);
    let closed_secs = runner.seconds * (1.0 - OPEN_SHARE);
    let cpu0 = report::cpu_secs();
    let (closed, closed_wall) = load::closed_loop(
        fleet.router_addr(),
        &make,
        runner.nproc,
        Duration::from_secs_f64(closed_secs),
    );
    let cpu = report::cpu_secs() - cpu0;
    let after = fleet.scrape();
    let rss = peak_rss_mb();
    fleet.shutdown();

    let results: Vec<Result<u64, Failure>> = open
        .iter()
        .map(|o| o.result)
        .chain(closed.iter().map(|c| c.result))
        .collect();
    let answers: Vec<(usize, Option<u64>)> = open
        .iter()
        .map(|o| (o.key, o.result.ok()))
        .chain(closed.iter().map(|c| (c.key, c.result.ok())))
        .collect();
    let mismatched = traffic.mismatches(&matcher, &answers, runner.nproc);
    let closed_flags = &mismatched[open.len()..];
    // A mismatched body never counts as a good or fast request.
    let correct = |i: usize, c: &Completion| c.result.is_ok() && !closed_flags[i];
    let records = windowed_rates(&closed, correct, closed_wall);
    let goodput = windowed_rates(
        &closed,
        |i, c| correct(i, c) && f64::from(c.latency_ms) <= spec.limit_ms,
        closed_wall,
    );
    let n_mismatched = mismatched.iter().filter(|&&b| b).count();
    let wire_failed = results.iter().filter(|r| r.is_err()).count();

    let mut report = Report::new(results.len(), wire_failed + n_mismatched);
    if n_mismatched > 0 {
        report.fail_check(format!(
            "{n_mismatched} response bodies differ from the in-process computation"
        ));
    }
    report.setup(&setups);
    report.latency(&latencies(&open));
    report.lateness(&open, "open");
    let wall = closed_wall.as_secs_f64();
    report.rate("goodput_rps", &goodput, "req/s");
    report.rate("records_per_s", &records, "records/s");
    report.metric("peak_rss_mb", rss, "MB");
    let served = (0..closed.len())
        .filter(|&i| correct(i, &closed[i]))
        .count();
    report.metric("cpu_ms_per_record", cpu * 1e3 / served.max(1) as f64, "ms");
    report.note(format!(
        "open loop: {} requests at {} req/s; closed loop: {} requests on {} connections in {:.3} s, limit {} ms",
        open.len(),
        spec.rate,
        closed.len(),
        runner.nproc,
        wall,
        spec.limit_ms
    ));
    let delta = CounterDelta::between(&before, &after);
    report.failures(&failure_table(&results), &delta);
    if let Some(problem) = reconcile(&results, &delta) {
        report.fail_check(format!("failure accounting does not reconcile: {problem}"));
    }
    Ok(report)
}

/// The wire bytes `em_serve::client` sends for `request` to `addr`.
fn wire(addr: SocketAddr, request: &Request) -> String {
    format!(
        "POST {} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        request.path,
        request.body.len(),
        request.body
    )
}

/// The router's routing key for a prediction: the canonical JSON of the
/// pair's values in schema order (em-route keys `/predict` this way so
/// a pair's predictions and explanations share a backend). A copy of the
/// router's private function; the replay checks its ring owner against
/// the live `X-Backend` header, so a drift fails the run.
fn predict_key(schema: &Schema, pair: &EntityPair) -> String {
    let values = |side: EntitySide| {
        Value::Array(
            (0..schema.len())
                .map(|i| Value::string(pair.entity(side).value(i)))
                .collect(),
        )
    };
    Value::object(vec![
        ("left", values(EntitySide::Left)),
        ("right", values(EntitySide::Right)),
    ])
    .to_json()
}

/// What the replay of one request established.
struct Replayed {
    /// Duration of the request's replay root, ns.
    total_ns: u64,
    /// `false` when the replay could not reproduce the live answer.
    faithful: bool,
}

/// Replays one live request through the router's and the backend's
/// public calls, in the order they make them:
///
/// router: `http::read_request`, `decode_explain_request` (or the
/// predict decode), `cache_key`, `Ring::owner`; backend:
/// `http::read_request`, `decode_explain_request`, `cache_key`,
/// `ShardedCache::get`, on a miss the explanation (landmark step by
/// step, other explainers as one `run_explain`), `Value::to_json`,
/// `ShardedCache::insert`, `Response::to_wire`; router:
/// `Response::to_wire` of the passed-through answer. Predictions run
/// `decode_pair`, `predict_proba` and the encode instead.
#[allow(clippy::too_many_arguments)]
fn replay_request(
    rec: &mut Recorder,
    id: u64,
    fleet: &Fleet,
    traffic: &Traffic,
    model: &LogisticMatcher,
    request: &Request,
    live: &ClientResponse,
    caches: &[ShardedCache],
    counts: &mut Counts,
) -> Replayed {
    let schema = &traffic.schema;
    let defaults = ExplainOptions::default();
    let explain = request.path == "/explain";
    let mut faithful = true;
    let root = rec.enter("replay.request", id);

    let tier = rec.enter("replay.router", id);
    let bytes = wire(fleet.router_addr(), request);
    let parsed = rec.time("em-serve.read_request", id, || {
        read_request(bytes.as_bytes())
    });
    let body = parsed.map(|r| r.body).unwrap_or_default();
    let key = if explain {
        let decoded = rec.time("em-codec.decode_explain_request", id, || {
            decode_explain_request(&body, schema, &defaults)
        });
        decoded.map(|d| rec.time("em-codec.cache_key", id, || cache_key(schema, &d)))
    } else {
        let pair = rec.time("em-codec.decode_pair", id, || {
            Value::parse(&body)
                .map_err(|e| e.to_string())
                .and_then(|v| decode_pair(&v, schema))
        });
        pair.map(|p| rec.time("em-route.predict_key", id, || predict_key(schema, &p)))
    };
    let key = key.unwrap_or_default();
    let owner = rec
        .time("em-route.owner", id, || fleet.ring().owner(&key))
        .unwrap_or(0);
    rec.exit(tier);
    let backend_name = fleet.specs()[owner].name.as_str();
    faithful &= live.header("x-backend") == Some(backend_name);

    let tier = rec.enter("replay.backend", id);
    let bytes = wire(fleet.backend_addrs()[owner], request);
    let parsed = rec.time("em-serve.read_request", id, || {
        read_request(bytes.as_bytes())
    });
    let body = parsed.map(|r| r.body).unwrap_or_default();
    let live_value = Value::parse(&live.body).unwrap_or(Value::Null);
    let response = if explain {
        let decoded = rec.time("em-codec.decode_explain_request", id, || {
            decode_explain_request(&body, schema, &defaults)
        });
        let Ok(decoded) = decoded else {
            rec.exit(tier);
            rec.exit(root);
            return Replayed {
                total_ns: rec.duration(root),
                faithful: false,
            };
        };
        let key = rec.time("em-codec.cache_key", id, || cache_key(schema, &decoded));
        let cache = &caches[owner];
        rec.time("em-serve.cache_get", id, || cache.get(&key));
        let hit = live.header("x-cache") == Some("hit");
        if !hit {
            if decoded.explainer == ExplainerKind::Landmark {
                let coefficients = replay::landmark(
                    rec,
                    id,
                    model,
                    schema,
                    &decoded.pair,
                    &decoded.options,
                    counts,
                );
                faithful &= replay::served_coefficients(&live_value)
                    .is_some_and(|served| replay::same_bits(&served, &coefficients));
            } else {
                let value = rec.time("em-codec.run_explain", id, || {
                    run_explain(model, schema, &decoded)
                });
                faithful &= value.to_json() == live.body;
            }
            let encoded = rec.time("em-codec.to_json", id, || live_value.to_json());
            faithful &= encoded == live.body;
            rec.time("em-serve.cache_insert", id, || cache.insert(key, encoded));
        }
        Response::json(200, live.body.clone())
            .with_header("X-Cache", if hit { "hit" } else { "miss" })
            .with_header("X-Timing", live.header("x-timing").unwrap_or(""))
    } else {
        let pair = rec.time("em-codec.decode_pair", id, || {
            Value::parse(&body)
                .map_err(|e| e.to_string())
                .and_then(|v| decode_pair(&v, schema))
        });
        if let Ok(pair) = pair {
            let p = rec.time("em-matchers.predict_proba", id, || {
                em_entity::MatchModel::predict_proba(model, schema, &pair)
            });
            faithful &= encode_prediction(p, PREDICT_THRESHOLD).to_json() == live.body;
        } else {
            faithful = false;
        }
        let encoded = rec.time("em-codec.to_json", id, || live_value.to_json());
        faithful &= encoded == live.body;
        Response::json(200, live.body.clone())
    };
    rec.time("em-serve.to_wire", id, || response.to_wire());
    rec.exit(tier);

    let tier = rec.enter("replay.router", id);
    let mut passed = Response::json(200, live.body.clone());
    for header in ["x-cache", "x-timing"] {
        if let Some(value) = live.header(header) {
            passed = passed.with_header(header, value);
        }
    }
    let passed = passed.with_header("X-Backend", backend_name);
    rec.time("em-serve.to_wire", id, || passed.to_wire());
    rec.exit(tier);
    rec.exit(root);
    Replayed {
        total_ns: rec.duration(root),
        faithful,
    }
}

/// `em-route.added_us`: cached requests sent through the router and
/// straight to their ring owner, alternating which goes first; the
/// difference of the two medians, over hit pairs only.
fn router_added_us(fleet: &Fleet, traffic: &Traffic, requests: &[Request]) -> f64 {
    let mut routed = Vec::new();
    let mut direct = Vec::new();
    let defaults = ExplainOptions::default();
    for (i, request) in requests.iter().enumerate() {
        let Ok(decoded) = decode_explain_request(&request.body, &traffic.schema, &defaults) else {
            continue;
        };
        let owner = fleet
            .ring()
            .owner(&cache_key(&traffic.schema, &decoded))
            .unwrap_or(0);
        let targets = [fleet.router_addr(), fleet.backend_addrs()[owner]];
        let mut times = [0.0; 2];
        let mut hits = true;
        for k in 0..2 {
            let which = if i % 2 == 0 { k } else { 1 - k };
            let t0 = Instant::now();
            let r = client::exchange_with_timeout(
                targets[which],
                "POST",
                request.path,
                &request.body,
                load::REQUEST_TIMEOUT,
            );
            times[which] = t0.elapsed().as_secs_f64() * 1e6;
            hits &= r.is_ok_and(|r| r.header("x-cache") == Some("hit"));
        }
        if hits {
            routed.push(times[0]);
            direct.push(times[1]);
        }
    }
    stats::median(&routed) - stats::median(&direct)
}

/// Runs a serving workload's traced run: the per-layer metrics.
pub fn run_traced(spec: Spec, runner: &Runner, started: Instant) -> std::io::Result<Report> {
    let (traffic, matcher, fleet, setups) = setup(spec, runner, started)?;
    let untraced = open_phase(&traffic, &fleet, runner, false);
    fleet.shutdown();

    // The same seeded traffic against a fresh fleet, so every cold
    // request misses again and the hot caches start from the same
    // warm state.
    let fleet = Fleet::start(&traffic.schema, &matcher, runner.nproc, spec.cache_capacity)?;
    traffic.warm(&fleet, runner.nproc);
    // The recorder's clock must start before the live spans it records.
    let mut rec = Recorder::new();
    let before = fleet.scrape();
    let traced = open_phase(&traffic, &fleet, runner, true);
    let after = fleet.scrape();
    let requests = traffic.open_requests(traced.len());
    let probes: Vec<Request> = match spec.kind {
        // The most recent misses: still in the backends' caches.
        Kind::Cold => requests.iter().rev().take(PROBES).cloned().collect(),
        Kind::Hot => (0..PROBES.min(traffic.universe.len()))
            .map(|k| {
                let (path, body) = traffic.body(k);
                Request { path, body, key: k }
            })
            .collect(),
    };
    let added_us = router_added_us(&fleet, &traffic, &probes);
    let delta = CounterDelta::between(&before, &after);

    let caches: Vec<ShardedCache> = fleet
        .specs()
        .iter()
        .map(|_| {
            ShardedCache::new(
                spec.cache_capacity,
                em_serve::ServerConfig::default().cache_shards,
            )
        })
        .collect();
    // Warm the replay caches with the warm-up stream, as the live ones.
    let warm_keys: Vec<(usize, String)> = (0..spec.warmup)
        .filter_map(|i| {
            let r = traffic.request(WARMUP, i);
            let d = decode_explain_request(&r.body, &traffic.schema, &ExplainOptions::default())
                .ok()?;
            let key = cache_key(&traffic.schema, &d);
            Some((fleet.ring().owner(&key)?, key))
        })
        .collect();
    for (owner, key) in warm_keys {
        caches[owner].insert(key, String::new());
    }
    let mut counts = Counts::default();
    let mut waits = Vec::new();
    let mut unfaithful = 0usize;
    let mut replayed = 0usize;
    for (o, request) in traced.iter().zip(&requests) {
        let live_start = rec.record("bench.request", o.index as u64, o.due, o.done, None);
        rec.record(
            "bench.wait",
            o.index as u64,
            o.due,
            o.sent,
            Some(live_start),
        );
        rec.record(
            "bench.exchange",
            o.index as u64,
            o.sent,
            o.done,
            Some(live_start),
        );
        let (Ok(_), Some(live)) = (o.result, &o.response) else {
            continue;
        };
        let r = replay_request(
            &mut rec,
            o.index as u64,
            &fleet,
            &traffic,
            &matcher,
            request,
            live,
            &caches,
            &mut counts,
        );
        replayed += 1;
        unfaithful += usize::from(!r.faithful);
        waits.push(o.latency_ms() - r.total_ns as f64 / 1e6);
    }
    fleet.shutdown();

    let results: Vec<Result<u64, Failure>> = traced.iter().map(|o| o.result).collect();
    let answers: Vec<(usize, Option<u64>)> =
        traced.iter().map(|o| (o.key, o.result.ok())).collect();
    let n_mismatched = traffic
        .mismatches(&matcher, &answers, runner.nproc)
        .iter()
        .filter(|&&b| b)
        .count();
    let wire_failed = results.iter().filter(|r| r.is_err()).count();
    let mut report = Report::new(results.len(), wire_failed + n_mismatched);
    if n_mismatched > 0 {
        report.fail_check(format!(
            "{n_mismatched} response bodies differ from the in-process computation"
        ));
    }
    report.setup(&setups);
    if unfaithful > 0 {
        report.fail_check(format!(
            "{unfaithful} of {replayed} replayed requests did not reproduce the live answer"
        ));
    }
    let explains: Vec<&Outcome> = traced
        .iter()
        .zip(&requests)
        .filter(|(o, r)| r.path == "/explain" && o.result.is_ok())
        .map(|(o, _)| o)
        .collect();
    let hit_ratio =
        explains.iter().filter(|o| o.cache_hit).count() as f64 / explains.len().max(1) as f64;
    let body_bytes: Vec<f64> = traced
        .iter()
        .filter_map(|o| o.response.as_ref().map(|r| r.body.len() as f64))
        .collect();
    let untraced_p50 = stats::median(&latencies(&untraced));
    let traced_p50 = stats::median(&latencies(&traced));

    let layers = crate::report::Layers::from_recorder(&rec);
    report.layer_metrics(&layers, &counts, replayed);
    report.per_layer("em-route.added_us", added_us);
    report.per_layer("em-route.failovers", delta.failovers);
    report.per_layer("em-serve.hit_ratio", hit_ratio);
    report.per_layer("em-serve.wait_ms", stats::median(&waits));
    report.per_layer("em-serve.rejects", delta.total_rejects());
    report.per_layer("em-codec.body_bytes", stats::median(&body_bytes));
    report.per_layer("bench.trace_overhead", traced_p50 / untraced_p50 - 1.0);
    report.lateness(&untraced, "open (untraced)");
    report.lateness(&traced, "open (traced)");
    report.failures(&failure_table(&results), &delta);
    if let Some(problem) = reconcile(&results, &delta) {
        report.fail_check(format!("failure accounting does not reconcile: {problem}"));
    }
    report.write_spans(&rec, runner)?;
    Ok(report)
}
