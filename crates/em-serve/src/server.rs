//! The explanation server: the em-serve [`Service`] — routing, the
//! handlers, and their state.
//!
//! The connection lifecycle (accept loop, bounded queue, shedding,
//! per-connection deadlines, panic containment, shutdown) is the shared
//! [`Skeleton`] in [`crate::service`]; this module plugs the explanation
//! endpoints into it. Every rejection is attributed to a cause in
//! `em_serve_rejects_total{cause=...}` (DESIGN.md §14). `POST /drain`
//! flips readiness without stopping service.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use em_codec::explain::{
    cache_key, decode_explain_request, decode_pair, encode_prediction, run_explain_traced,
    ExplainOptions,
};
use em_codec::Value;
use em_entity::{MatchModel, Schema};
use em_obs::Tracer;
use em_par::ParallelismConfig;

use crate::cache::ShardedCache;
use crate::http::{Request, Response};
use crate::metrics::{Endpoint, Metrics, RejectCause};
use crate::service::{error_body, Service, ServiceHandle, Skeleton};

/// Server tunables.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker-pool sizing; `worker_count()` resolves `threads: 0` to the
    /// core count.
    pub parallelism: ParallelismConfig,
    /// Accepted-but-unserved connections held before shedding with 503.
    pub queue_depth: usize,
    /// Explanation-cache capacity (entries).
    pub cache_capacity: usize,
    /// Explanation-cache shard count.
    pub cache_shards: usize,
    /// Default explainer options, overridable per request via `"config"`.
    pub defaults: ExplainOptions,
    /// Decision threshold for `POST /predict`.
    pub predict_threshold: f64,
    /// An `/explain` request slower than this (wall-clock, milliseconds)
    /// is logged to stderr with its stage breakdown and counted in
    /// `em_serve_slow_requests_total`. `None` disables slow-request
    /// logging entirely.
    pub slow_request_ms: Option<u64>,
    /// Total wall-clock budget for one connection once a worker picks it
    /// up: reading the request (however slowly the client drips it),
    /// computing, and writing the response all share this one deadline.
    pub request_timeout: Duration,
    /// Admission bound: a connection that waited in the queue longer
    /// than this is discarded unanswered — its client has almost
    /// certainly timed out, and serving it would waste compute.
    pub max_queue_age: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            parallelism: ParallelismConfig::auto(),
            queue_depth: 64,
            cache_capacity: 1024,
            cache_shards: 8,
            defaults: ExplainOptions::default(),
            predict_threshold: 0.5,
            slow_request_ms: Some(1_000),
            request_timeout: Duration::from_secs(30),
            max_queue_age: Duration::from_secs(10),
        }
    }
}

/// Everything the request handlers share.
struct AppState {
    /// The connection lifecycle; `GET /readyz` reports its queue depth.
    skeleton: Skeleton,
    schema: Schema,
    model: Box<dyn MatchModel + Send + Sync>,
    cache: ShardedCache,
    metrics: Metrics,
    defaults: ExplainOptions,
    predict_threshold: f64,
    slow_request_ms: Option<u64>,
    /// Set by `POST /drain`: the node keeps serving, but `GET /readyz`
    /// answers 503 so a routing tier stops sending it new traffic.
    draining: AtomicBool,
}

/// A bound explanation server. [`Server::run`] blocks until shutdown;
/// [`Server::spawn`] runs it on a background thread for tests.
pub struct Server {
    state: AppState,
}

impl std::fmt::Debug for Server {
    // Manual impl: `AppState` holds a `Box<dyn MatchModel>`, which cannot
    // be printed; the skeleton (address, sizing) is what a log line needs.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("skeleton", &self.state.skeleton)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds the listener and assembles the server state. Bind to port 0
    /// for an ephemeral port (tests).
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        schema: Schema,
        model: Box<dyn MatchModel + Send + Sync>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        Ok(Server {
            state: AppState {
                skeleton: Skeleton::bind(
                    addr,
                    config.parallelism.worker_count(),
                    config.queue_depth,
                    config.request_timeout,
                    config.max_queue_age,
                )?,
                schema,
                model,
                cache: ShardedCache::new(config.cache_capacity, config.cache_shards),
                metrics: Metrics::new(),
                defaults: config.defaults,
                predict_threshold: config.predict_threshold,
                slow_request_ms: config.slow_request_ms,
                draining: AtomicBool::new(false),
            },
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.skeleton.addr()
    }

    /// Serves until a `POST /shutdown` arrives, then drains in-flight
    /// requests and returns.
    pub fn run(self) {
        self.state.skeleton.serve(&self.state);
    }

    /// Runs the server on a background thread, returning a handle with the
    /// bound address.
    pub fn spawn(self) -> ServerHandle {
        ServiceHandle::spawn(self.local_addr(), move || self.run())
    }
}

/// Handle to a [`Server::spawn`]ed server.
pub type ServerHandle = ServiceHandle;

impl Service for AppState {
    type Endpoint = Endpoint;
    const UNPARSED: Endpoint = Endpoint::Other;
    const SHED_MESSAGE: &'static str = "server overloaded";

    fn route(&self, request: &Request) -> (Endpoint, Response, bool) {
        match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/explain") => (Endpoint::Explain, handle_explain(self, request), false),
            ("POST", "/predict") => (Endpoint::Predict, handle_predict(self, request), false),
            ("GET", "/healthz") => (
                Endpoint::Healthz,
                Response::json(
                    200,
                    Value::object(vec![("status", Value::string("ok"))]).to_json(),
                ),
                false,
            ),
            ("GET", "/readyz") => (Endpoint::Readyz, handle_readyz(self), false),
            ("GET", "/metrics") => (
                Endpoint::Metrics,
                Response::text(
                    200,
                    self.metrics.render(self.cache.stats(), self.cache.len()),
                ),
                false,
            ),
            ("POST", "/drain") => {
                self.draining.store(true, Ordering::SeqCst);
                (
                    Endpoint::Drain,
                    Response::json(
                        200,
                        Value::object(vec![("draining", true.into())]).to_json(),
                    ),
                    false,
                )
            }
            ("POST", "/shutdown") => (
                Endpoint::Shutdown,
                Response::json(
                    200,
                    Value::object(vec![("shutting_down", true.into())]).to_json(),
                ),
                true,
            ),
            (_, "/explain" | "/predict" | "/drain" | "/shutdown") => (
                Endpoint::Other,
                Response::json(405, error_body("use POST")),
                false,
            ),
            (_, "/healthz" | "/readyz" | "/metrics") => (
                Endpoint::Other,
                Response::json(405, error_body("use GET")),
                false,
            ),
            _ => (
                Endpoint::Other,
                Response::json(404, error_body("no such endpoint")),
                false,
            ),
        }
    }

    fn record(&self, endpoint: Endpoint, latency_us: u64, status: u16) {
        self.metrics.record(endpoint, latency_us, status >= 400);
    }

    fn reject(&self, cause: RejectCause) {
        self.metrics.record_reject(cause);
    }
}

/// `GET /readyz`: readiness, as distinct from `/healthz` liveness. A
/// draining node (after `POST /drain`) is alive — it still answers
/// in-flight and direct traffic — but not *ready*: it answers 503 here so
/// a routing tier stops assigning it new keys before the queue ever
/// sheds. The body always reports the draining flag and the current
/// accept-queue depth so operators can watch a drain complete.
fn handle_readyz(state: &AppState) -> Response {
    let draining = state.draining.load(Ordering::SeqCst);
    let body = Value::object(vec![
        ("ready", (!draining).into()),
        ("draining", draining.into()),
        ("queue_depth", state.skeleton.queue_len().into()),
    ])
    .to_json();
    Response::json(if draining { 503 } else { 200 }, body)
}

fn handle_explain(state: &AppState, request: &Request) -> Response {
    let start = Instant::now(); // em-lint: allow(nondet-taint) -- latency for the X-Compute-Micros header and metrics only; never touches explanation bytes
    let decoded = match decode_explain_request(&request.body, &state.schema, &state.defaults) {
        Ok(d) => d,
        Err(msg) => return Response::json(400, error_body(&msg)),
    };
    let key = cache_key(&state.schema, &decoded);
    let trace = em_obs::Collector::new();
    let (body, cache_state) = match state.cache.get(&key) {
        // The cached body is bit-identical to a fresh computation (the
        // explanation is a deterministic function of the key), so only the
        // X-Cache header distinguishes this path.
        Some(body) => {
            trace.add(em_obs::Counter::CacheHits, 1);
            (body, "hit")
        }
        None => {
            trace.add(em_obs::Counter::CacheMisses, 1);
            let body = run_explain_traced(&state.model, &state.schema, &decoded, &trace).to_json();
            state.cache.insert(key, body.clone());
            (body, "miss")
        }
    };
    state.metrics.record_explain_stages(&trace);
    let total_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    let timing = timing_header(total_us, &trace);
    if state
        .slow_request_ms
        .is_some_and(|ms| total_us > ms.saturating_mul(1_000))
    {
        state.metrics.record_slow();
        eprintln!("em-serve: slow request POST /explain ({timing})");
    }
    Response::json(200, body)
        .with_header("X-Cache", cache_state)
        .with_header("X-Timing", &timing)
}

/// Formats the `X-Timing` header: total handler wall-clock plus one
/// `stage=<n>us` entry for every pipeline stage the request entered (a
/// cache hit therefore reports only `total`).
fn timing_header(total_us: u64, trace: &em_obs::Collector) -> String {
    use std::fmt::Write as _;
    let mut out = format!("total={total_us}us");
    for stage in em_obs::Stage::all() {
        if trace.stage_entries(stage) == 0 {
            continue;
        }
        let _ = write!(
            out,
            "; {}={}us",
            stage.label(),
            trace.stage_nanos(stage) / 1_000
        );
    }
    out
}

fn handle_predict(state: &AppState, request: &Request) -> Response {
    let root = match Value::parse(&request.body) {
        Ok(v) => v,
        Err(e) => return Response::json(400, error_body(&e.to_string())),
    };
    let pair = match decode_pair(&root, &state.schema) {
        Ok(p) => p,
        Err(msg) => return Response::json(400, error_body(&msg)),
    };
    let probability = state.model.predict_proba(&state.schema, &pair);
    Response::json(
        200,
        encode_prediction(probability, state.predict_threshold).to_json(),
    )
}
