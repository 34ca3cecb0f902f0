//! The reverse proxy: keyed forwarding, failover, probing, and the
//! admin surface.
//!
//! The connection lifecycle is `em-serve`'s, run as a library: the router
//! is an [`em_serve::Service`] on an [`em_serve::Skeleton`] — the same
//! accept loop, bounded queue, non-blocking shed, per-connection
//! [`em_serve::deadline::Deadline`] and panic containment the backends
//! run. The skeleton's typed reject causes fold onto the router's two
//! counters: sheds into `em_route_sheds_total`, expired deadlines and
//! stale queue entries into `em_route_deadline_rejects_total`. What this
//! crate adds is the routing brain:
//!
//! 1. **Key** (`route_key` stage): decode the request with the *same*
//!    codec and defaults the backends use, compute the canonical cache
//!    key ([`em_codec::explain::cache_key`]), and look up the owner on
//!    the ring. Malformed requests are rejected here with the byte-same
//!    400 body a backend would have produced — same decode functions,
//!    same error encoding.
//! 2. **Forward** (`route_forward` stage): exchange with the owner. On a
//!    *connect* failure — nothing reached the backend — record the
//!    failure, back off, and retry against the next ring owner, bounded
//!    by [`RouterConfig::failover_retries`]. `/explain` and `/predict`
//!    are pure functions of their body, so replaying one elsewhere
//!    cannot change any answer; only connect failures trigger this (a
//!    timeout after connecting might mean the backend is mid-compute).
//! 3. **Attribute**: every attempt lands in
//!    `em_route_requests_total{backend,outcome}`; the winning backend is
//!    named in the response's `X-Backend` header.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use em_codec::explain::{cache_key, decode_explain_request, decode_pair};
use em_codec::{ExplainOptions, Value};
use em_entity::Schema;
use em_obs::{Span, Stage};
use em_par::ParallelismConfig;
use em_serve::client::{self, ClientError, ClientResponse};
use em_serve::http::{Request, Response};
use em_serve::service::{error_body, Service, ServiceHandle, Skeleton};
use em_serve::RejectCause;

use crate::health::{HealthConfig, HealthTable};
use crate::metrics::{Outcome, RouteEndpoint, RouterMetrics};
use crate::ring::{BackendSpec, Ring};

/// Router tunables.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Worker-pool sizing for the proxy workers.
    pub parallelism: ParallelismConfig,
    /// Accepted-but-unserved connections held before shedding with 503.
    pub queue_depth: usize,
    /// Total wall-clock budget for one client connection (read + proxy +
    /// write).
    pub request_timeout: Duration,
    /// Connections queued longer than this are discarded unanswered.
    pub max_queue_age: Duration,
    /// Timeout for one backend exchange.
    pub backend_timeout: Duration,
    /// Additional ring owners tried after the first on connect failure.
    pub failover_retries: usize,
    /// Base backoff before each failover hop (doubles per hop).
    pub failover_backoff: Duration,
    /// Health-machine tunables (probing, ejection, recovery).
    pub health: HealthConfig,
    /// Default explainer options — must mirror the backends' defaults so
    /// the router resolves each request to the same canonical key.
    pub defaults: ExplainOptions,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            parallelism: ParallelismConfig::auto(),
            queue_depth: 128,
            request_timeout: Duration::from_secs(30),
            max_queue_age: Duration::from_secs(10),
            backend_timeout: Duration::from_secs(20),
            failover_retries: 2,
            failover_backoff: Duration::from_millis(20),
            health: HealthConfig::default(),
            defaults: ExplainOptions::default(),
        }
    }
}

/// Everything the proxy workers and the prober share.
struct RouterState {
    /// The connection lifecycle; its shutdown flag also stops the prober.
    skeleton: Skeleton,
    schema: Schema,
    defaults: ExplainOptions,
    backends: Vec<BackendSpec>,
    ring: Ring,
    health: HealthTable,
    metrics: RouterMetrics,
    config: RouterConfig,
}

/// A bound router. [`Router::run`] blocks until shutdown;
/// [`Router::spawn`] runs it on a background thread for tests.
pub struct Router {
    state: Arc<RouterState>,
}

impl std::fmt::Debug for Router {
    // Manual impl: the state holds a schema and live tables; the skeleton
    // (address, sizing) and backend count are what a log line needs.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("skeleton", &self.state.skeleton)
            .field("backends", &self.state.backends.len())
            .finish_non_exhaustive()
    }
}

impl Router {
    /// Binds the listener and assembles the routing state. Bind to port
    /// 0 for an ephemeral port (tests).
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        schema: Schema,
        backends: Vec<BackendSpec>,
        config: RouterConfig,
    ) -> std::io::Result<Router> {
        if backends.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "at least one backend is required",
            ));
        }
        let skeleton = Skeleton::bind(
            addr,
            config.parallelism.worker_count(),
            config.queue_depth,
            config.request_timeout,
            config.max_queue_age,
        )?;
        let ring = Ring::build(&backends);
        let n = backends.len();
        Ok(Router {
            state: Arc::new(RouterState {
                skeleton,
                schema,
                defaults: config.defaults,
                backends,
                ring,
                health: HealthTable::new(n, config.health),
                metrics: RouterMetrics::new(n),
                config,
            }),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.skeleton.addr()
    }

    /// Serves until a `POST /shutdown` arrives, then drains in-flight
    /// requests, stops the prober, and returns.
    pub fn run(self) {
        let prober = spawn_prober(Arc::clone(&self.state));
        self.state.skeleton.serve(&*self.state);
        // Shutdown path: propagating a prober panic is the point.
        prober.join().expect("prober thread panicked");
    }

    /// Runs the router on a background thread, returning a handle with
    /// the bound address.
    pub fn spawn(self) -> RouterHandle {
        ServiceHandle::spawn(self.local_addr(), move || self.run())
    }
}

/// Handle to a [`Router::spawn`]ed router.
pub type RouterHandle = ServiceHandle;

impl Service for RouterState {
    type Endpoint = RouteEndpoint;
    const UNPARSED: RouteEndpoint = RouteEndpoint::Admin;
    const SHED_MESSAGE: &'static str = "router overloaded";

    fn route(&self, request: &Request) -> (RouteEndpoint, Response, bool) {
        match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/explain") => (RouteEndpoint::Explain, proxy_explain(self, request), false),
            ("POST", "/predict") => (RouteEndpoint::Predict, proxy_predict(self, request), false),
            ("GET", "/healthz") => (
                RouteEndpoint::Admin,
                Response::json(
                    200,
                    Value::object(vec![("status", Value::string("ok"))]).to_json(),
                ),
                false,
            ),
            ("GET", "/metrics") => (
                RouteEndpoint::Admin,
                Response::text(200, render_metrics(self)),
                false,
            ),
            ("GET", "/ring") => (
                RouteEndpoint::Admin,
                Response::json(200, ring_json(self)),
                false,
            ),
            ("POST", "/drain") => (RouteEndpoint::Admin, handle_drain(self, request), false),
            ("POST", "/shutdown") => (
                RouteEndpoint::Admin,
                Response::json(
                    200,
                    Value::object(vec![("shutting_down", true.into())]).to_json(),
                ),
                true,
            ),
            (_, "/explain" | "/predict" | "/drain" | "/shutdown") => (
                RouteEndpoint::Admin,
                Response::json(405, error_body("use POST")),
                false,
            ),
            (_, "/healthz" | "/metrics" | "/ring") => (
                RouteEndpoint::Admin,
                Response::json(405, error_body("use GET")),
                false,
            ),
            _ => (
                RouteEndpoint::Admin,
                Response::json(404, error_body("no such endpoint")),
                false,
            ),
        }
    }

    fn record(&self, endpoint: RouteEndpoint, latency_us: u64, _status: u16) {
        self.metrics.record_latency(endpoint, latency_us);
    }

    /// Folds the skeleton's typed causes onto the router's two counters;
    /// a peer abort is not the router's to count.
    fn reject(&self, cause: RejectCause) {
        match cause {
            RejectCause::Shed | RejectCause::ShedDrop => self.metrics.record_shed(),
            RejectCause::StaleQueue
            | RejectCause::Idle
            | RejectCause::HeaderDeadline
            | RejectCause::BodyDeadline
            | RejectCause::WriteDeadline => self.metrics.record_deadline_reject(),
            RejectCause::PeerAbort => {}
        }
    }
}

/// The active prober: every `probe_interval`, exchanges `GET /healthz`
/// with each backend and feeds the result into the health machine — so a
/// dead backend is ejected (and a recovered one readmitted) even with no
/// client traffic flowing. Sleeps in short slices so shutdown is prompt.
fn spawn_prober(state: Arc<RouterState>) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let interval = state.health.config().probe_interval;
        let timeout = state.health.config().probe_timeout;
        while !state.skeleton.is_shutting_down() {
            for (i, backend) in state.backends.iter().enumerate() {
                match client::exchange_with_timeout(backend.addr, "GET", "/healthz", "", timeout) {
                    Ok(_) | Err(ClientError::Status(_)) => state.health.record_success(i),
                    Err(ClientError::Connect(_) | ClientError::Timeout(_)) => {
                        state.health.record_failure(i)
                    }
                    // Garbage on the health port is not a transport
                    // failure; leave the circuit alone and let real
                    // traffic decide.
                    Err(ClientError::Protocol(_)) => {}
                }
            }
            let mut slept = Duration::ZERO;
            while slept < interval && !state.skeleton.is_shutting_down() {
                let slice = Duration::from_millis(25).min(interval - slept);
                std::thread::sleep(slice);
                slept += slice;
            }
        }
    })
}

/// Proxies `POST /explain`: decode with the backends' own codec and
/// defaults, key, and forward to the ring owner.
fn proxy_explain(state: &RouterState, request: &Request) -> Response {
    let trace = em_obs::Collector::new();
    let key = {
        let _span = Span::enter(&trace, Stage::RouteKey);
        // The same decode the backend runs: a malformed body gets the
        // byte-identical 400 it would have gotten from `em-serve`.
        match decode_explain_request(&request.body, &state.schema, &state.defaults) {
            Ok(decoded) => cache_key(&state.schema, &decoded),
            Err(msg) => return Response::json(400, error_body(&msg)),
        }
    };
    let response = forward(state, &trace, &key, "/explain", &request.body);
    state.metrics.record_stages(&trace);
    response
}

/// Proxies `POST /predict`: keyed on the canonical pair values only (a
/// prediction has no explainer config), so both explanation and
/// prediction traffic for one pair land on the same backend.
fn proxy_predict(state: &RouterState, request: &Request) -> Response {
    let trace = em_obs::Collector::new();
    let key = {
        let _span = Span::enter(&trace, Stage::RouteKey);
        let root = match Value::parse(&request.body) {
            Ok(v) => v,
            Err(e) => return Response::json(400, error_body(&e.to_string())),
        };
        match decode_pair(&root, &state.schema) {
            Ok(pair) => predict_key(&state.schema, &pair),
            Err(msg) => return Response::json(400, error_body(&msg)),
        }
    };
    let response = forward(state, &trace, &key, "/predict", &request.body);
    state.metrics.record_stages(&trace);
    response
}

/// The routing key for a prediction: the canonical JSON of the pair's
/// attribute values in schema order — the same `left`/`right` encoding
/// [`cache_key`] embeds, minus the explainer fields.
fn predict_key(schema: &Schema, pair: &em_entity::EntityPair) -> String {
    let values = |side: em_entity::EntitySide| -> Value {
        Value::Array(
            (0..schema.len())
                .map(|i| Value::string(pair.entity(side).value(i)))
                .collect(),
        )
    };
    Value::object(vec![
        ("left", values(em_entity::EntitySide::Left)),
        ("right", values(em_entity::EntitySide::Right)),
    ])
    .to_json()
}

/// Forwards `body` to the backends in ring order for `key`, failing over
/// past unroutable or connect-dead backends, bounded by the retry
/// budget. See the module docs for the failover policy.
fn forward(
    state: &RouterState,
    trace: &em_obs::Collector,
    key: &str,
    path: &str,
    body: &str,
) -> Response {
    let _span = Span::enter(trace, Stage::RouteForward);
    let order = state.ring.owners(key);
    let mut hops = 0usize;
    for &backend in &order {
        if !state.health.is_routable(backend) {
            continue;
        }
        if hops > 0 {
            if hops > state.config.failover_retries {
                break;
            }
            state.metrics.record_failover();
            // Exponential backoff between hops: the first retry waits
            // one base unit, the next two, then four...
            let factor = 1u32 << (hops - 1).min(8);
            std::thread::sleep(state.config.failover_backoff.saturating_mul(factor));
        }
        let spec = match state.backends.get(backend) {
            Some(s) => s,
            None => continue,
        };
        match client::exchange_with_timeout(
            spec.addr,
            "POST",
            path,
            body,
            state.config.backend_timeout,
        ) {
            Ok(response) => {
                state.health.record_success(backend);
                state.metrics.record_outcome(backend, Outcome::Ok);
                return passthrough(response, &spec.name);
            }
            Err(ClientError::Status(response)) => {
                // The backend is alive and said no: pass its answer
                // through verbatim; failing over would hide real errors
                // (and a 503 shed elsewhere would double load).
                state.health.record_success(backend);
                state.metrics.record_outcome(backend, Outcome::Status);
                return passthrough(response, &spec.name);
            }
            Err(ClientError::Connect(_)) => {
                // Nothing reached the backend: eject-worthy and safe to
                // retry against the next ring owner.
                state.health.record_failure(backend);
                state.metrics.record_outcome(backend, Outcome::ConnectError);
                hops += 1;
            }
            Err(ClientError::Timeout(_)) => {
                // The backend may be mid-compute; report gateway timeout
                // rather than replaying onto a healthy node.
                state.health.record_failure(backend);
                state.metrics.record_outcome(backend, Outcome::Timeout);
                return Response::json(504, error_body("backend exchange timed out"))
                    .with_header("X-Backend", &spec.name);
            }
            Err(ClientError::Protocol(_)) => {
                state
                    .metrics
                    .record_outcome(backend, Outcome::ProtocolError);
                return Response::json(502, error_body("backend spoke invalid HTTP"))
                    .with_header("X-Backend", &spec.name);
            }
        }
    }
    state.metrics.record_no_backend();
    Response::json(503, error_body("no routable backend")).with_header("Retry-After", "1")
}

/// Rebuilds a backend response for the client: same status, byte-same
/// body, the cache/timing headers preserved, plus `X-Backend` naming who
/// served it.
fn passthrough(response: ClientResponse, backend_name: &str) -> Response {
    let mut out = Response::json(response.status, response.body.clone());
    for header in ["x-cache", "x-timing", "retry-after"] {
        if let Some(value) = response.header(header) {
            out = out.with_header(header, value);
        }
    }
    out.with_header("X-Backend", backend_name)
}

/// `GET /ring`: the ring's placement view joined with live health state.
fn ring_json(state: &RouterState) -> String {
    let base = state.ring.to_value(&state.backends);
    let entries: Vec<Value> = match base.get("backends").and_then(|b| b.as_array()) {
        Some(list) => list
            .iter()
            .enumerate()
            .map(|(i, entry)| {
                let mut fields: Vec<(String, Value)> =
                    entry.as_object().map(|f| f.to_vec()).unwrap_or_default();
                if let Some(snap) = state.health.snapshot(i) {
                    fields.push(("state".to_string(), Value::string(snap.state.label())));
                    fields.push(("draining".to_string(), snap.draining.into()));
                }
                Value::Object(fields)
            })
            .collect(),
        None => Vec::new(),
    };
    Value::object(vec![
        ("points", base.get("points").cloned().unwrap_or(Value::Null)),
        ("backends", Value::Array(entries)),
    ])
    .to_json()
}

/// `POST /drain`: body `{"backend": "<name>"}` (optionally
/// `"draining": false` to readmit). Marks the backend draining on the
/// ring and forwards the drain to the backend itself so its `/readyz`
/// flips too.
fn handle_drain(state: &RouterState, request: &Request) -> Response {
    let root = match Value::parse(&request.body) {
        Ok(v) => v,
        Err(e) => return Response::json(400, error_body(&e.to_string())),
    };
    let Some(name) = root.get("backend").and_then(|v| v.as_str()) else {
        return Response::json(400, error_body("missing field \"backend\""));
    };
    let draining = root
        .get("draining")
        .and_then(|v| v.as_bool())
        .unwrap_or(true);
    let Some(backend) = state.backends.iter().position(|b| b.name == name) else {
        return Response::json(404, error_body(&format!("unknown backend {name:?}")));
    };
    state.health.set_draining(backend, draining);
    // Best-effort: tell the backend so its own /readyz reports draining.
    // Readmission is router-side only (em-serve draining is one-way by
    // design — a drained node restarts to rejoin).
    let acknowledged = draining
        && state
            .backends
            .get(backend)
            .map(|spec| {
                client::exchange_with_timeout(
                    spec.addr,
                    "POST",
                    "/drain",
                    "",
                    state.health.config().probe_timeout,
                )
                .is_ok()
            })
            .unwrap_or(false);
    Response::json(
        200,
        Value::object(vec![
            ("backend", Value::string(name)),
            ("draining", draining.into()),
            ("backend_acknowledged", acknowledged.into()),
        ])
        .to_json(),
    )
}

/// `GET /metrics`: the counter/histogram registry plus a live
/// `em_route_backend_state` gauge per backend.
fn render_metrics(state: &RouterState) -> String {
    let names: Vec<&str> = state.backends.iter().map(|b| b.name.as_str()).collect();
    let mut out = state.metrics.render(&names);
    out.push_str("# TYPE em_route_backend_routable gauge\n");
    for (i, backend) in state.backends.iter().enumerate() {
        let snap = state.health.snapshot(i);
        let routable =
            snap.is_some_and(|s| !s.draining && s.state != crate::health::HealthState::Unhealthy);
        out.push_str(&format!(
            "em_route_backend_routable{{backend=\"{}\",state=\"{}\",draining=\"{}\"}} {}\n",
            backend.name,
            snap.map_or("unknown", |s| s.state.label()),
            snap.is_some_and(|s| s.draining),
            u8::from(routable),
        ));
    }
    out
}
