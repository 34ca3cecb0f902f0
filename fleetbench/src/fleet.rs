//! The serving fleet under test: em-route in front of two em-serve
//! backends on loopback ports, all in this process, plus the
//! `/metrics` scrapes the failure accounting reconciles against.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use em_entity::Schema;
use em_matchers::LogisticMatcher;
use em_par::ParallelismConfig;
use em_route::{BackendSpec, Ring, Router, RouterConfig, RouterHandle};
use em_serve::{client, Server, ServerConfig, ServerHandle};

/// Backends behind the router.
pub const BACKENDS: usize = 2;

/// How long a freshly bound node may take to answer its probe.
const READY_TIMEOUT: Duration = Duration::from_secs(10);

/// A running router and its backends.
#[derive(Debug)]
pub struct Fleet {
    router: RouterHandle,
    backends: Vec<ServerHandle>,
    specs: Vec<BackendSpec>,
    ring: Ring,
}

/// Worker threads of backend `i`: the backends' pools together equal
/// `nproc`, with at least one worker each.
fn backend_workers(i: usize, nproc: usize) -> usize {
    (nproc / BACKENDS + usize::from(i < nproc % BACKENDS)).max(1)
}

impl Fleet {
    /// Binds the backends and the router and waits until each answers.
    pub fn start(
        schema: &Schema,
        matcher: &LogisticMatcher,
        nproc: usize,
        cache_capacity: usize,
    ) -> std::io::Result<Fleet> {
        let mut backends = Vec::with_capacity(BACKENDS);
        for i in 0..BACKENDS {
            let server = Server::bind(
                "127.0.0.1:0",
                schema.clone(),
                Box::new(matcher.clone()),
                ServerConfig {
                    parallelism: ParallelismConfig::with_threads(backend_workers(i, nproc)),
                    cache_capacity,
                    slow_request_ms: None,
                    ..Default::default()
                },
            )?;
            backends.push(server.spawn());
        }
        let specs: Vec<BackendSpec> = backends
            .iter()
            .enumerate()
            .map(|(i, b)| BackendSpec::new(format!("b{i}"), b.addr()))
            .collect();
        let router = Router::bind(
            "127.0.0.1:0",
            schema.clone(),
            specs.clone(),
            RouterConfig {
                parallelism: ParallelismConfig::with_threads(nproc),
                ..Default::default()
            },
        )?
        .spawn();
        let fleet = Fleet {
            router,
            backends,
            ring: Ring::build(&specs),
            specs,
        };
        for addr in fleet.all_addrs() {
            wait_ready(addr)?;
        }
        Ok(fleet)
    }

    /// The router's address: where clients send.
    pub fn router_addr(&self) -> SocketAddr {
        self.router.addr()
    }

    /// Backend addresses, in ring order.
    pub fn backend_addrs(&self) -> Vec<SocketAddr> {
        self.backends.iter().map(ServerHandle::addr).collect()
    }

    fn all_addrs(&self) -> Vec<SocketAddr> {
        let mut addrs = vec![self.router_addr()];
        addrs.extend(self.backend_addrs());
        addrs
    }

    /// The backend specs the router was built with.
    pub fn specs(&self) -> &[BackendSpec] {
        &self.specs
    }

    /// A ring identical to the router's (same specs, same placement).
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// Scrapes `/metrics` from the router and every backend.
    pub fn scrape(&self) -> Scrape {
        let text = |addr| {
            client::request(addr, "GET", "/metrics", "")
                .map(|r| r.body)
                .unwrap_or_default()
        };
        Scrape {
            router: parse_prometheus(&text(self.router_addr())),
            backends: self
                .backend_addrs()
                .into_iter()
                .map(|a| parse_prometheus(&text(a)))
                .collect(),
        }
    }

    /// Stops the router, then the backends, and joins their threads.
    pub fn shutdown(self) {
        let _ = client::request(self.router.addr(), "POST", "/shutdown", "");
        self.router.join();
        for backend in self.backends {
            let _ = client::request(backend.addr(), "POST", "/shutdown", "");
            backend.join();
        }
    }
}

fn wait_ready(addr: SocketAddr) -> std::io::Result<()> {
    let deadline = Instant::now() + READY_TIMEOUT;
    loop {
        match client::request(addr, "GET", "/healthz", "") {
            Ok(r) if r.status == 200 => return Ok(()),
            _ if Instant::now() > deadline => {
                return Err(std::io::Error::other(format!("{addr} never became ready")))
            }
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Prometheus samples keyed by `name{labels}`.
pub type Samples = BTreeMap<String, f64>;

fn parse_prometheus(text: &str) -> Samples {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            Some((key.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Sum of every sample whose key starts with `prefix`.
pub fn sum(samples: &Samples, prefix: &str) -> f64 {
    samples
        .iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(_, v)| v)
        .sum()
}

/// One scrape of the whole fleet.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    /// The router's samples.
    pub router: Samples,
    /// Each backend's samples.
    pub backends: Vec<Samples>,
}

/// Counter movement between two scrapes, in the terms the failure
/// accounting reconciles.
#[derive(Debug, Clone, Default)]
pub struct CounterDelta {
    /// `em_route_requests_total{outcome="ok"}` over all backends.
    pub route_ok: f64,
    /// Router answers that were not 2xx: backend statuses passed
    /// through, gateway timeouts and protocol errors, sheds, deadline
    /// rejects and "no routable backend".
    pub route_non_2xx: f64,
    /// `em_route_failovers_total`.
    pub failovers: f64,
    /// `em_serve_rejects_total` by cause, over both backends.
    pub rejects: BTreeMap<String, f64>,
}

impl CounterDelta {
    /// The counters that moved from `before` to `after`.
    pub fn between(before: &Scrape, after: &Scrape) -> CounterDelta {
        let (ra, rb) = (&after.router, &before.router);
        let d = |prefix: &str| sum(ra, prefix) - sum(rb, prefix);
        let mut rejects = BTreeMap::new();
        for (a, b) in after.backends.iter().zip(&before.backends) {
            for (key, value) in a
                .iter()
                .filter(|(k, _)| k.starts_with("em_serve_rejects_total"))
            {
                let cause = key.split('"').nth(1).unwrap_or("unknown").to_string();
                *rejects.entry(cause).or_insert(0.0) += value - b.get(key).copied().unwrap_or(0.0);
            }
        }
        let outcome = |o: &str| -> f64 {
            let label = format!("outcome=\"{o}\"");
            ra.iter()
                .filter(|(k, _)| k.starts_with("em_route_requests_total") && k.contains(&label))
                .map(|(k, v)| v - rb.get(k).copied().unwrap_or(0.0))
                .sum()
        };
        CounterDelta {
            route_ok: outcome("ok"),
            route_non_2xx: outcome("status")
                + outcome("timeout")
                + outcome("protocol_error")
                + d("em_route_no_backend_total")
                + d("em_route_sheds_total")
                + d("em_route_deadline_rejects_total"),
            failovers: d("em_route_failovers_total"),
            rejects,
        }
    }

    /// All backend rejects, every cause.
    pub fn total_rejects(&self) -> f64 {
        self.rejects.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_pools_add_up_to_nproc() {
        for nproc in 1..9 {
            let total: usize = (0..BACKENDS).map(|i| backend_workers(i, nproc)).sum();
            assert_eq!(total, nproc.max(BACKENDS));
        }
    }

    #[test]
    fn prometheus_samples_parse_and_sum() {
        let s = parse_prometheus(
            "# TYPE x counter\nem_serve_rejects_total{cause=\"shed\"} 2\nem_serve_rejects_total{cause=\"idle\"} 1\n",
        );
        assert_eq!(sum(&s, "em_serve_rejects_total"), 3.0);
    }
}
