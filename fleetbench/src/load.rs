//! The load generator: open-loop and closed-loop phases over loopback
//! TCP, one connection per request (the servers answer
//! `Connection: close`).
//!
//! A phase runs on at most `threads` generator threads, so at most that
//! many connections are in flight. In the open loop each request has a
//! due time on a seeded schedule; a request that falls due while every
//! connection is busy waits in the generator, and its latency counts
//! from when it was due. In the closed loop each thread sends its next
//! request as soon as the previous one is answered.
//!
//! While a phase is timed only an FNV-1a hash of each body is kept (the
//! traced phase also keeps the response itself); bodies are checked
//! against in-process computations after the phase.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use em_serve::client::{self, ClientError, ClientResponse};

/// Bound on one exchange, so a wedged server fails the request instead
/// of hanging the run.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// One request the generator sends.
#[derive(Debug, Clone)]
pub struct Request {
    /// `/explain` or `/predict`.
    pub path: &'static str,
    /// JSON body.
    pub body: String,
    /// Index of the expected response in the workload's key table.
    pub key: usize,
}

/// Why a request failed on the wire. A body mismatch is found after the
/// phase and counted separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Failure {
    /// `ClientError::Connect`.
    Connect,
    /// `ClientError::Timeout`.
    Timeout,
    /// `ClientError::Protocol`.
    Protocol,
    /// A non-2xx answer (`ClientError::Status`), including sheds.
    Status(u16),
}

impl Failure {
    /// A label for reports.
    pub fn label(self) -> String {
        match self {
            Failure::Connect => "connect".into(),
            Failure::Timeout => "timeout".into(),
            Failure::Protocol => "protocol".into(),
            Failure::Status(code) => format!("status_{code}"),
        }
    }
}

/// What happened to one request.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Position in the phase's request stream.
    pub index: usize,
    /// Key of the expected response.
    pub key: usize,
    /// When the request was due (open loop) or picked (closed loop).
    pub due: Instant,
    /// When a generator thread was free to take it.
    pub picked: Instant,
    /// When its connection opened.
    pub sent: Instant,
    /// When the answer was read.
    pub done: Instant,
    /// FNV-1a of the 2xx body, or the failure.
    pub result: Result<u64, Failure>,
    /// `X-Cache: hit`.
    pub cache_hit: bool,
    /// The response, kept only in the traced phase.
    pub response: Option<ClientResponse>,
}

impl Outcome {
    /// Latency from the due time to the answer, less the generator's own
    /// lateness: the wait for a busy connection counts, a late wake-up of
    /// the generator thread does not (it is reported and flagged apart).
    pub fn latency_ms(&self) -> f64 {
        ms(self.done.saturating_duration_since(self.due)) - self.generator_late_ms()
    }

    /// How late the connection opened against the schedule, in ms.
    pub fn late_ms(&self) -> f64 {
        ms(self.sent.saturating_duration_since(self.due))
    }

    /// The part of the lateness the generator caused itself: time from
    /// when a thread was free and the request due until it was sent.
    pub fn generator_late_ms(&self) -> f64 {
        ms(self
            .sent
            .saturating_duration_since(self.due.max(self.picked)))
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn send(
    addr: SocketAddr,
    request: &Request,
    keep: bool,
) -> (Result<u64, Failure>, bool, Option<ClientResponse>) {
    match client::exchange_with_timeout(addr, "POST", request.path, &request.body, REQUEST_TIMEOUT)
    {
        Ok(response) => {
            let hash = em_codec::fnv1a64(response.body.as_bytes());
            let hit = response.header("x-cache") == Some("hit");
            (Ok(hash), hit, keep.then_some(response))
        }
        Err(ClientError::Status(response)) => (
            Err(Failure::Status(response.status)),
            false,
            keep.then_some(response),
        ),
        Err(ClientError::Connect(_)) => (Err(Failure::Connect), false, None),
        Err(ClientError::Timeout(_)) => (Err(Failure::Timeout), false, None),
        Err(ClientError::Protocol(_)) => (Err(Failure::Protocol), false, None),
    }
}

/// Sends `requests[i]` at `start + due[i]` on `threads` threads.
pub fn open_loop(
    addr: SocketAddr,
    requests: &[Request],
    due: &[Duration],
    threads: usize,
    keep: bool,
) -> Vec<Outcome> {
    assert_eq!(requests.len(), due.len(), "one due time per request");
    // A short lead lets every thread reach its first wait before the
    // schedule starts.
    let start = Instant::now() + Duration::from_millis(20);
    let next = AtomicUsize::new(0);
    let outcomes = Mutex::new(Vec::with_capacity(requests.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let picked = Instant::now();
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(request) = requests.get(index) else {
                        break;
                    };
                    let due = start + due[index];
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let (result, cache_hit, response) = send(addr, request, keep);
                    local.push(Outcome {
                        index,
                        key: request.key,
                        due,
                        picked,
                        sent,
                        done: Instant::now(),
                        result,
                        cache_hit,
                        response,
                    });
                }
                outcomes
                    .lock()
                    .expect("outcome list poisoned")
                    .extend(local);
            });
        }
    });
    let mut outcomes = outcomes.into_inner().expect("outcome list poisoned");
    outcomes.sort_by_key(|o| o.index);
    outcomes
}

/// One closed-loop answer. A phase completes tens of thousands, so the
/// record stays small: its bookkeeping must not move `peak_rss_mb`.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// Key of the expected response.
    pub key: usize,
    /// FNV-1a of the 2xx body, or the failure.
    pub result: Result<u64, Failure>,
    /// Seconds from the phase start to the answer.
    pub at: f32,
    /// Send-to-answer latency, milliseconds.
    pub latency_ms: f32,
}

/// Runs `threads` closed-loop clients for `length`; request `i` of the
/// phase is `make(i)`. Returns the answers in request order and the
/// phase's wall time (until the last answer).
pub fn closed_loop(
    addr: SocketAddr,
    make: &(dyn Fn(usize) -> Request + Sync),
    threads: usize,
    length: Duration,
) -> (Vec<Completion>, Duration) {
    let start = Instant::now();
    let stop = start + length;
    let next = AtomicUsize::new(0);
    let answers = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                let mut local = Vec::new();
                while Instant::now() < stop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let request = make(index);
                    let sent = Instant::now();
                    let (result, _, _) = send(addr, &request, false);
                    let done = Instant::now();
                    local.push((
                        index,
                        Completion {
                            key: request.key,
                            result,
                            at: (done - start).as_secs_f32(),
                            latency_ms: ms(done - sent) as f32,
                        },
                    ));
                }
                answers.lock().expect("answer list poisoned").extend(local);
            });
        }
    });
    let mut answers = answers.into_inner().expect("answer list poisoned");
    answers.sort_by_key(|(index, _)| *index);
    let wall = answers.iter().map(|(_, c)| c.at).fold(0.0, f32::max);
    (
        answers.into_iter().map(|(_, c)| c).collect(),
        Duration::from_secs_f32(wall),
    )
}

/// Seeded Poisson arrival offsets: `n` requests at `rate` per second.
pub fn poisson_schedule(rng: &mut crate::rng::Rng, rate: f64, n: usize) -> Vec<Duration> {
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += rng.exp_gap(rate);
            Duration::from_secs_f64(t)
        })
        .collect()
}
