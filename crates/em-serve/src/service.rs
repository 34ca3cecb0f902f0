//! The connection-serving skeleton both tiers run on.
//!
//! `em-serve` (the explanation server) and `em-route` (the routing tier)
//! share one connection lifecycle, and it lives here once:
//!
//! 1. **Accept.** One listener thread accepts connections and pushes them
//!    onto a [`BoundedQueue`]. When the queue is full it sheds with a
//!    non-blocking 503 + `Retry-After` instead of queueing unbounded —
//!    never waiting on a client socket, because every other user's
//!    `accept` is behind it.
//! 2. **Admit.** `em_par::scoped_workers` runs the worker pool that
//!    drains the queue. A connection that waited longer than the
//!    admission bound is discarded unanswered.
//! 3. **Serve.** Each picked-up connection runs under one [`Deadline`]
//!    covering request read, compute and response write; an expired
//!    read answers 408, an oversized body 413, a malformed request 400.
//! 4. **Contain.** The tier's handler runs under `catch_unwind`: a panic
//!    answers 500 and the worker keeps serving.
//! 5. **Stop.** A handler that asks for shutdown flips an atomic flag and
//!    pokes the listener with a loopback connection so `accept` wakes;
//!    closing the queue then lets every in-flight request finish.
//!
//! A tier plugs in through the small [`Service`] trait: how to answer a
//! parsed request, how to record it, and how to count each
//! [`RejectCause`] in its own metrics (DESIGN.md §14).

use std::io::Write;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use em_codec::Value;

use crate::deadline::{is_timeout, Deadline, DeadlineStream};
use crate::http::{read_request, HttpError, ReadPhase, Request, Response};
use crate::metrics::RejectCause;
use crate::pool::{BoundedQueue, PushError};

/// Budget for writing a 408 after the connection deadline has already
/// expired. The deadline is spent, but the client may still be reading;
/// a short fixed grace keeps the courtesy answer from re-wedging the
/// worker the deadline just freed.
const REJECT_WRITE_GRACE: Duration = Duration::from_secs(1);

/// Bound on the shutdown self-wake connect, so `serve` can never wedge
/// behind its own wake-up.
const WAKE_CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// What a tier adds to the shared skeleton.
pub trait Service: Sync {
    /// The tier's metrics endpoint label.
    type Endpoint: Copy;

    /// The endpoint charged for requests that never parsed (400/413) and
    /// for handler panics (500).
    const UNPARSED: Self::Endpoint;

    /// The `error` text of the 503 shed from the accept thread.
    const SHED_MESSAGE: &'static str;

    /// Maps a parsed request to (endpoint, response, initiate-shutdown).
    fn route(&self, request: &Request) -> (Self::Endpoint, Response, bool);

    /// Records one answered request.
    fn record(&self, endpoint: Self::Endpoint, latency_us: u64, status: u16);

    /// Counts one connection rejected or abandoned instead of served.
    fn reject(&self, cause: RejectCause);
}

/// The `{"error": message}` body every tier answers failures with.
pub fn error_body(message: &str) -> String {
    Value::object(vec![("error", Value::string(message))]).to_json()
}

/// The bound listener, its accept queue, the connection budgets and the
/// shutdown flag: everything about a connection that is not the tier's
/// business.
#[derive(Debug)]
pub struct Skeleton {
    listener: TcpListener,
    addr: SocketAddr,
    workers: usize,
    queue: BoundedQueue<TcpStream>,
    request_timeout: Duration,
    max_queue_age: Duration,
    shutdown: AtomicBool,
}

impl Skeleton {
    /// Binds the listener. `queue_depth` accepted-but-unserved
    /// connections are held before shedding; each connection gets
    /// `request_timeout` once a worker picks it up, and is discarded
    /// unanswered if it waited longer than `max_queue_age`.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        workers: usize,
        queue_depth: usize,
        request_timeout: Duration,
        max_queue_age: Duration,
    ) -> std::io::Result<Skeleton> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Skeleton {
            listener,
            addr,
            workers,
            queue: BoundedQueue::new(queue_depth),
            request_timeout,
            max_queue_age,
            shutdown: AtomicBool::new(false),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted and waiting for a worker.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether a handler has asked for shutdown.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Serves `service` until one of its handlers asks for shutdown,
    /// then drains in-flight requests and returns.
    pub fn serve<S: Service>(&self, service: &S) {
        let queue = &self.queue;
        em_par::scoped_workers(
            self.workers,
            |_worker| {
                while let Some(conn) = queue.pop() {
                    // Admission control: a connection that outwaited the
                    // queue-age bound belongs to a client that has almost
                    // certainly timed out; dropping the stream closes it
                    // without spending any compute.
                    if conn.age() > self.max_queue_age {
                        service.reject(RejectCause::StaleQueue);
                        continue;
                    }
                    handle_connection(self, service, conn.item);
                }
            },
            || {
                for incoming in self.listener.incoming() {
                    if self.is_shutting_down() {
                        break;
                    }
                    let stream = match incoming {
                        Ok(s) => s,
                        Err(_) => continue,
                    };
                    if let Err(PushError::Full(stream) | PushError::Closed(stream)) =
                        queue.push(stream)
                    {
                        shed_without_blocking(service, &stream);
                    }
                }
                queue.close();
            },
        );
    }
}

/// Handle to a server or router running on a background thread.
#[derive(Debug)]
pub struct ServiceHandle {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<()>,
}

impl ServiceHandle {
    /// Runs `run` on a background thread serving `addr`.
    pub fn spawn(addr: SocketAddr, run: impl FnOnce() + Send + 'static) -> ServiceHandle {
        ServiceHandle {
            addr,
            thread: std::thread::spawn(run),
        }
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the service to finish (after a `/shutdown` request).
    pub fn join(self) {
        // Shutdown path: propagating a worker panic is the point.
        self.thread.join().expect("service thread panicked");
    }
}

/// Sheds a connection from the accept thread without ever blocking it:
/// the socket is flipped to non-blocking, already-arrived request bytes
/// are drained (bounded, never waiting — closing with unread received
/// data makes the kernel send RST instead of FIN, and the RST destroys
/// the 503 sitting unread in the client's buffers), and the 503 (with
/// `Retry-After`) is attempted as a *single* write. A fresh connection's
/// send buffer is empty, so the ~100-byte response virtually always
/// fits; a peer whose buffer somehow cannot take it (never-reading
/// client) just loses the connection — the one thing the accept loop
/// must never do is wait on a client socket, because every other user's
/// `accept` is behind it.
fn shed_without_blocking<S: Service>(service: &S, stream: &TcpStream) {
    let response = Response::json(503, error_body(S::SHED_MESSAGE)).with_header("Retry-After", "1");
    let wire = response.to_wire();
    let nonblocking = stream.set_nonblocking(true).is_ok();
    if nonblocking {
        let mut sink = [0u8; 4096];
        for _ in 0..32 {
            if !matches!(std::io::Read::read(&mut &*stream, &mut sink), Ok(n) if n > 0) {
                break;
            }
        }
    }
    let written =
        nonblocking && matches!((&mut &*stream).write(wire.as_bytes()), Ok(n) if n == wire.len());
    // A reject is counted, never a latency sample: a shed connection has
    // no service latency, and a fabricated 0 µs observation would drag
    // the percentiles toward zero exactly under overload.
    service.reject(if written {
        RejectCause::Shed
    } else {
        RejectCause::ShedDrop
    });
}

/// Reads, routes, answers, and records one connection, all under one
/// [`Deadline`]: every socket read and write is charged against the same
/// `request_timeout` budget, so no pacing a client chooses can hold the
/// worker past it (DESIGN.md §14).
fn handle_connection<S: Service>(skeleton: &Skeleton, service: &S, stream: TcpStream) {
    let deadline = Deadline::starting_now(skeleton.request_timeout);
    let start = Instant::now();
    let mut reader = DeadlineStream::new(&stream, deadline);
    let (endpoint, response, is_shutdown) = match read_request(&mut reader) {
        // A handler panic is contained here: the request gets a 500, the
        // worker lives on. Handlers compute outside every lock, so the
        // unwind poisons nothing later requests depend on.
        Ok(request) => {
            catch_unwind(AssertUnwindSafe(|| service.route(&request))).unwrap_or_else(|_| {
                (
                    S::UNPARSED,
                    Response::json(500, error_body("internal error")),
                    false,
                )
            })
        }
        // The peer connected and closed without sending a byte (port
        // probe, health checker). Nothing was asked, so nothing is
        // answered and no counter is bumped.
        Err(HttpError::Closed) => return,
        Err(HttpError::Timeout(phase)) => {
            // The deadline expired mid-request. Attribute the cause —
            // connect-and-hold (not one byte), header drip, or body
            // drip — then answer 408 under a short grace budget (the
            // client may well still be reading) and reap the connection.
            let cause = match phase {
                ReadPhase::Header if reader.bytes_read() == 0 => RejectCause::Idle,
                ReadPhase::Header => RejectCause::HeaderDeadline,
                ReadPhase::Body => RejectCause::BodyDeadline,
            };
            service.reject(cause);
            let grace = Deadline::starting_now(REJECT_WRITE_GRACE);
            let _ = Response::json(408, error_body("request deadline exceeded"))
                .write_to(&mut DeadlineStream::new(&stream, grace));
            return;
        }
        Err(HttpError::BodyTooLarge) => (
            S::UNPARSED,
            Response::json(413, error_body("request body too large")),
            false,
        ),
        Err(err) => {
            if matches!(err, HttpError::Io(_)) {
                // The peer closed or reset mid-request; the 400 below is
                // written into the void on a full close, but half-closed
                // peers (`shutdown(Write)`) still read it.
                service.reject(RejectCause::PeerAbort);
            }
            (
                S::UNPARSED,
                Response::json(400, error_body(&err.to_string())),
                false,
            )
        }
    };
    let latency_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    service.record(endpoint, latency_us, response.status);
    // The response write shares the connection's deadline: a peer that
    // accepts bytes too slowly (or never reads) is cut off when the
    // budget runs out — silently, since no response can follow a partial
    // response.
    if let Err(err) = response.write_to(&mut DeadlineStream::new(&stream, deadline)) {
        if is_timeout(&err) {
            service.reject(RejectCause::WriteDeadline);
        }
    }
    drop(stream);
    if is_shutdown {
        skeleton.shutdown.store(true, Ordering::SeqCst);
        wake_accept_loop(skeleton.addr);
    }
}

/// Pokes the accept loop with a loopback connection so it observes the
/// shutdown flag. The *bound* address is not used directly: a wildcard
/// bind (`0.0.0.0` / `[::]`) is not a connectable destination on every
/// platform, so the wake aims at the loopback of the same family on the
/// bound port, with a connect timeout so shutdown can never wedge behind
/// its own wake-up. The dummy connection is dropped unanswered.
fn wake_accept_loop(addr: SocketAddr) {
    let ip = match addr.ip() {
        IpAddr::V4(v4) if v4.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(v6) if v6.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    let _ = TcpStream::connect_timeout(&SocketAddr::new(ip, addr.port()), WAKE_CONNECT_TIMEOUT);
}
