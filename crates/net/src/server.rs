//! The bounded HTTP server over one resident
//! [`LifetimeService`]: acceptor, per-connection workers, routing,
//! error mapping, quotas, graceful drain and snapshot ticks.
//!
//! Robustness layering, outermost first:
//!
//! 1. **Connection cap.** At most [`NetConfig::max_connections`]
//!    connections are served at once; an accept beyond the cap is
//!    answered `503` + `Retry-After` immediately and closed — typed
//!    shedding, not an unbounded thread herd.
//! 2. **Socket timeouts.** Every connection carries read/write
//!    timeouts; a slow-loris client trickling its request header is
//!    disconnected with `408` when the read stalls, so it can pin a
//!    worker for at most one timeout, not forever.
//! 3. **Bounded parsing.** [`crate::http`] enforces head/body caps and
//!    refuses `Transfer-Encoding` before any unbounded work happens.
//! 4. **Per-client quotas.** [`crate::quota`] sheds a noisy neighbour
//!    by name (`429` + `Retry-After`) before it can saturate the
//!    global admission bound that protects everyone else.
//! 5. **The service's own ladder.** Admission, single-flight,
//!    deadlines and degradation live in [`LifetimeService`]; this layer
//!    only maps its typed errors onto HTTP statuses (`Overloaded` →
//!    `503` + `Retry-After`, deadline → `504`, solve failure → `500`,
//!    degraded answers tagged in the `200` envelope with their explicit
//!    error bound).
//!
//! Shutdown is a drain, not a drop: the acceptor stops listening,
//! in-flight connections get [`NetConfig::drain_deadline`] to finish,
//! and the result cache is snapshotted to
//! [`NetConfig::snapshot_path`] (crash-safely — see
//! [`kibamrm::snapshot`]) so the next process starts warm.

use crate::http::{read_request, HttpError, HttpLimits, Request, Response};
use crate::json::{self, Json};
use crate::quota::{QuotaDecision, QuotaLedger};
use kibamrm::scenario::Scenario;
use kibamrm::service::{Answer, LifetimeService, QueryOptions, ServiceError, ServiceStats};
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Requests served per keep-alive connection before it is closed
/// (bounds how long one socket can monopolise a worker).
const MAX_REQUESTS_PER_CONNECTION: usize = 128;

/// Sizing and policy knobs of the HTTP front.
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// Concurrent-connection cap; connections beyond it are shed with
    /// an immediate `503`. Default: 64.
    pub max_connections: usize,
    /// Per-read socket timeout (slow-loris bound). Default: 2 s.
    pub read_timeout: Duration,
    /// Per-write socket timeout (slow-reader bound). Default: 2 s.
    pub write_timeout: Duration,
    /// Request parsing bounds.
    pub limits: HttpLimits,
    /// Per-client sustained admission rate, requests/second.
    /// `0` disables quotas. Default: 0.
    pub quota_rate: f64,
    /// Per-client burst size. Default: 8.
    pub quota_burst: f64,
    /// When set, requests carrying this header (lower-case name) are
    /// quota-keyed by its value instead of the peer address — for
    /// fleets behind one NAT, where per-address keying would lump every
    /// device into one bucket. Trust it only from trusted networks.
    pub quota_key_header: Option<String>,
    /// Where to write result-cache snapshots (shutdown and periodic
    /// ticks) and load them from at startup. `None` disables
    /// persistence.
    pub snapshot_path: Option<PathBuf>,
    /// Period of background snapshot ticks (requires `snapshot_path`).
    /// `None` snapshots only on drain.
    pub snapshot_interval: Option<Duration>,
    /// How long a drain waits for in-flight connections. Default: 5 s.
    pub drain_deadline: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_connections: 64,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            limits: HttpLimits::default(),
            quota_rate: 0.0,
            quota_burst: 8.0,
            quota_key_header: None,
            snapshot_path: None,
            snapshot_interval: None,
            drain_deadline: Duration::from_secs(5),
        }
    }
}

/// The network layer's own ledger, disjoint from [`ServiceStats`]
/// (which counts what the *service* did; this counts what the *front*
/// did before and after).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Connections accepted into a worker.
    pub accepted: u64,
    /// Connections shed at the cap with an immediate `503`.
    pub connections_shed: u64,
    /// Requests answered (any status).
    pub requests: u64,
    /// `200` answers.
    pub ok: u64,
    /// `400`/`431`/`413`/`501` answers (client-side garbage).
    pub rejected_bad_request: u64,
    /// `429` answers (per-client quota).
    pub quota_refused: u64,
    /// `503` answers from [`ServiceError::Overloaded`].
    pub shed_overloaded: u64,
    /// `504` answers from [`ServiceError::DeadlineExceeded`].
    pub deadline_exceeded: u64,
    /// `500` answers (backend solve failures).
    pub internal_errors: u64,
    /// `404`/`405` answers.
    pub not_found: u64,
    /// Connections dropped on a socket read timeout (slow-loris).
    pub timeouts: u64,
    /// `200` answers that carried a degraded envelope.
    pub degraded_answers: u64,
}

#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    connections_shed: AtomicU64,
    requests: AtomicU64,
    ok: AtomicU64,
    rejected_bad_request: AtomicU64,
    quota_refused: AtomicU64,
    shed_overloaded: AtomicU64,
    deadline_exceeded: AtomicU64,
    internal_errors: AtomicU64,
    not_found: AtomicU64,
    timeouts: AtomicU64,
    degraded_answers: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> NetStats {
        NetStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            connections_shed: self.connections_shed.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            rejected_bad_request: self.rejected_bad_request.load(Ordering::Relaxed),
            quota_refused: self.quota_refused.load(Ordering::Relaxed),
            shed_overloaded: self.shed_overloaded.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            internal_errors: self.internal_errors.load(Ordering::Relaxed),
            not_found: self.not_found.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            degraded_answers: self.degraded_answers.load(Ordering::Relaxed),
        }
    }
}

/// What a graceful drain achieved.
#[derive(Debug)]
pub struct DrainReport {
    /// Connections still open when the drain deadline expired
    /// (0 = everything finished in time; nothing wedged).
    pub remaining_connections: usize,
    /// The shutdown snapshot's outcome (`None` when persistence is
    /// disabled).
    pub snapshot: Option<Result<kibamrm::SnapshotWriteReport, kibamrm::SnapshotError>>,
}

/// State shared between the acceptor, the workers and external
/// controllers.
struct Shared {
    service: Arc<LifetimeService>,
    config: NetConfig,
    counters: Counters,
    quota: Mutex<QuotaLedger>,
    live_connections: AtomicUsize,
    shutdown: AtomicBool,
}

/// An external handle onto a running server: trigger a drain, read the
/// ledger.
#[derive(Clone)]
pub struct ServerControl {
    shared: Arc<Shared>,
}

impl ServerControl {
    /// Asks the acceptor to stop and drain. Returns immediately; the
    /// blocked [`Server::run`] performs the drain and returns its
    /// report.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// The network ledger so far.
    pub fn net_stats(&self) -> NetStats {
        self.shared.counters.snapshot()
    }

    /// Connections currently inside a worker.
    pub fn live_connections(&self) -> usize {
        self.shared.live_connections.load(Ordering::SeqCst)
    }
}

/// The HTTP front over one resident service.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds to `addr` (`"127.0.0.1:0"` for an ephemeral port) over
    /// `service`.
    ///
    /// # Errors
    ///
    /// Socket errors from binding.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<LifetimeService>,
        config: NetConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let quota = QuotaLedger::new(config.quota_rate, config.quota_burst);
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                service,
                config,
                counters: Counters::default(),
                quota: Mutex::new(quota),
                live_connections: AtomicUsize::new(0),
                shutdown: AtomicBool::new(false),
            }),
        })
    }

    /// The bound address (useful with an ephemeral port).
    ///
    /// # Errors
    ///
    /// Socket errors from the OS.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A control handle (cloneable, usable from other threads).
    pub fn control(&self) -> ServerControl {
        ServerControl {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the accept loop until [`ServerControl::shutdown`] (or an
    /// `/admin/drain` request), then drains: stop accepting, give
    /// in-flight connections [`NetConfig::drain_deadline`] to finish,
    /// snapshot the result cache. Blocks the calling thread for the
    /// server's whole life.
    pub fn run(self) -> DrainReport {
        let shared = &self.shared;
        let mut last_tick = Instant::now();
        while !shared.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    let live = shared.live_connections.load(Ordering::SeqCst);
                    if live >= shared.config.max_connections {
                        shed_connection(shared, stream);
                        continue;
                    }
                    shared.live_connections.fetch_add(1, Ordering::SeqCst);
                    shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
                    let shared = Arc::clone(shared);
                    std::thread::spawn(move || {
                        let _guard = ConnectionGuard(&shared);
                        serve_connection(&shared, stream, peer);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
            if let (Some(interval), Some(_)) = (
                shared.config.snapshot_interval,
                shared.config.snapshot_path.as_ref(),
            ) {
                if last_tick.elapsed() >= interval {
                    last_tick = Instant::now();
                    self.tick_snapshot();
                }
            }
        }
        self.drain()
    }

    fn tick_snapshot(&self) {
        let Some(path) = self.shared.config.snapshot_path.as_ref() else {
            return;
        };
        if let Err(e) = self.shared.service.save_snapshot(path) {
            eprintln!("snapshot tick failed: {e}");
        }
    }

    fn drain(&self) -> DrainReport {
        let shared = &self.shared;
        // Stop accepting (the listener drops with the server), wait for
        // the in-flight connections under the drain deadline.
        let deadline = Instant::now() + shared.config.drain_deadline;
        while shared.live_connections.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let remaining = shared.live_connections.load(Ordering::SeqCst);
        let snapshot = shared
            .config
            .snapshot_path
            .as_ref()
            .map(|path| shared.service.save_snapshot(path));
        DrainReport {
            remaining_connections: remaining,
            snapshot,
        }
    }
}

/// Decrements the live-connection count even if a worker panics.
struct ConnectionGuard<'a>(&'a Shared);
impl Drop for ConnectionGuard<'_> {
    fn drop(&mut self) {
        self.0.live_connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Over-cap accept: a typed, immediate refusal.
fn shed_connection(shared: &Shared, mut stream: TcpStream) {
    shared
        .counters
        .connections_shed
        .fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let body = error_body("overloaded", "connection cap reached; retry shortly");
    let _ = stream.write_all(&Response::json(503, body).retry_after(1).to_bytes(true));
}

/// One connection's keep-alive loop.
fn serve_connection(shared: &Shared, mut stream: TcpStream, peer: SocketAddr) {
    if stream
        .set_read_timeout(Some(shared.config.read_timeout))
        .is_err()
        || stream
            .set_write_timeout(Some(shared.config.write_timeout))
            .is_err()
    {
        return;
    }
    for served in 0.. {
        let request = match read_request(&mut stream, &shared.config.limits) {
            Ok(r) => r,
            Err(e) => {
                respond_to_parse_error(shared, &mut stream, &e);
                return;
            }
        };
        let wants_close = request.wants_close();
        let at_cap = served + 1 >= MAX_REQUESTS_PER_CONNECTION;
        let response = route(shared, &peer, &request);
        let close = wants_close || at_cap;
        shared.counters.requests.fetch_add(1, Ordering::Relaxed);
        if stream.write_all(&response.to_bytes(close)).is_err() || close {
            return;
        }
    }
}

/// Maps a request-parse failure onto a best-effort response (the
/// connection always closes: after garbage, resynchronisation is
/// hopeless).
fn respond_to_parse_error(shared: &Shared, stream: &mut TcpStream, e: &HttpError) {
    let response = match e {
        // A clean keep-alive end: no response, no counter.
        HttpError::Closed => return,
        HttpError::Timeout => {
            shared.counters.timeouts.fetch_add(1, Ordering::Relaxed);
            Response::json(408, error_body("timeout", "request read timed out"))
        }
        HttpError::TooLarge { what, limit } => {
            shared
                .counters
                .rejected_bad_request
                .fetch_add(1, Ordering::Relaxed);
            let status = if *what == "body" { 413 } else { 431 };
            Response::json(
                status,
                error_body(
                    "too_large",
                    &format!("{what} exceeds the {limit}-byte limit"),
                ),
            )
        }
        HttpError::Malformed(msg) => {
            shared
                .counters
                .rejected_bad_request
                .fetch_add(1, Ordering::Relaxed);
            Response::json(400, error_body("malformed", msg))
        }
        HttpError::Unsupported(msg) => {
            shared
                .counters
                .rejected_bad_request
                .fetch_add(1, Ordering::Relaxed);
            Response::json(501, error_body("unsupported", msg))
        }
        HttpError::Io(_) => return,
    };
    shared.counters.requests.fetch_add(1, Ordering::Relaxed);
    let _ = stream.write_all(&response.to_bytes(true));
}

/// Routes one parsed request.
fn route(shared: &Shared, peer: &SocketAddr, request: &Request) -> Response {
    let response = match (request.method.as_str(), request.target.as_str()) {
        ("GET", "/healthz") => Response::json(200, "{\"status\":\"ok\"}"),
        ("GET", "/stats") => stats_response(shared),
        ("POST", "/query") => query_response(shared, peer, request),
        ("POST", "/admin/snapshot") => snapshot_response(shared),
        ("POST", "/admin/drain") => {
            shared.shutdown.store(true, Ordering::SeqCst);
            Response::json(200, "{\"status\":\"draining\"}")
        }
        (_, "/healthz" | "/stats" | "/query" | "/admin/snapshot" | "/admin/drain") => {
            shared.counters.not_found.fetch_add(1, Ordering::Relaxed);
            return Response::json(405, error_body("method_not_allowed", "wrong method"));
        }
        _ => {
            shared.counters.not_found.fetch_add(1, Ordering::Relaxed);
            return Response::json(404, error_body("not_found", "unknown route"));
        }
    };
    match response.status {
        200 => shared.counters.ok.fetch_add(1, Ordering::Relaxed),
        400 => shared
            .counters
            .rejected_bad_request
            .fetch_add(1, Ordering::Relaxed),
        _ => 0,
    };
    response
}

/// The `/query` route: quota, envelope parsing, the service call, and
/// the typed-error → status mapping.
fn query_response(shared: &Shared, peer: &SocketAddr, request: &Request) -> Response {
    // Per-client fairness first: a noisy neighbour is shed by name
    // before it can reach (and saturate) the global admission bound.
    let client = quota_key(shared, peer, request);
    let decision = {
        let mut quota = shared.quota.lock().unwrap_or_else(|p| p.into_inner());
        quota.admit(&client, Instant::now())
    };
    if let QuotaDecision::Refused { retry_after } = decision {
        shared
            .counters
            .quota_refused
            .fetch_add(1, Ordering::Relaxed);
        // CAST-OK: `ceil().max(1.0)` of a bounded retry window is a
        // small positive integer-valued float, far inside u64 range.
        let secs = retry_after.as_secs_f64().ceil().max(1.0) as u64;
        return Response::json(
            429,
            error_body("quota_exceeded", "per-client request quota exhausted"),
        )
        .retry_after(secs);
    }

    let (scenario, options) = match parse_query_body(&request.body) {
        Ok(pair) => pair,
        Err(msg) => return Response::json(400, error_body("bad_scenario", &msg)),
    };

    match shared.service.query_with(&scenario, &options) {
        Ok(answer) => {
            if answer.is_degraded() {
                shared
                    .counters
                    .degraded_answers
                    .fetch_add(1, Ordering::Relaxed);
            }
            Response::json(200, answer_body(&answer))
        }
        Err(ServiceError::Overloaded { in_flight, limit }) => {
            shared
                .counters
                .shed_overloaded
                .fetch_add(1, Ordering::Relaxed);
            Response::json(
                503,
                error_body(
                    "overloaded",
                    &format!("{in_flight} solves in flight (limit {limit})"),
                ),
            )
            .retry_after(1)
        }
        Err(ServiceError::DeadlineExceeded { completed }) => {
            shared
                .counters
                .deadline_exceeded
                .fetch_add(1, Ordering::Relaxed);
            Response::json(
                504,
                error_body(
                    "deadline_exceeded",
                    &format!("deadline expired after {completed} units of work"),
                ),
            )
        }
        Err(ServiceError::Solve(e)) => {
            shared
                .counters
                .internal_errors
                .fetch_add(1, Ordering::Relaxed);
            Response::json(500, error_body("solve_failed", &e.to_string()))
        }
    }
}

/// The quota key for one request: the trusted client-id header when
/// configured and present, the peer IP otherwise (ports churn per
/// connection and must not split one client into many buckets).
fn quota_key(shared: &Shared, peer: &SocketAddr, request: &Request) -> String {
    if let Some(header) = &shared.config.quota_key_header {
        if let Some(value) = request.header(header) {
            let mut key = String::with_capacity(4 + value.len().min(64));
            key.push_str("id:");
            key.extend(value.chars().take(64));
            return key;
        }
    }
    format!("ip:{}", peer.ip())
}

/// Parses the `/query` body: either raw scenario config text, or a
/// JSON envelope `{"scenario": "<config>", "deadline_ms": …,
/// "degraded_ok": …}` mirroring [`QueryOptions`]. Other keys are
/// ignored.
fn parse_query_body(body: &[u8]) -> Result<(Scenario, QueryOptions), String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let trimmed = text.trim_start();
    if !trimmed.starts_with('{') {
        let scenario = Scenario::from_config_str(text).map_err(|e| e.to_string())?;
        return Ok((scenario, QueryOptions::default()));
    }
    let envelope = Json::parse(text).map_err(|e| e.to_string())?;
    let config = envelope
        .get("scenario")
        .and_then(Json::as_str)
        .ok_or_else(|| "envelope needs a \"scenario\" string".to_string())?;
    let scenario = Scenario::from_config_str(config).map_err(|e| e.to_string())?;
    let mut options = QueryOptions::default();
    if let Some(ms) = envelope.get("deadline_ms") {
        let ms = ms
            .as_f64()
            .filter(|v| v.is_finite() && *v >= 0.0 && *v <= 86_400_000.0)
            .ok_or_else(|| "\"deadline_ms\" must be between 0 and 86400000".to_string())?;
        options = options.with_deadline(Duration::from_secs_f64(ms / 1000.0));
    }
    if let Some(flag) = envelope.get("degraded_ok") {
        if flag
            .as_bool()
            .ok_or_else(|| "\"degraded_ok\" must be a boolean".to_string())?
        {
            options = options.allow_degraded();
        }
    }
    Ok((scenario, options))
}

/// Renders an [`Answer`] as the response envelope. Point values go
/// through the shortest-round-trip `f64` formatting, so the curve a
/// client reads back carries exactly the service's bits.
fn answer_body(answer: &Answer) -> String {
    let mut out = String::new();
    out.push_str("{\"status\":");
    match answer {
        Answer::Exact(_) => out.push_str("\"exact\""),
        Answer::Degraded { bound, .. } => {
            out.push_str("\"degraded\",\"bound\":");
            json::write_f64(&mut out, *bound);
        }
    }
    let dist = answer.distribution();
    out.push_str(",\"method\":");
    json::write_string(&mut out, dist.method());
    out.push_str(",\"points\":[");
    for (i, &(t, p)) in dist.points().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        json::write_f64(&mut out, t.as_seconds());
        out.push(',');
        json::write_f64(&mut out, p);
        out.push(']');
    }
    out.push_str("]}");
    out
}

/// The `/stats` body: the service's dependability ledger plus the
/// network front's own counters.
fn stats_response(shared: &Shared) -> Response {
    let service = shared.service.stats();
    let net = shared.counters.snapshot();
    let clients = shared
        .quota
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clients();
    Response::json(200, stats_body(&service, &net, clients))
}

fn stat_u64(v: usize) -> u64 {
    // CAST-OK: usize is at most 64 bits on every supported target, so
    // widening to u64 never truncates.
    v as u64
}

fn stats_body(s: &ServiceStats, n: &NetStats, quota_clients: usize) -> String {
    let mut out = String::from("{\"service\":{");
    let service_fields: &[(&str, u64)] = &[
        ("hits", s.hits),
        ("misses", s.misses),
        ("joined", s.joined),
        ("shed", s.shed),
        ("evictions", s.evictions),
        ("warm_hits", s.warm_hits),
        ("warm_misses", s.warm_misses),
        ("warm_evictions", s.warm_evictions),
        ("errors", s.errors),
        ("deadline_expired", s.deadline_expired),
        ("degraded_served", s.degraded_served),
        ("snapshot_loaded", s.snapshot_loaded),
        ("snapshot_rejected", s.snapshot_rejected),
        ("snapshot_written", s.snapshot_written),
        ("in_flight", stat_u64(s.in_flight)),
        ("cached_entries", stat_u64(s.cached_entries)),
        ("result_cache_bytes", stat_u64(s.result_cache_bytes)),
        ("warm_entries", stat_u64(s.warm_entries)),
    ];
    for (i, (name, value)) in service_fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":{value}"));
    }
    out.push_str(",\"hit_rate\":");
    json::write_f64(&mut out, s.hit_rate());
    out.push_str("},\"net\":{");
    let net_fields: &[(&str, u64)] = &[
        ("accepted", n.accepted),
        ("connections_shed", n.connections_shed),
        ("requests", n.requests),
        ("ok", n.ok),
        ("rejected_bad_request", n.rejected_bad_request),
        ("quota_refused", n.quota_refused),
        ("shed_overloaded", n.shed_overloaded),
        ("deadline_exceeded", n.deadline_exceeded),
        ("internal_errors", n.internal_errors),
        ("not_found", n.not_found),
        ("timeouts", n.timeouts),
        ("degraded_answers", n.degraded_answers),
    ];
    for (i, (name, value)) in net_fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":{value}"));
    }
    out.push_str(&format!(",\"quota_clients\":{quota_clients}}}}}"));
    out
}

/// The `/admin/snapshot` route: an on-demand crash-safe snapshot (what
/// the periodic tick does, but deterministic for tests and operators).
fn snapshot_response(shared: &Shared) -> Response {
    let Some(path) = shared.config.snapshot_path.as_ref() else {
        return Response::json(
            400,
            error_body("no_snapshot_path", "persistence is not configured"),
        );
    };
    match shared.service.save_snapshot(path) {
        Ok(report) => Response::json(
            200,
            format!(
                "{{\"status\":\"written\",\"entries\":{},\"bytes\":{}}}",
                report.entries, report.bytes
            ),
        ),
        Err(e) => Response::json(500, error_body("snapshot_failed", &e.to_string())),
    }
}

/// A small error envelope: `{"error": <kind>, "detail": <msg>}`.
fn error_body(kind: &str, detail: &str) -> String {
    let mut out = String::from("{\"error\":");
    json::write_string(&mut out, kind);
    out.push_str(",\"detail\":");
    json::write_string(&mut out, detail);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_bodies_are_valid_json() {
        let body = error_body("kind", "de\"tail\nwith\\nasties");
        let v = Json::parse(&body).unwrap();
        assert_eq!(v.get("error").unwrap().as_str(), Some("kind"));
        assert!(v.get("detail").unwrap().as_str().unwrap().contains("tail"));
    }

    #[test]
    fn stats_body_is_valid_json_with_both_ledgers() {
        let body = stats_body(&ServiceStats::default(), &NetStats::default(), 3);
        let v = Json::parse(&body).unwrap();
        assert_eq!(
            v.get("service").unwrap().get("hits").unwrap().as_f64(),
            Some(0.0)
        );
        assert_eq!(
            v.get("net").unwrap().get("quota_refused").unwrap().as_f64(),
            Some(0.0)
        );
        assert_eq!(
            v.get("net").unwrap().get("quota_clients").unwrap().as_f64(),
            Some(3.0)
        );
        assert!(v.get("service").unwrap().get("snapshot_loaded").is_some());
    }

    #[test]
    fn query_body_forms_parse() {
        let config = kibamrm::Scenario::paper_cell_phone()
            .unwrap()
            .to_config_string()
            .unwrap();
        // Raw config text.
        let (s, o) = parse_query_body(config.as_bytes()).unwrap();
        assert!(!s.canonical_bytes().unwrap().is_empty());
        assert_eq!(o, QueryOptions::default());
        // JSON envelope with options.
        let mut envelope = String::from("{\"scenario\":");
        json::write_string(&mut envelope, &config);
        envelope.push_str(",\"deadline_ms\": 250, \"degraded_ok\": true}");
        let (_, o) = parse_query_body(envelope.as_bytes()).unwrap();
        assert_eq!(o.deadline, Some(Duration::from_millis(250)));
        assert!(o.degraded_ok);
        // Unknown keys are ignored, the retired "retries" knob included.
        let mut envelope = String::from("{\"scenario\":");
        json::write_string(&mut envelope, &config);
        envelope.push_str(",\"retries\": 2.5}");
        let (_, o) = parse_query_body(envelope.as_bytes()).unwrap();
        assert_eq!(o, QueryOptions::default());
    }

    #[test]
    fn query_body_garbage_is_typed() {
        for bad in [
            &b"\xff\xfe"[..],
            b"not a scenario",
            b"{\"scenario\": 42}",
            b"{\"no_scenario\": true}",
            b"{\"scenario\": \"# kibamrm scenario v1\\n\", \"deadline_ms\": -1}",
            b"{broken json",
        ] {
            assert!(parse_query_body(bad).is_err(), "accepted {bad:?}");
        }
        let config = kibamrm::Scenario::paper_cell_phone()
            .unwrap()
            .to_config_string()
            .unwrap();
        let mut envelope = String::from("{\"scenario\":");
        json::write_string(&mut envelope, &config);
        envelope.push_str(",\"deadline_ms\": 1e300}");
        assert!(parse_query_body(envelope.as_bytes()).is_err());
    }
}
