//! `fleet_http`: a closed loop of one client per core against an
//! in-process `kibamrm_net::Server` over one `LifetimeService`. Each
//! client waits for its reply, then POSTs `/query` over a fresh loopback
//! connection, as `kibamrm_net::client` does.
//!
//! Set-up solves a resident set of Fig. 8 configurations. The seeded
//! trace then sends mostly per-device relabelled re-queries of that set
//! (hits: `net` → `scenario` → service lookup) and a few never-seen
//! rate-scale variants of it (misses: they find their family's warm
//! group state but run their own sweep).

use crate::calibrate::Calibration;
use crate::inputs::{draw, Fig8, Rng};
use crate::trace::{self, Span, Tracer};
use crate::{json_num, json_nums, json_object, set_up_repeatedly, stats, Outcome, Phase, Run};
use kibamrm::service::{LifetimeService, QueryOptions, ServiceConfig, ServiceStats};
use kibamrm::solver::SolverRegistry;
use kibamrm::{LifetimeDistribution, Scenario};
use kibamrm_net::client::{read_response, HttpResponse};
use kibamrm_net::http::{read_request, HttpLimits};
use kibamrm_net::json::Json;
use kibamrm_net::{DrainReport, NetConfig, NetStats, Server, ServerControl};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const RESIDENT_CS: [f64; 2] = [0.625, 0.5];
const RESIDENT_SCALES: [f64; 4] = [1.0, 0.5, 0.25, 0.125];
const DELTA_AS: f64 = 300.0;
/// Share of requests that are never-seen variants.
const MISS_PERCENT: u64 = 5;
const DEVICES: u64 = 10_000;
/// Requests in each phase of the traced run: fixed, so its counts repeat
/// exactly at a seed, and enough for `miss_p90_ms` to have about ten
/// misses beyond it.
const PHASE_REQUESTS: u64 = 2000;
const TIMEOUT: Duration = Duration::from_secs(30);

fn resident_set(fig: &Fig8) -> Result<Vec<Scenario>, String> {
    let mut set = Vec::new();
    for &c in &RESIDENT_CS {
        let base = fig.scenario(c, 1.0, DELTA_AS)?;
        for &gamma in &RESIDENT_SCALES {
            set.push(base.with_rate_scale(gamma).map_err(|e| e.to_string())?);
        }
    }
    Ok(set)
}

/// One request of the seeded trace; request `index` depends only on the
/// seed and `index`, so the trace is unbounded.
struct Request {
    resident: usize,
    miss: bool,
    body: String,
}

fn request(seed: u64, resident: &[Scenario], index: u64) -> Result<Request, String> {
    let h = draw(seed, index);
    let r = (h % resident.len() as u64) as usize;
    let miss = (h >> 16) % 100 < MISS_PERCENT;
    let mut scenario = resident[r].with_name(format!("device-{:05}", (h >> 32) % DEVICES));
    if miss {
        let gamma = 1.0 + (index + 1) as f64 / f64::from(1u32 << 24);
        scenario = scenario.with_rate_scale(gamma).map_err(|e| e.to_string())?;
    }
    let body = scenario.to_config_string().map_err(|e| e.to_string())?;
    Ok(Request {
        resident: r,
        miss,
        body,
    })
}

/// The server under test, running on its own thread.
struct Front {
    service: Arc<LifetimeService>,
    control: ServerControl,
    addr: SocketAddr,
    thread: JoinHandle<DrainReport>,
}

impl Front {
    fn start(resident: &[Scenario]) -> Result<Front, String> {
        let service = Arc::new(shipped_service(resident)?);
        let server = Server::bind("127.0.0.1:0", Arc::clone(&service), NetConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let control = server.control();
        Ok(Front {
            service,
            control,
            addr,
            thread: std::thread::spawn(move || server.run()),
        })
    }

    /// One request per resident configuration over the socket, so the
    /// first timed request pays for no lazy start-up.
    fn warm_up(&self, resident: &[Scenario]) -> Result<(), String> {
        for scenario in resident {
            let body = scenario.to_config_string().map_err(|e| e.to_string())?;
            let status = post(self.addr, &body, &mut Tracer::disabled()).map(|x| x.response.status);
            if !matches!(status, Ok(200)) {
                return Err(format!("warm-up request answered {status:?}"));
            }
        }
        Ok(())
    }

    /// Drains the server and waits for its thread.
    fn stop(self) -> Result<(), String> {
        self.control.shutdown();
        let report = self
            .thread
            .join()
            .map_err(|_| "the server thread panicked".to_string())?;
        if report.remaining_connections != 0 {
            return Err(format!(
                "{} connections still open after the drain",
                report.remaining_connections
            ));
        }
        Ok(())
    }
}

/// A service with the shipped configuration, holding the resident set.
fn shipped_service(resident: &[Scenario]) -> Result<LifetimeService, String> {
    let service = LifetimeService::with_config(
        SolverRegistry::with_default_backends(),
        ServiceConfig::default(),
    );
    for scenario in resident {
        service.query(scenario).map_err(|e| e.to_string())?;
    }
    Ok(service)
}

/// Counts the bytes read through it.
struct Counted<R> {
    inner: R,
    bytes: usize,
}

impl<R: Read> Read for Counted<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n;
        Ok(n)
    }
}

struct Exchange {
    response: HttpResponse,
    bytes_in: usize,
    bytes_out: usize,
}

fn wire_head(body: &str) -> String {
    format!(
        "POST /query HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
}

/// One `POST /query` over a fresh connection, written as
/// `kibamrm_net::client::request` writes it, with the connect, send,
/// time-to-first-byte and read steps each in a span.
fn post(addr: SocketAddr, body: &str, tr: &mut Tracer) -> std::io::Result<Exchange> {
    let head = wire_head(body);
    let mut stream = tr.span("net.connect", |_| {
        TcpStream::connect_timeout(&addr, TIMEOUT)
    })?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    tr.span("net.send", |_| {
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())
    })?;
    let mut first = [0u8; 1024];
    let n = tr.span("net.ttfb", |_| stream.read(&mut first))?;
    let mut counted = Counted {
        inner: (&first[..n]).chain(&mut stream),
        bytes: 0,
    };
    let response = tr.span("net.read", |_| read_response(&mut counted))?;
    Ok(Exchange {
        response,
        bytes_in: head.len() + body.len(),
        bytes_out: counted.bytes,
    })
}

/// Whether a `200` body carries exactly the reference curve's bits.
fn body_matches(body: &[u8], reference: &LifetimeDistribution) -> bool {
    let Some(doc) = std::str::from_utf8(body)
        .ok()
        .and_then(|t| Json::parse(t).ok())
    else {
        return false;
    };
    let Some(points) = doc.get("points").and_then(Json::as_array) else {
        return false;
    };
    let bits = |v: Option<&Json>| v.and_then(Json::as_f64).map(f64::to_bits);
    doc.get("status").and_then(Json::as_str) == Some("exact")
        && points.len() == reference.points().len()
        && points.iter().zip(reference.points()).all(|(p, &(t, v))| {
            let pair = p.as_array().unwrap_or(&[]);
            pair.len() == 2
                && bits(pair.first()) == Some(t.as_seconds().to_bits())
                && bits(pair.get(1)) == Some(v.to_bits())
        })
}

/// An independent solve of exactly the configuration a request carried.
fn solve_text(registry: &SolverRegistry, config: &str) -> Result<LifetimeDistribution, String> {
    let scenario = Scenario::from_config_str(config).map_err(|e| e.to_string())?;
    registry.solve(&scenario).map_err(|e| e.to_string())
}

/// How one request's output was checked.
enum Verdict {
    Verified,
    Failed(String),
    /// A miss: checked after the phase, against an independent solve.
    Pending {
        request: String,
        response: Vec<u8>,
    },
}

struct Sample {
    index: u64,
    miss: bool,
    latency_ms: f64,
    status_ok: bool,
    verdict: Verdict,
    bytes_in: usize,
    bytes_out: usize,
    /// In-process `query_with` time of the same request (traced phase).
    shadow_ms: Option<f64>,
}

struct Ctx {
    seed: u64,
    addr: SocketAddr,
    resident: Vec<Scenario>,
    references: Vec<LifetimeDistribution>,
    clients: usize,
}

enum Stop {
    At(Instant),
    Before(u64),
}

struct Drive {
    samples: Vec<Sample>,
    elapsed_s: f64,
    spans: Vec<Span>,
}

impl Drive {
    /// The phase's request latencies, unscaled: a request's latency is
    /// set by the front's accept timer, not by CPU speed.
    fn phase(&self) -> Phase {
        Phase {
            latencies_ms: self.samples.iter().map(|s| s.latency_ms).collect(),
            scaled_ms: Vec::new(),
            ok: self.samples.iter().filter(|s| s.status_ok).count(),
            elapsed_s: self.elapsed_s,
        }
    }

    fn latencies_ms(&self, miss: bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.miss == miss)
            .map(|s| s.latency_ms)
            .collect()
    }
}

/// Runs the closed loop from trace index `first` until `stop`. With a
/// `shadow` service, every request is also replayed in process (see
/// [`shadow_replay`]) and spans are recorded from `epoch`.
fn drive(
    ctx: &Ctx,
    first: u64,
    stop: Stop,
    shadow: Option<&LifetimeService>,
    epoch: Option<Instant>,
) -> Result<Drive, String> {
    let next = AtomicU64::new(first);
    let started = Instant::now();
    let parts = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ctx.clients)
            .map(|_| scope.spawn(|| client(ctx, &next, &stop, shadow, epoch)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "a client thread panicked".to_string())?
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    let elapsed_s = started.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    let mut spans = Vec::new();
    for (s, sp) in parts {
        samples.extend(s);
        spans.push(sp);
    }
    samples.sort_by_key(|s| s.index);
    Ok(Drive {
        samples,
        elapsed_s,
        spans: trace::merge(spans),
    })
}

fn client(
    ctx: &Ctx,
    next: &AtomicU64,
    stop: &Stop,
    shadow: Option<&LifetimeService>,
    epoch: Option<Instant>,
) -> Result<(Vec<Sample>, Vec<Span>), String> {
    let mut tr = epoch.map_or_else(Tracer::disabled, Tracer::enabled);
    let mut samples = Vec::new();
    loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let go_on = match stop {
            Stop::At(deadline) => Instant::now() < *deadline,
            Stop::Before(end) => index < *end,
        };
        if !go_on {
            break;
        }
        let req = request(ctx.seed, &ctx.resident, index)?;
        tr.set_request(index);
        let started = Instant::now();
        let exchange = tr.span("fleet.request", |tr| post(ctx.addr, &req.body, tr));
        let latency_ms = started.elapsed().as_secs_f64() * 1e3;
        let (status_ok, verdict, bytes_in, bytes_out) = match exchange {
            Ok(x) if x.response.status == 200 => {
                let verdict = if req.miss {
                    Verdict::Pending {
                        request: req.body.clone(),
                        response: x.response.body,
                    }
                } else if body_matches(&x.response.body, &ctx.references[req.resident]) {
                    Verdict::Verified
                } else {
                    Verdict::Failed(format!(
                        "request {index}: hit body differs from a fresh solve"
                    ))
                };
                (true, verdict, x.bytes_in, x.bytes_out)
            }
            Ok(x) => (
                false,
                Verdict::Failed(format!("request {index}: status {}", x.response.status)),
                x.bytes_in,
                x.bytes_out,
            ),
            Err(e) => (
                false,
                Verdict::Failed(format!("request {index}: {e}")),
                0,
                0,
            ),
        };
        let shadow_ms = shadow
            .map(|service| shadow_replay(&mut tr, service, &req))
            .transpose()?;
        samples.push(Sample {
            index,
            miss: req.miss,
            latency_ms,
            status_ok,
            verdict,
            bytes_in,
            bytes_out,
            shadow_ms,
        });
    }
    Ok((samples, tr.into_spans()))
}

/// The request replayed in process on a second service that holds the
/// same resident set: the HTTP request parse, the scenario parse and
/// canonical key, and the service query, each in its own span. Returns
/// the query's time in milliseconds.
fn shadow_replay(tr: &mut Tracer, service: &LifetimeService, req: &Request) -> Result<f64, String> {
    let wire = format!("{}{}", wire_head(&req.body), req.body);
    tr.span("shadow.replay", |tr| {
        let mut bytes = wire.as_bytes();
        tr.span("net.read_request", |_| {
            read_request(&mut bytes, &HttpLimits::default())
        })
        .map_err(|e| e.to_string())?;
        let scenario = tr
            .span("scenario.parse", |_| Scenario::from_config_str(&req.body))
            .map_err(|e| e.to_string())?;
        tr.span("scenario.key", |_| scenario.canonical_bytes())
            .map_err(|e| e.to_string())?;
        let started = Instant::now();
        tr.span("service.query", |_| {
            service.query_with(&scenario, &QueryOptions::default())
        })
        .map_err(|e| e.to_string())?;
        Ok(started.elapsed().as_secs_f64() * 1e3)
    })
}

/// Records every sample's check, solving each miss's configuration
/// independently (outside the timed phase).
fn verify(out: &mut Outcome, drive: &Drive, registry: &SolverRegistry) {
    for sample in &drive.samples {
        match &sample.verdict {
            Verdict::Verified => out.check(true, String::new),
            Verdict::Failed(why) => out.check(false, || why.clone()),
            Verdict::Pending { request, response } => {
                let same = solve_text(registry, request).is_ok_and(|r| body_matches(response, &r));
                out.check(same, || {
                    format!(
                        "request {}: miss body differs from a fresh solve",
                        sample.index
                    )
                });
            }
        }
    }
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let fig = Fig8::seeded(&mut Rng::new(run.seed));
    let resident = resident_set(&fig)?;
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (front, setups_s) = set_up_repeatedly(
        &mut Calibration::new(),
        || Front::start(&resident),
        Front::stop,
    )?;
    let result = front
        .warm_up(&resident)
        .and_then(|()| measure(run, &front, &fig, resident, clients, &setups_s));
    let stopped = front.stop();
    let out = result?;
    stopped?;
    Ok(out)
}

fn measure(
    run: &Run,
    front: &Front,
    fig: &Fig8,
    resident: Vec<Scenario>,
    clients: usize,
    setups_s: &[f64],
) -> Result<Outcome, String> {
    let registry = SolverRegistry::with_default_backends();
    let references = resident
        .iter()
        .map(|s| solve_text(&registry, &s.to_config_string().map_err(|e| e.to_string())?))
        .collect::<Result<Vec<_>, String>>()?;
    let ctx = Ctx {
        seed: run.seed,
        addr: front.addr,
        resident,
        references,
        clients,
    };
    let mut out = Outcome::new(json_object(&[
        (
            "loop",
            crate::json_str("closed: each client sends its next request after the reply"),
        ),
        ("clients", clients.to_string()),
        ("resident_configurations", ctx.resident.len().to_string()),
        ("c", json_nums(&RESIDENT_CS)),
        ("rate_scales", json_nums(&RESIDENT_SCALES)),
        ("delta_as", json_num(DELTA_AS)),
        ("k_per_s", json_num(fig.k_per_s)),
        ("current_a", json_num(fig.current_a)),
        ("miss_percent", MISS_PERCENT.to_string()),
        ("devices", DEVICES.to_string()),
        (
            "traced_phase_requests",
            if run.traced {
                PHASE_REQUESTS.to_string()
            } else {
                "null".into()
            },
        ),
    ]));

    if !run.traced {
        let deadline = Instant::now() + Duration::from_secs_f64(run.seconds);
        let d = drive(&ctx, 0, Stop::At(deadline), None, None)?;
        verify(&mut out, &d, &registry);
        out.end_to_end(&d.phase(), setups_s)?;
        return Ok(out);
    }

    // Untraced, then traced, over fixed disjoint slices of the trace.
    let untraced = drive(&ctx, 0, Stop::Before(PHASE_REQUESTS), None, None)?;
    verify(&mut out, &untraced, &registry);
    let (hits, misses) = (untraced.latencies_ms(false), untraced.latencies_ms(true));
    out.metric("hit_p50_ms", stats::median(&hits), hits.len());
    out.metric("hit_p99_ms", stats::quantile(&hits, 0.99), hits.len());
    out.metric("miss_p50_ms", stats::median(&misses), misses.len());
    out.metric("miss_p90_ms", stats::quantile(&misses, 0.9), misses.len());
    let u = untraced.phase();
    out.metric("query_rps", u.ok as f64 / u.elapsed_s, u.latencies_ms.len());

    let shadow = shipped_service(&ctx.resident)?;
    let (service_before, net_before) = (front.service.stats(), front.control.net_stats());
    let traced = drive(
        &ctx,
        PHASE_REQUESTS,
        Stop::Before(2 * PHASE_REQUESTS),
        Some(&shadow),
        Some(Instant::now()),
    )?;
    let (service_after, net_after) = (front.service.stats(), front.control.net_stats());
    verify(&mut out, &traced, &registry);
    out.trace_overhead(&u, &traced.phase());
    layer_metrics(
        &mut out,
        &traced,
        &service_before,
        &service_after,
        &net_before,
        &net_after,
    );
    out.spans = traced.spans;
    Ok(out)
}

fn layer_metrics(
    out: &mut Outcome,
    traced: &Drive,
    sb: &ServiceStats,
    sa: &ServiceStats,
    nb: &NetStats,
    na: &NetStats,
) {
    let spans = &traced.spans;
    let n = traced.samples.len();
    let ms = |name: &str, q: f64| stats::quantile(&trace::durations_ns(spans, name), q) / 1e6;
    let count = |name: &str| trace::durations_ns(spans, name).len();
    out.metric(
        "net.connect_p50_ms",
        ms("net.connect", 0.5),
        count("net.connect"),
    );
    out.metric("net.ttfb_p50_ms", ms("net.ttfb", 0.5), count("net.ttfb"));
    out.metric("net.ttfb_p99_ms", ms("net.ttfb", 0.99), count("net.ttfb"));
    out.metric(
        "net.read_request_us",
        ms("net.read_request", 0.5) * 1e3,
        count("net.read_request"),
    );
    out.metric(
        "scenario.parse_us",
        ms("scenario.parse", 0.5) * 1e3,
        count("scenario.parse"),
    );
    out.metric(
        "scenario.key_us",
        ms("scenario.key", 0.5) * 1e3,
        count("scenario.key"),
    );

    let shadow = |miss: bool| -> Vec<f64> {
        traced
            .samples
            .iter()
            .filter(|s| s.miss == miss)
            .filter_map(|s| s.shadow_ms)
            .collect()
    };
    let (hit_q, miss_q) = (shadow(false), shadow(true));
    out.metric("service.hit_us", stats::median(&hit_q) * 1e3, hit_q.len());
    out.metric("service.miss_ms", stats::median(&miss_q), miss_q.len());
    let front_overhead: Vec<f64> = traced
        .samples
        .iter()
        .filter(|s| !s.miss)
        .filter_map(|s| s.shadow_ms.map(|q| s.latency_ms - q))
        .collect();
    out.metric(
        "net.front_overhead_p50_ms",
        stats::median(&front_overhead),
        front_overhead.len(),
    );

    let total = |f: fn(&Sample) -> usize| traced.samples.iter().map(f).sum::<usize>() as f64;
    out.exact("net.bytes_in", total(|s| s.bytes_in) / n.max(1) as f64);
    out.exact("net.bytes_out", total(|s| s.bytes_out) / n.max(1) as f64);
    out.exact("net.ok", (na.ok - nb.ok) as f64);
    out.exact(
        "net.connections_shed",
        (na.connections_shed - nb.connections_shed) as f64,
    );
    out.exact("net.timeouts", (na.timeouts - nb.timeouts) as f64);

    let hits = sa.hits - sb.hits;
    let misses = sa.misses - sb.misses;
    let warm_hits = sa.warm_hits - sb.warm_hits;
    let warm_misses = sa.warm_misses - sb.warm_misses;
    out.exact("service.hits", hits as f64);
    out.exact("service.misses", misses as f64);
    out.exact("service.warm_hits", warm_hits as f64);
    out.exact("service.warm_misses", warm_misses as f64);
    out.exact(
        "service.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.exact(
        "service.warm_hit_ratio",
        warm_hits as f64 / (warm_hits + warm_misses).max(1) as f64,
    );
    out.exact("service.shed", (sa.shed - sb.shed) as f64);
    out.exact("service.errors", (sa.errors - sb.errors) as f64);
    out.exact("service.evictions", (sa.evictions - sb.evictions) as f64);
    out.exact("service.result_cache_bytes", sa.result_cache_bytes as f64);

    let self_ns = trace::layer_self_ns(spans);
    let per_request =
        |layer: &str| self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6 / n.max(1) as f64;
    out.metric("self.net_ms", per_request("net"), n);
    out.metric("self.scenario_ms", per_request("scenario"), n);
    out.metric("self.service_ms", per_request("service"), n);
}
