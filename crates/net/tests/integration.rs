//! End-to-end tests of the HTTP front, in process: one real
//! `LifetimeService` behind one real `Server` on an ephemeral port,
//! exercised over real sockets. Every robustness layer is poked at
//! least once — typed rejection of garbage, slow-loris timeouts,
//! connection-cap shedding, per-client quotas, the error→status
//! mapping, and the drain → snapshot → warm-restart cycle.

use kibamrm::distribution::LifetimeDistribution;
use kibamrm::scenario::Scenario;
use kibamrm::service::LifetimeService;
use kibamrm::solver::{Budget, Capability, GroupState, LifetimeSolver, SolverRegistry};
use kibamrm::workload::Workload;
use kibamrm::KibamRmError;
use kibamrm_net::{client, Json, NetConfig, Server, ServerControl};
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use units::{Charge, Current, Frequency, Rate, Time};

/// An exact backend: instant, deterministic, answer derived from the
/// scenario so distinct scenarios are distinguishable.
struct CountingSolver {
    solves: Arc<AtomicUsize>,
    delay: Duration,
}

impl LifetimeSolver for CountingSolver {
    fn name(&self) -> &'static str {
        "counting"
    }
    fn capability(&self, _scenario: &Scenario) -> Capability {
        Capability::Exact
    }
    fn solve_in(
        &self,
        scenario: &Scenario,
        _state: Option<&mut GroupState>,
        _budget: &Budget,
    ) -> Result<LifetimeDistribution, KibamRmError> {
        self.solves.fetch_add(1, Ordering::SeqCst);
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        let n = scenario.times().len() as f64;
        let bias = scenario.capacity().as_amp_seconds() % 1.0 / 10.0;
        let points = scenario
            .times()
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, ((i as f64 + bias) / n).clamp(0.0, 1.0)))
            .collect();
        LifetimeDistribution::new("counting", points, Default::default())
    }
}

fn service_with_delay(delay: Duration) -> (Arc<LifetimeService>, Arc<AtomicUsize>) {
    let solves = Arc::new(AtomicUsize::new(0));
    let mut registry = SolverRegistry::empty();
    registry.register(Box::new(CountingSolver {
        solves: Arc::clone(&solves),
        delay,
    }));
    (Arc::new(LifetimeService::new(registry)), solves)
}

fn scenario(capacity_as: f64) -> Scenario {
    let w =
        Workload::on_off_erlang(Frequency::from_hertz(0.5), 1, Current::from_amps(0.5)).unwrap();
    Scenario::builder()
        .name("net-int")
        .workload(w)
        .capacity(Charge::from_amp_seconds(capacity_as))
        .linear()
        .times(
            (1..=8)
                .map(|i| Time::from_seconds(i as f64 * 40.0))
                .collect(),
        )
        .delta(Charge::from_amp_seconds(1.0))
        .simulation(40, 11)
        .build()
        .unwrap()
}

fn config_text(capacity_as: f64) -> String {
    scenario(capacity_as).to_config_string().unwrap()
}

/// Boots a server on an ephemeral port; returns its control handle,
/// address and the run-thread handle (joins to the drain report).
fn start(
    service: Arc<LifetimeService>,
    config: NetConfig,
) -> (
    ServerControl,
    SocketAddr,
    std::thread::JoinHandle<kibamrm_net::DrainReport>,
) {
    let server = Server::bind("127.0.0.1:0", service, config).unwrap();
    let control = server.control();
    let addr = server.local_addr().unwrap();
    let thread = std::thread::spawn(move || server.run());
    (control, addr, thread)
}

const T: Duration = Duration::from_secs(10);

/// Sends raw bytes on a fresh connection and reads one response.
fn raw(addr: SocketAddr, wire: &[u8]) -> client::HttpResponse {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(T)).unwrap();
    stream.write_all(wire).unwrap();
    client::read_response(&mut stream).unwrap()
}

fn points_bits(body: &[u8]) -> Vec<(u64, u64)> {
    let v = Json::parse(std::str::from_utf8(body).unwrap()).unwrap();
    v.get("points")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|p| {
            let pair = p.as_array().unwrap();
            (
                pair[0].as_f64().unwrap().to_bits(),
                pair[1].as_f64().unwrap().to_bits(),
            )
        })
        .collect()
}

#[test]
fn routing_health_and_stats() {
    let (service, _) = service_with_delay(Duration::ZERO);
    let (control, addr, run) = start(service, NetConfig::default());

    let health = client::get(addr, "/healthz", T).unwrap();
    assert_eq!(health.status, 200);

    assert_eq!(client::get(addr, "/nowhere", T).unwrap().status, 404);
    assert_eq!(
        client::request(addr, "DELETE", "/query", &[], b"", T)
            .unwrap()
            .status,
        405
    );

    let stats = client::get(addr, "/stats", T).unwrap();
    assert_eq!(stats.status, 200);
    let v = Json::parse(&stats.body_string()).unwrap();
    assert!(v.get("service").unwrap().get("snapshot_loaded").is_some());
    assert!(v
        .get("service")
        .unwrap()
        .get("result_cache_bytes")
        .is_some());
    assert!(v.get("net").unwrap().get("quota_refused").is_some());

    control.shutdown();
    let report = run.join().unwrap();
    assert_eq!(report.remaining_connections, 0);
}

#[test]
fn query_answers_are_bit_identical_to_direct_solves() {
    let (service, solves) = service_with_delay(Duration::ZERO);
    let reference = service.query(&scenario(101.25)).unwrap();
    let (control, addr, run) = start(Arc::clone(&service), NetConfig::default());

    // Raw config text body.
    let r = client::post_query(addr, config_text(101.25).as_bytes(), T).unwrap();
    assert_eq!(r.status, 200, "{}", r.body_string());
    let v = Json::parse(&r.body_string()).unwrap();
    assert_eq!(v.get("status").unwrap().as_str(), Some("exact"));
    assert_eq!(v.get("method").unwrap().as_str(), Some("counting"));
    let wire_bits = points_bits(&r.body);
    let direct_bits: Vec<(u64, u64)> = reference
        .points()
        .iter()
        .map(|&(t, p)| (t.as_seconds().to_bits(), p.to_bits()))
        .collect();
    assert_eq!(wire_bits, direct_bits, "HTTP curve must carry exact bits");

    // JSON envelope body — same scenario, cache hit, same bits.
    let mut envelope = String::from("{\"scenario\": ");
    kibamrm_net::json::write_string(&mut envelope, &config_text(101.25));
    envelope.push_str(", \"deadline_ms\": 60000}");
    let r2 = client::post_query(addr, envelope.as_bytes(), T).unwrap();
    assert_eq!(r2.status, 200, "{}", r2.body_string());
    assert_eq!(points_bits(&r2.body), direct_bits);
    assert_eq!(
        solves.load(Ordering::SeqCst),
        1,
        "everything after the first is a hit"
    );

    control.shutdown();
    run.join().unwrap();
}

#[test]
fn garbage_is_rejected_with_typed_statuses() {
    let (service, solves) = service_with_delay(Duration::ZERO);
    let (control, addr, run) = start(
        service,
        NetConfig {
            limits: kibamrm_net::HttpLimits {
                max_head_bytes: 512,
                max_body_bytes: 256,
                max_headers: 8,
            },
            ..NetConfig::default()
        },
    );

    // Malformed request line.
    assert_eq!(raw(addr, b"NONSENSE\r\n\r\n").status, 400);
    // Unsupported version.
    assert_eq!(raw(addr, b"GET / HTTP/9.9\r\n\r\n").status, 501);
    // Chunked encoding is refused, not mis-parsed.
    assert_eq!(
        raw(
            addr,
            b"POST /query HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"
        )
        .status,
        501
    );
    // Oversized declared body: refused before it is read.
    assert_eq!(
        raw(
            addr,
            b"POST /query HTTP/1.1\r\ncontent-length: 100000\r\n\r\n"
        )
        .status,
        413
    );
    // Oversized head.
    let mut big_head = b"GET / HTTP/1.1\r\nx-pad: ".to_vec();
    big_head.extend(std::iter::repeat_n(b'a', 4096));
    big_head.extend_from_slice(b"\r\n\r\n");
    assert_eq!(raw(addr, &big_head).status, 431);
    // A syntactically fine request whose body is not a scenario.
    assert_eq!(
        client::post_query(addr, b"definitely not a scenario", T)
            .unwrap()
            .status,
        400
    );
    assert_eq!(
        client::post_query(addr, b"{\"scenario\": 42}", T)
            .unwrap()
            .status,
        400
    );

    assert_eq!(
        solves.load(Ordering::SeqCst),
        0,
        "garbage must never reach a solver"
    );
    control.shutdown();
    let report = run.join().unwrap();
    assert_eq!(
        report.remaining_connections, 0,
        "no rejected connection may wedge"
    );
}

#[test]
fn slow_loris_is_cut_off_by_the_read_timeout() {
    let (service, _) = service_with_delay(Duration::ZERO);
    let (control, addr, run) = start(
        service,
        NetConfig {
            read_timeout: Duration::from_millis(150),
            ..NetConfig::default()
        },
    );

    // Trickle half a request line and stall.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(T)).unwrap();
    stream.write_all(b"POST /qu").unwrap();
    let response = client::read_response(&mut stream).unwrap();
    assert_eq!(
        response.status, 408,
        "a stalled read must answer 408 and close"
    );

    assert!(control.net_stats().timeouts >= 1);
    control.shutdown();
    let report = run.join().unwrap();
    assert_eq!(
        report.remaining_connections, 0,
        "the loris must not wedge a worker"
    );
}

#[test]
fn connection_cap_sheds_immediately_with_retry_after() {
    let (service, _) = service_with_delay(Duration::ZERO);
    let (control, addr, run) = start(
        service,
        NetConfig {
            max_connections: 2,
            read_timeout: Duration::from_secs(5),
            ..NetConfig::default()
        },
    );

    // Two idle connections occupy both workers…
    let hold_a = TcpStream::connect(addr).unwrap();
    let hold_b = TcpStream::connect(addr).unwrap();
    // …give the acceptor a moment to hand them to workers…
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while control.net_stats().accepted < 2 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(control.net_stats().accepted, 2);

    // …so the third is shed at the door, instantly, with a typed body.
    let shed = client::get(addr, "/healthz", T).unwrap();
    assert_eq!(shed.status, 503);
    assert_eq!(shed.header("retry-after"), Some("1"));
    assert!(shed.body_string().contains("overloaded"));
    assert_eq!(control.net_stats().connections_shed, 1);

    drop(hold_a);
    drop(hold_b);
    control.shutdown();
    let report = run.join().unwrap();
    assert_eq!(report.remaining_connections, 0);
}

#[test]
fn quotas_shed_the_noisy_client_by_name() {
    let (service, _) = service_with_delay(Duration::ZERO);
    let (control, addr, run) = start(
        service,
        NetConfig {
            quota_rate: 0.5,
            quota_burst: 2.0,
            quota_key_header: Some("x-client-id".to_string()),
            ..NetConfig::default()
        },
    );
    let body = config_text(77.0);

    // The noisy client burns its burst, then is refused by name.
    let mut statuses = Vec::new();
    for _ in 0..5 {
        let r = client::request(
            addr,
            "POST",
            "/query",
            &[("x-client-id", "noisy")],
            body.as_bytes(),
            T,
        )
        .unwrap();
        statuses.push(r.status);
        if r.status == 429 {
            assert!(
                r.header("retry-after").is_some(),
                "429 must carry Retry-After"
            );
        }
    }
    assert_eq!(&statuses[..2], &[200, 200], "the burst is admitted");
    assert!(statuses[2..].iter().all(|&s| s == 429), "{statuses:?}");

    // The polite client, same IP but its own id, is untouched.
    let polite = client::request(
        addr,
        "POST",
        "/query",
        &[("x-client-id", "polite")],
        body.as_bytes(),
        T,
    )
    .unwrap();
    assert_eq!(
        polite.status, 200,
        "fair shedding: quota is per client, not per IP"
    );

    assert_eq!(control.net_stats().quota_refused, 3);
    control.shutdown();
    run.join().unwrap();
}

#[test]
fn drain_snapshots_and_the_next_server_starts_warm() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("kibamrm-net-int-{}.snap", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let (service, solves_a) = service_with_delay(Duration::ZERO);
    let (_, addr, run) = start(
        Arc::clone(&service),
        NetConfig {
            snapshot_path: Some(path.clone()),
            ..NetConfig::default()
        },
    );
    let first = client::post_query(addr, config_text(50.5).as_bytes(), T).unwrap();
    assert_eq!(first.status, 200);
    let second = client::post_query(addr, config_text(60.5).as_bytes(), T).unwrap();
    assert_eq!(second.status, 200);
    assert_eq!(solves_a.load(Ordering::SeqCst), 2);

    // An on-demand snapshot works too (the deterministic tick).
    let snap = client::request(addr, "POST", "/admin/snapshot", &[], b"", T).unwrap();
    assert_eq!(snap.status, 200, "{}", snap.body_string());

    // Drain over HTTP: the run loop notices, drains, snapshots.
    let drain = client::request(addr, "POST", "/admin/drain", &[], b"", T).unwrap();
    assert_eq!(drain.status, 200);
    let report = run.join().unwrap();
    assert_eq!(
        report.remaining_connections, 0,
        "drain left connections wedged"
    );
    let written = report.snapshot.unwrap().unwrap();
    assert_eq!(written.entries, 2);

    // A brand-new process-equivalent: fresh service, snapshot loaded.
    let (service_b, solves_b) = service_with_delay(Duration::ZERO);
    let load = service_b.load_snapshot(&path);
    assert_eq!((load.loaded, load.rejected), (2, 0), "{:?}", load.error);
    let (control_b, addr_b, run_b) = start(Arc::clone(&service_b), NetConfig::default());

    let warm = client::post_query(addr_b, config_text(50.5).as_bytes(), T).unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(
        points_bits(&warm.body),
        points_bits(&first.body),
        "the reloaded curve must carry exactly the pre-crash bits"
    );
    assert_eq!(
        solves_b.load(Ordering::SeqCst),
        0,
        "warm answers must not re-solve"
    );
    let stats = service_b.stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.snapshot_loaded, 2);

    control_b.shutdown();
    run_b.join().unwrap();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn snapshot_route_without_persistence_is_a_typed_refusal() {
    let (service, _) = service_with_delay(Duration::ZERO);
    let (control, addr, run) = start(service, NetConfig::default());
    let r = client::request(addr, "POST", "/admin/snapshot", &[], b"", T).unwrap();
    assert_eq!(r.status, 400);
    assert!(r.body_string().contains("no_snapshot_path"));
    control.shutdown();
    run.join().unwrap();
}

#[test]
fn deterministic_solve_failures_answer_500_every_time() {
    // A Δ that does not divide the wells fails the same way on every
    // solve, so every answer is the same `500`: the sixth must not turn
    // into a `503` + `Retry-After` for a request that can never succeed.
    let service = Arc::new(LifetimeService::new(SolverRegistry::with_default_backends()));
    let (control, addr, run) = start(service, NetConfig::default());
    let config = Scenario::paper_cell_phone()
        .unwrap()
        .with_delta(Charge::from_coulombs(7.3))
        .to_config_string()
        .unwrap();
    for i in 0..6 {
        let r = client::post_query(addr, config.as_bytes(), T).unwrap();
        assert_eq!(r.status, 500, "query {i}: {}", r.body_string());
        assert!(r.body_string().contains("solve_failed"), "query {i}");
        assert!(r.header("retry-after").is_none(), "query {i}");
    }
    // A Δ so fine that the lattice would outgrow the state cap (10⁻⁶ C
    // overflows the state count, 10⁻³⁰⁰ C a level count) is refused the
    // same way, before anything is allocated.
    for delta in [1e-6, 1e-300] {
        let config = Scenario::paper_cell_phone()
            .unwrap()
            .with_delta(Charge::from_coulombs(delta))
            .to_config_string()
            .unwrap();
        let r = client::post_query(addr, config.as_bytes(), T).unwrap();
        let body = r.body_string();
        assert_eq!(r.status, 500, "Δ = {delta}: {body}");
        assert!(body.contains("solve_failed"), "Δ = {delta}: {body}");
        assert!(body.contains("4194304 states"), "Δ = {delta}: {body}");
    }
    assert_eq!(control.net_stats().internal_errors, 8);

    control.shutdown();
    run.join().unwrap();
}

#[test]
fn a_query_time_past_the_poisson_cap_is_a_500_and_the_server_keeps_serving() {
    // The Fig. 8 two-well scenario asked about 10⁹ s: its Poisson rate
    // νt ≈ 2·10⁹ would size a 16 GB scalar vector, whose failed
    // allocation aborts the process. It is refused before anything is
    // allocated, and the same server answers the next requests.
    let service = Arc::new(LifetimeService::new(SolverRegistry::with_default_backends()));
    let (control, addr, run) = start(service, NetConfig::default());
    let fig8 = |t: f64| {
        Scenario::builder()
            .name("fig8")
            .workload(
                Workload::on_off_erlang(Frequency::from_hertz(1.0), 1, Current::from_amps(0.96))
                    .unwrap(),
            )
            .capacity(Charge::from_amp_seconds(7200.0))
            .kibam(0.625, Rate::per_second(4.5e-5))
            .times(vec![Time::from_seconds(t)])
            .delta(Charge::from_amp_seconds(300.0))
            .build()
            .unwrap()
            .to_config_string()
            .unwrap()
    };
    let r = client::post_query(addr, fig8(1e9).as_bytes(), T).unwrap();
    let body = r.body_string();
    assert_eq!(r.status, 500, "{body}");
    assert!(body.contains("solve_failed"), "{body}");
    assert!(body.contains("exceeds the cap 1e7"), "{body}");

    assert_eq!(client::get(addr, "/healthz", T).unwrap().status, 200);
    let r = client::post_query(addr, fig8(1e4).as_bytes(), T).unwrap();
    assert_eq!(r.status, 200, "{}", r.body_string());

    control.shutdown();
    run.join().unwrap();
}

#[test]
fn deadline_exhaustion_maps_to_504() {
    let (service, _) = service_with_delay(Duration::from_millis(120));
    let (control, addr, run) = start(service, NetConfig::default());

    // An already-expired deadline: the admission check refuses before
    // any work starts (a deadline that expires mid-solve still serves
    // the completed answer — work done is work served).
    let mut envelope = String::from("{\"scenario\": ");
    kibamrm_net::json::write_string(&mut envelope, &config_text(88.0));
    envelope.push_str(", \"deadline_ms\": 0}");
    let r = client::post_query(addr, envelope.as_bytes(), T).unwrap();
    assert_eq!(r.status, 504, "{}", r.body_string());
    assert!(r.body_string().contains("deadline_exceeded"));
    assert_eq!(control.net_stats().deadline_exceeded, 1);

    control.shutdown();
    run.join().unwrap();
}
