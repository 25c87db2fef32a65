//! A device fleet querying one resident `LifetimeService`.
//!
//! Models the service's target workload: many devices sharing a handful
//! of physical configurations. Each device queries under its own name,
//! with a mix of
//!
//! * **repeat** queries — the exact configuration another device already
//!   asked about (the canonical key erases names, so these are cache
//!   hits);
//! * **rescaled** queries — the same structure run at a power-of-two
//!   rate scale (a different answer, but the warm group state shares the
//!   uniformisation work with its siblings);
//! * **fresh** queries — a configuration nobody asked about yet.
//!
//! Four worker threads drive the fleet concurrently; identical in-flight
//! queries collapse onto one solve (single-flight), and everything the
//! service does is bit-identical to solving each scenario independently.
//!
//! A second act demonstrates the per-request quality-of-service knobs
//! (`QueryOptions`): deadlines that expire before an exact solve
//! finishes, degraded answers with explicit error bounds, and the typed
//! deadline error a strict request gets instead.
//!
//! A third act puts the same fleet on a socket: the hardened HTTP front
//! (`kibamrm-net`) serves the same resident service on an ephemeral
//! port, with per-device token-bucket quotas. One device goes rogue and
//! hammers the endpoint; it is shed *by name* with `429 Too Many
//! Requests` + `Retry-After` while every polite device keeps getting
//! instant `200`s — fair shedding before the global admission bound
//! ever trips. The run ends by printing both ledgers, the service's
//! and the network front's.
//!
//! Run with: `cargo run --release --example fleet_service`

use kibamrm::scenario::Scenario;
use kibamrm::service::{Answer, LifetimeService, QueryOptions, ServiceConfig};
use kibamrm::solver::SolverRegistry;
use kibamrm::workload::Workload;
use std::sync::Arc;
use std::time::Duration;
use units::{Charge, Current, Frequency, Rate, Time};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The fleet's base configuration: the paper's Fig. 8 on/off workload
    // on a 7200 As two-well battery (coarse Δ keeps the example quick).
    let base = Scenario::builder()
        .name("fleet-base")
        .workload(Workload::on_off_erlang(
            Frequency::from_hertz(1.0),
            1,
            Current::from_amps(0.96),
        )?)
        .capacity(Charge::from_amp_seconds(7200.0))
        .kibam(0.625, Rate::per_second(4.5e-5))
        .time_grid(Time::from_seconds(8000.0), 16)
        .delta(Charge::from_amp_seconds(300.0))
        .build()?;

    // The distinct physical configurations behind the whole fleet: the
    // base at four power-of-two duty scales, plus a finer-Δ variant.
    let mut configurations: Vec<Scenario> = [1.0, 0.5, 0.25, 0.125]
        .iter()
        .map(|&gamma| base.with_rate_scale(gamma))
        .collect::<Result<_, _>>()?;
    configurations.push(base.with_delta(Charge::from_amp_seconds(150.0)));

    // max_in_flight bounds *fresh solves*, not requests: joiners and
    // cache hits are always admitted. The default (2× the cores) can
    // shed on small machines when many distinct configurations arrive
    // at once; this fleet has 5, so admit that many concurrent solves.
    let service = Arc::new(LifetimeService::with_config(
        SolverRegistry::with_default_backends(),
        ServiceConfig::default().with_max_in_flight(configurations.len()),
    ));

    // 40 devices, 4 worker threads. Device d asks about configuration
    // d % 5 — so each configuration is solved once and hit repeatedly,
    // under 40 different device names.
    let devices = 40;
    let workers = 4;
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (service, configurations) = (Arc::clone(&service), configurations.clone());
            scope.spawn(move || {
                for device in (w..devices).step_by(workers) {
                    let scenario = configurations[device % configurations.len()]
                        .with_name(format!("device-{device:02}"));
                    match service.query(&scenario) {
                        Ok(dist) => {
                            // Slow-duty rescales may outlive the query
                            // horizon: no median inside the grid then.
                            let median = dist.median().map_or_else(
                                || "beyond the horizon".to_string(),
                                |t| format!("{:.0} s", t.as_seconds()),
                            );
                            println!("device-{device:02}: median lifetime {median}");
                        }
                        Err(e) => println!("device-{device:02}: {e}"),
                    }
                }
            });
        }
    });

    // ---- Act two: deadlines and degradation ----
    //
    // A fleet controller rarely wants to wait for a cold exact solve on
    // an interactive path. `query_with` takes per-request QoS knobs: a
    // deadline and permission to degrade.
    println!("\ndeadline queries:");

    // A resident configuration answers exactly within any deadline — a
    // cache hit needs no solve.
    let resident = configurations[0].with_name("controller-repeat");
    let opts = QueryOptions::new()
        .with_deadline(Duration::from_millis(1))
        .allow_degraded();
    let median_of = |dist: &kibamrm::LifetimeDistribution| {
        dist.median().map_or_else(
            || "beyond the horizon".to_string(),
            |t| format!("{:.0} s", t.as_seconds()),
        )
    };
    match service.query_with(&resident, &opts)? {
        Answer::Exact(dist) => println!(
            "  resident config: exact answer within 1 ms (median {})",
            median_of(&dist)
        ),
        Answer::Degraded { .. } => println!("  resident config: unexpectedly degraded"),
    }

    // A *fresh* Δ-variant cannot be solved exactly in 1 ms — the solve
    // is cancelled cooperatively and the service falls back to a fast
    // Monte Carlo estimate, bounded by the DKW band over its runs.
    let fresh = base.with_delta(Charge::from_amp_seconds(75.0));
    match service.query_with(&fresh, &opts)? {
        Answer::Exact(_) => println!("  fresh Δ-variant: solved exactly (fast machine!)"),
        Answer::Degraded { dist, bound } => println!(
            "  fresh Δ-variant: degraded answer from fast Monte Carlo ({} runs), \
             sup-error ≤ {bound:.4} (median {})",
            dist.diagnostics().runs.unwrap_or(0),
            median_of(&dist)
        ),
    }

    // Without `allow_degraded` the expiry surfaces as a typed error.
    let strict = QueryOptions::new().with_deadline(Duration::ZERO);
    if let Err(e) = service.query_with(&base.with_delta(Charge::from_amp_seconds(60.0)), &strict) {
        println!("  strict deadline: {e}");
    }

    let stats = service.stats();
    println!("\nservice ledger after the fleet run:");
    println!(
        "  requests answered  {}",
        stats.hits + stats.joined + stats.misses
    );
    println!("  cache hits         {}", stats.hits);
    println!("  single-flight joins {}", stats.joined);
    println!("  fresh solves       {}", stats.misses);
    println!("  shed               {}", stats.shed);
    println!(
        "  warm group states  {} ({} hits / {} misses)",
        stats.warm_entries, stats.warm_hits, stats.warm_misses
    );
    println!(
        "  resident results   {} entries, {} bytes",
        stats.cached_entries, stats.result_cache_bytes
    );
    println!("  hit rate           {:.3}", stats.hit_rate());
    println!(
        "  dependability      {} deadline-expired, {} degraded-served, {} errors",
        stats.deadline_expired, stats.degraded_served, stats.errors
    );

    // ---- Act three: the fleet over HTTP, with a noisy neighbour ----
    //
    // The same service goes on a socket behind the hardened front.
    // Quotas are keyed by the `x-device-id` header (the whole fleet sits
    // behind one NAT address, so per-IP keying would lump every device
    // into one bucket): 1 request/second sustained, bursts of 3.
    println!("\nfleet over HTTP:");
    let server = kibamrm_net::Server::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        kibamrm_net::NetConfig {
            quota_rate: 1.0,
            quota_burst: 3.0,
            quota_key_header: Some("x-device-id".to_string()),
            ..kibamrm_net::NetConfig::default()
        },
    )?;
    let addr = server.local_addr()?;
    let control = server.control();
    let run = std::thread::spawn(move || server.run());
    println!("  listening on {addr}");

    // Every device asks once over the wire — all resident, all instant
    // 200s, each under its own quota bucket.
    let timeout = Duration::from_secs(10);
    let mut fleet_ok = 0;
    for device in 0..devices {
        let body = configurations[device % configurations.len()]
            .with_name(format!("device-{device:02}"))
            .to_config_string()?;
        let response = kibamrm_net::client::request(
            addr,
            "POST",
            "/query",
            &[("x-device-id", &format!("device-{device:02}"))],
            body.as_bytes(),
            timeout,
        )?;
        if response.status == 200 {
            fleet_ok += 1;
        }
    }
    println!("  polite fleet: {fleet_ok}/{devices} devices answered 200");

    // A rogue device joins and hammers: 12 requests back to back. Its
    // burst of 3 is admitted, the rest are shed by name with a typed
    // 429 + Retry-After — and the polite devices are untouched.
    let rogue_body = configurations[13 % configurations.len()]
        .with_name("device-99")
        .to_config_string()?;
    let (mut rogue_ok, mut rogue_shed) = (0, 0);
    let mut retry_after = String::new();
    for _ in 0..12 {
        let response = kibamrm_net::client::request(
            addr,
            "POST",
            "/query",
            &[("x-device-id", "device-99")],
            rogue_body.as_bytes(),
            timeout,
        )?;
        match response.status {
            200 => rogue_ok += 1,
            429 => {
                rogue_shed += 1;
                if let Some(after) = response.header("retry-after") {
                    retry_after = after.to_string();
                }
            }
            other => println!("  rogue device: unexpected status {other}"),
        }
    }
    println!(
        "  noisy neighbour: {rogue_ok} admitted (its burst), {rogue_shed} shed \
         with 429 + Retry-After: {retry_after}s"
    );
    let polite_again = kibamrm_net::client::request(
        addr,
        "POST",
        "/query",
        &[("x-device-id", "device-07")],
        configurations[7 % configurations.len()]
            .with_name("device-07")
            .to_config_string()?
            .as_bytes(),
        timeout,
    )?;
    println!(
        "  polite device-07 during the storm: {} (fair shedding is per device, \
         not per address)",
        polite_again.status
    );

    let net = control.net_stats();
    println!("\nnetwork ledger after the storm:");
    println!(
        "  connections        {} accepted, {} shed at the cap",
        net.accepted, net.connections_shed
    );
    println!(
        "  requests           {} answered, {} ok",
        net.requests, net.ok
    );
    println!("  quota refusals     {}", net.quota_refused);
    println!("  parse rejections   {}", net.rejected_bad_request);
    println!("  timeouts           {}", net.timeouts);

    // A graceful exit: stop accepting, finish in-flight work, report.
    control.shutdown();
    let report = run.join().expect("server thread");
    println!(
        "  drain              {} connections left at the deadline",
        report.remaining_connections
    );
    Ok(())
}
