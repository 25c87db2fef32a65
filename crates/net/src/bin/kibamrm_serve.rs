//! `kibamrm-serve`: the lifetime service on a socket.
//!
//! ```text
//! kibamrm-serve [--addr HOST:PORT] [--snapshot PATH]
//!               [--snapshot-interval-ms N] [--max-connections N]
//!               [--max-in-flight N] [--cache-bytes N]
//!               [--quota-rate R] [--quota-burst B]
//!               [--quota-key-header NAME]
//!               [--read-timeout-ms N] [--drain-deadline-ms N]
//! ```
//!
//! Prints `listening <addr>` on stdout once the socket is bound (so a
//! parent process can scrape the ephemeral port), then serves until
//! stdin reaches EOF or `POST /admin/drain` arrives — both trigger the
//! graceful drain: stop accepting, finish in-flight requests under the
//! drain deadline, snapshot the result cache. A SIGKILL instead of a
//! drain loses at most the queries since the last snapshot tick — never
//! the snapshot file itself (writes are atomic).

#![forbid(unsafe_code)]

use kibamrm::service::{LifetimeService, ServiceConfig};
use kibamrm::SolverRegistry;
use kibamrm_net::{NetConfig, Server};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    addr: String,
    net: NetConfig,
    max_in_flight: Option<usize>,
    cache_bytes: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:0".to_string(),
        net: NetConfig::default(),
        max_in_flight: None,
        cache_bytes: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--snapshot" => args.net.snapshot_path = Some(PathBuf::from(value("--snapshot")?)),
            "--snapshot-interval-ms" => {
                let ms: u64 = parse(&value("--snapshot-interval-ms")?)?;
                args.net.snapshot_interval = Some(Duration::from_millis(ms));
            }
            "--max-connections" => args.net.max_connections = parse(&value("--max-connections")?)?,
            "--max-in-flight" => args.max_in_flight = Some(parse(&value("--max-in-flight")?)?),
            "--cache-bytes" => args.cache_bytes = Some(parse(&value("--cache-bytes")?)?),
            "--quota-rate" => args.net.quota_rate = parse(&value("--quota-rate")?)?,
            "--quota-burst" => args.net.quota_burst = parse(&value("--quota-burst")?)?,
            "--quota-key-header" => {
                args.net.quota_key_header = Some(value("--quota-key-header")?.to_ascii_lowercase());
            }
            "--read-timeout-ms" => {
                let ms: u64 = parse(&value("--read-timeout-ms")?)?;
                args.net.read_timeout = Duration::from_millis(ms);
                args.net.write_timeout = Duration::from_millis(ms);
            }
            "--drain-deadline-ms" => {
                let ms: u64 = parse(&value("--drain-deadline-ms")?)?;
                args.net.drain_deadline = Duration::from_millis(ms);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("could not parse '{text}'"))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kibamrm-serve: {e}");
            std::process::exit(2);
        }
    };
    let mut config = ServiceConfig::default();
    if let Some(n) = args.max_in_flight {
        config = config.with_max_in_flight(n);
    }
    if let Some(n) = args.cache_bytes {
        config = config.with_cache_capacity_bytes(n);
    }
    let service = Arc::new(LifetimeService::with_config(
        SolverRegistry::with_default_backends(),
        config,
    ));

    // Warm start: load the previous snapshot, tolerating any corruption.
    if let Some(path) = &args.net.snapshot_path {
        let report = service.load_snapshot(path);
        if let Some(error) = &report.error {
            eprintln!("snapshot load: cold start ({error})");
        } else {
            eprintln!(
                "snapshot load: {} revived, {} rejected",
                report.loaded, report.rejected
            );
        }
    }
    let server = match Server::bind(args.addr.as_str(), service, args.net) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("kibamrm-serve: bind {} failed: {e}", args.addr);
            std::process::exit(1);
        }
    };
    let addr = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kibamrm-serve: local_addr failed: {e}");
            std::process::exit(1);
        }
    };
    // The parent scrapes this line for the ephemeral port.
    println!("listening {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    // Stdin EOF is the graceful-drain signal (works without signal
    // handling: the parent closes our stdin, or the operator hits ^D).
    let control = server.control();
    std::thread::spawn(move || {
        use std::io::Read as _;
        let mut sink = [0u8; 256];
        let mut stdin = std::io::stdin();
        loop {
            match stdin.read(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
        control.shutdown();
    });

    let report = server.run();
    match &report.snapshot {
        Some(Ok(w)) => eprintln!(
            "drain: snapshot written ({} entries, {} bytes)",
            w.entries, w.bytes
        ),
        Some(Err(e)) => eprintln!("drain: snapshot failed: {e}"),
        None => {}
    }
    if report.remaining_connections > 0 {
        eprintln!(
            "drain: {} connections still open at the deadline",
            report.remaining_connections
        );
        std::process::exit(1);
    }
}
