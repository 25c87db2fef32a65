//! A hardened, std-only HTTP/JSON front over the resident lifetime
//! service.
//!
//! The core crate answers *"when does this battery die?"* in process
//! ([`kibamrm::LifetimeService`]); this crate puts that service on a
//! socket without weakening any of its dependability guarantees. The
//! design premise is that the network is the hostile part of the
//! deployment: every byte that arrives is attacker-controlled until the
//! bounded parsers say otherwise, every socket can stall forever unless
//! a timeout says otherwise, and the process can die at any instant —
//! so the result cache is persisted crash-safely (see
//! [`kibamrm::snapshot`]) and reloaded with full corruption tolerance.
//!
//! Layers, outermost first:
//!
//! - [`server`] — bounded acceptor (connection cap with typed
//!   shedding), per-connection socket timeouts, routing, the
//!   [`ServiceError`](kibamrm::service::ServiceError) → HTTP status
//!   mapping, graceful drain + shutdown snapshot.
//! - [`quota`] — per-client token buckets: a noisy neighbour is shed by
//!   name (`429` + `Retry-After`) *before* it can saturate the global
//!   admission bound that protects everyone else.
//! - [`http`] — strict bounded HTTP/1.1 message reading: head/body
//!   caps, `Content-Length` enforcement, typed errors, never a panic
//!   and never an unbounded allocation on arbitrary bytes.
//! - [`json`] — a bounded JSON parser (depth-capped) for the request
//!   envelope, and shortest-round-trip `f64` writers so the curves a
//!   client reads back are bit-exact.
//! - [`client`] — a minimal blocking client for tests, the chaos
//!   harness and the examples; it reads responses through [`http`]'s
//!   steps, so both directions share one framing rule.
//!
//! # Quick start
//!
//! ```no_run
//! use kibamrm::service::LifetimeService;
//! use kibamrm::SolverRegistry;
//! use kibamrm_net::{NetConfig, Server};
//! use std::sync::Arc;
//!
//! let service = Arc::new(LifetimeService::new(SolverRegistry::with_default_backends()));
//! let server = Server::bind("127.0.0.1:0", service, NetConfig::default())?;
//! println!("listening on {}", server.local_addr()?);
//! server.run(); // blocks until drained
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]

pub mod client;
pub mod http;
pub mod json;
pub mod quota;
pub mod server;

pub use http::{HttpError, HttpLimits, Request, Response};
pub use json::{Json, JsonError};
pub use quota::{QuotaDecision, QuotaLedger};
pub use server::{DrainReport, NetConfig, NetStats, Server, ServerControl};
