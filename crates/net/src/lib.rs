//! # aria-net — the Aria store's TCP service layer
//!
//! Everything needed to serve a [`aria_store::sharded::ShardedStore`]
//! over a real network edge:
//!
//! * [`proto`] — the compact length-prefixed binary wire protocol
//!   (`GET`/`PUT`/`DELETE`/`MULTI_GET`/`PUT_BATCH` plus the
//!   `PING`/`METRICS`/`HELLO`/`TRACE`/`RESHARD` control plane,
//!   client-chosen request ids, stable typed error codes), one frame
//!   layout, and a `HELLO` handshake that acks that layout's version
//!   and refuses any other;
//! * [`config`] — the validated [`ServerConfig`] builder;
//! * [`server`] — [`AriaServer`], serving through the epoll
//!   [`reactor`] engine: reactors that batch every connection's
//!   requests into one store submission per shard per tick and run it
//!   to completion on their own thread, from socket to store and back,
//!   with request pipelining, bounded write buffers with backpressure,
//!   a connection limit with clean rejection, and graceful
//!   drain-then-join shutdown;
//! * [`client`] — [`AriaClient`], a pipelined synchronous client with
//!   reconnect-with-backoff, per-op timeouts, and a `HELLO` handshake
//!   on every connection.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use aria_net::{AriaClient, AriaServer, ClientConfig, ServerConfig};
//! use aria_sim::Enclave;
//! use aria_store::sharded::ShardedStore;
//! use aria_store::{AriaHash, StoreConfig};
//!
//! let store = Arc::new(
//!     ShardedStore::with_shards(2, |_| {
//!         AriaHash::new(StoreConfig::for_keys(1_024), Arc::new(Enclave::with_default_epc()))
//!     })
//!     .unwrap(),
//! );
//! let config = ServerConfig::builder().max_connections(128).build().unwrap();
//! let server = AriaServer::bind("127.0.0.1:0", store, config).unwrap();
//!
//! let mut client = AriaClient::connect(server.local_addr(), ClientConfig::default()).unwrap();
//! client.put(b"user:1", b"alice").unwrap();
//! assert_eq!(client.get(b"user:1").unwrap().unwrap(), b"alice");
//!
//! server.shutdown(); // drains in-flight work, joins every thread
//! ```
//!
//! ## Trust boundary
//!
//! The wire protocol authenticates and encrypts **nothing** — it is
//! untrusted-side plumbing, exactly like the untrusted heap the sealed
//! entries live in. All confidentiality and integrity guarantees come
//! from the enclave layer underneath (sealed entries, counter Merkle
//! trees); see DESIGN.md §10 for the full argument.
//!
//! Unsafe code is denied crate-wide with one audited exception: the
//! raw epoll FFI in [`reactor`]'s `sys` module (Linux only).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod config;
pub mod proto;
pub mod reactor;
pub mod server;

mod service;

pub use client::{AriaClient, ClientConfig, KeyResult, NetError, ReshardReply};
pub use config::{NetConfigError, ServerConfig, ServerConfigBuilder};
pub use proto::{features, ErrorCode, Request, RequestRef, Response, WireError, PROTOCOL_VERSION};
pub use server::AriaServer;
