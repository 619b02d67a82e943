//! # Aria — a secure in-memory key-value store tolerating skewed workloads
//!
//! A from-scratch Rust reproduction of *Aria: Tolerating Skewed Workloads
//! in Secure In-memory Key-value Stores* (Yang, Chen, Lu, Wang, Shu —
//! ICDE 2021), including every substrate the paper depends on:
//!
//! * [`sim`] — an SGX platform simulator (EPC budget, cycle-accounting
//!   cost model, 4 KB secure-paging simulation);
//! * [`crypto`] — AES-128, AES-CTR and AES-CMAC implemented from scratch
//!   and validated against the standard test vectors;
//! * [`mem`] — the paper's user-space untrusted heap allocator;
//! * [`merkle`] — the flat N-ary counter Merkle tree;
//! * [`cache`] — **Secure Cache**, the paper's core contribution: a
//!   software-managed, per-node EPC cache of Merkle-tree nodes;
//! * [`store`] — the Aria KV store with hash (Aria-H) and B-tree
//!   (Aria-T) indexes, the `Aria w/o Cache` and `Baseline` comparison
//!   schemes, and attack-injection APIs;
//! * [`shieldstore`] — the ShieldStore (EuroSys'19) baseline;
//! * [`workload`] — YCSB and Facebook-ETC workload generators;
//! * [`net`] — the pipelined TCP service layer (`AriaServer` /
//!   `AriaClient` and the binary wire protocol);
//! * [`chaos`] — deterministic, seed-scheduled fault injection for the
//!   untrusted boundary (bit flips, torn writes, stale-node replays),
//!   the adversary of the `chaosbench` robustness harness;
//! * [`telemetry`] — the lock-free observability plane: per-shard
//!   counters/gauges/histograms, request and slow-run spans, and the
//!   snapshot served by the `METRICS` wire opcode (watch it live with
//!   the `ariatop` binary).
//!
//! ## Quickstart
//!
//! ```
//! use aria::prelude::*;
//! use std::sync::Arc;
//!
//! // A simulated enclave with the paper's 91 MB of usable EPC.
//! let enclave = Arc::new(Enclave::with_default_epc());
//! let mut store = AriaHash::new(StoreConfig::for_keys(10_000), enclave).unwrap();
//!
//! store.put(b"user:42", b"alice").unwrap();
//! assert_eq!(store.get(b"user:42").unwrap().unwrap(), b"alice");
//!
//! // Everything in untrusted memory is encrypted and integrity
//! // protected; tampering is detected, not served:
//! store.attack_tamper_value(b"user:42");
//! assert!(store.get(b"user:42").unwrap_err().is_integrity_violation());
//! ```
//!
//! See `examples/` for workload-driven scenarios and `crates/bench` for
//! the binaries that regenerate every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use aria_cache as cache;
pub use aria_chaos as chaos;
pub use aria_crypto as crypto;
pub use aria_log as log;
pub use aria_mem as mem;
pub use aria_merkle as merkle;
pub use aria_net as net;
pub use aria_shieldstore as shieldstore;
pub use aria_sim as sim;
pub use aria_store as store;
pub use aria_telemetry as telemetry;
pub use aria_workload as workload;

/// Commonly used types in one import.
pub mod prelude {
    pub use aria_cache::{CacheConfig, EvictionPolicy, SwapMode};
    pub use aria_crypto::{CipherSuite, RealSuite};
    pub use aria_mem::AllocStrategy;
    pub use aria_net::{
        AriaClient, AriaServer, ClientConfig, ErrorCode, NetConfigError, NetError, ServerConfig,
    };
    pub use aria_shieldstore::ShieldStore;
    pub use aria_sim::{CostModel, Enclave, DEFAULT_EPC_BYTES};
    pub use aria_store::{
        AriaBPlusTree, AriaHash, AriaTree, BaselineStore, BatchOp, BatchReply, CacheStats,
        ConfigError, GroupStats, KvStore, MaintenanceReport, RecoveryFailure, ReplicaRole, Scheme,
        ShardHealth, ShardedStore, StoreConfig, StoreError, TierStats, TieredOptions, TieredStore,
        Violation,
    };
    pub use aria_workload::{
        encode_key, value_bytes, EtcConfig, EtcWorkload, KeyDistribution, Request, YcsbConfig,
        YcsbWorkload,
    };
}
