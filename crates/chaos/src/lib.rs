//! # aria-chaos — deterministic fault injection for the untrusted boundary
//!
//! The Aria threat model (paper §III) assumes the *host* controls every
//! byte outside the enclave: the untrusted heap the sealed entries live
//! in, the Merkle-protected counter area, the allocator's free lists.
//! This crate turns that adversary into a reproducible test fixture.
//!
//! A [`FaultPlan`] names a set of injection **sites** ([`FaultSite`]),
//! a per-site rate, a global budget and a seed. A [`ChaosEngine`] built
//! from the plan answers one question — [`ChaosEngine::try_inject`] —
//! from per-site splitmix64 streams, so the *n*-th decision at a given
//! site depends only on `(seed, site, n)`. Re-running the same driver
//! with the same plan replays the exact same injection schedule.
//!
//! Two kinds of faults are produced:
//!
//! * **Write-path faults** ([`HeapInjector`]) hook the untrusted heap's
//!   write path via [`aria_mem::WriteFault`]: single-bit flips inside a
//!   sealed entry's MAC-covered region ([`FaultSite::EntryFlip`]) and
//!   torn multi-slot stores that persist only a prefix
//!   ([`FaultSite::TornWrite`]).
//! * **Driver-side faults** — stale Merkle node replays, node bit
//!   flips, index-connection pointer swaps, free-list metadata tampering
//!   — are performed by the test driver (see the `chaosbench` binary in
//!   `aria-bench`) which consults the same engine for *when* to strike,
//!   keeping the whole schedule under one seed.
//!
//! Nothing in this crate knows how to *detect* faults; detection is the
//! job of the layers above (entry MACs, Merkle paths, allocator bitmap
//! audits) and the point of injecting is to prove they do.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use aria_mem::{UPtr, UserHeap, WriteFault};

/// splitmix64 — the same mixer the sharded front-end uses for key
/// placement; good enough statistics, trivially reproducible.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A named place in the untrusted boundary where a fault can land.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum FaultSite {
    /// Flip one bit inside the MAC-covered region of a sealed entry as
    /// it crosses into untrusted memory. Detected as
    /// `Violation::EntryMacMismatch`.
    EntryFlip = 0,
    /// Tear a multi-slot entry write: only a prefix (always covering
    /// the 24-byte header) reaches untrusted memory. Detected as
    /// `Violation::EntryMacMismatch`.
    TornWrite = 1,
    /// Write back a stale snapshot of a counter-area Merkle node — a
    /// classic rollback. Detected as `Violation::MerkleMismatch`.
    StaleNodeReplay = 2,
    /// Flip one byte of a counter-area Merkle node in untrusted memory.
    /// Detected as `Violation::MerkleMismatch`.
    NodeFlip = 3,
    /// Swap the index-connection (`next`) pointers of two hash-chain
    /// entries. The AdField scheme makes each victim's MAC cover the
    /// identity of the cell pointing at it, so this is detected as
    /// `Violation::EntryMacMismatch` (§V-C).
    IndexPointerSwap = 4,
    /// Re-queue a live block on the allocator's untrusted free list
    /// (double-allocation setup). Detected as
    /// `Violation::AllocatorMetadata` by the free-list audit.
    FreeListTamper = 5,
    /// Kill a shard group's acting primary (a panic under its slot
    /// lock, which condemns the store). Not a data fault: the replicated front-end must fail over to a backup
    /// with zero acknowledged-write loss and later re-sync the killed
    /// replica.
    PrimaryKill = 6,
    /// Corrupt a rejoining replica *during* anti-entropy re-sync, after
    /// the delta apply and before root comparison. Detected as
    /// `StoreError::ReplicaDiverged` — the replica must never be
    /// re-admitted.
    ReplicaDivergence = 7,
    /// Flip one byte of a sealed record in the cold segment log on
    /// disk. Detected at read time as `Violation::EntryMacMismatch`, or
    /// at restart as `StoreError::RecoveryDiverged` (log corrupt /
    /// tampered).
    LogBitFlip = 8,
    /// Tear a log append: only a prefix of the sealed record reaches
    /// the segment file (power cut mid-write). The torn tail must be
    /// truncated on replay, never decoded as data.
    TornAppend = 9,
    /// Replace the log directory with an older, internally-consistent
    /// snapshot (host rollback). Detected as
    /// `StoreError::RecoveryDiverged` by the checkpoint epoch floor.
    StaleCheckpointRollback = 10,
    /// Stall a shard group's acting primary: a closure sleeps under
    /// its slot lock past the watchdog window while ops keep arriving. Not a data
    /// fault: the stuck-shard watchdog must quarantine the stalled
    /// primary through the health machine instead of letting callers
    /// queue forever.
    ShardStall = 11,
    /// Flip one byte of a migration bulk-copy chunk in flight between
    /// source and target shard groups during an elastic reshard. The
    /// target's content-root comparison against the source's digest
    /// must reject the handoff and abort the migration — the source
    /// stays authoritative, no acked write is lost.
    MigrationStreamTamper = 12,
    /// Kill the migration *target* mid-copy (before the routing flip).
    /// The migration must abort, the half-built target must leave no
    /// trace, and the source keeps serving the old epoch.
    TargetKill = 13,
    /// Replay a data op stamped with a routing epoch from *before* a
    /// committed migration (stale client cache / captured frame). The
    /// server must refuse with `WrongShard` instead of applying the op
    /// on the old owner.
    StaleEpochReplay = 14,
}

/// Number of distinct fault sites.
pub const SITE_COUNT: usize = 15;

impl FaultSite {
    /// Every site, in `repr` order.
    pub const ALL: [FaultSite; SITE_COUNT] = [
        FaultSite::EntryFlip,
        FaultSite::TornWrite,
        FaultSite::StaleNodeReplay,
        FaultSite::NodeFlip,
        FaultSite::IndexPointerSwap,
        FaultSite::FreeListTamper,
        FaultSite::PrimaryKill,
        FaultSite::ReplicaDivergence,
        FaultSite::LogBitFlip,
        FaultSite::TornAppend,
        FaultSite::StaleCheckpointRollback,
        FaultSite::ShardStall,
        FaultSite::MigrationStreamTamper,
        FaultSite::TargetKill,
        FaultSite::StaleEpochReplay,
    ];

    /// Stable machine-readable name (used in plans, reports, CI logs).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::EntryFlip => "entry_flip",
            FaultSite::TornWrite => "torn_write",
            FaultSite::StaleNodeReplay => "stale_node_replay",
            FaultSite::NodeFlip => "node_flip",
            FaultSite::IndexPointerSwap => "index_pointer_swap",
            FaultSite::FreeListTamper => "freelist_tamper",
            FaultSite::PrimaryKill => "primary_kill",
            FaultSite::ReplicaDivergence => "replica_divergence",
            FaultSite::LogBitFlip => "log_bit_flip",
            FaultSite::TornAppend => "torn_append",
            FaultSite::StaleCheckpointRollback => "stale_checkpoint_rollback",
            FaultSite::ShardStall => "shard_stall",
            FaultSite::MigrationStreamTamper => "migration_stream_tamper",
            FaultSite::TargetKill => "target_kill",
            FaultSite::StaleEpochReplay => "stale_epoch_replay",
        }
    }

    /// Parse a [`Self::name`] back into a site.
    pub fn from_name(name: &str) -> Option<FaultSite> {
        FaultSite::ALL.iter().copied().find(|s| s.name() == name)
    }

    /// Per-site stream salt: separates the splitmix64 draw streams so
    /// adding a site to a plan never perturbs another site's schedule.
    fn salt(self) -> u64 {
        0x9e37_79b9_7f4a_7c15u64.wrapping_mul(self as u64 + 1)
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A reproducible fault schedule: seed, per-site rates, global budget.
///
/// Rates are expressed per 10 000 draws, so `250` means "2.5 % of the
/// times this site is consulted, inject". The budget caps total
/// injections across *all* sites; once spent the engine goes quiet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Master seed; every per-site stream is derived from it.
    pub seed: u64,
    /// Injection probability per site, in parts per 10 000 draws.
    pub rates: [u32; SITE_COUNT],
    /// Maximum total injections across all sites.
    pub budget: u64,
}

impl FaultPlan {
    /// Denominator of the per-site rates.
    pub const RATE_SCALE: u32 = 10_000;

    /// An empty plan (no sites armed) under `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, rates: [0; SITE_COUNT], budget: u64::MAX }
    }

    /// Same rate for every site.
    pub fn uniform(seed: u64, rate_per_10k: u32, budget: u64) -> Self {
        FaultPlan { seed, rates: [rate_per_10k; SITE_COUNT], budget }
    }

    /// Builder: set one site's rate (parts per 10 000 draws).
    pub fn with_rate(mut self, site: FaultSite, rate_per_10k: u32) -> Self {
        self.rates[site as usize] = rate_per_10k;
        self
    }

    /// Builder: set the global injection budget.
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }
}

/// Snapshot of one site's draw/injection counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteStats {
    /// How many times the site was consulted.
    pub draws: u64,
    /// How many consultations injected a fault.
    pub injected: u64,
}

/// Snapshot of the whole engine's activity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Per-site counters, indexed by `FaultSite as usize`.
    pub sites: [SiteStats; SITE_COUNT],
    /// Total injections across all sites.
    pub injected_total: u64,
}

impl ChaosStats {
    /// Counters for one site.
    pub fn site(&self, site: FaultSite) -> SiteStats {
        self.sites[site as usize]
    }
}

#[derive(Default)]
struct SiteState {
    draws: u64,
    injected: u64,
}

/// The deterministic injection oracle.
///
/// Shared (`Arc`) between the heap's write-path hook and any number of
/// driver threads. Each site owns an independent splitmix64 stream
/// keyed by `(plan.seed, site)`, advanced once per [`try_inject`] call,
/// so per-site schedules replay exactly across runs regardless of how
/// calls to *other* sites interleave. The global budget is the one
/// cross-site coupling: once `injected_total == plan.budget` every
/// site goes quiet.
///
/// [`try_inject`]: ChaosEngine::try_inject
pub struct ChaosEngine {
    plan: FaultPlan,
    armed: AtomicBool,
    injected_total: AtomicU64,
    sites: Mutex<[SiteState; SITE_COUNT]>,
    tele: std::sync::OnceLock<Arc<aria_telemetry::ChaosTelemetry>>,
}

impl ChaosEngine {
    /// Build an engine from a plan, initially **armed**.
    pub fn new(plan: FaultPlan) -> Arc<ChaosEngine> {
        Arc::new(ChaosEngine {
            plan,
            armed: AtomicBool::new(true),
            injected_total: AtomicU64::new(0),
            sites: Mutex::new(Default::default()),
            tele: std::sync::OnceLock::new(),
        })
    }

    /// Attach a telemetry recorder; injections are counted per site.
    /// Only the first attachment wins (the engine is shared as `Arc`).
    pub fn set_telemetry(&self, tele: Arc<aria_telemetry::ChaosTelemetry>) {
        let _ = self.tele.set(tele);
    }

    /// The plan this engine replays.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Arm or disarm injection globally. Disarmed engines still count
    /// draws (the schedule keeps advancing deterministically) but never
    /// inject — used to fence recovery's own writes out of the blast
    /// radius.
    pub fn arm(&self, on: bool) {
        self.armed.store(on, Ordering::SeqCst);
    }

    /// Whether the engine is currently armed.
    pub fn armed(&self) -> bool {
        self.armed.load(Ordering::SeqCst)
    }

    /// Consult the schedule at `site`. Returns `Some(entropy)` when a
    /// fault should be injected *now* — the entropy word is a further
    /// deterministic value the caller uses to pick a bit offset, victim
    /// index, tear point, etc. Returns `None` (no fault) when the
    /// stream says pass, the engine is disarmed, the site's rate is
    /// zero, or the budget is spent.
    pub fn try_inject(&self, site: FaultSite) -> Option<u64> {
        let rate = self.plan.rates[site as usize];
        let mut sites = self.sites.lock().unwrap_or_else(|p| p.into_inner());
        let st = &mut sites[site as usize];
        st.draws += 1;
        let word = splitmix64(self.plan.seed ^ site.salt() ^ st.draws);
        if rate == 0 || !self.armed() {
            return None;
        }
        if word % u64::from(FaultPlan::RATE_SCALE) >= u64::from(rate) {
            return None;
        }
        // Budget gate: claim a slot only if one is left.
        let claimed = self
            .injected_total
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.plan.budget).then_some(n + 1)
            })
            .is_ok();
        if !claimed {
            return None;
        }
        st.injected += 1;
        if let Some(t) = self.tele.get() {
            t.record_injection(site as usize);
        }
        Some(splitmix64(word))
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected_total.load(Ordering::SeqCst)
    }

    /// Whether the global budget is fully spent.
    pub fn budget_spent(&self) -> bool {
        self.injected() >= self.plan.budget
    }

    /// Snapshot all counters.
    pub fn stats(&self) -> ChaosStats {
        let sites = self.sites.lock().unwrap_or_else(|p| p.into_inner());
        let mut out = ChaosStats::default();
        for (i, st) in sites.iter().enumerate() {
            out.sites[i] = SiteStats { draws: st.draws, injected: st.injected };
        }
        out.injected_total = self.injected();
        out
    }
}

impl std::fmt::Debug for ChaosEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosEngine")
            .field("plan", &self.plan)
            .field("armed", &self.armed())
            .field("injected", &self.injected())
            .finish()
    }
}

/// Minimum sealed-entry length worth corrupting: 24-byte header +
/// 16-byte MAC and at least a byte of ciphertext. Smaller writes are
/// pointer cells / free-list slots whose corruption classes are
/// exercised by their own dedicated sites.
const MIN_ENTRY_WRITE: usize = 41;

/// Offset of the first MAC-covered byte in a sealed entry: the 8-byte
/// `next` pointer is index-connection data protected by the AdField
/// scheme, not the entry MAC, so flips land at `redptr` or later for a
/// clean `EntryMacMismatch` mapping.
const MACED_OFFSET: usize = 8;

/// Write-path fault injector: an [`aria_mem::WriteFault`] implementation
/// driven by a shared [`ChaosEngine`].
///
/// Install with [`HeapInjector::install`] (or `UserHeap::set_fault_hook`
/// directly). Only entry-sized writes (≥ [`MIN_ENTRY_WRITE`] bytes) are
/// considered — 8/16-byte pointer-cell and free-list writes pass
/// through untouched so every injected fault maps to a well-defined
/// violation class.
pub struct HeapInjector {
    engine: Arc<ChaosEngine>,
}

impl HeapInjector {
    /// Build an injector that consults `engine`.
    pub fn new(engine: Arc<ChaosEngine>) -> Self {
        HeapInjector { engine }
    }

    /// Convenience: install a fresh injector for `engine` on `heap`.
    pub fn install(heap: &mut UserHeap, engine: Arc<ChaosEngine>) {
        heap.set_fault_hook(Some(Arc::new(Mutex::new(HeapInjector::new(engine)))));
    }
}

impl WriteFault for HeapInjector {
    fn on_write(&mut self, _ptr: UPtr, bytes: &mut [u8]) -> Option<usize> {
        if bytes.len() < MIN_ENTRY_WRITE {
            return None;
        }
        if let Some(entropy) = self.engine.try_inject(FaultSite::EntryFlip) {
            // One bit anywhere in the MAC-covered region.
            let span_bits = (bytes.len() - MACED_OFFSET) * 8;
            let bit = (entropy % span_bits as u64) as usize;
            bytes[MACED_OFFSET + bit / 8] ^= 1 << (bit % 8);
        }
        if let Some(entropy) = self.engine.try_inject(FaultSite::TornWrite) {
            // Persist the full header plus a strict prefix of the
            // ciphertext/MAC region.
            let tearable = bytes.len() - MACED_OFFSET * 3; // keep in [24, len)
            let keep = MACED_OFFSET * 3 + (entropy % tearable as u64) as usize;
            return Some(keep);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(plan: &FaultPlan, site: FaultSite, draws: u64) -> Vec<Option<u64>> {
        let eng = ChaosEngine::new(plan.clone());
        (0..draws).map(|_| eng.try_inject(site)).collect()
    }

    #[test]
    fn same_plan_replays_exactly() {
        let plan = FaultPlan::uniform(0xDEAD_BEEF, 500, u64::MAX);
        for site in FaultSite::ALL {
            let a = schedule(&plan, site, 4_000);
            let b = schedule(&plan, site, 4_000);
            assert_eq!(a, b, "site {site} schedule must replay");
            let hits = a.iter().filter(|d| d.is_some()).count();
            // 5 % nominal rate over 4 000 draws: expect ~200, allow wide slack.
            assert!((80..400).contains(&hits), "site {site}: {hits} hits");
        }
    }

    #[test]
    fn sites_have_independent_streams() {
        let plan = FaultPlan::uniform(42, 1_000, u64::MAX);
        let a = schedule(&plan, FaultSite::EntryFlip, 2_000);
        let b = schedule(&plan, FaultSite::NodeFlip, 2_000);
        assert_ne!(a, b, "distinct sites must not share a stream");

        // Interleaving calls to another site must not perturb a site's
        // own schedule.
        let eng = ChaosEngine::new(plan.clone());
        let interleaved: Vec<_> = (0..2_000)
            .map(|i| {
                if i % 3 == 0 {
                    eng.try_inject(FaultSite::TornWrite);
                }
                eng.try_inject(FaultSite::EntryFlip)
            })
            .collect();
        assert_eq!(a, interleaved);
    }

    #[test]
    fn seed_changes_the_schedule() {
        let a = schedule(&FaultPlan::uniform(1, 500, u64::MAX), FaultSite::EntryFlip, 2_000);
        let b = schedule(&FaultPlan::uniform(2, 500, u64::MAX), FaultSite::EntryFlip, 2_000);
        assert_ne!(a, b);
    }

    #[test]
    fn budget_caps_total_injections() {
        let plan = FaultPlan::uniform(7, FaultPlan::RATE_SCALE, 10); // rate 100 %
        let eng = ChaosEngine::new(plan);
        let mut hits = 0;
        for i in 0..100 {
            let site = FaultSite::ALL[i % SITE_COUNT];
            if eng.try_inject(site).is_some() {
                hits += 1;
            }
        }
        assert_eq!(hits, 10);
        assert_eq!(eng.injected(), 10);
        assert!(eng.budget_spent());
    }

    #[test]
    fn disarm_silences_but_keeps_the_stream_position() {
        let plan = FaultPlan::uniform(9, FaultPlan::RATE_SCALE, u64::MAX);
        let eng = ChaosEngine::new(plan);
        eng.arm(false);
        for _ in 0..5 {
            assert_eq!(eng.try_inject(FaultSite::EntryFlip), None);
        }
        assert_eq!(eng.stats().site(FaultSite::EntryFlip).draws, 5);
        assert_eq!(eng.injected(), 0);
        eng.arm(true);
        assert!(eng.try_inject(FaultSite::EntryFlip).is_some());
    }

    #[test]
    fn zero_rate_site_never_injects() {
        let plan = FaultPlan::new(3).with_rate(FaultSite::NodeFlip, FaultPlan::RATE_SCALE);
        let eng = ChaosEngine::new(plan);
        for _ in 0..1_000 {
            assert_eq!(eng.try_inject(FaultSite::EntryFlip), None);
        }
        assert!(eng.try_inject(FaultSite::NodeFlip).is_some());
    }

    #[test]
    fn site_names_round_trip() {
        for site in FaultSite::ALL {
            assert_eq!(FaultSite::from_name(site.name()), Some(site));
        }
        assert_eq!(FaultSite::from_name("nonsense"), None);
    }

    #[test]
    fn heap_injector_flips_only_maced_bytes_and_tears_after_header() {
        let plan = FaultPlan::new(11)
            .with_rate(FaultSite::EntryFlip, FaultPlan::RATE_SCALE)
            .with_budget(1);
        let mut inj = HeapInjector::new(ChaosEngine::new(plan));
        let clean = vec![0u8; 96];
        let mut buf = clean.clone();
        assert_eq!(inj.on_write(UPtr::NULL, &mut buf), None);
        assert_eq!(buf[..MACED_OFFSET], clean[..MACED_OFFSET], "next ptr untouched");
        let flipped: u32 = buf.iter().zip(&clean).map(|(a, b)| (a ^ b).count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit flips");

        let plan = FaultPlan::new(12)
            .with_rate(FaultSite::TornWrite, FaultPlan::RATE_SCALE)
            .with_budget(1);
        let mut inj = HeapInjector::new(ChaosEngine::new(plan));
        let mut buf = vec![0u8; 96];
        let keep = inj.on_write(UPtr::NULL, &mut buf).expect("tear");
        assert!((24..96).contains(&keep), "tear keeps header, loses a suffix: {keep}");

        // Small (pointer-cell) writes pass through untouched.
        let plan = FaultPlan::uniform(13, FaultPlan::RATE_SCALE, u64::MAX);
        let mut inj = HeapInjector::new(ChaosEngine::new(plan));
        let mut cell = [0u8; 8];
        assert_eq!(inj.on_write(UPtr::NULL, &mut cell), None);
        assert_eq!(cell, [0u8; 8]);
    }
}
