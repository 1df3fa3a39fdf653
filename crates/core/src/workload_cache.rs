//! Process-wide cache of prepared (quantized + calibrated) workloads.
//!
//! [`crate::bench_suite::Workload::prepare`] is a pure function of its
//! [`WorkloadConfig`] — model synthesis, pruning, quantization and label
//! calibration all derive from the config's seed. Campaigns and the
//! figure harness bring up the same (benchmark, bits, seed) combination
//! over and over (every board sample and every figure shares the seed-42
//! baseline), so preparation dominated campaign start-up. This module
//! memoizes prepared workloads behind a bounded map.
//!
//! Design constraints:
//!
//! * **Determinism.** Hit/miss totals must not depend on worker
//!   scheduling. Each key owns a slot with *once* semantics: the first
//!   thread to claim a slot prepares (one miss), every other thread
//!   blocks on the slot and clones the result (one hit per lookup).
//!   Totals are then a pure function of the lookup multiset.
//! * **Isolation from campaign telemetry.** The hit/miss counters live in
//!   this module's own [`Registry`], *not* in the campaign's exported
//!   metrics: campaign exports are golden-tested byte-for-byte and must
//!   stay a pure function of (seed, plan), which per-process cache state
//!   is not. Inspect the counters via [`stats`] or [`metrics_registry`].
//! * **Bounded.** At most [`CAPACITY`] entries, evicted FIFO. Paper
//!   campaigns touch ~5 benchmarks × a few precision/pruning variants,
//!   so the bound exists only to keep pathological sweeps from pinning
//!   every model ever prepared.

use crate::bench_suite::{Workload, WorkloadConfig, WorkloadError};
use redvolt_telemetry::{Counter, Gauge, Registry};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Maximum cached workloads (FIFO eviction beyond this).
pub const CAPACITY: usize = 16;

/// Cache key: every [`WorkloadConfig`] field, with the float pruning
/// fraction keyed by bit pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    benchmark: usize,
    bits: u32,
    tiny_scale: bool,
    prune_bits: u64,
    calib_images: usize,
    eval_images: usize,
    seed: u64,
}

impl Key {
    fn of(config: &WorkloadConfig) -> Self {
        Key {
            benchmark: crate::bench_suite::benchmark_index(config.benchmark),
            bits: config.bits,
            tiny_scale: config.scale == redvolt_nn::models::ModelScale::Tiny,
            prune_bits: config.prune_fraction.to_bits(),
            calib_images: config.calib_images,
            eval_images: config.eval_images,
            seed: config.seed,
        }
    }
}

/// A per-key slot: `None` until the claiming thread finishes preparing.
/// Holding the inner mutex across preparation gives once semantics —
/// concurrent lookups of the same key block here instead of preparing
/// twice (and instead of racing the miss counter).
type Slot = Mutex<Option<Arc<Workload>>>;

struct CacheState {
    slots: HashMap<Key, Arc<Slot>>,
    fifo: VecDeque<Key>,
}

struct Cache {
    state: Mutex<CacheState>,
    enabled: AtomicBool,
    registry: Registry,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    occupancy: Arc<Gauge>,
}

fn cache() -> &'static Cache {
    static CACHE: OnceLock<Cache> = OnceLock::new();
    CACHE.get_or_init(|| {
        let registry = Registry::new();
        let hits = registry.counter("redvolt_quant_cache_hits_total", &[]);
        let misses = registry.counter("redvolt_quant_cache_misses_total", &[]);
        let occupancy = registry.gauge("redvolt_quant_cache_occupancy", &[]);
        Cache {
            state: Mutex::new(CacheState {
                slots: HashMap::new(),
                fifo: VecDeque::new(),
            }),
            enabled: AtomicBool::new(true),
            registry,
            hits,
            misses,
            occupancy,
        }
    })
}

/// Cache hit/miss totals since process start (or the last [`reset`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a prepared workload.
    pub hits: u64,
    /// Lookups that had to prepare (including re-preparation after
    /// eviction or while the cache was disabled).
    pub misses: u64,
    /// Slots currently held (including in-flight preparations).
    pub occupancy: usize,
}

/// Returns `Workload::prepare(config)`, served from the cache when an
/// identically-configured workload was already prepared in this process.
///
/// The returned workload is a deep clone of the cached instance —
/// executor scratch state is per-clone, so cached bring-up is
/// indistinguishable from a fresh preparation.
///
/// # Errors
///
/// Propagates [`WorkloadError`] from preparation. Errors are not cached:
/// a failing config re-attempts (and re-counts a miss) on every lookup.
pub fn get_or_prepare(config: WorkloadConfig) -> Result<Workload, WorkloadError> {
    let c = cache();
    if !c.enabled.load(Ordering::Relaxed) {
        c.misses.inc();
        return Workload::prepare(config);
    }
    let key = Key::of(&config);
    let slot = {
        let mut state = c.state.lock().expect("workload cache poisoned");
        if let Some(slot) = state.slots.get(&key) {
            Arc::clone(slot)
        } else {
            while state.fifo.len() >= CAPACITY {
                let victim = state.fifo.pop_front().expect("fifo non-empty");
                state.slots.remove(&victim);
            }
            let slot: Arc<Slot> = Arc::new(Mutex::new(None));
            state.slots.insert(key, Arc::clone(&slot));
            state.fifo.push_back(key);
            c.occupancy.set(state.fifo.len() as f64);
            slot
        }
    };
    let mut guard = slot.lock().expect("workload slot poisoned");
    if let Some(prepared) = guard.as_ref() {
        c.hits.inc();
        return Ok(Workload::clone(prepared));
    }
    c.misses.inc();
    match Workload::prepare(config) {
        Ok(prepared) => {
            let prepared = Arc::new(prepared);
            *guard = Some(Arc::clone(&prepared));
            Ok(Workload::clone(&prepared))
        }
        Err(e) => {
            // Leave the slot empty so the next lookup retries; drop the
            // map entry so the empty slot does not pin a FIFO position.
            drop(guard);
            let mut state = c.state.lock().expect("workload cache poisoned");
            state.slots.remove(&key);
            state.fifo.retain(|k| k != &key);
            c.occupancy.set(state.fifo.len() as f64);
            Err(e)
        }
    }
}

/// Enables or disables the cache process-wide. Disabled lookups always
/// prepare fresh (and count as misses); already-cached entries are kept
/// and serve again once re-enabled.
pub fn set_enabled(on: bool) {
    cache().enabled.store(on, Ordering::Relaxed);
}

/// Current hit/miss totals.
pub fn stats() -> CacheStats {
    let c = cache();
    let occupancy = c.state.lock().expect("workload cache poisoned").fifo.len();
    CacheStats {
        hits: c.hits.get(),
        misses: c.misses.get(),
        occupancy,
    }
}

/// The cache's private metrics registry
/// (`redvolt_quant_cache_hits_total`, `redvolt_quant_cache_misses_total`,
/// `redvolt_quant_cache_occupancy`). Deliberately separate from the
/// campaign's golden-tested exports — see the module docs. The harness
/// appends these samples to the `--metrics-out` JSONL stream only, via
/// [`crate::telemetry::CampaignTelemetry::to_jsonl_with_cache_stats`].
pub fn metrics_registry() -> &'static Registry {
    &cache().registry
}

/// Clears cached workloads and re-enables the cache. Counters are
/// monotonic (Prometheus semantics) and are *not* reset.
pub fn reset() {
    let c = cache();
    let mut state = c.state.lock().expect("workload cache poisoned");
    state.slots.clear();
    state.fifo.clear();
    c.occupancy.set(0.0);
    c.enabled.store(true, Ordering::Relaxed);
}
