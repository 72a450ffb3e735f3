//! Serving metrics: lock-cheap counters accumulated on the hot path and
//! the [`ServeReport`] snapshot derived from them.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

/// A structured record of something the watchdog or overload controller
/// did — the service's incident log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Incident {
    /// The watchdog found the in-flight batch past its hard deadline and
    /// requested cooperative cancellation.
    BatchOverdue {
        /// Milliseconds the batch had been running when flagged.
        running_ms: u64,
        /// Requests in the batch.
        batch_size: usize,
    },
    /// Cancellation didn't converge within the grace period: the pool
    /// was force-restarted, the batch's tickets failed as `Wedged`, and
    /// a replacement batcher took over the queue.
    PoolRestarted {
        /// Requests whose tickets were failed.
        abandoned: usize,
    },
    /// The overload controller escalated to `level`.
    Escalated {
        /// The new (higher) degradation level.
        level: u8,
    },
    /// The overload controller restored to `level` after a calm window.
    Restored {
        /// The new (lower) degradation level.
        level: u8,
    },
    /// The eviction rung fired: the longest-idle sequence's KV prefix
    /// pages were returned to the arena (the sequence re-prefills when
    /// resumed) to shrink the page working set before shedding.
    PagesEvicted {
        /// KV pages freed by the eviction.
        pages: usize,
    },
    /// Checksum verification caught corrupted KV state during a decode
    /// step. Pages whose parity group allowed it were reconstructed in
    /// place; the rest poisoned their sequences, whose pages were
    /// dropped and scheduled for repair by recomputation.
    KvCorruption {
        /// Corrupt pages detected by this step's checks.
        detected: u64,
        /// Pages healed in place from their XOR parity group.
        reconstructed: u64,
        /// Repair-by-recomputation cycles started in response.
        recomputed: u64,
    },
    /// The per-step KV scrubber found latent corruption in cold pages
    /// and repaired it in place before any gather tripped on it.
    KvScrubRepair {
        /// Pages (data or parity) repaired by the scrubber this step.
        repaired: u64,
    },
}

/// Hot-path counters. Everything the batcher touches per request is an
/// atomic; only completion latencies (needed for percentiles) take a
/// mutex, once per finished request.
#[derive(Debug, Default)]
pub(crate) struct Metrics {
    pub submitted: AtomicU64,
    pub shed_queue_full: AtomicU64,
    pub shed_overload: AtomicU64,
    pub shed_draining: AtomicU64,
    pub completed: AtomicU64,
    pub deadline_missed: AtomicU64,
    pub wedged: AtomicU64,
    pub request_errors: AtomicU64,
    pub batches: AtomicU64,
    pub batched_requests: AtomicU64,
    pub max_queue_depth: AtomicUsize,
    pub escalations: AtomicU64,
    pub restores: AtomicU64,
    /// Eviction requests raised by the controller's evict rung, consumed
    /// (decremented to zero via `swap`) by the batcher between steps.
    pub pending_evictions: AtomicU64,
    pub evictions: AtomicU64,
    pub kv_pages_live: AtomicUsize,
    pub kv_pages_peak: AtomicUsize,
    pub kv_block: AtomicUsize,
    pub kv_pages_verified: AtomicU64,
    pub kv_corruptions: AtomicU64,
    pub kv_repairs_reconstructed: AtomicU64,
    pub kv_repairs_recomputed: AtomicU64,
    pub kv_pages_scrubbed: AtomicU64,
    pub kv_scrub_repairs: AtomicU64,
    pub kv_capacity_stalls: AtomicU64,
    pub tokens_in_flight_peak: AtomicUsize,
    pub latencies_ms: Mutex<Vec<f64>>,
    pub incidents: Mutex<Vec<Incident>>,
}

impl Metrics {
    pub fn note_queue_depth(&self, depth: usize) {
        self.max_queue_depth.fetch_max(depth, Relaxed);
    }

    pub fn note_latency(&self, ms: f64) {
        if let Ok(mut v) = self.latencies_ms.lock() {
            v.push(ms);
        }
    }

    pub fn note_incident(&self, incident: Incident) {
        if let Ok(mut v) = self.incidents.lock() {
            v.push(incident);
        }
    }
}

/// Point-in-time snapshot of the serving runtime's health and
/// throughput, built on the reliability layer's `ExecReport` aggregates.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Requests offered to `submit` (including rejected ones).
    pub submitted: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Rejections: admission queue at capacity.
    pub shed_queue_full: u64,
    /// Rejections: overload controller at its shedding level.
    pub shed_overload: u64,
    /// Rejections: server draining for shutdown.
    pub shed_draining: u64,
    /// Requests failed for missing their deadline (queued too long or
    /// cancelled mid-decode).
    pub deadline_missed: u64,
    /// Requests failed because their batch was declared wedged.
    pub wedged: u64,
    /// Requests failed with a typed generation error (bad prompt, GEMM
    /// failure).
    pub request_errors: u64,
    /// Decode steps executed (each step advances every live sequence by
    /// one token).
    pub batches: u64,
    /// Mean sequences decoding concurrently per step.
    pub mean_batch: f64,
    /// Highest queue depth observed.
    pub max_queue_depth: usize,
    /// Queue depth right now.
    pub queue_depth: usize,
    /// Median completion latency (submit → response), milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile completion latency, milliseconds.
    pub p99_ms: f64,
    /// Worst completion latency, milliseconds.
    pub max_ms: f64,
    /// Completed requests per wall-clock second since startup.
    pub throughput_rps: f64,
    /// Overload-controller escalation steps taken.
    pub escalations: u64,
    /// Overload-controller restore steps taken.
    pub restores: u64,
    /// Degradation level right now (0 = nominal).
    pub level: u8,
    /// Highest degradation level reached.
    pub peak_level: u8,
    /// Worker-pool force-restarts since process start
    /// (`axcore_parallel::pool_restarts`).
    pub pool_restarts: u64,
    /// Tier-downgrade steps recorded by the reliability layer since
    /// process start (`axcore_parallel::health::downgrades_recorded`).
    pub tier_downgrades: u64,
    /// Worker threads the GEMM pool dispatches across right now
    /// (`axcore_parallel::current_threads`). Prepared matmuls shard their
    /// output columns across this many workers, one shard each.
    pub gemm_threads: usize,
    /// KV-arena pages owned by live sequences at snapshot time.
    pub kv_pages_live: usize,
    /// High-water mark of simultaneously live KV pages — bounded by the
    /// token-in-flight admission cap, not by queue depth.
    pub kv_pages_peak: usize,
    /// Positions per KV page (`AXCORE_KV_BLOCK`).
    pub kv_block: usize,
    /// KV pages whose checksums were verified by sampled/full gather
    /// checks (`AXCORE_VERIFY`).
    pub kv_pages_verified: u64,
    /// Corrupt KV pages detected by those checks — each one either
    /// reconstructed in place or poisoned its sequence, never silently
    /// skewing its logits.
    pub kv_corruptions_detected: u64,
    /// Corrupt pages healed in place from their XOR parity group
    /// (`AXCORE_KV_PARITY`) — O(one page) repairs that never touched
    /// the sequence.
    pub kv_repairs_reconstructed: u64,
    /// Repair-by-recomputation cycles: a poisoned sequence's pages were
    /// dropped and its prefix re-prefilled, bit-identically — the
    /// fallback when reconstruction was impossible (ungrouped page,
    /// degraded group, or flipped block table).
    pub kv_repairs_recomputed: u64,
    /// Integrity targets proactively verified by the per-step-boundary
    /// scrubber (`AXCORE_KV_SCRUB`).
    pub kv_pages_scrubbed: u64,
    /// Latent corruptions the scrubber found and repaired in place
    /// before any gather tripped on them.
    pub kv_scrub_repairs: u64,
    /// Decode attempts that hit the arena's page cap (`AXCORE_KV_PAGES`)
    /// and parked the sequence until headroom returned — typed
    /// backpressure where an unbounded arena would have grown past its
    /// budget.
    pub kv_capacity_stalls: u64,
    /// High-water mark of tokens held by live sequences.
    pub tokens_in_flight_peak: usize,
    /// Longest-idle prefix-page evictions performed by the overload
    /// ladder's evict rung.
    pub evictions: u64,
    /// The incident log, oldest first.
    pub incidents: Vec<Incident>,
}

impl ServeReport {
    /// Shed rate over everything offered: rejected / submitted.
    pub fn shed_rate(&self) -> f64 {
        let shed = self.shed_queue_full + self.shed_overload + self.shed_draining;
        if self.submitted == 0 {
            0.0
        } else {
            shed as f64 / self.submitted as f64
        }
    }
}

/// The `q`-quantile (`q` in [0, 1], nearest rank) of `sorted`, which
/// must be in ascending order; 0 when empty.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

pub(crate) fn snapshot(
    m: &Metrics,
    queue_depth: usize,
    level: u8,
    peak_level: u8,
    started: Instant,
) -> ServeReport {
    let mut lat = m.latencies_ms.lock().map(|v| v.clone()).unwrap_or_default();
    lat.sort_by(|a, b| a.total_cmp(b));
    let completed = m.completed.load(Relaxed);
    let batches = m.batches.load(Relaxed);
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    ServeReport {
        submitted: m.submitted.load(Relaxed),
        completed,
        shed_queue_full: m.shed_queue_full.load(Relaxed),
        shed_overload: m.shed_overload.load(Relaxed),
        shed_draining: m.shed_draining.load(Relaxed),
        deadline_missed: m.deadline_missed.load(Relaxed),
        wedged: m.wedged.load(Relaxed),
        request_errors: m.request_errors.load(Relaxed),
        batches,
        mean_batch: if batches == 0 {
            0.0
        } else {
            m.batched_requests.load(Relaxed) as f64 / batches as f64
        },
        max_queue_depth: m.max_queue_depth.load(Relaxed),
        queue_depth,
        p50_ms: percentile(&lat, 0.50),
        p99_ms: percentile(&lat, 0.99),
        max_ms: lat.last().copied().unwrap_or(0.0),
        throughput_rps: completed as f64 / elapsed,
        escalations: m.escalations.load(Relaxed),
        restores: m.restores.load(Relaxed),
        level,
        peak_level,
        pool_restarts: axcore_parallel::pool_restarts(),
        tier_downgrades: axcore_parallel::health::downgrades_recorded(),
        gemm_threads: axcore_parallel::current_threads(),
        kv_pages_live: m.kv_pages_live.load(Relaxed),
        kv_pages_peak: m.kv_pages_peak.load(Relaxed),
        kv_block: m.kv_block.load(Relaxed),
        kv_pages_verified: m.kv_pages_verified.load(Relaxed),
        kv_corruptions_detected: m.kv_corruptions.load(Relaxed),
        kv_repairs_reconstructed: m.kv_repairs_reconstructed.load(Relaxed),
        kv_repairs_recomputed: m.kv_repairs_recomputed.load(Relaxed),
        kv_pages_scrubbed: m.kv_pages_scrubbed.load(Relaxed),
        kv_scrub_repairs: m.kv_scrub_repairs.load(Relaxed),
        kv_capacity_stalls: m.kv_capacity_stalls.load(Relaxed),
        tokens_in_flight_peak: m.tokens_in_flight_peak.load(Relaxed),
        evictions: m.evictions.load(Relaxed),
        incidents: m.incidents.lock().map(|v| v.clone()).unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_handles_edges() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        let p50 = percentile(&v, 0.5);
        assert!((49.0..=51.0).contains(&p50));
    }

    #[test]
    fn shed_rate_counts_all_rejection_kinds() {
        let m = Metrics::default();
        m.submitted.store(10, Relaxed);
        m.shed_queue_full.store(2, Relaxed);
        m.shed_overload.store(1, Relaxed);
        let r = snapshot(&m, 0, 0, 0, Instant::now());
        assert!((r.shed_rate() - 0.3).abs() < 1e-12);
    }
}
