//! The overload controller: a hysteretic ladder that trades batch size
//! and cached KV prefixes for headroom before it ever rejects a request.
//!
//! Levels, in the order they are applied (and undone in reverse):
//!
//! | level | action |
//! |-------|--------|
//! | 0 | nominal |
//! | 1 | halve the batch ceiling (shorter batches → finer deadline granularity) |
//! | 2 | evict the longest-idle sequence's KV prefix pages (raises a request the batcher consumes between decode steps; the victim re-prefills when resumed — memory headroom before any request is refused) |
//! | 3 | shed: new submissions get `SubmitError::Overloaded` |
//!
//! Every rung acts only on this server's own state. The controller never
//! touches process-global execution state: the GEMM tier and
//! verification choices (`AXCORE_LUT`, `AXCORE_VERIFY`, tier quarantine)
//! hold under load exactly as the operator set them.
//!
//! Escalation is immediate (queue ≥ 3/4 capacity at a tick); restoration
//! requires `hysteresis_ticks` consecutive calm ticks (queue ≤ 1/4), so
//! a load oscillating around the threshold cannot flap the ladder.

use crate::report::{Incident, Metrics};
use std::sync::atomic::Ordering::Relaxed;

/// Ladder rung that halves the batch ceiling.
pub(crate) const HALVE_LEVEL: u8 = 1;

/// Ladder rung that evicts longest-idle KV prefix pages — the last
/// resort *before* refusing work.
pub(crate) const EVICT_LEVEL: u8 = 2;

/// Highest ladder rung: admission shedding.
pub(crate) const SHED_LEVEL: u8 = 3;

#[derive(Debug)]
pub(crate) struct Controller {
    enabled: bool,
    queue_depth: usize,
    max_batch: usize,
    hysteresis_ticks: u32,
    level: u8,
    peak: u8,
    calm: u32,
}

impl Controller {
    pub fn new(enabled: bool, queue_depth: usize, max_batch: usize, hysteresis_ticks: u32) -> Self {
        Controller {
            enabled,
            queue_depth: queue_depth.max(1),
            max_batch: max_batch.max(1),
            hysteresis_ticks: hysteresis_ticks.max(1),
            level: 0,
            peak: 0,
            calm: 0,
        }
    }

    pub fn level(&self) -> u8 {
        self.level
    }

    pub fn peak(&self) -> u8 {
        self.peak
    }

    /// Whether new submissions should be rejected outright.
    pub fn shedding(&self) -> bool {
        self.level >= SHED_LEVEL
    }

    /// Batch ceiling under the current level (halved from level 1 up).
    pub fn effective_max_batch(&self) -> usize {
        if self.level >= HALVE_LEVEL {
            (self.max_batch / 2).max(1)
        } else {
            self.max_batch
        }
    }

    /// One control decision from the current queue depth. Called
    /// periodically (the watchdog tick) and after each batch gather.
    pub fn tick(&mut self, queue_len: usize, metrics: &Metrics) {
        if !self.enabled {
            return;
        }
        let hot = queue_len * 4 >= self.queue_depth * 3;
        let calm = queue_len * 4 <= self.queue_depth;
        if hot && self.level < SHED_LEVEL {
            self.calm = 0;
            self.level += 1;
            self.peak = self.peak.max(self.level);
            // The eviction rung raises a request; the batcher (which
            // owns the scheduler) performs it between decode steps.
            // There is nothing to undo on restore — an evicted prefix
            // is simply recomputed when the victim resumes. The other
            // rungs are pure controller state, read through
            // `effective_max_batch` / `shedding`.
            if self.level == EVICT_LEVEL {
                metrics.pending_evictions.fetch_add(1, Relaxed);
            }
            metrics.escalations.fetch_add(1, Relaxed);
            metrics.note_incident(Incident::Escalated { level: self.level });
        } else if calm && self.level > 0 {
            self.calm += 1;
            if self.calm >= self.hysteresis_ticks {
                self.calm = 0;
                self.level -= 1;
                metrics.restores.fetch_add(1, Relaxed);
                metrics.note_incident(Incident::Restored { level: self.level });
            }
        } else {
            self.calm = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_escalates_applies_side_effects_and_restores_preexisting_state() {
        let metrics = Metrics::default();
        let mut c = Controller::new(true, 16, 8, 2);
        assert_eq!(c.effective_max_batch(), 8);
        assert!(!c.shedding());

        // Queue at capacity: every tick escalates one level, in the
        // order halve → evict → shed.
        c.tick(16, &metrics);
        assert_eq!((c.level(), c.effective_max_batch()), (HALVE_LEVEL, 4), "batch halved");
        assert_eq!(metrics.pending_evictions.load(Relaxed), 0);
        c.tick(16, &metrics);
        assert_eq!(c.level(), EVICT_LEVEL);
        assert_eq!(
            metrics.pending_evictions.load(Relaxed),
            1,
            "evict rung raised exactly one eviction request before shedding"
        );
        assert!(!c.shedding());
        c.tick(16, &metrics);
        assert_eq!(c.level(), SHED_LEVEL);
        c.tick(16, &metrics);
        assert_eq!(c.level(), SHED_LEVEL, "ladder is capped");
        assert!(c.shedding());
        assert_eq!(c.effective_max_batch(), 4, "batch stays halved while shedding");
        assert_eq!(metrics.pending_evictions.load(Relaxed), 1);

        // Calm queue: needs hysteresis_ticks (2) consecutive calm ticks
        // per restored level.
        c.tick(0, &metrics);
        assert_eq!(c.level(), SHED_LEVEL, "one calm tick is not enough");
        c.tick(16, &metrics); // a hot blip resets the calm streak
        assert_eq!(c.level(), SHED_LEVEL);
        c.tick(0, &metrics);
        c.tick(0, &metrics);
        assert_eq!(c.level(), SHED_LEVEL - 1, "restored after streak");

        for _ in 0..(2 * SHED_LEVEL as usize) {
            c.tick(0, &metrics);
        }
        assert_eq!(c.level(), 0, "fully restored");
        assert_eq!(c.peak(), SHED_LEVEL);
        assert_eq!(c.effective_max_batch(), 8);
        assert_eq!(metrics.escalations.load(Relaxed), 3);
        assert_eq!(metrics.restores.load(Relaxed), 3);

        // Disabled controller never moves.
        let mut off = Controller::new(false, 16, 8, 2);
        off.tick(16, &metrics);
        assert_eq!(off.level(), 0);
    }
}
