//! Seeded open-loop request generation.
//!
//! Arrivals follow an open-loop Poisson process (exponential gaps around
//! the configured offered rate), optionally interleaved with seeded
//! bursts — `burst_len` back-to-back requests every `burst_every`
//! arrivals, the adversarial pattern the admission-control property test
//! uses to try to overflow the bounded queues. Gap and image streams are
//! derived independently from the master seed, so changing one knob
//! never perturbs the other stream.

use crate::event::Cycle;
use redvolt_fpga::calib::F_NOM_MHZ;
use redvolt_num::rng::{derive_stream_seed, Xoshiro256StarStar};

/// Seed-stream labels (arbitrary distinct constants).
const GAP_STREAM: u64 = 0x5E21;
const IMAGE_STREAM: u64 = 0x5E22;

/// One inference request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Monotonic request id, in arrival order.
    pub id: u64,
    /// Arrival timestamp, reference cycles.
    pub arrival: Cycle,
    /// Index of the request's image in the shared evaluation set.
    pub image: usize,
    /// Executions so far (0 until first dispatch; bumped by SDC/crash
    /// retries).
    pub attempts: u32,
    /// Whether admission control accepted this request in degraded mode
    /// (served, but without the SDC retry guarantee).
    pub degraded: bool,
}

/// Traffic-shape configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// Total requests to generate.
    pub requests: u64,
    /// Offered load in requests per simulated second.
    pub rps: f64,
    /// Images in the shared evaluation set (requests draw uniformly).
    pub eval_images: usize,
    /// Every `burst_every`-th arrival starts a burst (0 disables bursts).
    pub burst_every: u64,
    /// Length of each burst: that many follow-up requests arrive with a
    /// one-cycle gap.
    pub burst_len: u64,
}

/// Mean inter-arrival gap in reference cycles for an offered rate.
pub fn mean_gap_cycles(rps: f64) -> f64 {
    F_NOM_MHZ * 1e6 / rps.max(1e-9)
}

/// Deterministic open-loop arrival stream.
#[derive(Debug)]
pub struct TrafficGenerator {
    cfg: TrafficConfig,
    gap_rng: Xoshiro256StarStar,
    image_rng: Xoshiro256StarStar,
    clock: Cycle,
    emitted: u64,
    burst_left: u64,
}

impl TrafficGenerator {
    /// A generator over `cfg` seeded from the campaign master seed.
    pub fn new(seed: u64, cfg: TrafficConfig) -> Self {
        TrafficGenerator {
            cfg,
            gap_rng: Xoshiro256StarStar::seed_from(derive_stream_seed(seed, GAP_STREAM)),
            image_rng: Xoshiro256StarStar::seed_from(derive_stream_seed(seed, IMAGE_STREAM)),
            clock: 0,
            emitted: 0,
            burst_left: 0,
        }
    }

    /// Requests still to come.
    pub fn remaining(&self) -> u64 {
        self.cfg.requests - self.emitted
    }

    fn next_gap(&mut self) -> Cycle {
        if self.burst_left > 0 {
            self.burst_left -= 1;
            return 1;
        }
        if self.cfg.burst_every > 0
            && self.emitted > 0
            && self.emitted.is_multiple_of(self.cfg.burst_every)
        {
            self.burst_left = self.cfg.burst_len;
        }
        let mean = mean_gap_cycles(self.cfg.rps);
        let u = self.gap_rng.next_f64();
        let gap = -(1.0 - u).ln() * mean;
        (gap.ceil() as Cycle).max(1)
    }
}

impl Iterator for TrafficGenerator {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.emitted >= self.cfg.requests {
            return None;
        }
        // Saturates: a vanishing rate must not wrap the arrival clock.
        let gap = self.next_gap();
        self.clock = self.clock.saturating_add(gap);
        let req = Request {
            id: self.emitted,
            arrival: self.clock,
            image: self.image_rng.next_index(self.cfg.eval_images.max(1)),
            attempts: 0,
            degraded: false,
        };
        self.emitted += 1;
        Some(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TrafficConfig {
        TrafficConfig {
            requests: 200,
            rps: 5_000.0,
            eval_images: 24,
            burst_every: 0,
            burst_len: 0,
        }
    }

    #[test]
    fn streams_are_seeded_and_reproducible() {
        let a: Vec<Request> = TrafficGenerator::new(42, cfg()).collect();
        let b: Vec<Request> = TrafficGenerator::new(42, cfg()).collect();
        let c: Vec<Request> = TrafficGenerator::new(43, cfg()).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 200);
        assert!(a.windows(2).all(|w| w[0].arrival < w[1].arrival));
        assert!(a.iter().all(|r| r.image < 24));
    }

    #[test]
    fn mean_gap_tracks_the_offered_rate() {
        let reqs: Vec<Request> = TrafficGenerator::new(7, cfg()).collect();
        let span = reqs.last().unwrap().arrival - reqs.first().unwrap().arrival;
        let mean = span as f64 / (reqs.len() - 1) as f64;
        let want = mean_gap_cycles(5_000.0);
        assert!(
            (mean / want - 1.0).abs() < 0.25,
            "measured mean gap {mean} vs configured {want}"
        );
    }

    #[test]
    fn bursts_pack_arrivals_back_to_back() {
        let burst = TrafficConfig {
            burst_every: 50,
            burst_len: 8,
            ..cfg()
        };
        let reqs: Vec<Request> = TrafficGenerator::new(42, burst).collect();
        let one_cycle_gaps = reqs
            .windows(2)
            .filter(|w| w[1].arrival - w[0].arrival == 1)
            .count();
        assert!(one_cycle_gaps >= 8 * 3, "got {one_cycle_gaps} burst gaps");
    }
}
