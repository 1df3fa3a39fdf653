//! Serving-run reports: plain text, metrics registry, JSONL and
//! Prometheus exports.
//!
//! Everything here is a deterministic rendering of a [`ServeOutcome`] —
//! latency quantiles are exact nearest-rank statistics over the recorded
//! samples (not histogram interpolations), timestamps are reference
//! cycles, and floats go through fixed-decimal or shortest-round-trip
//! formatting so reruns are byte-identical.

use crate::event::Cycle;
use crate::sim::{ServeConfig, ServeOutcome};
use redvolt_core::report::{fmt, Table};
use redvolt_fpga::calib::F_NOM_MHZ;
use redvolt_telemetry::export::{export_jsonl, export_prometheus};
use redvolt_telemetry::metrics::Registry;
use redvolt_telemetry::recorder::export_flight_jsonl;
use redvolt_telemetry::span::SpanRecord;
use redvolt_telemetry::trace::{export_chrome_trace, TraceTrack};

/// Latency-histogram bucket bounds, reference cycles.
const LATENCY_BOUNDS: [f64; 10] = [1e5, 2e5, 5e5, 1e6, 2e6, 5e6, 1e7, 2e7, 5e7, 1e8];

/// Exact nearest-rank percentile of an unsorted sample set (`q` in
/// `0..=1`); 0 for an empty set.
pub fn percentile(samples: &[Cycle], q: f64) -> Cycle {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A rendered serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// The scenario that produced the outcome.
    pub config: ServeConfig,
    /// The raw outcome.
    pub outcome: ServeOutcome,
    /// Exact nearest-rank p50 latency, reference cycles.
    pub p50_cycles: Cycle,
    /// Exact nearest-rank p90 latency.
    pub p90_cycles: Cycle,
    /// Exact nearest-rank p99 latency.
    pub p99_cycles: Cycle,
    /// Maximum latency.
    pub max_cycles: Cycle,
    /// Mean latency, reference cycles.
    pub mean_cycles: f64,
    /// Total fleet energy charged, J.
    pub fleet_energy_j: f64,
    /// Fleet energy per completed request, J.
    pub energy_per_completed_j: f64,
    /// Completed throughput over the simulated span, requests/s.
    pub throughput_rps: f64,
    /// Whether the run met its SLO: p99 within bound (when one is set)
    /// and zero silently corrupt responses.
    pub slo_ok: bool,
}

impl ServeReport {
    /// Derives the report from a finished run.
    pub fn build(config: &ServeConfig, outcome: ServeOutcome) -> Self {
        let lat = &outcome.latencies;
        let mean = if lat.is_empty() {
            0.0
        } else {
            // Latencies near a saturated clock would overflow a u64 sum.
            lat.iter().map(|&l| u128::from(l)).sum::<u128>() as f64 / lat.len() as f64
        };
        let fleet_energy_j: f64 = outcome.boards.iter().map(|b| b.energy_j).sum();
        let completed = outcome.counters.completed;
        let span_s = outcome.end_cycle as f64 / (F_NOM_MHZ * 1e6);
        let p99 = percentile(lat, 0.99);
        let slo_ok = (config.slo_p99_cycles == 0 || p99 <= config.slo_p99_cycles)
            && outcome.counters.silently_corrupt == 0;
        ServeReport {
            config: *config,
            p50_cycles: percentile(lat, 0.50),
            p90_cycles: percentile(lat, 0.90),
            p99_cycles: p99,
            max_cycles: lat.iter().copied().max().unwrap_or(0),
            mean_cycles: mean,
            fleet_energy_j,
            energy_per_completed_j: if completed > 0 {
                fleet_energy_j / completed as f64
            } else {
                0.0
            },
            throughput_rps: if span_s > 0.0 {
                completed as f64 / span_s
            } else {
                0.0
            },
            slo_ok,
            outcome,
        }
    }

    /// The full plain-text report (deterministic; ends with a newline).
    pub fn to_text(&self) -> String {
        let cfg = &self.config;
        let c = &self.outcome.counters;
        let mut out = String::new();
        out.push_str("== redvolt-serve run ==\n");
        out.push_str(&format!(
            "seed {}  boards {}  requests {}  rps {:?}  router {}  defense {}  governor {}\n",
            cfg.seed,
            cfg.boards,
            cfg.requests,
            cfg.rps,
            cfg.router.name(),
            cfg.defense.name(),
            if cfg.governor { "on" } else { "off" },
        ));
        out.push_str(&format!(
            "max-batch {}  batch-timeout {}  queue-depth {}  margin {:?} mV  retry-limit {}\n",
            cfg.max_batch,
            cfg.batch_timeout_cycles,
            cfg.queue_depth,
            cfg.margin_mv,
            cfg.retry_limit,
        ));
        out.push('\n');
        out.push_str(&format!(
            "offered {}  admitted {}  degraded {}  shed {}  completed {}\n",
            c.offered, c.admitted, c.degraded, c.shed, c.completed
        ));
        out.push_str(&format!(
            "retried {}  crash-requeued {}  dropped-on-crash {}  flagged-completed {}\n",
            c.retried, c.requeued_on_crash, c.dropped_on_crash, c.flagged_completed
        ));
        out.push_str(&format!(
            "batches {}  escalations {}  crashes {}  corrupt {}  silently-corrupt {}\n",
            c.batches, c.escalations, c.crashes, c.corrupt, c.silently_corrupt
        ));
        out.push('\n');
        out.push_str(&format!(
            "latency/ref-cycles  p50 {}  p90 {}  p99 {}  max {}  mean {}\n",
            self.p50_cycles,
            self.p90_cycles,
            self.p99_cycles,
            self.max_cycles,
            fmt(self.mean_cycles, 1),
        ));
        out.push_str(&format!(
            "span {} ref-cycles  throughput {} req/s  fleet energy {} mJ  energy/completed {} uJ\n",
            self.outcome.end_cycle,
            fmt(self.throughput_rps, 1),
            fmt(self.fleet_energy_j * 1e3, 3),
            fmt(self.energy_per_completed_j * 1e6, 2),
        ));
        out.push_str(&format!(
            "trace spans {}  spans-dropped {}  postmortems {}  postmortems-suppressed {}\n",
            self.outcome.trace_spans.len(),
            self.outcome.trace_dropped,
            self.outcome.postmortems.len(),
            self.outcome.postmortems_suppressed,
        ));
        if cfg.slo_p99_cycles > 0 {
            out.push_str(&format!(
                "SLO p99 <= {}: {}\n",
                cfg.slo_p99_cycles,
                if self.slo_ok { "ok" } else { "VIOLATED" }
            ));
        } else {
            out.push_str(&format!(
                "SLO (silent corruption only): {}\n",
                if self.slo_ok { "ok" } else { "VIOLATED" }
            ));
        }
        out.push('\n');
        let mut table = Table::new(
            "Fleet",
            &[
                "board", "vmin/mV", "base/mV", "v/mV", "f/MHz", "batches", "served", "util",
                "E/inf uJ", "events", "rungs", "crashes",
            ],
        );
        for b in &self.outcome.boards {
            let util = if self.outcome.end_cycle > 0 {
                b.busy_cycles as f64 / self.outcome.end_cycle as f64
            } else {
                0.0
            };
            table.row(&[
                b.index.to_string(),
                fmt(b.vmin_mv, 0),
                fmt(b.base_mv, 0),
                fmt(b.vccint_mv, 0),
                fmt(b.f_mhz, 0),
                b.batches.to_string(),
                b.served.to_string(),
                fmt(util * 100.0, 1) + "%",
                fmt(b.energy_per_inf_j * 1e6, 2),
                b.events.to_string(),
                b.rungs.to_string(),
                b.crashes.to_string(),
            ]);
        }
        out.push_str(&table.to_text());
        out
    }

    /// Builds the metrics registry for this run: request/batch counters,
    /// the latency histogram, and per-board gauges.
    pub fn registry(&self) -> Registry {
        let reg = Registry::new();
        let c = &self.outcome.counters;
        for (disposition, value) in [
            ("offered", c.offered),
            ("admitted", c.admitted),
            ("degraded", c.degraded),
            ("shed", c.shed),
            ("completed", c.completed),
            ("retried", c.retried),
            ("requeued_on_crash", c.requeued_on_crash),
            ("dropped_on_crash", c.dropped_on_crash),
            ("flagged_completed", c.flagged_completed),
        ] {
            reg.counter("serve_requests_total", &[("disposition", disposition)])
                .add(value);
        }
        reg.counter("serve_corrupt_total", &[("kind", "any")])
            .add(c.corrupt);
        reg.counter("serve_corrupt_total", &[("kind", "silent")])
            .add(c.silently_corrupt);
        reg.counter("serve_batches_total", &[]).add(c.batches);
        reg.counter("serve_crashes_total", &[]).add(c.crashes);
        reg.counter("serve_escalations_total", &[])
            .add(c.escalations);
        reg.counter("serve_trace_spans_total", &[])
            .add(self.outcome.trace_spans.len() as u64);
        reg.counter("serve_spans_dropped_total", &[])
            .add(self.outcome.trace_dropped);
        reg.counter("serve_postmortems_total", &[("disposition", "dumped")])
            .add(self.outcome.postmortems.len() as u64);
        reg.counter("serve_postmortems_total", &[("disposition", "suppressed")])
            .add(self.outcome.postmortems_suppressed);
        reg.gauge("serve_span_ref_cycles", &[])
            .set(self.outcome.end_cycle as f64);
        let latency = reg.histogram("serve_latency_ref_cycles", &[], &LATENCY_BOUNDS);
        for &l in &self.outcome.latencies {
            latency.observe(l as f64);
        }
        for b in &self.outcome.boards {
            let idx = b.index.to_string();
            let labels: &[(&str, &str)] = &[("board", idx.as_str())];
            let util = if self.outcome.end_cycle > 0 {
                b.busy_cycles as f64 / self.outcome.end_cycle as f64
            } else {
                0.0
            };
            reg.gauge("serve_board_utilization", labels).set(util);
            reg.gauge("serve_board_vmin_mv", labels).set(b.vmin_mv);
            reg.gauge("serve_board_vccint_mv", labels).set(b.vccint_mv);
            reg.gauge("serve_board_f_mhz", labels).set(b.f_mhz);
            reg.gauge("serve_board_energy_j", labels).set(b.energy_j);
            reg.gauge("serve_board_energy_per_inference_j", labels)
                .set(b.energy_per_inf_j);
            reg.gauge("serve_board_rungs", labels)
                .set(f64::from(b.rungs));
            reg.counter("serve_board_events_total", labels)
                .add(b.events);
            reg.counter("serve_board_served_total", labels)
                .add(b.served);
        }
        reg
    }

    /// The request-lifecycle span stream recorded by the simulation.
    fn spans(&self) -> &[SpanRecord] {
        &self.outcome.trace_spans
    }

    /// The JSONL telemetry export (schema header, lifecycle spans,
    /// metrics).
    pub fn to_jsonl(&self) -> String {
        export_jsonl(self.spans(), &self.registry().samples())
    }

    /// The Prometheus text-exposition export.
    pub fn to_prometheus(&self) -> String {
        export_prometheus(&self.registry().samples())
    }

    /// The Chrome trace-event export (`chrome://tracing` / Perfetto):
    /// one track per board plus router and governor tracks, reference
    /// cycles mapped to trace microseconds at the nominal clock.
    pub fn to_chrome_trace(&self) -> String {
        let mut tracks = vec![TraceTrack::new(0, "router"), TraceTrack::new(1, "governor")];
        for b in &self.outcome.boards {
            tracks.push(TraceTrack::new(
                2 + b.index as u64,
                &format!("board {}", b.index),
            ));
        }
        let tid_of = |span: &SpanRecord| -> u64 {
            match span.name.as_str() {
                "governor_escalate" => 1,
                "batch" | "queue" | "execute" | "board_crash" | "board_up" => {
                    span.attr_u64("board").map_or(0, |b| 2 + b)
                }
                // request / route / reroute / sdc_audit: router track.
                _ => 0,
            }
        };
        export_chrome_trace(
            self.spans(),
            "redvolt-serve",
            &tracks,
            &tid_of,
            F_NOM_MHZ as u64,
        )
    }

    /// The flight-recorder post-mortem export (JSONL).
    pub fn to_flight_jsonl(&self) -> String {
        export_flight_jsonl(
            &self.outcome.postmortems,
            self.outcome.postmortems_suppressed,
        )
    }

    /// One-line health summary served at `/healthz`: overall status plus
    /// the counters an operator checks first.
    pub fn to_healthz(&self) -> String {
        let c = &self.outcome.counters;
        format!(
            "{{\"status\":\"{}\",\"boards\":{},\"completed\":{},\"shed\":{},\"silently_corrupt\":{},\"crashes\":{},\"postmortems\":{}}}\n",
            if self.slo_ok { "ok" } else { "degraded" },
            self.outcome.boards.len(),
            c.completed,
            c.shed,
            c.silently_corrupt,
            c.crashes,
            self.outcome.postmortems.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim;

    fn report() -> ServeReport {
        let cfg = ServeConfig {
            requests: 40,
            ..ServeConfig::default()
        };
        ServeReport::build(&cfg, sim::run(&cfg).unwrap())
    }

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let samples: Vec<Cycle> = (1..=100).rev().collect();
        assert_eq!(percentile(&samples, 0.50), 50);
        assert_eq!(percentile(&samples, 0.99), 99);
        assert_eq!(percentile(&samples, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn text_report_is_deterministic_and_complete() {
        let a = report().to_text();
        let b = report().to_text();
        assert_eq!(a, b);
        assert!(a.contains("== redvolt-serve run =="));
        assert!(a.contains("latency/ref-cycles"));
        assert!(a.contains("== Fleet =="));
        assert!(a.ends_with('\n'));
    }

    #[test]
    fn exports_are_deterministic_and_carry_the_run() {
        let r = report();
        assert_eq!(r.to_jsonl(), r.to_jsonl());
        assert_eq!(r.to_prometheus(), r.to_prometheus());
        let jsonl = r.to_jsonl();
        assert!(jsonl.starts_with("{\"type\":\"meta\""));
        assert!(jsonl.contains("\"name\":\"request\""));
        assert!(jsonl.contains("\"name\":\"batch\""));
        assert!(jsonl.contains("serve_requests_total"));
        assert!(jsonl.contains("serve_spans_dropped_total"));
        let prom = r.to_prometheus();
        assert!(prom.contains("# TYPE serve_latency_ref_cycles histogram"));
        assert!(prom.contains("serve_board_utilization"));
        assert!(prom.contains("serve_trace_spans_total"));
    }

    #[test]
    fn chrome_trace_has_board_router_and_governor_tracks() {
        let r = report();
        let trace = r.to_chrome_trace();
        assert_eq!(trace, r.to_chrome_trace());
        assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
        assert!(trace.ends_with("]}\n"));
        assert!(trace.contains("\"thread_name\",\"args\":{\"name\":\"router\"}"));
        assert!(trace.contains("\"thread_name\",\"args\":{\"name\":\"governor\"}"));
        assert!(trace.contains("\"thread_name\",\"args\":{\"name\":\"board 0\"}"));
        assert!(trace.contains("\"name\":\"request\",\"ph\":\"X\""));
        assert!(trace.contains("\"name\":\"route\",\"ph\":\"i\""));
    }

    #[test]
    fn healthz_is_a_single_json_line() {
        let h = report().to_healthz();
        assert!(h.starts_with("{\"status\":"));
        assert!(h.ends_with("}\n"));
        assert_eq!(h.lines().count(), 1);
    }

    #[test]
    fn latency_stats_match_the_samples() {
        let r = report();
        assert!(r.p50_cycles <= r.p90_cycles);
        assert!(r.p90_cycles <= r.p99_cycles);
        assert!(r.p99_cycles <= r.max_cycles);
        assert_eq!(
            r.max_cycles,
            r.outcome.latencies.iter().copied().max().unwrap()
        );
        assert!(r.slo_ok || r.outcome.counters.silently_corrupt > 0);
    }
}
