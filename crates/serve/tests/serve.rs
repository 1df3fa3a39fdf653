//! End-to-end acceptance tests for the serving subsystem.
//!
//! The smoke scenario here is exactly what CI's `serve-smoke` job runs
//! through the `serve` binary (`serve run` with default flags — see
//! `.github/workflows/ci.yml`): a 3-board fleet served 10 mV below each
//! board's calibrated Vmin with `--defense correct` and the governor on.
//! Its report, JSONL telemetry, Prometheus exposition, Chrome trace and
//! flight-recorder export are pinned byte-for-byte under
//! `tests/golden/serve_smoke.*`. Regenerate (only for changes that
//! legitimately alter serving output) with
//! `REDVOLT_UPDATE_GOLDEN=1 cargo test -p redvolt-serve --test serve`.

use proptest::prelude::*;
use redvolt_serve::report::ServeReport;
use redvolt_serve::router::RouterPolicy;
use redvolt_serve::sim::{self, ServeConfig, ServeError};

/// The CI smoke scenario — must match the flag defaults of `serve run`.
fn smoke() -> ServeConfig {
    ServeConfig::smoke()
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("REDVOLT_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("{name} missing; regenerate with REDVOLT_UPDATE_GOLDEN=1"));
    assert_eq!(
        actual, golden,
        "{name} diverged from the pinned serving output"
    );
}

#[test]
fn smoke_scenario_matches_the_golden_pins() {
    let cfg = smoke();
    let report = ServeReport::build(&cfg, sim::run(&cfg).unwrap());
    assert_matches_golden("serve_smoke.txt", &report.to_text());
    assert_matches_golden("serve_smoke.jsonl", &report.to_jsonl());
    assert_matches_golden("serve_smoke.prom", &report.to_prometheus());
    assert_matches_golden("serve_smoke.trace.json", &report.to_chrome_trace());
    assert_matches_golden("serve_smoke.flight.jsonl", &report.to_flight_jsonl());
}

/// The smoke scenario has to demonstrate the whole point of the
/// subsystem: real sub-Vmin SDC/ECC activity, governor interventions,
/// and still zero silently corrupt responses.
#[test]
fn smoke_scenario_is_eventful_but_never_silently_corrupt() {
    let cfg = smoke();
    let out = sim::run(&cfg).unwrap();
    assert_eq!(out.counters.silently_corrupt, 0);
    assert_eq!(
        out.counters.completed + out.counters.shed,
        out.counters.offered
    );
    assert!(
        out.boards.iter().map(|b| b.events).sum::<u64>() > 0,
        "sub-Vmin smoke saw no SDC/ECC events"
    );
    assert!(
        out.counters.escalations > 0,
        "the governor never intervened"
    );
}

/// Byte-identity across reruns and worker counts: the full rendered
/// output (report, JSONL, Prometheus) is a pure function of
/// `(seed, config)`; `image_jobs` must be invisible in all of it.
#[test]
fn rendered_output_is_byte_identical_across_reruns_and_workers() {
    let render = |cfg: &ServeConfig| {
        let r = ServeReport::build(cfg, sim::run(cfg).unwrap());
        (
            r.to_text(),
            r.to_jsonl(),
            r.to_prometheus(),
            r.to_chrome_trace(),
            r.to_flight_jsonl(),
        )
    };
    let cfg = smoke();
    let baseline = render(&cfg);
    assert_eq!(baseline, render(&cfg), "rerun diverged");
    for image_jobs in [0, 2, 8] {
        let sharded = render(&ServeConfig { image_jobs, ..cfg });
        assert_eq!(
            baseline, sharded,
            "image_jobs={image_jobs} leaked into serving output"
        );
    }
}

/// Every offered request owns exactly one lifecycle root span, and the
/// root's terminal `outcome` attribute agrees with the counters.
#[test]
fn every_request_gets_a_lifecycle_span_with_a_terminal_outcome() {
    let cfg = smoke();
    let out = sim::run(&cfg).unwrap();
    let roots: Vec<_> = out
        .trace_spans
        .iter()
        .filter(|s| s.name == "request")
        .collect();
    assert_eq!(roots.len() as u64, out.counters.offered);
    let outcomes = |want: &str| {
        roots
            .iter()
            .filter(|s| s.attr_str("outcome") == Some(want))
            .count() as u64
    };
    assert_eq!(
        outcomes("complete") + outcomes("corrupt"),
        out.counters.completed
    );
    assert_eq!(outcomes("shed"), out.counters.shed);
    assert_eq!(outcomes("dropped"), out.counters.dropped_on_crash);
    // Governor escalations and crashes appear as linked markers.
    let count = |name: &str| out.trace_spans.iter().filter(|s| s.name == name).count() as u64;
    assert_eq!(count("governor_escalate"), out.counters.escalations);
    assert_eq!(count("board_crash"), out.counters.crashes);
    assert_eq!(count("batch"), out.counters.batches);
}

/// Satellite: overflowing the bounded span ring is *counted*, never
/// silent — `trace_dropped` lands in the text report, the JSONL metrics
/// and the Prometheus exposition as `serve_spans_dropped_total`. The
/// flight recorder's dumps copy the trace, so none holds more spans than
/// the ring kept.
#[test]
fn span_ring_overflow_is_surfaced_as_spans_dropped() {
    let cfg = ServeConfig {
        trace_capacity: 16,
        ..smoke()
    };
    let report = ServeReport::build(&cfg, sim::run(&cfg).unwrap());
    assert!(
        report.outcome.trace_dropped > 0,
        "a 16-span ring must overflow under the smoke load"
    );
    assert_eq!(report.outcome.trace_spans.len(), 16);
    let want = format!("serve_spans_dropped_total {}", report.outcome.trace_dropped);
    assert!(report.to_prometheus().contains(&want));
    assert!(report
        .to_jsonl()
        .contains("\"name\":\"serve_spans_dropped_total\""));
    assert!(report
        .to_text()
        .contains(&format!("spans-dropped {}", report.outcome.trace_dropped)));
    let dumps = &report.outcome.postmortems;
    assert!(!dumps.is_empty());
    assert!(
        dumps.iter().all(|d| d.spans.len() <= 16),
        "a dump outgrew the trace"
    );
    // The untruncated smoke run reports zero drops.
    let full = ServeReport::build(&smoke(), sim::run(&smoke()).unwrap());
    assert!(full.to_prometheus().contains("serve_spans_dropped_total 0"));
}

/// Satellite: the report's latency quantiles must be consistent with the
/// raw per-request latencies recoverable from the trace — the request
/// root spans *are* the latency samples.
#[test]
fn reported_quantiles_match_latencies_recovered_from_the_trace() {
    let cfg = smoke();
    let report = ServeReport::build(&cfg, sim::run(&cfg).unwrap());
    let mut from_trace: Vec<u64> = report
        .outcome
        .trace_spans
        .iter()
        .filter(|s| {
            s.name == "request"
                && matches!(s.attr_str("outcome"), Some("complete") | Some("corrupt"))
        })
        .map(redvolt_telemetry::SpanRecord::cycles)
        .collect();
    let mut recorded = report.outcome.latencies.clone();
    from_trace.sort_unstable();
    recorded.sort_unstable();
    assert_eq!(from_trace, recorded, "trace and latency samples diverged");
    assert_eq!(
        report.p50_cycles,
        redvolt_serve::report::percentile(&from_trace, 0.50)
    );
    assert_eq!(
        report.p99_cycles,
        redvolt_serve::report::percentile(&from_trace, 0.99)
    );
}

/// The flight recorder fires on the smoke scenario (sub-Vmin serving
/// escalates the governor) and its dump carries recent spans.
#[test]
fn flight_recorder_dumps_on_governor_escalation() {
    let cfg = smoke();
    let out = sim::run(&cfg).unwrap();
    assert!(
        !out.postmortems.is_empty(),
        "sub-Vmin smoke must trigger at least one post-mortem"
    );
    let dump = &out.postmortems[0];
    assert!(!dump.spans.is_empty(), "dump froze no recent spans");
    assert_eq!(
        dump.snapshots.len(),
        cfg.boards,
        "dump must carry one health snapshot per board"
    );
    assert!(dump.snapshots[0]
        .attrs
        .iter()
        .any(|(k, _)| k == "vccint_mv"));
}

/// An offered rate that is not a finite number above zero is refused
/// before bring-up; it used to wrap the arrival clock.
#[test]
fn rates_that_are_not_finite_and_positive_are_config_errors() {
    for rps in [0.0, -5.0, f64::NAN, f64::INFINITY] {
        let out = sim::run(&ServeConfig { rps, ..smoke() });
        assert!(
            matches!(out, Err(ServeError::Config(_))),
            "rps {rps}: {out:?}"
        );
    }
}

/// Virtual time saturates instead of wrapping: arrivals a vanishing rate
/// spaces past `u64::MAX` and a batch timeout of `u64::MAX` both land at
/// the end of time, every request is still accounted for, and no latency
/// runs past the last event.
#[test]
fn a_vanishing_rate_and_an_endless_timeout_saturate_virtual_time() {
    let cfg = ServeConfig {
        requests: 50,
        rps: 1e-300,
        batch_timeout_cycles: u64::MAX,
        ..smoke()
    };
    let out = sim::run(&cfg).unwrap();
    let c = out.counters;
    assert_eq!(c.offered, 50);
    assert_eq!(c.completed + c.shed + c.dropped_on_crash, c.offered);
    assert_eq!(out.latencies.len() as u64, c.completed);
    assert_eq!(out.end_cycle, u64::MAX);
    assert!(out.latencies.iter().all(|&l| l <= out.end_cycle));
    let report = ServeReport::build(&cfg, out);
    assert!(report.mean_cycles <= u64::MAX as f64);
}

#[test]
fn the_seed_actually_flows_into_the_outcome() {
    let a = sim::run(&smoke()).unwrap();
    let b = sim::run(&ServeConfig {
        seed: 43,
        ..smoke()
    })
    .unwrap();
    assert_ne!(
        a.latencies, b.latencies,
        "serving outcome ignores the master seed"
    );
}

proptest! {
    /// Admission control under adversarial bursty arrivals: whatever the
    /// offered rate, burst shape and queue geometry, no board's queue
    /// ever exceeds the configured bound, and every offered request is
    /// accounted for exactly once (completed, shed, or dropped when a
    /// crash requeue found every queue full).
    #[test]
    fn bursty_arrivals_never_overflow_the_queue_bound(
        seed in 0u64..1_000_000,
        rps_scale in 1u32..40,
        queue_depth in 4usize..10,
        burst_every in 3u64..12,
        burst_len in 1u64..20,
    ) {
        let cfg = ServeConfig {
            seed,
            boards: 2,
            requests: 30,
            rps: 5_000.0 * f64::from(rps_scale),
            max_batch: 4,
            queue_depth,
            burst_every,
            burst_len,
            ..ServeConfig::default()
        };
        let out = sim::run(&cfg).unwrap();
        prop_assert!(
            out.peak_queue_len <= queue_depth,
            "peak queue {} exceeded bound {}",
            out.peak_queue_len,
            queue_depth
        );
        let c = out.counters;
        prop_assert_eq!(c.offered, 30);
        prop_assert_eq!(c.admitted + c.shed, c.offered);
        prop_assert_eq!(c.completed + c.shed + c.dropped_on_crash, c.offered);
        prop_assert_eq!(out.latencies.len() as u64, c.completed);
    }
}

/// Routing policy must change where load goes and, below Vmin, what it
/// costs: on the smoke scenario and on two loaded sub-Vmin fleets,
/// round-robin spends at least 1% more modeled energy per completed
/// request than the Vmin-aware router, neither arm answers silently
/// corrupt, and the Vmin-aware arm meets its p99 SLO.
#[test]
fn router_policy_changes_the_load_distribution() {
    let loaded = |boards, requests| ServeConfig {
        seed: 1909,
        boards,
        requests,
        rps: 30_000.0,
        margin_mv: -10.0,
        slo_p99_cycles: 60_000_000,
        ..ServeConfig::default()
    };
    for vmin_cfg in [smoke(), loaded(4, 160), loaded(6, 400)] {
        let rr_cfg = ServeConfig {
            router: RouterPolicy::RoundRobin,
            ..vmin_cfg
        };
        let vmin = ServeReport::build(&vmin_cfg, sim::run(&vmin_cfg).unwrap());
        let rr = ServeReport::build(&rr_cfg, sim::run(&rr_cfg).unwrap());
        let served = |r: &ServeReport| {
            r.outcome
                .boards
                .iter()
                .map(|b| b.served)
                .collect::<Vec<_>>()
        };
        assert_ne!(served(&vmin), served(&rr));
        assert_eq!(
            vmin.outcome.counters.offered, rr.outcome.counters.offered,
            "policies saw different traffic"
        );
        let gain = rr.energy_per_completed_j / vmin.energy_per_completed_j;
        let scenario = format!(
            "{} boards x {} requests",
            vmin_cfg.boards, vmin_cfg.requests
        );
        assert!(gain >= 1.01, "{scenario}: energy gain x{gain:.3} < x1.01");
        assert_eq!(vmin.outcome.counters.silently_corrupt, 0, "{scenario}");
        assert_eq!(rr.outcome.counters.silently_corrupt, 0, "{scenario}");
        assert!(vmin.slo_ok, "{scenario}: p99 {}", vmin.p99_cycles);
    }
}
