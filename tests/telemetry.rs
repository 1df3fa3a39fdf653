//! Acceptance tests for the deterministic telemetry pipeline:
//!
//! (a) the exported telemetry of a heavy-fault supervised campaign is a
//!     pure function of (seed, plan) — byte-identical JSONL and
//!     Prometheus output at `jobs = 1`, `2` and `8`, and
//! (b) `--metrics-out` composes with `--resume`: the metrics exported by
//!     an interrupted-then-resumed campaign match a straight run byte
//!     for byte (spans are deliberately not journaled, so only the
//!     metric families are part of the resume contract).

use redvolt::core::bench_suite::BenchmarkId;
use redvolt::core::executor::{CampaignPlan, CellAction, CellSpec};
use redvolt::core::experiment::AcceleratorConfig;
use redvolt::core::supervisor::{run_supervised, JournalSpec, SupervisorConfig};
use redvolt::core::sweep::SweepConfig;
use redvolt::core::telemetry::{bus_stats_table, CampaignTelemetry};
use redvolt::faults::bus::BusFaultProfile;
use std::path::PathBuf;

/// A five-cell mixed plan under the heavy PMBus fault profile — the
/// adversarial setting from the issue's acceptance criterion.
fn heavy_plan(master_seed: u64) -> CampaignPlan {
    let heavy = |benchmark, board| AcceleratorConfig {
        board_sample: board,
        eval_images: 12,
        repetitions: 2,
        bus_faults: BusFaultProfile::heavy(),
        ..AcceleratorConfig::tiny(benchmark)
    };
    let mut plan = CampaignPlan::new(master_seed);
    for board in [0u32, 1] {
        plan.push(CellSpec {
            config: heavy(BenchmarkId::VggNet, board),
            action: CellAction::Sweep(SweepConfig {
                start_mv: 620.0,
                stop_mv: 580.0,
                step_mv: 20.0,
                images: 12,
            }),
            force_temp_c: None,
        });
    }
    plan.push(CellSpec {
        config: heavy(BenchmarkId::GoogleNet, 2),
        action: CellAction::Governor {
            batch_images: 8,
            batches: 4,
        },
        force_temp_c: None,
    });
    plan.push(CellSpec {
        config: heavy(BenchmarkId::AlexNet, 0),
        action: CellAction::Measure {
            vccint_mv: Some(600.0),
            images: 12,
        },
        force_temp_c: None,
    });
    plan.push(CellSpec {
        config: heavy(BenchmarkId::GoogleNet, 1),
        action: CellAction::Measure {
            vccint_mv: None,
            images: 12,
        },
        force_temp_c: Some(45.0),
    });
    plan
}

fn temp_journal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("redvolt-telemetry-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}-{}.journal", std::process::id()))
}

#[test]
fn heavy_fault_telemetry_is_jobs_invariant() {
    let plan = heavy_plan(42);
    let reference = {
        let sup = run_supervised(&plan, 1, &SupervisorConfig::default(), None, None).unwrap();
        let telem = CampaignTelemetry::collect(&sup.report);
        (telem.to_jsonl(), telem.to_prometheus())
    };
    assert!(!reference.0.is_empty());
    assert!(reference.1.contains("redvolt_bus_transactions_total"));

    for jobs in [2usize, 8] {
        let sup = run_supervised(&plan, jobs, &SupervisorConfig::default(), None, None).unwrap();
        let telem = CampaignTelemetry::collect(&sup.report);
        assert_eq!(
            telem.to_jsonl(),
            reference.0,
            "JSONL diverged at jobs={jobs}"
        );
        assert_eq!(
            telem.to_prometheus(),
            reference.1,
            "Prometheus diverged at jobs={jobs}"
        );
    }
}

#[test]
fn metrics_export_composes_with_resume() {
    let plan = heavy_plan(7);
    let straight = run_supervised(&plan, 2, &SupervisorConfig::default(), None, None).unwrap();
    let straight_telem = CampaignTelemetry::collect(&straight.report);

    let path = temp_journal("resume-metrics");
    let halted = run_supervised(
        &plan,
        2,
        &SupervisorConfig {
            halt_after: Some(2),
            ..SupervisorConfig::default()
        },
        Some(&JournalSpec::new(&path, false)),
        None,
    )
    .unwrap();
    assert!(halted.interrupted);

    let resumed = run_supervised(
        &plan,
        2,
        &SupervisorConfig::default(),
        Some(&JournalSpec::new(&path, true)),
        None,
    )
    .unwrap();
    assert!(!resumed.interrupted);
    assert_eq!(resumed.resumed_cells, 2);
    let resumed_telem = CampaignTelemetry::collect(&resumed.report);

    // Every metric family — counters, histograms, gauges — round-trips
    // through the journal's ` telem=` blob, so the Prometheus exposition
    // is byte-identical. (The JSONL stream is not compared: spans are
    // not journaled, so a resumed campaign legitimately has fewer.)
    assert_eq!(
        resumed_telem.to_prometheus(),
        straight_telem.to_prometheus()
    );
    // The stdout bus-health table printed by `repro` obeys the same
    // contract — fault-smoke CI `cmp`s straight vs resumed stdout.
    assert_eq!(
        bus_stats_table(&resumed.report).to_text(),
        bus_stats_table(&straight.report).to_text()
    );
    assert_eq!(
        resumed_telem.summary_table().to_text(),
        straight_telem.summary_table().to_text()
    );

    std::fs::remove_file(&path).ok();
}

/// Satellite: the PMBus adapter's fault-handling counters — retries,
/// PEC failures, retry exhaustion — must surface as metric families in
/// the Prometheus exposition, and a heavy fault profile must actually
/// move the retry/PEC counters (a profile that exercises nothing would
/// make the exposition vacuous).
#[test]
fn heavy_fault_prometheus_reports_bus_health_counters() {
    let plan = heavy_plan(13);
    let sup = run_supervised(&plan, 2, &SupervisorConfig::default(), None, None).unwrap();
    let prom = CampaignTelemetry::collect(&sup.report).to_prometheus();
    let value = |name: &str| -> f64 {
        prom.lines()
            .find(|l| l.starts_with(name))
            .unwrap_or_else(|| panic!("{name} missing from exposition"))
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    assert!(value("redvolt_bus_transactions_total") > 0.0);
    assert!(
        value("redvolt_bus_retries_total") > 0.0,
        "heavy profile must force retries"
    );
    assert!(
        value("redvolt_bus_pec_failures_total") > 0.0,
        "heavy profile must corrupt some PEC bytes"
    );
    // Exhaustion stays at zero under the resilient adapter, but the
    // family must be reported so dashboards can alert on it.
    assert_eq!(value("redvolt_bus_exhausted_total"), 0.0);
    // The SDC defense families are registered even for undefended
    // campaigns (all-zero), so scrapes never see families come and go.
    for name in [
        "redvolt_ecc_corrected_words_total",
        "redvolt_ecc_uncorrectable_words_total",
        "redvolt_abft_checks_total",
        "redvolt_abft_mismatches_total",
        "redvolt_scrub_passes_total",
        "redvolt_cells_degraded_total",
    ] {
        assert_eq!(value(name), 0.0, "{name} should be zero when undefended");
    }
    // Span-ring overflow is surfaced, never silent: the family is always
    // exported, and a campaign small enough to fit the ring reports 0.
    assert_eq!(value("redvolt_spans_dropped_total"), 0.0);
}
