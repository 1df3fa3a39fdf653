//! Acceptance tests for the crash-resilient campaign supervisor:
//!
//! (a) a panicking cell yields [`CellOutcome::Aborted`] while every other
//!     cell completes, and
//! (b) a campaign killed after `k` cells and `--resume`d merges to a
//!     payload byte-identical to an uninterrupted run, at `jobs = 1` and
//!     `jobs = 4`, with a nonzero injected PMBus fault rate.
//!
//! Plus the watchdog (wall-clock and simulated-cycle deadlines) and the
//! paper's reboot-and-retry bookkeeping.

use redvolt::core::bench_suite::BenchmarkId;
use redvolt::core::executor::{CampaignPlan, CellAction, CellOutcome, CellSpec};
use redvolt::core::experiment::AcceleratorConfig;
use redvolt::core::supervisor::{run_supervised, JournalSpec, SupervisorConfig, SupervisorError};
use redvolt::core::sweep::SweepConfig;
use redvolt::faults::bus::BusFaultProfile;
use std::path::PathBuf;
use std::time::Duration;

fn tiny_config(benchmark: BenchmarkId, board: u32) -> AcceleratorConfig {
    AcceleratorConfig {
        board_sample: board,
        eval_images: 12,
        repetitions: 2,
        ..AcceleratorConfig::tiny(benchmark)
    }
}

fn measure_cell(benchmark: BenchmarkId, board: u32, vccint_mv: Option<f64>) -> CellSpec {
    CellSpec {
        config: tiny_config(benchmark, board),
        action: CellAction::Measure {
            vccint_mv,
            images: 12,
        },
        force_temp_c: None,
    }
}

/// A sweep whose `step_mv == 0` panics inside `SweepConfig::voltages_mv`
/// — the supervisor must contain it.
fn panicking_cell() -> CellSpec {
    CellSpec {
        config: tiny_config(BenchmarkId::VggNet, 0),
        action: CellAction::Sweep(SweepConfig {
            start_mv: 850.0,
            stop_mv: 800.0,
            step_mv: 0.0,
            images: 8,
        }),
        force_temp_c: None,
    }
}

/// A six-cell mixed plan whose cells all carry a nonzero PMBus fault
/// profile — sweeps, a sub-Vmin rescue that degrades, and plain
/// measurements.
fn faulty_plan(master_seed: u64) -> CampaignPlan {
    let faulty = |benchmark, board| AcceleratorConfig {
        bus_faults: BusFaultProfile::light(),
        ..tiny_config(benchmark, board)
    };
    let sweep = SweepConfig {
        start_mv: 620.0,
        stop_mv: 560.0,
        step_mv: 20.0,
        images: 12,
    };
    let mut plan = CampaignPlan::new(master_seed);
    for board in [0u32, 1] {
        plan.push(CellSpec {
            config: faulty(BenchmarkId::VggNet, board),
            action: CellAction::Sweep(sweep),
            force_temp_c: None,
        });
    }
    plan.push(CellSpec {
        config: faulty(BenchmarkId::GoogleNet, 2),
        action: CellAction::Rescue {
            vccint_mv: 550.0,
            images: 12,
        },
        force_temp_c: None,
    });
    plan.push(CellSpec {
        config: faulty(BenchmarkId::AlexNet, 0),
        action: CellAction::Measure {
            vccint_mv: Some(600.0),
            images: 12,
        },
        force_temp_c: None,
    });
    plan.push(CellSpec {
        config: faulty(BenchmarkId::GoogleNet, 1),
        action: CellAction::Measure {
            vccint_mv: None,
            images: 12,
        },
        force_temp_c: Some(45.0),
    });
    plan.push(CellSpec {
        config: faulty(BenchmarkId::VggNet, 2),
        action: CellAction::Measure {
            vccint_mv: Some(580.0),
            images: 12,
        },
        force_temp_c: None,
    });
    plan
}

/// A sweep of every 5 mV step from 850 to 560 mV: long enough to outlive
/// a small cycle budget or wall-clock cap.
fn long_sweep_cell(config: AcceleratorConfig) -> CellSpec {
    CellSpec {
        config,
        action: CellAction::Sweep(SweepConfig {
            start_mv: 850.0,
            stop_mv: 560.0,
            step_mv: 5.0,
            images: 12,
        }),
        force_temp_c: None,
    }
}

fn temp_journal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("redvolt-supervisor-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}-{}.journal", std::process::id()))
}

#[test]
fn panicking_cell_aborts_alone_while_others_complete() {
    let mut plan = CampaignPlan::new(17);
    plan.push(measure_cell(BenchmarkId::VggNet, 0, None));
    plan.push(panicking_cell());
    plan.push(measure_cell(BenchmarkId::GoogleNet, 1, Some(600.0)));

    let sup = run_supervised(&plan, 2, &SupervisorConfig::default(), None, None).unwrap();
    assert_eq!(sup.report.results.len(), 3);
    assert_eq!(sup.aborted_cells, 1);
    assert!(!sup.interrupted);

    let outcomes = &sup.report.results;
    assert!(matches!(outcomes[0].outcome, CellOutcome::Measure(_)));
    match &outcomes[1].outcome {
        CellOutcome::Aborted { cause } => {
            assert!(cause.starts_with("panic:"), "cause: {cause}");
            assert!(cause.contains("step_mv"), "cause: {cause}");
        }
        other => panic!("expected abort, got {other:?}"),
    }
    assert_eq!(outcomes[1].attempts, 1, "panics are not retried");
    assert!(matches!(outcomes[2].outcome, CellOutcome::Measure(_)));

    // The aborted cell is part of the deterministic payload.
    let csv = sup.report.to_csv();
    assert!(csv.contains("aborted,panic:"), "csv: {csv}");
}

#[test]
fn interrupted_plus_resume_merges_to_uninterrupted_bytes() {
    let plan = faulty_plan(42);
    // The reference: one uninterrupted supervised run, no journal.
    let straight = run_supervised(&plan, 1, &SupervisorConfig::default(), None, None)
        .unwrap()
        .report;
    // The rescue cell degrades, so a degraded outcome goes through the
    // journal: written before the halt at jobs 4, read back on resume.
    assert!(matches!(
        straight.results[2].outcome,
        CellOutcome::Degraded { .. }
    ));
    let straight = straight.to_csv();
    assert!(!straight.is_empty());

    for (jobs, kill_at) in [(1usize, 2usize), (4, 3)] {
        let path = temp_journal(&format!("resume-j{jobs}"));

        // First run: killed after `kill_at` newly journaled cells.
        let halted = run_supervised(
            &plan,
            jobs,
            &SupervisorConfig {
                halt_after: Some(kill_at),
                ..SupervisorConfig::default()
            },
            Some(&JournalSpec::new(&path, false)),
            None,
        )
        .unwrap();
        assert!(halted.interrupted, "jobs={jobs}");
        assert_eq!(halted.report.results.len(), kill_at);

        // Second run: --resume skips the journaled prefix and completes.
        let resumed = run_supervised(
            &plan,
            jobs,
            &SupervisorConfig::default(),
            Some(&JournalSpec::new(&path, true)),
            None,
        )
        .unwrap();
        assert!(!resumed.interrupted);
        assert_eq!(resumed.resumed_cells, kill_at, "jobs={jobs}");
        assert_eq!(
            resumed.report.to_csv(),
            straight,
            "resumed payload diverged at jobs={jobs}"
        );

        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn resume_refuses_a_different_plans_journal() {
    let path = temp_journal("mismatch");
    run_supervised(
        &faulty_plan(1),
        1,
        &SupervisorConfig {
            halt_after: Some(1),
            ..SupervisorConfig::default()
        },
        Some(&JournalSpec::new(&path, false)),
        None,
    )
    .unwrap();
    // The same cells without the injected bus faults: same seeds, labels
    // and actions, different results.
    let mut fault_free = CampaignPlan::new(1);
    for cell in faulty_plan(1).cells() {
        fault_free.push(CellSpec {
            config: AcceleratorConfig {
                bus_faults: BusFaultProfile::none(),
                ..cell.config
            },
            ..cell.clone()
        });
    }
    for plan in [faulty_plan(2), fault_free] {
        let err = run_supervised(
            &plan,
            1,
            &SupervisorConfig::default(),
            Some(&JournalSpec::new(&path, true)),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, SupervisorError::Journal(_)), "{err}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_rejects_an_entry_without_its_telemetry_blob() {
    let mut plan = CampaignPlan::new(29);
    plan.push(measure_cell(BenchmarkId::VggNet, 0, None));
    plan.push(measure_cell(BenchmarkId::VggNet, 1, None));
    let path = temp_journal("no-telem");
    let halted = run_supervised(
        &plan,
        1,
        &SupervisorConfig {
            halt_after: Some(1),
            ..SupervisorConfig::default()
        },
        Some(&JournalSpec::new(&path, false)),
        None,
    )
    .unwrap();
    assert!(halted.interrupted);
    let journal = std::fs::read_to_string(&path).unwrap();
    let (header, entry) = journal.trim_end().split_once('\n').unwrap();
    let (payload, _) = entry
        .rsplit_once(" telem=")
        .expect("every written entry carries its telemetry blob");
    let past_the_plan = format!("cell 2 {}", entry.strip_prefix("cell 0 ").unwrap());
    // Hand-edited or corrupted entries: the blob cut off and a blob that
    // does not decode (resuming either would report all-zero telemetry
    // for cell 0), and a whole entry re-indexed past the plan's last cell.
    for (damaged, cell) in [
        (payload.to_string(), 0),
        (format!("{payload} telem=1,2,3"), 0),
        (past_the_plan, 2),
    ] {
        std::fs::write(&path, format!("{header}\n{damaged}\n")).unwrap();
        let err = run_supervised(
            &plan,
            1,
            &SupervisorConfig::default(),
            Some(&JournalSpec::new(&path, true)),
            None,
        )
        .unwrap_err();
        assert!(
            err.to_string()
                .contains(&format!("journal entry for cell {cell} is malformed")),
            "{err}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn crashing_cell_is_retried_to_exhaustion_with_attempts_recorded() {
    // 530 mV is below Vcrash on every board: each attempt brings up a
    // fresh board (the power cycle), commands the voltage, hangs, and the
    // supervisor retries until the budget runs out.
    let mut plan = CampaignPlan::new(5);
    plan.push(measure_cell(BenchmarkId::VggNet, 0, Some(530.0)));
    plan.push(measure_cell(BenchmarkId::VggNet, 1, None));

    let config = SupervisorConfig {
        max_attempts: 3,
        ..SupervisorConfig::default()
    };
    let sup = run_supervised(&plan, 1, &config, None, None).unwrap();
    let crashed = &sup.report.results[0];
    assert_eq!(crashed.attempts, 3, "retried to the attempt budget");
    match &crashed.outcome {
        CellOutcome::Aborted { cause } => {
            assert!(
                cause.starts_with("retry budget exhausted after 3 attempts:"),
                "cause: {cause}"
            );
            assert!(cause.contains("530 mV"), "cause: {cause}");
        }
        other => panic!("expected abort, got {other:?}"),
    }
    assert!(matches!(
        sup.report.results[1].outcome,
        CellOutcome::Measure(_)
    ));
    let retried = sup.report.results.iter().filter(|r| r.attempts > 1);
    assert_eq!(retried.count(), 1);
}

#[test]
fn cycle_budget_reaps_runaway_cells_deterministically() {
    // A long sweep costs far more cycles than one tiny measurement; a
    // small budget kills the former and spares the latter.
    let mut plan = CampaignPlan::new(23);
    plan.push(long_sweep_cell(tiny_config(BenchmarkId::VggNet, 0)));
    plan.push(measure_cell(BenchmarkId::VggNet, 1, None));

    let config = SupervisorConfig {
        max_attempts: 2,
        cycle_budget: Some(100_000),
        ..SupervisorConfig::default()
    };
    let sup = run_supervised(&plan, 2, &config, None, None).unwrap();
    let reaped = &sup.report.results[0];
    assert_eq!(reaped.attempts, 2, "deadline exceeded on both attempts");
    match &reaped.outcome {
        CellOutcome::Aborted { cause } => {
            assert!(cause.contains("cycle budget"), "cause: {cause}")
        }
        other => panic!("expected abort, got {other:?}"),
    }
    assert!(matches!(
        sup.report.results[1].outcome,
        CellOutcome::Measure(_)
    ));
}

#[test]
fn wall_clock_watchdog_reaps_hung_cells() {
    // A paper-scale sweep takes seconds; a 10 ms cap fires first. The
    // reaped attempt's thread is detached and finishes on its own.
    let mut plan = CampaignPlan::new(29);
    plan.push(long_sweep_cell(AcceleratorConfig {
        eval_images: 32,
        repetitions: 1,
        scale: redvolt::nn::models::ModelScale::Paper,
        ..AcceleratorConfig::tiny(BenchmarkId::GoogleNet)
    }));
    let config = SupervisorConfig {
        max_attempts: 2,
        wall_cap: Duration::from_millis(10),
        ..SupervisorConfig::default()
    };
    let sup = run_supervised(&plan, 1, &config, None, None).unwrap();
    let reaped = &sup.report.results[0];
    assert_eq!(reaped.attempts, 2);
    assert_eq!(
        reaped.outcome,
        CellOutcome::Aborted {
            cause: "watchdog: wall-clock cap exceeded".to_string()
        }
    );
}

#[test]
fn empty_plan_supervises_cleanly() {
    let plan = CampaignPlan::new(0);
    for jobs in [0, 1, 4] {
        let sup = run_supervised(&plan, jobs, &SupervisorConfig::default(), None, None).unwrap();
        assert!(sup.report.results.is_empty());
        assert_eq!(sup.report.to_csv(), "");
        assert!(!sup.interrupted);
    }
}
