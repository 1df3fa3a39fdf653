//! The acceptance criterion for the parallel campaign executor: the
//! serialized science payload of a [`CampaignPlan`] is a pure function of
//! the plan — byte-identical for every `--jobs` value and across repeated
//! runs. Each cell derives its RNG seed from `(master_seed, cell_index)`,
//! so nothing the scheduler does (worker count, interleaving, load
//! balance) can leak into the results.

use redvolt::core::bench_suite::BenchmarkId;
use redvolt::core::executor::{CampaignPlan, CellAction, CellOutcome, CellSpec};
use redvolt::core::experiment::AcceleratorConfig;
use redvolt::core::sweep::SweepConfig;
use redvolt_faults::bus::BusFaultProfile;
use redvolt_nn::abft::DefenseMode;

/// A small mixed-action plan covering every [`CellAction`] variant: a
/// sweep grid over two benchmarks × two boards, plus a governor cell and
/// two measurement cells.
fn mixed_plan(master_seed: u64) -> CampaignPlan {
    let base = AcceleratorConfig {
        eval_images: 12,
        repetitions: 2,
        ..AcceleratorConfig::tiny(BenchmarkId::VggNet)
    };
    let sweep = SweepConfig {
        start_mv: 620.0,
        stop_mv: 560.0,
        step_mv: 20.0,
        images: 12,
    };
    let mut plan = CampaignPlan::sweep_grid(
        master_seed,
        &[BenchmarkId::GoogleNet, BenchmarkId::AlexNet],
        &[0, 1],
        base,
        sweep,
    );
    plan.push(CellSpec {
        config: base,
        action: CellAction::Governor {
            batch_images: 8,
            batches: 6,
        },
        force_temp_c: None,
    });
    plan.push(CellSpec {
        config: base,
        action: CellAction::Measure {
            vccint_mv: None,
            images: 12,
        },
        force_temp_c: None,
    });
    plan.push(CellSpec {
        config: base,
        action: CellAction::Measure {
            vccint_mv: Some(600.0),
            images: 12,
        },
        force_temp_c: Some(45.0),
    });
    plan
}

#[test]
fn campaign_results_are_identical_for_every_job_count() {
    let plan = mixed_plan(42);
    let serial = plan.run_sharded(1, 0).unwrap().to_csv();
    for jobs in [2, 8] {
        let parallel = plan.run_sharded(jobs, 0).unwrap().to_csv();
        assert_eq!(
            serial, parallel,
            "jobs={jobs} diverged from jobs=1 — scheduling leaked into results"
        );
    }
}

#[test]
fn campaign_results_are_stable_across_repeated_runs() {
    let plan = mixed_plan(7);
    for jobs in [1, 2] {
        let first = plan.run_sharded(jobs, 0).unwrap().to_csv();
        let second = plan.run_sharded(jobs, 0).unwrap().to_csv();
        assert_eq!(first, second, "jobs={jobs} is not reproducible run-to-run");
    }
}

#[test]
fn different_master_seeds_give_different_payloads() {
    // Sanity check that the determinism above is not vacuous: the payload
    // actually depends on the master seed (so the per-cell seeds really
    // flow into the simulation, rather than everything being constant).
    let a = mixed_plan(1).run_sharded(2, 0).unwrap().to_csv();
    let b = mixed_plan(2).run_sharded(2, 0).unwrap().to_csv();
    assert_ne!(a, b, "payload ignores the master seed");
}

/// A small campaign living deep in the faulting regime: heavy PMBus bus
/// faults on the host adapter plus sweep/measure points down at voltages
/// where the DPU injects weight/accumulator/activation flips, across two
/// benchmarks and a low-precision (INT6, refit-readout) variant.
fn heavy_fault_plan(master_seed: u64) -> CampaignPlan {
    heavy_fault_plan_with(master_seed, DefenseMode::Off, false)
}

fn heavy_fault_plan_with(master_seed: u64, defense: DefenseMode, governor: bool) -> CampaignPlan {
    let base = AcceleratorConfig {
        eval_images: 12,
        repetitions: 2,
        bus_faults: BusFaultProfile::heavy(),
        defense,
        governor,
        ..AcceleratorConfig::tiny(BenchmarkId::VggNet)
    };
    let sweep = SweepConfig {
        start_mv: 620.0,
        stop_mv: 545.0,
        step_mv: 25.0,
        images: 12,
    };
    let mut plan = CampaignPlan::sweep_grid(
        master_seed,
        &[BenchmarkId::VggNet, BenchmarkId::GoogleNet],
        &[0],
        base,
        sweep,
    );
    plan.push(CellSpec {
        config: base,
        action: CellAction::Measure {
            vccint_mv: Some(550.0),
            images: 12,
        },
        force_temp_c: None,
    });
    plan.push(CellSpec {
        config: AcceleratorConfig { bits: 6, ..base },
        action: CellAction::Measure {
            vccint_mv: Some(560.0),
            images: 12,
        },
        force_temp_c: Some(45.0),
    });
    plan
}

/// Golden pin for the kernel rework: the heavy-fault campaign payload was
/// captured with the naive (pre-im2col) kernels and must stay
/// byte-identical through every optimization of the inference hot path.
/// Regenerate (only for changes that legitimately alter the science
/// payload) with `REDVOLT_UPDATE_GOLDEN=1 cargo test --test determinism`.
#[test]
fn heavy_fault_campaign_matches_golden() {
    let csv = heavy_fault_plan(1906).run_sharded(2, 0).unwrap().to_csv();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/campaign_heavy_fault.csv"
    );
    if std::env::var_os("REDVOLT_UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &csv).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden file missing; regenerate with REDVOLT_UPDATE_GOLDEN=1");
    assert_eq!(
        csv, golden,
        "heavy-fault campaign payload diverged from the pre-rework golden"
    );
}

/// The workload cache is a pure bring-up accelerator: serving a prepared
/// workload from the cache must leave the science payload byte-identical
/// to preparing every cell from scratch, at any job count.
#[test]
fn workload_cache_does_not_affect_campaign_payload() {
    use redvolt::core::workload_cache;

    let plan = heavy_fault_plan(1906);

    workload_cache::reset();
    workload_cache::set_enabled(false);
    let cold = plan.run_sharded(1, 0).unwrap().to_csv();

    workload_cache::reset();
    let warm_serial = plan.run_sharded(1, 0).unwrap().to_csv();
    let warm_parallel = plan.run_sharded(4, 0).unwrap().to_csv();

    assert_eq!(cold, warm_serial, "cache on/off changed the payload");
    assert_eq!(cold, warm_parallel, "cached parallel run diverged");

    // Non-vacuity: prove the cache is actually live in this process with
    // a controlled lookup pair on a config no other test uses. Counter
    // *deltas* from concurrent tests in this binary only add, so the
    // assertions are monotone (>=), not exact.
    let probe = redvolt::core::bench_suite::WorkloadConfig {
        seed: 777_001,
        ..redvolt::core::bench_suite::WorkloadConfig::tiny(BenchmarkId::VggNet)
    };
    let before = workload_cache::stats();
    workload_cache::get_or_prepare(probe).unwrap();
    workload_cache::get_or_prepare(probe).unwrap();
    let after = workload_cache::stats();
    assert!(after.misses > before.misses, "first probe lookup must miss");
    assert!(after.hits > before.hits, "second probe lookup must hit");
}

#[test]
fn report_metadata_reflects_the_schedule_without_affecting_payload() {
    let plan = mixed_plan(3);
    let report = plan.run_sharded(2, 0).unwrap();
    assert_eq!(report.jobs, 2);
    assert_eq!(report.results.len(), plan.len());
    // Results come back merged in plan order regardless of which worker
    // ran them.
    for (i, r) in report.results.iter().enumerate() {
        assert_eq!(r.index, i);
        assert!(r.worker < 2);
    }
    // Timing lives in the timing table, never in the CSV payload.
    let csv = report.to_csv();
    assert!(!csv.contains("Seconds"));
    assert!(report.timing_table().to_text().contains("Seconds"));
}

/// The issue's acceptance criterion for the SDC defense: the same
/// heavy-fault sub-Vmin campaign, run with `--defense correct
/// --governor`, must finish with zero silently-corrupted measurement
/// payloads — every measure cell either reports a clean point or comes
/// back as [`CellOutcome::Degraded`] whose settled measurement is clean
/// and whose rescue trace records the intervention. The defended payload
/// stays a pure function of (seed, plan): byte-identical across job
/// counts and pinned by its own golden (the undefended golden above is
/// untouched, proving `--defense off` still reproduces the faulty
/// bytes). Regenerate with `REDVOLT_UPDATE_GOLDEN=1 cargo test --test
/// determinism`.
#[test]
fn defended_campaign_degrades_instead_of_corrupting() {
    let plan = heavy_fault_plan_with(1906, DefenseMode::Correct, true);
    let report = plan.run_sharded(1, 0).unwrap();
    assert_eq!(
        report.to_csv(),
        plan.run_sharded(4, 0).unwrap().to_csv(),
        "defended campaign is not jobs-invariant"
    );

    let mut degraded = 0;
    for r in &report.results {
        match &r.outcome {
            CellOutcome::Aborted { cause } => panic!("cell {} aborted: {cause}", r.index),
            CellOutcome::Degraded { measurement, trace } => {
                degraded += 1;
                assert!(trace.rescued, "cell {} returned unconfirmed", r.index);
                assert!(trace.intervened());
                assert_eq!(
                    measurement.injected_faults, 0,
                    "cell {} settled on a faulting point",
                    r.index
                );
            }
            CellOutcome::Measure(m) => {
                assert_eq!(
                    m.injected_faults, 0,
                    "cell {} delivered a corrupt payload without degrading",
                    r.index
                );
            }
            _ => {}
        }
    }
    assert!(
        degraded >= 1,
        "the sub-Vmin measure cells must trip the governor"
    );

    let csv = report.to_csv();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/campaign_defended.csv"
    );
    if std::env::var_os("REDVOLT_UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &csv).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden file missing; regenerate with REDVOLT_UPDATE_GOLDEN=1");
    assert_eq!(csv, golden, "defended campaign payload diverged");
}

/// Tentpole invariance for the two-level engine: splitting a cell's image
/// batches across shard workers must be invisible in the science payload.
/// Every image derives its fault stream from `(cell seed, image index,
/// attempt)`, so the payload is byte-identical across the full
/// `jobs × image_jobs` grid — including deep in the faulting regime
/// (heavy PMBus faults, sub-Vmin DPU flips) and with the full defense
/// stack armed (`--defense correct --governor`, whose ECC/ABFT/governor
/// decisions all consume the same per-image streams).
#[test]
fn image_sharding_is_payload_invariant_under_heavy_faults() {
    for (tag, plan) in [
        ("undefended", heavy_fault_plan(1906)),
        (
            "defended",
            heavy_fault_plan_with(1906, DefenseMode::Correct, true),
        ),
    ] {
        let baseline = plan.run_sharded(1, 1).unwrap().to_csv();
        for jobs in [1, 4] {
            for image_jobs in [1, 2, 8] {
                if (jobs, image_jobs) == (1, 1) {
                    continue;
                }
                let csv = plan.run_sharded(jobs, image_jobs).unwrap().to_csv();
                assert_eq!(
                    baseline, csv,
                    "{tag}: jobs={jobs} image_jobs={image_jobs} diverged from (1, 1)"
                );
            }
        }
    }
}

/// Image sharding must also be invisible downstream of the executor: the
/// supervised campaign's write-ahead journal bytes (at one cell worker,
/// where completion order equals plan order) and the merged telemetry
/// exports stay byte-identical for every shard count. Cell-level
/// parallelism may reorder journal *lines* (completion order), so journal
/// bytes are pinned at `jobs = 1` while payload and Prometheus exposition
/// are pinned across the whole grid.
#[test]
fn image_sharding_is_invisible_in_journal_and_telemetry() {
    use redvolt::core::supervisor::{run_supervised, JournalSpec, SupervisorConfig};
    use redvolt::core::telemetry::CampaignTelemetry;

    let plan = heavy_fault_plan(1907);
    let mut baseline: Option<(String, String, String)> = None;
    for (jobs, image_jobs) in [(1, 1), (1, 2), (1, 8), (4, 2), (4, 8)] {
        let path = {
            let dir = std::env::temp_dir().join("redvolt-determinism-tests");
            std::fs::create_dir_all(&dir).unwrap();
            dir.join(format!(
                "shard-{jobs}-{image_jobs}-{}.journal",
                std::process::id()
            ))
        };
        let config = SupervisorConfig {
            image_jobs,
            ..SupervisorConfig::default()
        };
        let sup = run_supervised(
            &plan,
            jobs,
            &config,
            Some(&JournalSpec::new(&path, false)),
            None,
        )
        .unwrap();
        let journal = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let payload = sup.report.to_csv();
        let prom = CampaignTelemetry::collect(&sup.report).to_prometheus();
        match &baseline {
            None => baseline = Some((payload, journal, prom)),
            Some((p0, j0, t0)) => {
                assert_eq!(
                    p0, &payload,
                    "jobs={jobs} image_jobs={image_jobs}: payload diverged"
                );
                assert_eq!(
                    t0, &prom,
                    "jobs={jobs} image_jobs={image_jobs}: telemetry diverged"
                );
                if jobs == 1 {
                    assert_eq!(
                        j0, &journal,
                        "image_jobs={image_jobs}: journal bytes diverged at one worker"
                    );
                }
            }
        }
    }
}

/// Property sweep of the shard invariance over random master seeds: the
/// vendored proptest RNG draws the seeds deterministically, so the sweep
/// is reproducible while still exercising fresh fault streams each case.
/// Kept to a handful of cases — every case runs four campaigns.
#[test]
fn image_shard_invariance_holds_across_master_seeds() {
    use proptest::TestRng;

    for case in 0..4u32 {
        let mut rng = TestRng::for_case("determinism::image_shard_invariance", case);
        let master_seed = rng.next_below(1 << 48);
        let base = AcceleratorConfig {
            eval_images: 8,
            repetitions: 1,
            bus_faults: BusFaultProfile::heavy(),
            ..AcceleratorConfig::tiny(BenchmarkId::VggNet)
        };
        let mut plan = CampaignPlan::sweep_grid(
            master_seed,
            &[BenchmarkId::VggNet],
            &[0],
            base,
            SweepConfig {
                start_mv: 600.0,
                stop_mv: 560.0,
                step_mv: 20.0,
                images: 8,
            },
        );
        plan.push(CellSpec {
            config: base,
            action: CellAction::Measure {
                vccint_mv: Some(550.0),
                images: 8,
            },
            force_temp_c: None,
        });
        let baseline = plan.run_sharded(1, 1).unwrap().to_csv();
        for (jobs, image_jobs) in [(1, 2), (1, 8), (4, 3)] {
            assert_eq!(
                baseline,
                plan.run_sharded(jobs, image_jobs).unwrap().to_csv(),
                "seed {master_seed}: jobs={jobs} image_jobs={image_jobs} diverged"
            );
        }
    }
}
