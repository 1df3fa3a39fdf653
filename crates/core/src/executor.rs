//! Parallel campaign executor with deterministic sharding.
//!
//! The paper's contribution is a measurement *campaign*: three boards ×
//! six benchmarks × a 5 mV-step voltage scan past Vcrash, every point
//! averaging repeated measurements. Each cell of that grid — one
//! `(board_sample, benchmark, config)` combination driven through one
//! action — is independent of every other cell, so the grid parallelizes
//! perfectly across cores. This module provides:
//!
//! * [`CampaignPlan`] — an ordered list of [`CellSpec`]s. The plan order
//!   is the public contract: results always come back merged in plan
//!   order, whatever the scheduling.
//! * Deterministic seeding — cell `i` runs with
//!   [`redvolt_num::rng::derive_stream_seed`]`(master_seed, i)`, so its
//!   randomness is a pure function of the plan, independent of worker
//!   count and of which worker picked it up. `tests/determinism.rs` pins
//!   byte-identical serialized results for `jobs ∈ {1, 2, 8}`.
//! * [`CampaignPlan::run_sharded`] — shards cells across
//!   `std::thread::scope` workers (no dependencies beyond std; the
//!   registry is offline-hostile) through
//!   [`redvolt_num::par::run_indexed`], the one deterministic fork/join
//!   that also shards each cell's images, and records per-cell wall-clock
//!   timing so campaign speedups can be tracked in benchmarks.

use crate::bench_suite::{benchmark_index, BenchmarkId};
use crate::experiment::{Accelerator, AcceleratorConfig, MeasureError, Measurement};
use crate::governor::{run_adaptive_rescue, run_governor, GovernorTrace, RescueTrace};
use crate::report::Table;
use crate::sweep::{voltage_sweep, SweepConfig, VoltageSweep};
use crate::telemetry::CellTelemetry;
use redvolt_num::par;
use redvolt_num::rng::derive_stream_seed;
use std::fmt;
use std::time::{Duration, Instant};

/// What one campaign cell does with its accelerator.
#[derive(Debug, Clone, PartialEq)]
pub enum CellAction {
    /// Run a downward voltage sweep.
    Sweep(SweepConfig),
    /// Run the closed-loop voltage governor for a number of batches.
    Governor {
        /// Images per batch.
        batch_images: usize,
        /// Batches to run.
        batches: u32,
    },
    /// Take one averaged measurement, optionally at a commanded voltage
    /// (nominal when `None`).
    Measure {
        /// Voltage to command first, mV.
        vccint_mv: Option<f64>,
        /// Evaluation images.
        images: usize,
    },
}

/// One independent unit of campaign work.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Accelerator to bring up. The `seed` field is treated as a default:
    /// [`CampaignPlan::cell`] overrides it with the seed derived from
    /// `(master_seed, cell_index)`.
    pub config: AcceleratorConfig,
    /// The work to perform.
    pub action: CellAction,
    /// Board temperature to force before running (chamber mode), if any.
    pub force_temp_c: Option<f64>,
}

impl CellSpec {
    /// Human-readable cell label, e.g. `googlenet/b0`.
    pub fn label(&self) -> String {
        format!(
            "{}/b{}",
            self.config.benchmark.name(),
            self.config.board_sample
        )
    }
}

/// What a cell produced.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// From [`CellAction::Sweep`].
    Sweep(VoltageSweep),
    /// From [`CellAction::Governor`].
    Governor(GovernorTrace),
    /// From [`CellAction::Measure`].
    Measure(Measurement),
    /// From [`CellAction::Measure`] under an armed adaptive governor
    /// ([`AcceleratorConfig::governor`]): the commanded operating point
    /// produced SDC/ECC events, so the governor walked it along the
    /// mitigation ladder and reports a *clean* measurement at the
    /// degraded point together with the rescue trace — graceful
    /// degradation instead of a silently-corrupted payload.
    Degraded {
        /// The measurement at the settled (rescued) operating point.
        measurement: Measurement,
        /// The probe windows that led there.
        trace: RescueTrace,
    },
    /// The cell did not complete: it panicked, exhausted its retry
    /// budget, or hit its watchdog deadline. Recorded in the report (with
    /// a deterministic cause string) instead of poisoning the campaign —
    /// the supervisor's contract (see `core::supervisor`).
    Aborted {
        /// Deterministic, single-line description of why the cell died.
        cause: String,
    },
}

impl CellOutcome {
    /// The sweep, if this outcome is one.
    pub fn as_sweep(&self) -> Option<&VoltageSweep> {
        match self {
            CellOutcome::Sweep(s) => Some(s),
            _ => None,
        }
    }

    /// Canonical CSV rows for the deterministic fields of the outcome
    /// (no timing — wall clock is reported separately, precisely so the
    /// science payload can be compared byte-for-byte across runs).
    fn csv_rows(&self) -> Vec<String> {
        match self {
            CellOutcome::Sweep(s) => {
                let mut rows: Vec<String> = s.points.iter().map(Measurement::csv_row).collect();
                match s.crashed_at_mv {
                    Some(mv) => rows.push(format!("crashed_at,{mv:?}")),
                    None => rows.push("crashed_at,none".to_string()),
                }
                rows
            }
            CellOutcome::Governor(t) => t.csv_rows(),
            CellOutcome::Measure(m) => vec![m.csv_row()],
            CellOutcome::Degraded { measurement, trace } => {
                let mut rows = trace.csv_rows();
                rows.push(format!("degraded,{}", measurement.csv_row()));
                rows
            }
            CellOutcome::Aborted { cause } => {
                vec![format!("aborted,{}", cause.replace(['\n', '\r'], " "))]
            }
        }
    }
}

/// One executed cell: its plan position, payload, and timing.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Position in the plan (results are always merged in this order).
    pub index: usize,
    /// The spec that ran (with the derived seed stamped into `config`).
    pub spec: CellSpec,
    /// What the cell produced.
    pub outcome: CellOutcome,
    /// Wall-clock time the cell took.
    pub elapsed: Duration,
    /// Which worker executed it (informational; never affects results).
    pub worker: usize,
    /// How many attempts the cell took (1 = first try; >1 means the
    /// supervisor retried it after crashes, hangs, or bus-fault
    /// exhaustion).
    pub attempts: u32,
    /// Deterministic per-cell telemetry (cycles, faults, bus health,
    /// spans), drained from the cell's accelerator. Default (all zero)
    /// when the cell never brought up.
    pub telemetry: CellTelemetry,
}

/// A campaign cell failed with a non-crash error.
#[derive(Debug)]
pub struct CampaignError {
    /// Plan index of the failing cell.
    pub index: usize,
    /// Label of the failing cell.
    pub label: String,
    /// The underlying error.
    pub source: MeasureError,
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "campaign cell {} ({}): {}",
            self.index, self.label, self.source
        )
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// An ordered set of independent campaign cells plus the master seed their
/// per-cell seeds derive from.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignPlan {
    /// Master seed; cell `i` runs with `derive_stream_seed(master_seed, i)`.
    pub master_seed: u64,
    cells: Vec<CellSpec>,
}

impl CampaignPlan {
    /// An empty plan.
    pub fn new(master_seed: u64) -> Self {
        CampaignPlan {
            master_seed,
            cells: Vec::new(),
        }
    }

    /// Appends a cell, returning its plan index.
    pub fn push(&mut self, cell: CellSpec) -> usize {
        self.cells.push(cell);
        self.cells.len() - 1
    }

    /// The full (benchmark × board) sweep grid the paper's Figs. 3–6 scan,
    /// enumerated benchmark-major in [`BenchmarkId::ALL`] order then board
    /// order — the canonical cell ordering the figure tables share.
    pub fn sweep_grid(
        master_seed: u64,
        benchmarks: &[BenchmarkId],
        boards: &[u32],
        base: AcceleratorConfig,
        sweep: SweepConfig,
    ) -> Self {
        let mut plan = CampaignPlan::new(master_seed);
        let mut ordered = benchmarks.to_vec();
        ordered.sort_by_key(|&k| benchmark_index(k));
        for benchmark in ordered {
            for &board in boards {
                plan.push(CellSpec {
                    config: AcceleratorConfig {
                        benchmark,
                        board_sample: board,
                        ..base
                    },
                    action: CellAction::Sweep(sweep),
                    force_temp_c: None,
                });
            }
        }
        plan
    }

    /// The cells, in plan order.
    pub fn cells(&self) -> &[CellSpec] {
        &self.cells
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the plan has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The derived seed cell `index` runs with.
    pub fn cell_seed(&self, index: usize) -> u64 {
        derive_stream_seed(self.master_seed, index as u64)
    }

    /// Cell `index` as it runs: its spec with the derived seed stamped
    /// into `config`.
    pub fn cell(&self, index: usize) -> CellSpec {
        CellSpec {
            config: self.cells[index].config.with_seed(self.cell_seed(index)),
            ..self.cells[index].clone()
        }
    }

    /// Executes every cell and merges the results in plan order, with
    /// `jobs` cell workers and `image_jobs` image-shard workers per cell —
    /// the two levels of the scheduler. `jobs == 0` means the host's
    /// available parallelism, clamped to the cell count.
    /// `image_jobs == 0` derives the second level automatically: whatever
    /// share of the requested worker budget the cell level leaves idle
    /// (`total / cell_jobs`), so a 4-cell sweep on a 16-core host runs 4
    /// cells × 4 image shards instead of idling 12 cores. Payloads are
    /// byte-identical for every `(jobs, image_jobs)` combination: each
    /// cell's seed depends only on `(master_seed, index)`, cells share no
    /// state, and per-image fault streams derive from `(cell seed, image
    /// index, attempt)`, never from scheduling.
    ///
    /// # Errors
    ///
    /// If cells fail with non-crash errors, the first failure *in plan
    /// order* is returned (also independent of scheduling). A board hang
    /// during a sweep is not an error — it is recorded in the sweep.
    pub fn run_sharded(
        &self,
        jobs: usize,
        image_jobs: usize,
    ) -> Result<CampaignReport, CampaignError> {
        let started = Instant::now();
        let (jobs, image_jobs) = two_level_jobs(jobs, self.cells.len(), image_jobs);
        let mut workers: Vec<usize> = (0..jobs).collect();
        let outcomes = par::run_indexed(self.cells.len(), &mut workers, |index, &mut worker| {
            let cell_started = Instant::now();
            let spec = self.cell(index);
            let (outcome, telemetry) = execute_cell_with(&spec, None, image_jobs);
            (spec, outcome, telemetry, cell_started.elapsed(), worker)
        });
        let mut results = Vec::with_capacity(outcomes.len());
        for (index, (spec, outcome, telemetry, elapsed, worker)) in outcomes.into_iter().enumerate()
        {
            match outcome {
                Ok(outcome) => results.push(CellResult {
                    index,
                    spec,
                    outcome,
                    elapsed,
                    worker,
                    attempts: 1,
                    telemetry,
                }),
                Err(source) => {
                    return Err(CampaignError {
                        index,
                        label: spec.label(),
                        source,
                    })
                }
            }
        }
        Ok(CampaignReport {
            jobs,
            image_jobs,
            elapsed: started.elapsed(),
            results,
        })
    }
}

/// Splits a worker budget across the two scheduling levels. The cell
/// level takes the [`par::resolve_workers`] count of `jobs`, clamped to
/// `[1, cells]` (an empty plan still "runs" on one no-op worker); an
/// explicit `image_jobs` passes through, and `0` derives it as the
/// per-cell share of the *requested* budget the cell level cannot use —
/// `max(1, total / cell_jobs)` — so surplus workers shard images instead
/// of idling.
pub fn two_level_jobs(jobs: usize, cells: usize, image_jobs: usize) -> (usize, usize) {
    let total = par::resolve_workers(jobs);
    let cell_jobs = total.min(cells.max(1));
    let image_jobs = if image_jobs == 0 {
        (total / cell_jobs).max(1)
    } else {
        image_jobs
    };
    (cell_jobs, image_jobs)
}

/// Brings up the cell's accelerator and drives its action once — the unit
/// of work both [`CampaignPlan::run_sharded`] and the supervisor's per-attempt
/// worker execute — with a simulated-cycle budget installed before the
/// action runs (the supervisor's deterministic watchdog deadline) and an
/// image-shard worker count for the cell's batches (1 = sequential; an
/// execution parameter, never part of the cell's identity). Alongside the
/// outcome it returns the attempt's drained telemetry (default when
/// bring-up itself failed, so there is nothing to drain).
pub(crate) fn execute_cell_with(
    spec: &CellSpec,
    cycle_budget: Option<u64>,
    image_jobs: usize,
) -> (Result<CellOutcome, MeasureError>, CellTelemetry) {
    let mut acc = match Accelerator::bring_up(&spec.config) {
        Ok(acc) => acc,
        Err(e) => return (Err(e), CellTelemetry::default()),
    };
    acc.set_cycle_budget(cycle_budget);
    acc.set_image_jobs(image_jobs);
    if let Some(temp) = spec.force_temp_c {
        acc.board_mut().thermal_mut().force_temperature(temp);
    }
    let outcome = match &spec.action {
        CellAction::Sweep(cfg) => voltage_sweep(&mut acc, cfg).map(CellOutcome::Sweep),
        CellAction::Governor {
            batch_images,
            batches,
        } => run_governor(&mut acc, *batch_images, *batches).map(CellOutcome::Governor),
        CellAction::Measure { vccint_mv, images } => {
            let set = match vccint_mv {
                Some(mv) => acc.set_vccint_mv(*mv),
                None => Ok(()),
            };
            set.and_then(|()| {
                if spec.config.governor {
                    run_adaptive_rescue(&mut acc, *images).map(|(measurement, trace)| {
                        if trace.intervened() {
                            CellOutcome::Degraded { measurement, trace }
                        } else {
                            CellOutcome::Measure(measurement)
                        }
                    })
                } else {
                    acc.measure(*images).map(CellOutcome::Measure)
                }
            })
        }
    };
    let telemetry = acc.take_telemetry();
    (outcome, telemetry)
}

/// A finished campaign: per-cell results in plan order plus timing.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Cell-level worker count the campaign ran with.
    pub jobs: usize,
    /// Image-shard workers per cell (1 = sequential batches).
    pub image_jobs: usize,
    /// Wall-clock time of the whole campaign.
    pub elapsed: Duration,
    /// Per-cell results, merged in plan order.
    pub results: Vec<CellResult>,
}

impl CampaignReport {
    /// Sum of per-cell times — what a single worker would have spent.
    pub fn serial_time(&self) -> Duration {
        self.results.iter().map(|r| r.elapsed).sum()
    }

    /// Observed speedup over a serial execution of the same cells.
    pub fn speedup(&self) -> f64 {
        self.serial_time().as_secs_f64() / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Canonical CSV serialization of every cell's *deterministic* payload
    /// (plan index, label, seed, then outcome rows — no timing). Two runs
    /// of the same plan produce byte-identical output regardless of `jobs`.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for r in &self.results {
            out.push_str(&format!(
                "cell,{},{},{}\n",
                r.index,
                r.spec.label(),
                r.spec.config.seed
            ));
            for row in r.outcome.csv_rows() {
                out.push_str(&row);
                out.push('\n');
            }
        }
        out
    }

    /// Per-cell wall-clock report (worker, seconds) plus the campaign
    /// total, which `repro` prints on stderr. Kept out of
    /// [`CampaignReport::to_csv`] so timing noise never pollutes the
    /// deterministic payload.
    pub fn timing_table(&self) -> Table {
        let mut t = Table::new(
            &format!(
                "Campaign timing: {} cells, {} jobs, {:.2}s wall ({:.2}s serial, {:.2}x)",
                self.results.len(),
                self.jobs,
                self.elapsed.as_secs_f64(),
                self.serial_time().as_secs_f64(),
                self.speedup(),
            ),
            &["Cell", "Label", "Worker", "Seconds"],
        );
        for r in &self.results {
            t.row(&[
                r.index.to_string(),
                r.spec.label(),
                r.worker.to_string(),
                format!("{:.3}", r.elapsed.as_secs_f64()),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redvolt_nn::models::ModelScale;

    fn tiny_cell(benchmark: BenchmarkId, board: u32, action: CellAction) -> CellSpec {
        CellSpec {
            config: AcceleratorConfig {
                board_sample: board,
                ..AcceleratorConfig::tiny(benchmark)
            },
            action,
            force_temp_c: None,
        }
    }

    fn small_sweep() -> SweepConfig {
        SweepConfig {
            start_mv: 850.0,
            stop_mv: 560.0,
            step_mv: 50.0,
            images: 8,
        }
    }

    #[test]
    fn plan_results_arrive_in_plan_order_with_derived_seeds() {
        let mut plan = CampaignPlan::new(42);
        for board in 0..3 {
            plan.push(tiny_cell(
                BenchmarkId::VggNet,
                board,
                CellAction::Measure {
                    vccint_mv: None,
                    images: 8,
                },
            ));
        }
        let report = plan.run_sharded(2, 0).unwrap();
        assert_eq!(report.results.len(), 3);
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.spec.config.board_sample, i as u32);
            assert_eq!(r.spec.config.seed, plan.cell_seed(i));
            assert_eq!(r.spec, plan.cell(i));
        }
        // Derived seeds differ across cells even though the specs share a
        // master seed.
        assert_ne!(
            report.results[0].spec.config.seed,
            report.results[1].spec.config.seed
        );
    }

    #[test]
    fn parallel_run_matches_serial_run_exactly() {
        let mut plan = CampaignPlan::new(7);
        plan.push(tiny_cell(
            BenchmarkId::VggNet,
            0,
            CellAction::Sweep(small_sweep()),
        ));
        plan.push(tiny_cell(
            BenchmarkId::GoogleNet,
            1,
            CellAction::Sweep(small_sweep()),
        ));
        plan.push(tiny_cell(
            BenchmarkId::VggNet,
            2,
            CellAction::Measure {
                vccint_mv: Some(600.0),
                images: 8,
            },
        ));
        let serial = plan.run_sharded(1, 0).unwrap();
        let parallel = plan.run_sharded(3, 0).unwrap();
        assert_eq!(serial.to_csv(), parallel.to_csv());
    }

    #[test]
    fn sweep_grid_enumerates_benchmark_major() {
        let plan = CampaignPlan::sweep_grid(
            1,
            &[BenchmarkId::GoogleNet, BenchmarkId::VggNet],
            &[0, 2],
            AcceleratorConfig::tiny(BenchmarkId::VggNet),
            small_sweep(),
        );
        let labels: Vec<String> = plan.cells().iter().map(CellSpec::label).collect();
        // VGGNet precedes GoogleNet in BenchmarkId::ALL order even though
        // the arguments listed GoogleNet first; boards nest inside each
        // benchmark.
        assert_eq!(
            labels,
            vec!["VGGNet/b0", "VGGNet/b2", "GoogleNet/b0", "GoogleNet/b2"]
        );
    }

    #[test]
    fn forced_temperature_reaches_the_cell_board() {
        let mut plan = CampaignPlan::new(3);
        let mut hot = tiny_cell(
            BenchmarkId::GoogleNet,
            0,
            CellAction::Measure {
                vccint_mv: None,
                images: 8,
            },
        );
        hot.force_temp_c = Some(52.0);
        plan.push(hot.clone());
        hot.force_temp_c = Some(34.0);
        plan.push(hot);
        let report = plan.run_sharded(2, 0).unwrap();
        let temp = |i: usize| match &report.results[i].outcome {
            CellOutcome::Measure(m) => m.junction_c,
            other => panic!("unexpected outcome {other:?}"),
        };
        assert!(temp(0) > temp(1), "hot {} vs cold {}", temp(0), temp(1));
    }

    #[test]
    fn governor_cells_run_in_parallel() {
        let mut plan = CampaignPlan::new(11);
        for board in [0u32, 1] {
            plan.push(CellSpec {
                config: AcceleratorConfig {
                    board_sample: board,
                    eval_images: 32,
                    repetitions: 1,
                    scale: ModelScale::Paper,
                    ..AcceleratorConfig::tiny(BenchmarkId::GoogleNet)
                },
                action: CellAction::Governor {
                    batch_images: 32,
                    batches: 40,
                },
                force_temp_c: None,
            });
        }
        let report = plan.run_sharded(2, 0).unwrap();
        for r in &report.results {
            match &r.outcome {
                CellOutcome::Governor(t) => assert_eq!(t.steps.len(), 40),
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(plan.run_sharded(1, 0).unwrap().to_csv(), report.to_csv());
    }

    #[test]
    fn timing_table_reports_every_cell() {
        let mut plan = CampaignPlan::new(5);
        for board in 0..2 {
            plan.push(tiny_cell(
                BenchmarkId::VggNet,
                board,
                CellAction::Measure {
                    vccint_mv: None,
                    images: 8,
                },
            ));
        }
        let report = plan.run_sharded(2, 0).unwrap();
        assert_eq!(report.timing_table().len(), 2);
        assert!(report.serial_time() >= Duration::ZERO);
        assert!(report.speedup() > 0.0);
    }

    #[test]
    fn empty_plan_runs_cleanly_for_any_jobs() {
        let plan = CampaignPlan::new(9);
        for jobs in [0, 1, 4] {
            let report = plan.run_sharded(jobs, 0).unwrap();
            assert!(report.results.is_empty(), "jobs={jobs}");
            assert_eq!(report.jobs, 1, "empty plan resolves to one worker");
            assert_eq!(report.to_csv(), "");
        }
    }

    #[test]
    fn jobs_zero_means_available_parallelism() {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let cell_jobs = |jobs, cells| two_level_jobs(jobs, cells, 1).0;
        assert_eq!(cell_jobs(0, 1000), cores.min(1000));
        assert_eq!(cell_jobs(0, 1), 1);
        assert_eq!(cell_jobs(3, 2), 2, "jobs clamps to cell count");
        assert_eq!(cell_jobs(5, 0), 1, "empty work resolves to one");
    }

    #[test]
    fn two_level_split_divides_surplus_workers_across_images() {
        // Explicit budgets: cell jobs clamp to the cell count and the surplus
        // becomes image shards when the caller asks for auto (0).
        assert_eq!(two_level_jobs(8, 2, 0), (2, 4));
        assert_eq!(two_level_jobs(8, 8, 0), (8, 1));
        assert_eq!(two_level_jobs(3, 8, 0), (3, 1));
        // An explicit image-shard count passes through untouched.
        assert_eq!(two_level_jobs(8, 2, 3), (2, 3));
        assert_eq!(two_level_jobs(1, 4, 8), (1, 8));
        // jobs == 0 resolves against available parallelism for both levels.
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let (cell_jobs, image_jobs) = two_level_jobs(0, 2, 0);
        assert_eq!(cell_jobs, cores.min(2));
        assert_eq!(image_jobs, (cores / cell_jobs).max(1));
    }

    #[test]
    fn more_jobs_than_cells_runs_cleanly() {
        let mut plan = CampaignPlan::new(13);
        plan.push(tiny_cell(
            BenchmarkId::VggNet,
            0,
            CellAction::Measure {
                vccint_mv: None,
                images: 8,
            },
        ));
        let wide = plan.run_sharded(64, 0).unwrap();
        assert_eq!(wide.jobs, 1, "jobs clamped to cell count");
        assert_eq!(wide.to_csv(), plan.run_sharded(1, 0).unwrap().to_csv());
    }

    #[test]
    fn governed_measure_cell_degrades_instead_of_corrupting() {
        use redvolt_nn::abft::DefenseMode;
        let mut plan = CampaignPlan::new(17);
        plan.push(CellSpec {
            config: AcceleratorConfig {
                eval_images: 16,
                repetitions: 1,
                scale: ModelScale::Paper,
                defense: DefenseMode::Correct,
                governor: true,
                ..AcceleratorConfig::tiny(BenchmarkId::VggNet)
            },
            action: CellAction::Measure {
                vccint_mv: Some(550.0),
                images: 16,
            },
            force_temp_c: None,
        });
        let report = plan.run_sharded(1, 0).unwrap();
        match &report.results[0].outcome {
            CellOutcome::Degraded { measurement, trace } => {
                assert!(trace.rescued);
                assert!(trace.intervened());
                assert_eq!(
                    measurement.injected_faults, 0,
                    "degraded payload must be clean"
                );
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
        let csv = report.to_csv();
        assert!(csv.contains("\nrescue,"), "rescue trace rows missing");
        assert!(csv.contains("\ndegraded,"), "degraded row missing");
    }

    #[test]
    fn aborted_outcome_serializes_single_line() {
        let outcome = CellOutcome::Aborted {
            cause: "panic: step_mv must be\npositive and finite".to_string(),
        };
        let rows = outcome.csv_rows();
        assert_eq!(
            rows,
            vec!["aborted,panic: step_mv must be positive and finite"]
        );
        assert!(outcome.as_sweep().is_none());
    }

    #[test]
    fn out_of_window_cell_reports_plan_ordered_error() {
        let mut plan = CampaignPlan::new(1);
        plan.push(tiny_cell(
            BenchmarkId::VggNet,
            0,
            CellAction::Measure {
                vccint_mv: Some(1200.0), // rejected by the PMBus window
                images: 8,
            },
        ));
        plan.push(tiny_cell(
            BenchmarkId::VggNet,
            1,
            CellAction::Measure {
                vccint_mv: Some(2000.0), // also rejected, but later in plan
                images: 8,
            },
        ));
        for jobs in [1, 2] {
            let err = plan.run_sharded(jobs, 0).unwrap_err();
            assert_eq!(err.index, 0, "first failure in plan order, jobs={jobs}");
            assert!(matches!(err.source, MeasureError::Pmbus(_)));
        }
    }
}
