//! The accelerator-under-test abstraction.
//!
//! [`Accelerator`] bundles one board sample, the DPU runtime, a workload
//! and its calibrated evaluation set — the unit every campaign in this
//! crate drives. Control and telemetry go through PMBus exactly as the
//! paper's scripts did: voltages are written to `0x13`/`0x14`, power and
//! temperature are read back from the same addresses, and each reported
//! data point averages repeated measurements (the paper uses 10).

use crate::bench_suite::{BenchmarkId, Workload, WorkloadConfig, WorkloadError};
use crate::telemetry::CellTelemetry;
use redvolt_dpu::runtime::{DpuRuntime, RunError};
use redvolt_faults::bus::{BusFaultProfile, PmbusFaultModel};
use redvolt_fpga::board::{Zcu102Board, SYSCTRL_ADDRESS};
use redvolt_fpga::calib::F_NOM_MHZ;
use redvolt_nn::abft::DefenseMode;
use redvolt_nn::models::ModelScale;
use redvolt_num::rng::derive_stream_seed;
use redvolt_num::stats::Summary;
use redvolt_pmbus::adapter::{PmbusAdapter, RetryPolicy, TransactionLog};
use redvolt_pmbus::PmbusError;
use redvolt_telemetry::SpanRing;
use std::fmt;

/// Seed-stream index reserved for the PMBus fault model, so the bus-fault
/// schedule never aliases the workload's own seed streams.
const BUS_FAULT_STREAM: u64 = 0xB05;

/// PMBus address of the `VCCINT` regulator output.
pub const VCCINT_ADDR: u8 = 0x13;
/// PMBus address of the `VCCBRAM` regulator output.
pub const VCCBRAM_ADDR: u8 = 0x14;

/// Configuration of an accelerator-under-test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorConfig {
    /// Which physical board sample (0–2 are the paper's boards).
    pub board_sample: u32,
    /// Which benchmark to load.
    pub benchmark: BenchmarkId,
    /// Operand precision.
    pub bits: u32,
    /// Model scale.
    pub scale: ModelScale,
    /// Structured pruning fraction (0 = dense).
    pub prune_fraction: f64,
    /// Evaluation images prepared.
    pub eval_images: usize,
    /// Measurement repetitions averaged per data point (the paper uses 10).
    pub repetitions: usize,
    /// Master seed.
    pub seed: u64,
    /// Transient PMBus fault profile injected into the host adapter. A
    /// non-zero profile also arms the adapter's resilient retry policy, so
    /// measurements converge despite the injected faults. The fault
    /// schedule derives from `seed`, keeping faulted campaigns exactly as
    /// reproducible as clean ones.
    pub bus_faults: BusFaultProfile,
    /// SDC defense armed on the DPU runtime: ECC filtering of BRAM
    /// upsets plus ABFT checksums in the quantized executor. `Off`
    /// preserves the historical bit-identical undefended datapath.
    pub defense: DefenseMode,
}

impl Default for AcceleratorConfig {
    fn default() -> Self {
        AcceleratorConfig {
            board_sample: 0,
            benchmark: BenchmarkId::VggNet,
            bits: 8,
            scale: ModelScale::Paper,
            prune_fraction: 0.0,
            eval_images: 100,
            repetitions: 10,
            seed: 42,
            bus_faults: BusFaultProfile::none(),
            defense: DefenseMode::Off,
        }
    }
}

impl AcceleratorConfig {
    /// A fast configuration for unit tests.
    pub fn tiny(benchmark: BenchmarkId) -> Self {
        AcceleratorConfig {
            benchmark,
            scale: ModelScale::Tiny,
            eval_images: 24,
            repetitions: 2,
            ..AcceleratorConfig::default()
        }
    }

    /// The same configuration with a different master seed (the campaign
    /// executor stamps each cell's derived seed through this).
    pub fn with_seed(self, seed: u64) -> Self {
        AcceleratorConfig { seed, ..self }
    }
}

/// One averaged measurement at an operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Commanded `VCCINT` in mV.
    pub vccint_mv: f64,
    /// DPU clock in MHz.
    pub f_mhz: f64,
    /// Classification accuracy on the calibrated evaluation set.
    pub accuracy: f64,
    /// Mean on-chip power over PMBus (`VCCINT` + `VCCBRAM`), watts.
    pub power_w: f64,
    /// Effective throughput, giga-ops/s.
    pub gops: f64,
    /// Power-efficiency, GOPs per watt.
    pub gops_per_w: f64,
    /// Junction temperature, °C.
    pub junction_c: f64,
    /// Total injected transient bit flips across repetitions.
    pub injected_faults: u64,
    /// Spread of the accuracy across repetitions (std dev).
    pub accuracy_std: f64,
}

impl Measurement {
    /// Canonical CSV serialization. Floats use Rust's shortest round-trip
    /// formatting, so two bit-identical measurements serialize to the same
    /// bytes — the property `tests/determinism.rs` pins across job counts.
    pub fn csv_row(&self) -> String {
        format!(
            "{:?},{:?},{:?},{:?},{:?},{:?},{:?},{},{:?}",
            self.vccint_mv,
            self.f_mhz,
            self.accuracy,
            self.power_w,
            self.gops,
            self.gops_per_w,
            self.junction_c,
            self.injected_faults,
            self.accuracy_std,
        )
    }
}

/// Errors from accelerator operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum MeasureError {
    /// The board hung at this operating point (Vcrash reached).
    Crashed {
        /// The commanded `VCCINT` at the hang, mV.
        vccint_mv: f64,
    },
    /// Workload preparation failed.
    Workload(WorkloadError),
    /// A PMBus transaction failed.
    Pmbus(PmbusError),
    /// A run failed for a non-crash reason.
    Run(RunError),
}

impl fmt::Display for MeasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeasureError::Crashed { vccint_mv } => {
                write!(f, "board hung at {vccint_mv:.0} mV (Vcrash reached)")
            }
            MeasureError::Workload(e) => write!(f, "{e}"),
            MeasureError::Pmbus(e) => write!(f, "{e}"),
            MeasureError::Run(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MeasureError {}

impl From<WorkloadError> for MeasureError {
    fn from(e: WorkloadError) -> Self {
        MeasureError::Workload(e)
    }
}

impl From<PmbusError> for MeasureError {
    fn from(e: PmbusError) -> Self {
        MeasureError::Pmbus(e)
    }
}

/// The accelerator under test.
#[derive(Debug)]
pub struct Accelerator {
    runtime: DpuRuntime,
    host: PmbusAdapter,
    workload: Workload,
    config: AcceleratorConfig,
    vccint_mv: f64,
    seed_counter: u64,
    /// Local span recording for the observability layer: bus voltage
    /// steps, DPU runs and power cycles, timestamped in simulated cycles.
    /// Drained (and re-parented under the cell/attempt span) by
    /// [`Accelerator::take_telemetry`].
    spans: SpanRing,
}

impl Accelerator {
    /// Brings up the accelerator: board at nominal rails, workload
    /// prepared and loaded.
    ///
    /// # Errors
    ///
    /// Returns [`MeasureError::Workload`] if preparation fails.
    pub fn bring_up(config: &AcceleratorConfig) -> Result<Self, MeasureError> {
        let workload = crate::workload_cache::get_or_prepare(WorkloadConfig {
            benchmark: config.benchmark,
            bits: config.bits,
            scale: config.scale,
            prune_fraction: config.prune_fraction,
            calib_images: 8,
            eval_images: config.eval_images,
            seed: config.seed,
        })?;
        let board = Zcu102Board::new(config.board_sample);
        // A marginal bus needs the resilient policy; a clean one keeps the
        // historical fail-fast behaviour.
        let host = if config.bus_faults.is_zero() {
            PmbusAdapter::new()
        } else {
            PmbusAdapter::new()
                .with_retry_policy(RetryPolicy::resilient())
                .with_fault_model(Box::new(PmbusFaultModel::new(
                    config.bus_faults,
                    derive_stream_seed(config.seed, BUS_FAULT_STREAM),
                )))
        };
        let mut runtime = DpuRuntime::open(board);
        runtime.set_defense(config.defense);
        Ok(Accelerator {
            runtime,
            host,
            workload,
            config: *config,
            vccint_mv: redvolt_fpga::calib::VNOM_MV,
            seed_counter: config.seed,
            spans: SpanRing::new(),
        })
    }

    /// The loaded workload.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The configuration used at bring-up.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// The board (telemetry / thermal access).
    pub fn board(&self) -> &Zcu102Board {
        self.runtime.board()
    }

    /// Split borrow of the runtime and workload, for campaigns that drive
    /// the runtime directly (e.g. mitigated runs).
    pub fn runtime_and_workload_mut(&mut self) -> (&mut DpuRuntime, &mut Workload) {
        (&mut self.runtime, &mut self.workload)
    }

    /// Mutable board access (chamber mode, fan control).
    pub fn board_mut(&mut self) -> &mut Zcu102Board {
        self.runtime.board_mut()
    }

    /// Currently commanded `VCCINT` in mV.
    pub fn vccint_mv(&self) -> f64 {
        self.vccint_mv
    }

    /// Current DPU clock in MHz.
    pub fn clock_mhz(&self) -> f64 {
        self.runtime.clock_mhz()
    }

    /// Sets the DPU clock in MHz (frequency underscaling, §5).
    pub fn set_clock_mhz(&mut self, f_mhz: f64) {
        self.runtime.set_clock_mhz(f_mhz);
    }

    /// Commands `VCCINT`, and `VCCBRAM` with it, over PMBus (the paper
    /// regulates both on-chip rails; `VCCINT` dominates the power).
    ///
    /// # Errors
    ///
    /// Propagates PMBus rejections (out-of-window voltages) and reports a
    /// hang as [`MeasureError::Crashed`].
    pub fn set_vccint_mv(&mut self, mv: f64) -> Result<(), MeasureError> {
        let result = self.set_vout_mv(VCCINT_ADDR, mv).and_then(|()| {
            self.vccint_mv = mv;
            self.set_vout_mv(VCCBRAM_ADDR, mv)
        });
        self.record_bus_span("vccint", mv, result.is_ok());
        result
    }

    /// Commands one regulator output over PMBus, reporting a hang as
    /// [`MeasureError::Crashed`] at `mv`.
    fn set_vout_mv(&mut self, address: u8, mv: f64) -> Result<(), MeasureError> {
        let board = self.runtime.board_mut();
        match self.host.set_vout(board, address, mv / 1000.0) {
            Err(PmbusError::DeviceHung { .. }) => Err(MeasureError::Crashed { vccint_mv: mv }),
            result => result.map_err(MeasureError::Pmbus),
        }
    }

    /// Records a zero-duration `bus_set_vout` span at the current
    /// simulated cycle (bus transactions consume no DPU cycles).
    fn record_bus_span(&mut self, rail: &str, mv: f64, ok: bool) {
        let cycle = self.runtime.cycles_run();
        let id = self.spans.begin("bus_set_vout", None, cycle);
        self.spans.attr(id, "rail", rail);
        self.spans.attr(id, "mv", format!("{mv:?}"));
        self.spans.attr(id, "ok", if ok { "1" } else { "0" });
        self.spans.end(id, cycle);
    }

    /// Commands `VCCBRAM` alone over PMBus (the rail-separation study:
    /// the paper tracks both rails together, but the BRAM rail can be
    /// driven independently to probe its own fault floor).
    ///
    /// # Errors
    ///
    /// See [`Accelerator::set_vccint_mv`].
    pub fn set_vccbram_mv(&mut self, mv: f64) -> Result<(), MeasureError> {
        let result = self.set_vout_mv(VCCBRAM_ADDR, mv);
        self.record_bus_span("vccbram", mv, result.is_ok());
        result
    }

    /// Power-cycles the board and restores the nominal operating point.
    pub fn power_cycle(&mut self) {
        self.runtime.board_mut().power_cycle();
        self.vccint_mv = redvolt_fpga::calib::VNOM_MV;
        self.runtime.set_clock_mhz(F_NOM_MHZ);
        let cycle = self.runtime.cycles_run();
        let id = self.spans.begin("power_cycle", None, cycle);
        self.spans.end(id, cycle);
    }

    /// Runs one measurement over the first `images` evaluation images,
    /// averaging [`AcceleratorConfig::repetitions`] repetitions when the
    /// operating point is in the faulting region (fault-free points are
    /// deterministic, so one repetition suffices — the paper likewise
    /// notes negligible variation).
    ///
    /// # Errors
    ///
    /// Returns [`MeasureError::Crashed`] if the board hangs.
    pub fn measure(&mut self, images: usize) -> Result<Measurement, MeasureError> {
        let start_cycle = self.runtime.cycles_run();
        let id = self.spans.begin("measure", None, start_cycle);
        self.spans
            .attr(id, "vccint_mv", format!("{:?}", self.vccint_mv));
        let result = self.measure_inner(images);
        self.spans
            .attr(id, "ok", if result.is_ok() { "1" } else { "0" });
        self.spans.end(id, self.runtime.cycles_run());
        result
    }

    fn measure_inner(&mut self, images: usize) -> Result<Measurement, MeasureError> {
        let n = images.min(self.workload.eval.len()).max(1);
        let eval_images = &self.workload.eval.images[..n];
        let labels = &self.workload.eval.labels[..n];
        let board = self.runtime.board();
        let faulting = board.slack_deficit() > 0.0
            || redvolt_faults::model::bram_weight_rate(board.vccbram_mv()) > 0.0;
        let reps = if faulting {
            self.config.repetitions.max(1)
        } else {
            1
        };
        let mut accs = Vec::with_capacity(reps);
        let mut powers = Vec::with_capacity(reps);
        let mut faults = 0u64;
        let mut gops = 0.0;
        let mut junction = 0.0;
        for _ in 0..reps {
            self.seed_counter = self.seed_counter.wrapping_add(1);
            let run_start = self.runtime.cycles_run();
            let batch =
                self.runtime
                    .run_batch(&self.workload.task, eval_images, self.seed_counter, 0);
            let run_id = self.spans.begin("dpu_run", None, run_start);
            self.spans
                .attr(run_id, "ok", if batch.is_ok() { "1" } else { "0" });
            if let Ok(r) = &batch {
                self.spans
                    .attr(run_id, "faults", r.injected_faults.to_string());
            }
            self.spans.end(run_id, self.runtime.cycles_run());
            let result = match batch {
                Ok(r) => r,
                Err(RunError::BoardCrashed) => {
                    return Err(MeasureError::Crashed {
                        vccint_mv: self.vccint_mv,
                    })
                }
                Err(e) => return Err(MeasureError::Run(e)),
            };
            let hits = result
                .predictions
                .iter()
                .zip(labels)
                .filter(|(p, l)| p == l)
                .count();
            accs.push(hits as f64 / n as f64);
            faults += result.injected_faults;
            gops = result.timing.gops;
            junction = result.junction_c;
            // Telemetry over PMBus, like the paper's measurement scripts.
            let board = self.runtime.board_mut();
            let mut p = self.host.read_pout(board, VCCINT_ADDR)?;
            p += self.host.read_pout(board, VCCBRAM_ADDR)?;
            powers.push(p);
        }
        let acc = Summary::of(&accs).expect("reps >= 1");
        let power = Summary::of(&powers).expect("reps >= 1").mean;
        Ok(Measurement {
            vccint_mv: self.vccint_mv,
            f_mhz: self.runtime.clock_mhz(),
            accuracy: acc.mean,
            power_w: power,
            gops,
            gops_per_w: gops / power,
            junction_c: junction,
            injected_faults: faults,
            accuracy_std: acc.std_dev,
        })
    }

    /// Reads the junction temperature over PMBus (system controller).
    ///
    /// # Errors
    ///
    /// Propagates PMBus errors.
    pub fn read_temperature_c(&mut self) -> Result<f64, MeasureError> {
        let board = self.runtime.board_mut();
        Ok(self.host.read_temperature(board, SYSCTRL_ADDRESS)?)
    }

    /// Commands the fan duty over PMBus (the paper's §7 temperature knob).
    ///
    /// # Errors
    ///
    /// Propagates PMBus errors.
    pub fn set_fan_percent(&mut self, duty: f64) -> Result<(), MeasureError> {
        let board = self.runtime.board_mut();
        Ok(self.host.set_fan_percent(board, SYSCTRL_ADDRESS, duty)?)
    }

    /// The PMBus transaction log since bring-up (bounded ring; see
    /// [`TransactionLog::total`] for the monotonic count).
    pub fn bus_log(&self) -> &TransactionLog {
        self.host.log()
    }

    /// Installs (or clears) a simulated-cycle budget on the runtime — the
    /// supervisor's deterministic watchdog deadline.
    pub fn set_cycle_budget(&mut self, budget: Option<u64>) {
        self.runtime.set_cycle_budget(budget);
    }

    /// Sets the image-shard worker count for this accelerator's batches
    /// (0 = available parallelism, 1 = sequential). An execution
    /// parameter only: measurements are byte-identical for every value,
    /// so it lives outside [`AcceleratorConfig`] and never reaches the
    /// journal's plan fingerprint.
    pub fn set_image_jobs(&mut self, image_jobs: usize) {
        self.runtime.set_image_jobs(image_jobs);
    }

    /// Cumulative simulated DPU cycles this accelerator has executed.
    pub fn cycles_run(&self) -> u64 {
        self.runtime.cycles_run()
    }

    /// Cumulative transient faults the DPU observed across every batch.
    pub fn faults_observed(&self) -> u64 {
        self.runtime.faults_observed()
    }

    /// Cumulative SDC/ECC events since bring-up
    /// ([`DpuRuntime::sdc_events`]).
    pub fn sdc_events(&self) -> u64 {
        self.runtime.sdc_events()
    }

    /// [`Accelerator::measure`] plus the SDC/ECC events it produced, the
    /// [`Accelerator::sdc_events`] difference: the signal behind the
    /// adaptive governor's windows and the serving fleet's Vmin
    /// calibration.
    ///
    /// # Errors
    ///
    /// See [`Accelerator::measure`].
    pub fn measure_events(&mut self, images: usize) -> Result<(Measurement, u64), MeasureError> {
        let before = self.sdc_events();
        let m = self.measure(images)?;
        Ok((m, self.sdc_events() - before))
    }

    /// Drains this accelerator's telemetry: scalar counters/gauges plus
    /// the recorded spans (ids local to this accelerator; the campaign
    /// layer re-parents and re-bases them in plan order). Everything here
    /// is a pure function of `(seed, config)` — simulated cycles, seeded
    /// fault schedules, commanded rails — never wall clock.
    pub fn take_telemetry(&mut self) -> CellTelemetry {
        let snap = self.runtime.board().snapshot();
        let ecc = self.runtime.ecc_stats();
        let abft = self.runtime.defense_stats();
        let scrub = self.runtime.scrubber();
        CellTelemetry {
            cycles: self.runtime.cycles_run(),
            dpu_faults: self.runtime.faults_observed(),
            bus: self.host.stats(),
            bus_transactions: self.host.log().total(),
            power_cycles: snap.power_cycles,
            vccint_mv: snap.vccint_mv,
            vccbram_mv: snap.vccbram_mv,
            junction_c: snap.junction_c,
            ecc_corrected: ecc.corrected_words,
            ecc_uncorrectable: ecc.uncorrectable_words,
            abft_checks: abft.checks,
            abft_mismatches: abft.mismatches,
            abft_reexecutions: abft.reexecutions,
            abft_unresolved: abft.unresolved,
            scrub_passes: scrub.passes(),
            scrub_retired: scrub.scrubbed(),
            spans: self.spans.take(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc() -> Accelerator {
        Accelerator::bring_up(&AcceleratorConfig::tiny(BenchmarkId::VggNet)).unwrap()
    }

    #[test]
    fn nominal_measurement_matches_calibration() {
        let mut a = acc();
        let m = a.measure(24).unwrap();
        assert!((m.power_w - 12.59).abs() < 0.2, "power {}", m.power_w);
        // Calibrated accuracy: round(0.86*24)/24.
        let want = (0.86f64 * 24.0).round() / 24.0;
        assert!((m.accuracy - want).abs() < 1e-9, "acc {}", m.accuracy);
        assert_eq!(m.injected_faults, 0);
        assert!(m.gops > 0.0 && m.gops_per_w > 0.0);
    }

    #[test]
    fn guardband_improves_efficiency_without_accuracy_loss() {
        let mut a = acc();
        let nom = a.measure(24).unwrap();
        a.set_vccint_mv(570.0).unwrap();
        let vmin = a.measure(24).unwrap();
        assert_eq!(vmin.accuracy, nom.accuracy);
        let gain = vmin.gops_per_w / nom.gops_per_w;
        assert!((gain - 2.6).abs() < 0.2, "gain {gain}");
    }

    #[test]
    fn crash_reported_and_power_cycle_recovers() {
        let mut a = acc();
        let r = a.set_vccint_mv(530.0);
        assert!(
            matches!(r, Err(MeasureError::Crashed { .. })) || {
                // The write may land before the hang is latched; the
                // measurement then reports the crash.
                matches!(a.measure(8), Err(MeasureError::Crashed { .. }))
            }
        );
        a.power_cycle();
        assert!(a.measure(8).is_ok());
        assert_eq!(a.vccint_mv(), 850.0);
    }

    #[test]
    fn out_of_window_voltage_is_rejected_not_crash() {
        let mut a = acc();
        assert!(matches!(
            a.set_vccint_mv(1200.0),
            Err(MeasureError::Pmbus(PmbusError::Rejected { .. }))
        ));
    }

    #[test]
    fn bus_log_records_the_methodology() {
        let mut a = acc();
        a.set_vccint_mv(600.0).unwrap();
        a.measure(8).unwrap();
        let log = a.bus_log();
        assert!(log.iter().any(|t| t.address == VCCINT_ADDR));
        assert!(log.iter().any(|t| t.address == VCCBRAM_ADDR));
    }

    #[test]
    fn faulted_bus_measurements_reproduce_and_count_retries() {
        let cfg = AcceleratorConfig {
            bus_faults: BusFaultProfile::heavy(),
            ..AcceleratorConfig::tiny(BenchmarkId::VggNet)
        };
        let mut a1 = Accelerator::bring_up(&cfg).unwrap();
        let mut a2 = Accelerator::bring_up(&cfg).unwrap();
        a1.set_vccint_mv(600.0).unwrap();
        a2.set_vccint_mv(600.0).unwrap();
        let m1 = a1.measure(8).unwrap();
        let m2 = a2.measure(8).unwrap();
        assert_eq!(m1.csv_row(), m2.csv_row(), "faulted runs must reproduce");
        let (bus1, bus2) = (a1.take_telemetry().bus, a2.take_telemetry().bus);
        assert!(bus1.injected_faults > 0, "heavy profile must fault");
        assert_eq!(bus1, bus2);
        assert_eq!(bus1.exhausted, 0, "resilient policy absorbs them");
    }

    #[test]
    fn defended_accelerator_surfaces_defense_telemetry() {
        let cfg = AcceleratorConfig {
            defense: DefenseMode::Correct,
            ..AcceleratorConfig::tiny(BenchmarkId::VggNet)
        };
        let mut a = Accelerator::bring_up(&cfg).unwrap();
        a.set_vccint_mv(550.0).unwrap();
        a.measure(8).unwrap();
        let t = a.take_telemetry();
        assert!(t.abft_checks > 0, "defended runs must execute checks");
        assert_eq!(
            a.sdc_events(),
            t.dpu_faults + t.ecc_corrected + t.ecc_uncorrectable + t.abft_mismatches,
            "governor signal must match the exported counters"
        );

        // An undefended accelerator at the same point counts only the
        // faults it delivered.
        let mut off = acc();
        off.set_vccint_mv(550.0).unwrap();
        off.measure(8).unwrap();
        let t_off = off.take_telemetry();
        assert_eq!(t_off.abft_checks, 0);
        assert_eq!(off.sdc_events(), t_off.dpu_faults);
    }

    #[test]
    fn fan_and_temperature_via_pmbus() {
        let mut a = acc();
        a.measure(8).unwrap(); // publish load
        a.set_fan_percent(0.0).unwrap();
        let hot = a.read_temperature_c().unwrap();
        a.set_fan_percent(100.0).unwrap();
        let cool = a.read_temperature_c().unwrap();
        assert!(hot > cool);
    }
}
