//! Campaign drivers, one per table/figure of the paper.

use redvolt_core::bench_suite::{benchmark_index, BenchmarkId};
use redvolt_core::executor::CampaignPlan;
use redvolt_core::experiment::{Accelerator, AcceleratorConfig};
use redvolt_core::freqscale::{frequency_underscaling, FreqScaleConfig, FreqScaleRow};
use redvolt_core::guardband::VoltageRegions;
use redvolt_core::pruneexp::{pruning_study, PruneStudy};
use redvolt_core::quantexp::{quantization_study, QuantStudy, FIG7_PRECISIONS};
use redvolt_core::report::{fmt, norm, pct, Table};
use redvolt_core::supervisor::{
    run_supervised, JournalSpec, SupervisedReport, SupervisorConfig, SupervisorError,
};
use redvolt_core::sweep::{voltage_sweep, SweepConfig, VoltageSweep};
use redvolt_core::telemetry::{CampaignObserver, CampaignTelemetry};
use redvolt_core::tempexp::{temperature_study, TempStudy, SETPOINTS_C};
use redvolt_core::{efficiency, experiment::Measurement};
use redvolt_faults::bus::BusFaultProfile;
use redvolt_nn::abft::DefenseMode;
use redvolt_nn::models::ModelScale;
use redvolt_num::stats;
use redvolt_telemetry::progress::ProgressReporter;
use std::path::PathBuf;

/// Campaign settings shared by every reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Settings {
    /// Board samples to measure (the paper uses three).
    pub boards: Vec<u32>,
    /// Evaluation images per measurement.
    pub images: usize,
    /// Measurement repetitions per faulting point (the paper uses 10).
    pub reps: usize,
    /// Model scale.
    pub scale: ModelScale,
    /// Injected PMBus fault profile (`--fault-profile`); the adapter's
    /// retry/PEC machinery absorbs these, so results stay byte-identical
    /// for a given (profile, seed) pair.
    pub bus_faults: BusFaultProfile,
    /// SDC defense (`--defense off|detect|correct`): ABFT checksums on
    /// the kernels plus ECC SECDED on the BRAM weight store.
    pub defense: DefenseMode,
    /// Adaptive undervolt governor (`--governor`): rescue faulting cells
    /// along the mitigation ladder instead of reporting corrupt payloads.
    pub governor: bool,
}

impl Settings {
    /// Full paper-fidelity settings (three boards, 100 images, 10 reps).
    pub fn full() -> Self {
        Settings {
            boards: vec![0, 1, 2],
            images: 100,
            reps: 10,
            scale: ModelScale::Paper,
            bus_faults: BusFaultProfile::none(),
            defense: DefenseMode::Off,
            governor: false,
        }
    }

    /// Quick settings for a fast end-to-end pass (board 0 only).
    pub fn quick() -> Self {
        Settings {
            boards: vec![0],
            images: 32,
            reps: 3,
            scale: ModelScale::Paper,
            bus_faults: BusFaultProfile::none(),
            defense: DefenseMode::Off,
            governor: false,
        }
    }

    /// Tiny settings for unit and smoke tests.
    pub fn tiny() -> Self {
        Settings {
            boards: vec![0],
            images: 12,
            reps: 2,
            scale: ModelScale::Tiny,
            bus_faults: BusFaultProfile::none(),
            defense: DefenseMode::Off,
            governor: false,
        }
    }

    fn config(&self, benchmark: BenchmarkId, board: u32) -> AcceleratorConfig {
        AcceleratorConfig {
            board_sample: board,
            benchmark,
            scale: self.scale,
            eval_images: self.images,
            repetitions: self.reps,
            bus_faults: self.bus_faults,
            defense: self.defense,
            governor: self.governor,
            ..AcceleratorConfig::default()
        }
    }
}

fn bring_up(cfg: &AcceleratorConfig) -> Accelerator {
    Accelerator::bring_up(cfg).expect("workload preparation is infallible for built-in benchmarks")
}

/// Sweep-cache key: (benchmark index, board, images, reps, paper scale?,
/// fault-profile rate bits, defense index, governor?). The fault profile
/// changes how many bus transactions each measurement issues, and the
/// defense/governor settings change both the measured payloads and the
/// seed draws, so sweeps taken under different configurations must never
/// satisfy each other's cache lookups.
type SweepKey = (u8, u32, usize, usize, bool, (u64, u64, u64), u8, bool);
type SweepCache = std::sync::Mutex<std::collections::HashMap<SweepKey, VoltageSweep>>;

/// Deterministic sweeps are shared across figures (Figs. 3-6 all consume
/// the same downward scans), keyed by (benchmark, board, settings).
fn sweep_cache() -> &'static SweepCache {
    static CACHE: std::sync::OnceLock<SweepCache> = std::sync::OnceLock::new();
    CACHE.get_or_init(|| std::sync::Mutex::new(std::collections::HashMap::new()))
}

fn cache_key(s: &Settings, kind: BenchmarkId, board: u32) -> SweepKey {
    (
        benchmark_index(kind) as u8,
        board,
        s.images,
        s.reps,
        s.scale == ModelScale::Paper,
        s.bus_faults.key_bits(),
        s.defense as u8,
        s.governor,
    )
}

/// The sweep-grid campaign plan [`prefetch_sweeps`] executes — exposed so
/// callers can size progress reporters before the run starts.
pub fn sweep_plan(s: &Settings) -> CampaignPlan {
    let base = s.config(BenchmarkId::VggNet, s.boards[0]);
    CampaignPlan::sweep_grid(
        base.seed,
        &BenchmarkId::ALL,
        &s.boards,
        base,
        fig_sweep(s.images),
    )
}

/// Runs the full (benchmark × board) sweep grid for `s` through the
/// crash-resilient supervisor and seeds the shared sweep cache with the
/// results, so every subsequent figure/table draws from the same sweeps.
///
/// Cells run under panic isolation and the watchdog and are retried per
/// `config`; when `journal` is given, each completed cell is journaled
/// write-ahead so an interrupted prefetch can `--resume`. The `observer`
/// (the `repro` binary's `--progress` reporter) sees cells in completion
/// order; the returned report and the cache are unaffected by it. Aborted
/// cells are skipped: their figures fall back to the lazy per-figure
/// sweep.
///
/// Cell seeds derive from `(master seed 42, cell index)` — see
/// `redvolt_core::executor` — so the cache contents (and therefore all
/// downstream tables) are byte-identical for every `jobs` value. Run this
/// *before* the figures (the `repro` binary does); mixing prefetched and
/// lazily-computed sweeps in one process would select different seeds
/// depending on call order.
///
/// # Errors
///
/// Fails only on journal I/O problems or a meta mismatch between the
/// journal on disk and this plan (wrong seed or cell list).
pub fn prefetch_sweeps(
    s: &Settings,
    jobs: usize,
    config: &SupervisorConfig,
    journal: Option<&JournalSpec>,
    observer: Option<&dyn CampaignObserver>,
) -> Result<SupervisedReport, SupervisorError> {
    let plan = sweep_plan(s);
    let sup = run_supervised(&plan, jobs, config, journal, observer)?;
    let mut cache = sweep_cache().lock().expect("cache lock");
    for r in &sup.report.results {
        if let Some(sweep) = r.outcome.as_sweep() {
            cache.insert(
                cache_key(s, r.spec.config.benchmark, r.spec.config.board_sample),
                sweep.clone(),
            );
        }
    }
    drop(cache);
    Ok(sup)
}

/// The experiments [`prefetch_sweeps`] accelerates (they consume the
/// shared sweep cache).
pub const SWEEP_CACHED_EXPERIMENTS: [&str; 5] = ["fig3", "fig4", "fig5", "fig6", "table2"];

/// Flags that consume the following argument (or an inline `=VALUE`).
const VALUE_FLAGS: [&str; 10] = [
    "--jobs",
    "--image-jobs",
    "--journal",
    "--max-attempts",
    "--fault-profile",
    "--halt-after-cells",
    "--metrics-out",
    "--prom-out",
    "--progress",
    "--defense",
];

/// Usage text for the flags [`CampaignOptions::from_args`] reads.
pub const CAMPAIGN_USAGE: &str = "[--jobs N] [--image-jobs N] [--journal PATH [--resume]] \
     [--max-attempts N] [--fault-profile none|light|heavy] [--halt-after-cells K] \
     [--metrics-out PATH] [--prom-out PATH] [--progress SECS] \
     [--defense off|detect|correct] [--governor]";

/// The `repro` binary's campaign options: parallelism, the write-ahead
/// journal, the retry budget, the injected PMBus fault profile, the
/// telemetry exports and the SDC defense configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOptions {
    /// Worker threads (`--jobs N`, 0 or absent = available parallelism).
    pub jobs: usize,
    /// Image-shard workers per cell (`--image-jobs N`; 0 or absent =
    /// divide surplus workers across a cell's image batch, 1 =
    /// sequential batches). Results are byte-identical for any value.
    pub image_jobs: usize,
    /// Write-ahead journal path (`--journal PATH`).
    pub journal: Option<PathBuf>,
    /// Resume from an existing journal (`--resume`, needs `--journal`).
    pub resume: bool,
    /// Per-cell attempt budget (`--max-attempts N`).
    pub max_attempts: u32,
    /// Injected PMBus fault profile (`--fault-profile none|light|heavy`).
    pub fault_profile: BusFaultProfile,
    /// Stop after journaling this many new cells (`--halt-after-cells K`)
    /// — a deterministic kill switch for resume testing.
    pub halt_after: Option<usize>,
    /// Write the campaign's telemetry JSONL event stream here
    /// (`--metrics-out PATH`).
    pub metrics_out: Option<PathBuf>,
    /// Write the campaign's Prometheus text exposition here
    /// (`--prom-out PATH`).
    pub prom_out: Option<PathBuf>,
    /// Emit live progress to stderr at most every this many seconds
    /// (`--progress SECS`; 0 = on every completed cell).
    pub progress: Option<u64>,
    /// SDC defense mode (`--defense off|detect|correct`).
    pub defense: DefenseMode,
    /// Adaptive undervolt governor (`--governor`).
    pub governor: bool,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            jobs: 0,
            image_jobs: 0,
            journal: None,
            resume: false,
            max_attempts: SupervisorConfig::default().max_attempts,
            fault_profile: BusFaultProfile::none(),
            halt_after: None,
            metrics_out: None,
            prom_out: None,
            progress: None,
            defense: DefenseMode::Off,
            governor: false,
        }
    }
}

impl CampaignOptions {
    /// Parses the shared campaign flags out of `args`, accepting both the
    /// `--flag VALUE` and `--flag=VALUE` spellings, plus the calling
    /// binary's own value-less `switches` (which it reads itself). Returns
    /// the options and the remaining, positional arguments in order.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for any other `--flag`, a missing
    /// or malformed value, an unknown fault profile, or `--resume` without
    /// `--journal`.
    pub fn from_args(args: &[String], switches: &[&str]) -> Result<(Self, Vec<String>), String> {
        let mut opts = CampaignOptions::default();
        let mut positional = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let (flag, inline) = match args[i].split_once('=') {
                Some((f, v)) if VALUE_FLAGS.contains(&f) => (f, Some(v.to_string())),
                _ => (args[i].as_str(), None),
            };
            let value = if VALUE_FLAGS.contains(&flag) {
                match inline {
                    Some(v) => Some(v),
                    None => {
                        i += 1;
                        args.get(i).cloned()
                    }
                }
            } else {
                None
            };
            match flag {
                "--jobs" => {
                    opts.jobs = value
                        .as_deref()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--jobs needs a worker count (0 = auto)")?;
                }
                "--image-jobs" => {
                    opts.image_jobs = value
                        .as_deref()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--image-jobs needs a worker count (0 = auto)")?;
                }
                "--journal" => {
                    let path = value.ok_or("--journal needs a file path")?;
                    opts.journal = Some(PathBuf::from(path));
                }
                "--resume" => opts.resume = true,
                "--max-attempts" => {
                    opts.max_attempts = value
                        .as_deref()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .ok_or("--max-attempts needs a positive integer")?;
                }
                "--fault-profile" => {
                    let name = value.ok_or("--fault-profile needs none, light or heavy")?;
                    opts.fault_profile = BusFaultProfile::parse(&name)
                        .ok_or_else(|| format!("unknown fault profile `{name}`"))?;
                }
                "--halt-after-cells" => {
                    opts.halt_after = Some(
                        value
                            .as_deref()
                            .and_then(|v| v.parse().ok())
                            .ok_or("--halt-after-cells needs a cell count")?,
                    );
                }
                "--metrics-out" => {
                    let path = value.ok_or("--metrics-out needs a file path")?;
                    opts.metrics_out = Some(PathBuf::from(path));
                }
                "--prom-out" => {
                    let path = value.ok_or("--prom-out needs a file path")?;
                    opts.prom_out = Some(PathBuf::from(path));
                }
                "--progress" => {
                    opts.progress = Some(
                        value
                            .as_deref()
                            .and_then(|v| v.parse().ok())
                            .ok_or("--progress needs an interval in whole seconds")?,
                    );
                }
                "--defense" => {
                    let name = value.ok_or("--defense needs off, detect or correct")?;
                    opts.defense = DefenseMode::parse(&name)
                        .ok_or_else(|| format!("unknown defense mode `{name}`"))?;
                }
                "--governor" => opts.governor = true,
                f if !f.starts_with("--") => positional.push(f.to_string()),
                f if switches.contains(&f) => {}
                f => return Err(format!("unknown flag {f}")),
            }
            i += 1;
        }
        if opts.resume && opts.journal.is_none() {
            return Err("--resume requires --journal PATH".to_string());
        }
        Ok((opts, positional))
    }

    /// The supervisor configuration these options select.
    pub fn supervisor_config(&self) -> SupervisorConfig {
        SupervisorConfig {
            max_attempts: self.max_attempts,
            halt_after: self.halt_after,
            image_jobs: self.image_jobs,
            ..SupervisorConfig::default()
        }
    }

    /// The journal spec these options select, if `--journal` was given.
    pub fn journal_spec(&self) -> Option<JournalSpec> {
        self.journal
            .as_ref()
            .map(|path| JournalSpec::new(path.clone(), self.resume))
    }

    /// The live stderr progress reporter `--progress` selects, sized for
    /// a campaign of `total_cells`.
    pub fn progress_reporter(&self, total_cells: usize) -> Option<ProgressReporter> {
        self.progress
            .map(|secs| ProgressReporter::new(total_cells, std::time::Duration::from_secs(secs)))
    }

    /// Writes the telemetry exports `--metrics-out` / `--prom-out`
    /// request (no-op when neither flag was given). The JSONL stream
    /// additionally carries the process-wide workload cache
    /// effectiveness samples (hits, misses, occupancy); the Prometheus
    /// exposition stays a pure function of `(seed, plan)`.
    ///
    /// # Errors
    ///
    /// Propagates file-write errors.
    pub fn export_telemetry(&self, telemetry: &CampaignTelemetry) -> std::io::Result<()> {
        if let Some(path) = &self.metrics_out {
            std::fs::write(path, telemetry.to_jsonl_with_cache_stats())?;
        }
        if let Some(path) = &self.prom_out {
            telemetry.write_prometheus(path)?;
        }
        Ok(())
    }
}

/// The paper's critical-region voltage schedule plus guardband anchors.
fn fig_sweep(images: usize) -> SweepConfig {
    SweepConfig {
        start_mv: 850.0,
        stop_mv: 520.0,
        step_mv: 5.0,
        images,
    }
}

/// **Table 1** — benchmarks and inference accuracy at Vnom.
pub fn table1(s: &Settings) -> Table {
    let mut t = Table::new(
        "Table 1: Evaluated CNN benchmarks (accuracy at Vnom)",
        &[
            "Model",
            "Dataset",
            "Classes",
            "#Layers",
            "Params",
            "MACs/img",
            "Paper acc",
            "Paper @Vnom",
            "Ours @Vnom",
        ],
    );
    for kind in BenchmarkId::ALL {
        let mut acc = bring_up(&s.config(kind, s.boards[0]));
        let m = acc.measure(s.images).expect("nominal point never crashes");
        let spec = acc.workload().spec;
        let graph = kind.build(s.scale);
        t.row(&[
            kind.name().to_string(),
            spec.dataset.to_string(),
            spec.classes.to_string(),
            spec.paper_layers.to_string(),
            graph.param_count().to_string(),
            graph.mac_count().to_string(),
            pct(spec.paper_accuracy),
            pct(spec.paper_accuracy_at_vnom),
            pct(m.accuracy),
        ]);
    }
    t
}

/// **§4.1** — on-chip power breakdown at Vnom.
pub fn power_breakdown(s: &Settings) -> Table {
    let mut t = Table::new(
        "Power breakdown at Vnom (paper: 12.59 W mean, >99.9% on VCCINT)",
        &[
            "Model",
            "On-chip W",
            "VCCINT W",
            "VCCBRAM W",
            "VCCINT share",
        ],
    );
    for kind in BenchmarkId::ALL {
        let mut acc = bring_up(&s.config(kind, s.boards[0]));
        acc.measure(s.images).expect("nominal point");
        let board = acc.board();
        let temp = board.junction_c();
        let pm = board.power_model();
        let int = pm.vccint_w(board.vccint_mv(), temp, &board.load());
        let bram = pm.vccbram_w(board.vccbram_mv());
        t.row(&[
            kind.name().to_string(),
            fmt(int + bram, 2),
            fmt(int, 2),
            fmt(bram, 4),
            pct(int / (int + bram)),
        ]);
    }
    t
}

/// Regions for one (benchmark, board), derived from the shared downward
/// sweep by [`VoltageRegions::from_sweep`]'s rule: no observed fault and
/// accuracy within 1 % of the nominal point.
fn regions_for(s: &Settings, kind: BenchmarkId, board: u32) -> VoltageRegions {
    VoltageRegions::from_sweep(&sweep_for(s, kind, board), 0.01).expect("non-empty sweep")
}

/// **Figure 3** — voltage regions per benchmark and board.
pub fn fig3(s: &Settings) -> Table {
    let mut t = Table::new(
        "Fig 3: Voltage regions (paper: Vmin=570, Vcrash=540, guardband 33%)",
        &[
            "Model",
            "Board",
            "Vmin mV",
            "Vcrash mV",
            "Guardband mV",
            "Guardband %",
            "Critical mV",
        ],
    );
    let mut vmins = Vec::new();
    let mut vcrashes = Vec::new();
    for kind in BenchmarkId::ALL {
        for &board in &s.boards {
            let r = regions_for(s, kind, board);
            vmins.push(r.vmin_mv);
            vcrashes.push(r.vcrash_mv);
            t.row(&[
                kind.name().to_string(),
                board.to_string(),
                fmt(r.vmin_mv, 0),
                fmt(r.vcrash_mv, 0),
                fmt(r.guardband_mv(), 0),
                pct(r.guardband_fraction()),
                fmt(r.critical_mv(), 0),
            ]);
        }
    }
    let mean = |v: &[f64]| stats::mean(v).expect("non-empty");
    t.row(&[
        "MEAN".to_string(),
        "-".to_string(),
        fmt(mean(&vmins), 0),
        fmt(mean(&vcrashes), 0),
        fmt(850.0 - mean(&vmins), 0),
        pct((850.0 - mean(&vmins)) / 850.0),
        fmt(mean(&vmins) - mean(&vcrashes), 0),
    ]);
    t
}

fn sweep_for(s: &Settings, kind: BenchmarkId, board: u32) -> VoltageSweep {
    let key = cache_key(s, kind, board);
    if let Some(hit) = sweep_cache().lock().expect("cache lock").get(&key) {
        return hit.clone();
    }
    let mut acc = bring_up(&s.config(kind, board));
    let sweep = voltage_sweep(&mut acc, &fig_sweep(s.images)).expect("sweep");
    sweep_cache()
        .lock()
        .expect("cache lock")
        .insert(key, sweep.clone());
    sweep
}

/// **Figure 4** — overall voltage behaviour (GoogleNet): power-efficiency
/// and accuracy vs voltage, showing the three regions.
pub fn fig4(s: &Settings) -> Table {
    let sweep = sweep_for(s, BenchmarkId::GoogleNet, s.boards[0]);
    let mut t = Table::new(
        "Fig 4: Overall voltage behaviour (GoogleNet, board 0)",
        &["VCCINT mV", "Power W", "GOPs/W gain", "Accuracy", "Region"],
    );
    let nominal = *sweep.nominal();
    for m in &sweep.points {
        let region = if m.injected_faults == 0 && m.accuracy >= nominal.accuracy - 0.01 {
            if m.vccint_mv >= 850.0 {
                "nominal"
            } else {
                "guardband"
            }
        } else {
            "critical"
        };
        t.row(&[
            fmt(m.vccint_mv, 0),
            fmt(m.power_w, 2),
            norm(m.gops_per_w / nominal.gops_per_w),
            pct(m.accuracy),
            region.to_string(),
        ]);
    }
    if let Some(mv) = sweep.crashed_at_mv {
        t.row(&[
            fmt(mv, 0),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            "CRASH".to_string(),
        ]);
    }
    t
}

/// **Figure 5** — power-efficiency improvement per benchmark (averaged
/// over the configured boards).
pub fn fig5(s: &Settings) -> Table {
    let mut t = Table::new(
        "Fig 5: GOPs/W gain vs Vnom (paper: 2.6x at Vmin, >3x at Vcrash)",
        &[
            "Model",
            "GOPs/W @850",
            "Gain @Vmin",
            "Gain @last-alive",
            "Extra below guardband",
        ],
    );
    for kind in BenchmarkId::ALL {
        let mut at_vmin = Vec::new();
        let mut at_crash = Vec::new();
        let mut base_eff = Vec::new();
        for &board in &s.boards {
            let sweep = sweep_for(s, kind, board);
            let regions = VoltageRegions::from_sweep(&sweep, 0.01).expect("non-empty sweep");
            if let Some(h) = efficiency::headline(&sweep, regions.vmin_mv) {
                at_vmin.push(h.gain_at_vmin);
                at_crash.push(h.gain_at_vcrash);
            }
            base_eff.push(sweep.nominal().gops_per_w);
        }
        let mean = |v: &[f64]| stats::mean(v).unwrap_or(f64::NAN);
        let (gv, gc) = (mean(&at_vmin), mean(&at_crash));
        t.row(&[
            kind.name().to_string(),
            fmt(mean(&base_eff), 1),
            norm(gv),
            norm(gc),
            pct(gc / gv - 1.0),
        ]);
    }
    t
}

/// **Figure 6** — accuracy vs voltage in the critical region, per
/// benchmark and board.
pub fn fig6(s: &Settings) -> Table {
    let mut t = Table::new(
        "Fig 6: Accuracy vs voltage below the guardband (per board)",
        &["Model", "Board", "mV", "Accuracy", "Acc std", "Faults"],
    );
    for kind in BenchmarkId::ALL {
        for &board in &s.boards {
            let sweep = sweep_for(s, kind, board);
            for m in sweep.points.iter().filter(|m| m.vccint_mv <= 600.0) {
                t.row(&[
                    kind.name().to_string(),
                    board.to_string(),
                    fmt(m.vccint_mv, 0),
                    pct(m.accuracy),
                    fmt(m.accuracy_std, 3),
                    m.injected_faults.to_string(),
                ]);
            }
        }
    }
    t
}

/// **Table 2** — frequency underscaling in the critical region. Each
/// board's scan starts at its own measured Vmin (the paper reports the
/// three-board average anchored at the mean Vmin of 570 mV).
pub fn table2(s: &Settings) -> Table {
    let mut per_board: Vec<Vec<FreqScaleRow>> = Vec::new();
    for &board in &s.boards {
        let regions = regions_for(s, BenchmarkId::VggNet, board);
        let mut acc = bring_up(&s.config(BenchmarkId::VggNet, board));
        let rows = frequency_underscaling(
            &mut acc,
            &FreqScaleConfig {
                start_mv: regions.vmin_mv,
                stop_mv: regions.vmin_mv - 30.0,
                images: s.images,
                ..FreqScaleConfig::default()
            },
        )
        .expect("table2 scan");
        per_board.push(rows);
    }
    let mut t = Table::new(
        "Table 2: Frequency underscaling (normalized to each board's (Vmin, 333MHz))",
        &["VCCINT mV", "Fmax MHz", "GOPs", "Power", "GOPs/W", "GOPs/J"],
    );
    let depth = per_board.iter().map(Vec::len).min().unwrap_or(0);
    for k in 0..depth {
        let col = |f: &dyn Fn(&FreqScaleRow) -> f64| {
            let vals: Vec<f64> = per_board.iter().map(|rows| f(&rows[k])).collect();
            stats::mean(&vals).expect("non-empty boards")
        };
        t.row(&[
            fmt(col(&|r| r.vccint_mv), 0),
            fmt(col(&|r| r.fmax_mhz), 0),
            norm(col(&|r| r.gops_norm)),
            norm(col(&|r| r.power_norm)),
            norm(col(&|r| r.gops_per_w_norm)),
            norm(col(&|r| r.gops_per_j_norm)),
        ]);
    }
    t
}

/// **Figure 7** — undervolting × quantization (VGGNet, board 0). Returns
/// the accuracy table (7a) and the power-efficiency table (7b).
pub fn fig7(s: &Settings) -> (Table, Table) {
    let study: QuantStudy = quantization_study(
        &s.config(BenchmarkId::VggNet, s.boards[0]),
        &FIG7_PRECISIONS,
        &fig_sweep(s.images),
    )
    .expect("fig7 study");
    let voltages = [850.0, 570.0, 565.0, 560.0, 555.0, 550.0, 545.0, 540.0];
    let mut acc_t = Table::new(
        "Fig 7a: Accuracy vs voltage per precision (VGGNet)",
        &["mV", "INT8", "INT7", "INT6", "INT5", "INT4"],
    );
    let mut eff_t = Table::new(
        "Fig 7b: GOPs/W vs voltage per precision (VGGNet)",
        &["mV", "INT8", "INT7", "INT6", "INT5", "INT4"],
    );
    for &mv in &voltages {
        let mut acc_row = vec![fmt(mv, 0)];
        let mut eff_row = vec![fmt(mv, 0)];
        for &bits in &FIG7_PRECISIONS {
            let point = study.at_bits(bits).and_then(|c| c.sweep.at_mv(mv));
            match point {
                Some(m) => {
                    acc_row.push(pct(m.accuracy));
                    eff_row.push(fmt(m.gops_per_w, 0));
                }
                None => {
                    acc_row.push("CRASH".to_string());
                    eff_row.push("CRASH".to_string());
                }
            }
        }
        acc_t.row(&acc_row);
        eff_t.row(&eff_row);
    }
    (acc_t, eff_t)
}

/// **Figure 8** — undervolting × pruning (VGGNet, board 0). Returns the
/// accuracy table (8a) and the work-equivalent efficiency table (8b).
pub fn fig8(s: &Settings) -> (Table, Table) {
    let study: PruneStudy = pruning_study(
        &s.config(BenchmarkId::VggNet, s.boards[0]),
        0.5,
        &fig_sweep(s.images),
    )
    .expect("fig8 study");
    let mut acc_t = Table::new(
        "Fig 8a: Accuracy vs voltage, dense vs pruned (VGGNet)",
        &["mV", "Baseline", "Pruned"],
    );
    let mut eff_t = Table::new(
        "Fig 8b: Work-equivalent GOPs/W, dense vs pruned (VGGNet)",
        &["mV", "Baseline", "Pruned"],
    );
    let voltages = [
        850.0, 700.0, 570.0, 565.0, 560.0, 555.0, 550.0, 545.0, 540.0,
    ];
    let cell_acc = |m: Option<&Measurement>| {
        m.map(|m| pct(m.accuracy))
            .unwrap_or_else(|| "CRASH".to_string())
    };
    for &mv in &voltages {
        acc_t.row(&[
            fmt(mv, 0),
            cell_acc(study.dense.sweep.at_mv(mv)),
            cell_acc(study.pruned.sweep.at_mv(mv)),
        ]);
        let eq = |arm: &redvolt_core::pruneexp::PruneArm| {
            arm.sweep
                .at_mv(mv)
                .map(|m| fmt(m.gops_per_w * arm.work_equivalence, 0))
                .unwrap_or_else(|| "CRASH".to_string())
        };
        eff_t.row(&[fmt(mv, 0), eq(&study.dense), eq(&study.pruned)]);
    }
    let dense_crash = study.dense.sweep.last_alive_mv().unwrap_or(f64::NAN);
    let pruned_crash = study.pruned.sweep.last_alive_mv().unwrap_or(f64::NAN);
    acc_t.row(&[
        "Vcrash".to_string(),
        fmt(dense_crash, 0),
        fmt(pruned_crash, 0),
    ]);
    (acc_t, eff_t)
}

/// **Figure 9** — temperature effect on power (GoogleNet, board 0).
pub fn fig9(s: &Settings) -> Table {
    let study = temp_study(s);
    let mut t = Table::new(
        "Fig 9: Power vs voltage at 34/43/52 C (GoogleNet)",
        &["mV", "P@34C", "P@43C", "P@52C", "rise 34->52"],
    );
    let voltages = [850.0, 750.0, 650.0, 600.0, 570.0, 550.0];
    for &mv in &voltages {
        let p = |t_c: f64| {
            study
                .at_temp(t_c)
                .and_then(|c| c.sweep.at_mv(mv))
                .map(|m| m.power_w)
        };
        let (Some(p34), Some(p43), Some(p52)) = (p(34.0), p(43.0), p(52.0)) else {
            continue;
        };
        t.row(&[
            fmt(mv, 0),
            fmt(p34, 3),
            fmt(p43, 3),
            fmt(p52, 3),
            pct((p52 - p34) / p34),
        ]);
    }
    t
}

/// **Figure 10** — temperature effect on reliability / ITD (GoogleNet).
pub fn fig10(s: &Settings) -> Table {
    let study = temp_study(s);
    let mut t = Table::new(
        "Fig 10: Accuracy vs voltage at 34/43/52 C (GoogleNet)",
        &["mV", "Acc@34C", "Acc@43C", "Acc@52C"],
    );
    let voltages = [850.0, 570.0, 565.0, 560.0, 555.0, 550.0, 545.0, 540.0];
    for &mv in &voltages {
        let a = |t_c: f64| {
            study
                .at_temp(t_c)
                .and_then(|c| c.sweep.at_mv(mv))
                .map(|m| pct(m.accuracy))
                .unwrap_or_else(|| "CRASH".to_string())
        };
        t.row(&[fmt(mv, 0), a(34.0), a(43.0), a(52.0)]);
    }
    if let Some((temp, mv, power)) = study.optimal_point(0.01) {
        t.row(&[
            "OPTIMAL".to_string(),
            format!("{temp:.0}C"),
            format!("{mv:.0}mV"),
            format!("{power:.2}W"),
        ]);
    }
    t
}

/// **Ablations** — the design choices DESIGN.md calls out, each compared
/// against its naive alternative.
pub fn ablations(s: &Settings) -> Table {
    use redvolt_core::bench_suite::WorkloadConfig;
    use redvolt_core::workload_cache;
    use redvolt_dpu::{compiler, engine};
    use redvolt_faults::injector::{SingleBitFaultInjector, SlackFaultInjector};
    use redvolt_faults::model::FaultRates;
    use redvolt_nn::quant::{Granularity, QuantizedGraph};

    let mut t = Table::new(
        "Ablations: modelling choices vs naive alternatives",
        &[
            "Ablation",
            "Chosen model",
            "Naive alternative",
            "Why it matters",
        ],
    );

    // 1. Correlated burst injection vs independent single-bit upsets, at a
    //    fixed critical-region deficit (550 mV-equivalent). The config is
    //    the seed-42 INT8 VGGNet every bring-up of the board-0 figures
    //    uses, so the cache usually already holds it.
    let mut workload = workload_cache::get_or_prepare(WorkloadConfig {
        benchmark: BenchmarkId::VggNet,
        scale: s.scale,
        eval_images: s.images,
        ..WorkloadConfig::baseline(BenchmarkId::VggNet)
    })
    .expect("workload");
    let deficit = 333.0 / 259.0 - 1.0; // the 550 mV anchor
    let rates = FaultRates::for_deficit(deficit);
    let mut burst_inj = SlackFaultInjector::new(rates, 9);
    let mut model = workload.task.model_mut().clone();
    let burst_acc = {
        let preds: Vec<usize> = workload
            .eval
            .images
            .iter()
            .map(|img| model.predict_with(img, &mut burst_inj).unwrap())
            .collect();
        workload.eval.accuracy(&preds)
    };
    let mut single_inj = SingleBitFaultInjector::new(rates, 9);
    let single_acc = {
        let preds: Vec<usize> = workload
            .eval
            .images
            .iter()
            .map(|img| model.predict_with(img, &mut single_inj).unwrap())
            .collect();
        workload.eval.accuracy(&preds)
    };
    t.row(&[
        "fault model @550mV".to_string(),
        format!("bursts: acc {}", pct(burst_acc)),
        format!("single-bit: acc {}", pct(single_acc)),
        "independent upsets are absorbed; no Fig-6 collapse".to_string(),
    ]);

    // 2. Per-channel vs per-tensor weight scales at INT4.
    let graph = BenchmarkId::VggNet.build(s.scale).fold_batch_norms();
    let calib = redvolt_nn::dataset::SyntheticDataset::new(32, 32, 3, 10, 42).images(8);
    let rms = |g: Granularity| {
        QuantizedGraph::quantize_with(&graph, 4, &calib, g)
            .unwrap()
            .weight_rms_error(&graph)
    };
    t.row(&[
        "INT4 weight scales".to_string(),
        format!("per-channel RMS {:.4}", rms(Granularity::PerChannel)),
        format!("per-tensor RMS {:.4}", rms(Granularity::PerTensor)),
        "narrow formats need per-channel resolution (Fig 7)".to_string(),
    ]);

    // 3. DDR roofline vs compute-only clock scaling (Table-2 GOPs column).
    let kernel = compiler::compile("vgg", &graph, 8).unwrap();
    let with_roofline =
        engine::timing(&kernel, 250.0, 3).gops / engine::timing(&kernel, 333.0, 3).gops;
    t.row(&[
        "GOPs(250)/GOPs(333)".to_string(),
        format!("roofline: {:.2}", with_roofline),
        format!("compute-only: {:.2}", 250.0 / 333.0),
        "paper measures 0.83: memory-bound time hides clock loss".to_string(),
    ]);

    t
}

/// **Extension: Razor mitigation** (SS9 future work i) -- accuracy and cost
/// of detect-and-retry at the full clock below the guardband.
pub fn mitigation(s: &Settings) -> Table {
    use redvolt_core::mitigation::mitigation_study;
    let mut acc = bring_up(&s.config(BenchmarkId::VggNet, s.boards[0]));
    let study = mitigation_study(&mut acc, 570.0, 540.0, 5.0, s.images, 8).expect("study");
    let mut t = Table::new(
        "Extension (paper SS9.i): Razor detect-and-retry at 333 MHz (VGGNet)",
        &[
            "mV",
            "Acc (mitigated)",
            "Acc (plain)",
            "Attempts/img",
            "Eff GOPs/W",
            "Unresolved",
        ],
    );
    for p in &study.points {
        t.row(&[
            fmt(p.vccint_mv, 0),
            pct(p.accuracy),
            pct(p.unmitigated_accuracy),
            fmt(p.attempts_per_image, 2),
            fmt(p.effective_gops_per_w, 0),
            pct(p.unresolved_fraction),
        ]);
    }
    t
}

/// **Extension: voltage governor** (SS9 future work ii) -- a closed loop
/// that discovers and tracks Vmin at run time.
pub fn governor(s: &Settings) -> Table {
    use redvolt_core::governor::run_governor;
    let mut t = Table::new(
        "Extension (paper SS9.ii): closed-loop minimum-voltage tracking (GoogleNet)",
        &[
            "Temp C",
            "Settled mV",
            "Mean power W",
            "Crashes",
            "Final power W",
        ],
    );
    for temp in [34.0, 52.0] {
        let mut acc = bring_up(&s.config(BenchmarkId::GoogleNet, s.boards[0]));
        acc.board_mut().thermal_mut().force_temperature(temp);
        let trace = run_governor(&mut acc, s.images.min(32), 140).expect("governor run");
        t.row(&[
            fmt(temp, 0),
            fmt(trace.settled_mv, 0),
            fmt(trace.mean_power_w(), 2),
            trace.crash_count().to_string(),
            fmt(trace.steps.last().map(|st| st.power_w).unwrap_or(0.0), 2),
        ]);
    }
    t
}

/// **Extension: BRAM-rail separation** (SS4.1 discussion) -- drive VCCBRAM
/// alone and show it buys no power while faulting below its own floor.
pub fn bram(s: &Settings) -> Table {
    use redvolt_core::bramexp::bram_rail_study;
    let mut acc = bring_up(&s.config(BenchmarkId::VggNet, s.boards[0]));
    let study = bram_rail_study(&mut acc, 850.0, 430.0, 10.0, s.images).expect("bram study");
    let mut t = Table::new(
        "Extension (SS4.1): VCCBRAM-only undervolting (VCCINT at nominal)",
        &["VCCBRAM mV", "Power W", "Accuracy", "Weight faults"],
    );
    for p in study
        .points
        .iter()
        .filter(|p| p.vccbram_mv % 50.0 == 0.0 || p.vccbram_mv < 560.0)
    {
        t.row(&[
            fmt(p.vccbram_mv, 0),
            fmt(p.measurement.power_w, 3),
            pct(p.measurement.accuracy),
            p.measurement.injected_faults.to_string(),
        ]);
    }
    if let Some(mv) = study.crashed_at_mv {
        t.row(&[
            fmt(mv, 0),
            "-".to_string(),
            "-".to_string(),
            "BRAM COLLAPSE".to_string(),
        ]);
    }
    t
}

fn temp_study(s: &Settings) -> TempStudy {
    static CACHE: std::sync::OnceLock<std::sync::Mutex<Vec<(Settings, TempStudy)>>> =
        std::sync::OnceLock::new();
    let cache = CACHE.get_or_init(|| std::sync::Mutex::new(Vec::new()));
    if let Some((_, hit)) = cache
        .lock()
        .expect("cache lock")
        .iter()
        .find(|(cfg, _)| cfg == s)
    {
        return hit.clone();
    }
    let study = temperature_study(
        &s.config(BenchmarkId::GoogleNet, s.boards[0]),
        &SETPOINTS_C,
        &fig_sweep(s.images),
    )
    .expect("temperature study");
    cache
        .lock()
        .expect("cache lock")
        .push((s.clone(), study.clone()));
    study
}

/// Runs a named experiment, returning its rendered tables, or `None` for
/// a name outside [`ALL_EXPERIMENTS`].
pub fn run_experiment(name: &str, s: &Settings) -> Option<Vec<Table>> {
    let tables = match name {
        "table1" => vec![table1(s)],
        "power-breakdown" => vec![power_breakdown(s)],
        "fig3" => vec![fig3(s)],
        "fig4" => vec![fig4(s)],
        "fig5" => vec![fig5(s)],
        "fig6" => vec![fig6(s)],
        "table2" => vec![table2(s)],
        "fig7" => {
            let (a, b) = fig7(s);
            vec![a, b]
        }
        "fig8" => {
            let (a, b) = fig8(s);
            vec![a, b]
        }
        "fig9" => vec![fig9(s)],
        "fig10" => vec![fig10(s)],
        "ablations" => vec![ablations(s)],
        "mitigation" => vec![mitigation(s)],
        "governor" => vec![governor(s)],
        "bram" => vec![bram(s)],
        _ => return None,
    };
    Some(tables)
}

/// All experiment names in paper order.
pub const ALL_EXPERIMENTS: [&str; 15] = [
    "table1",
    "power-breakdown",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "table2",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "ablations",
    "mitigation",
    "governor",
    "bram",
];

/// The experiments `names` selects, in order: every one of
/// [`ALL_EXPERIMENTS`] when `names` is empty or contains `all`.
///
/// # Errors
///
/// Names the first argument that is neither `all` nor an experiment.
pub fn select_experiments(names: Vec<String>) -> Result<Vec<String>, String> {
    if let Some(bad) = names
        .iter()
        .find(|n| *n != "all" && !ALL_EXPERIMENTS.contains(&n.as_str()))
    {
        return Err(format!("unknown experiment {bad}"));
    }
    if names.is_empty() || names.iter().any(|n| n == "all") {
        return Ok(ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect());
    }
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_table1_has_five_rows() {
        let t = table1(&Settings::tiny());
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn tiny_fig4_covers_regions_and_crash() {
        let t = fig4(&Settings::tiny());
        let text = t.to_text();
        assert!(text.contains("guardband"));
        assert!(text.contains("CRASH"));
    }

    #[test]
    fn prefetch_is_jobs_invariant_and_fills_the_cache() {
        let s = Settings::tiny();
        let prefetch = |jobs| {
            prefetch_sweeps(&s, jobs, &SupervisorConfig::default(), None, None)
                .unwrap()
                .report
        };
        let serial = prefetch(1);
        let parallel = prefetch(4);
        assert_eq!(serial.to_csv(), parallel.to_csv());
        assert_eq!(serial.results.len(), BenchmarkId::ALL.len());
        let cache = sweep_cache().lock().expect("cache lock");
        for kind in BenchmarkId::ALL {
            assert!(
                cache.contains_key(&cache_key(&s, kind, 0)),
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    fn campaign_options_parse_both_spellings_and_validate() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let (opts, positional) = CampaignOptions::from_args(
            &args(&[
                "fig6",
                "--jobs=2",
                "--image-jobs=4",
                "--journal",
                "run.journal",
                "--resume",
                "--max-attempts=5",
                "--fault-profile",
                "light",
                "--halt-after-cells=3",
                "--defense",
                "correct",
                "--governor",
            ]),
            &[],
        )
        .unwrap();
        assert_eq!(positional, ["fig6"]);
        assert_eq!(opts.jobs, 2);
        assert_eq!(opts.image_jobs, 4);
        assert_eq!(opts.supervisor_config().image_jobs, 4);
        assert_eq!(
            opts.journal.as_deref(),
            Some(std::path::Path::new("run.journal"))
        );
        assert!(opts.resume);
        assert_eq!(opts.max_attempts, 5);
        assert_eq!(opts.fault_profile, BusFaultProfile::light());
        assert_eq!(opts.halt_after, Some(3));
        assert_eq!(opts.supervisor_config().max_attempts, 5);
        assert_eq!(opts.supervisor_config().halt_after, Some(3));
        assert!(opts.journal_spec().is_some_and(|j| j.resume));
        assert_eq!(opts.defense, DefenseMode::Correct);
        assert!(opts.governor);

        let (defaults, _) =
            CampaignOptions::from_args(&args(&["fig3", "--csv"]), &["--csv"]).unwrap();
        assert_eq!(defaults.jobs, 0, "absent flag means available parallelism");
        assert_eq!(defaults.image_jobs, 0, "absent flag means auto-split");
        assert_eq!(defaults.fault_profile, BusFaultProfile::none());
        assert!(defaults.journal.is_none() && !defaults.resume);
        assert_eq!(defaults.defense, DefenseMode::Off);
        assert!(!defaults.governor);

        let rejects = |v: &[&str]| CampaignOptions::from_args(&args(v), &[]).is_err();
        assert!(rejects(&["--resume"]));
        assert!(rejects(&["--fault-profile", "bad"]));
        assert!(rejects(&["--defense", "nope"]));
        assert!(rejects(&["--max-attempts", "0"]));
        assert!(rejects(&["--journal"]));
        assert!(rejects(&["--image-jobs", "x"]));
        assert!(rejects(&["--image-jobs"]));
        assert!(rejects(&["--jobs", "x"]));
        assert!(rejects(&["--jobs"]));
    }

    #[test]
    fn unknown_flags_and_experiments_are_rejected_before_any_work() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // `repro`'s command line: its two switches, then experiment names.
        let repro = |v: &[&str]| {
            CampaignOptions::from_args(&args(v), &["--quick", "--csv"])
                .and_then(|(_, names)| select_experiments(names))
        };
        assert!(repro(&["--quick", "--bogus", "power-breakdown"]).is_err());
        assert!(repro(&["--quik", "fig3"]).is_err());
        assert!(repro(&["--quick=yes", "fig3"]).is_err());
        assert!(repro(&["--governor=on", "fig3"]).is_err());
        assert!(repro(&["--quick", "power-breakdown", "nosuch"]).is_err());
        assert!(repro(&["--quick", "Fig3"]).is_err());
        assert_eq!(
            repro(&["--quick", "--jobs", "2", "fig3", "--csv", "table2"]).unwrap(),
            ["fig3", "table2"]
        );
        assert_eq!(repro(&["--quick", "fig3", "all"]).unwrap(), ALL_EXPERIMENTS);
        assert_eq!(repro(&["--jobs=2"]).unwrap(), ALL_EXPERIMENTS);
        // With no switches of its own, a caller accepts the campaign flags only.
        assert!(CampaignOptions::from_args(&args(&["--bogus"]), &[]).is_err());
        assert!(CampaignOptions::from_args(&args(&["--quick"]), &[]).is_err());
        assert!(CampaignOptions::from_args(&args(&["--jobs", "3", "--governor"]), &[]).is_ok());
    }

    #[test]
    fn fault_profile_partitions_the_sweep_cache() {
        let clean = Settings::tiny();
        let faulty = Settings {
            bus_faults: BusFaultProfile::light(),
            ..Settings::tiny()
        };
        assert_ne!(
            cache_key(&clean, BenchmarkId::VggNet, 0),
            cache_key(&faulty, BenchmarkId::VggNet, 0)
        );
    }

    #[test]
    fn defense_and_governor_partition_the_sweep_cache() {
        let plain = Settings::tiny();
        let defended = Settings {
            defense: DefenseMode::Correct,
            ..Settings::tiny()
        };
        let governed = Settings {
            governor: true,
            ..Settings::tiny()
        };
        let key = |s: &Settings| cache_key(s, BenchmarkId::VggNet, 0);
        assert_ne!(key(&plain), key(&defended));
        assert_ne!(key(&plain), key(&governed));
        assert_ne!(key(&defended), key(&governed));
    }

    #[test]
    fn halted_prefetch_resumes_to_straight_bytes_under_faults() {
        let s = Settings {
            bus_faults: BusFaultProfile::light(),
            ..Settings::tiny()
        };
        let straight = prefetch_sweeps(&s, 2, &SupervisorConfig::default(), None, None)
            .unwrap()
            .report
            .to_csv();

        let dir = std::env::temp_dir().join("redvolt-harness-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("prefetch-{}.journal", std::process::id()));
        let halted = prefetch_sweeps(
            &s,
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

        let resumed = prefetch_sweeps(
            &s,
            2,
            &SupervisorConfig::default(),
            Some(&JournalSpec::new(&path, true)),
            None,
        )
        .unwrap();
        assert!(!resumed.interrupted);
        assert_eq!(resumed.resumed_cells, 2);
        assert_eq!(resumed.report.to_csv(), straight);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn experiment_names_resolve() {
        for name in ALL_EXPERIMENTS {
            // Only check dispatch for the cheap ones in tests.
            if matches!(name, "table1" | "power-breakdown") {
                assert!(run_experiment(name, &Settings::tiny()).is_some());
            }
        }
        assert!(run_experiment("nope", &Settings::tiny()).is_none());
    }
}
