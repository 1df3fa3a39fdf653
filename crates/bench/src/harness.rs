//! Campaign drivers, one per table/figure of the paper.
//!
//! A reproduction is one [`Run`]: its [`Settings`], the sweeps of the one
//! supervised [`sweep_plan`] campaign that Figs. 3–6 and Table 2 read, and
//! the temperature study Figs. 9 and 10 share. `repro` runs the campaign,
//! builds the run from its report and hands it to [`run_experiment`], so
//! every table is a pure function of the settings and that campaign; the
//! harness keeps no process-wide state.

use crate::cli::CommandLine;
use redvolt_core::bench_suite::{benchmark_index, BenchmarkId};
use redvolt_core::executor::{CampaignPlan, CampaignReport};
use redvolt_core::experiment::{Accelerator, AcceleratorConfig};
use redvolt_core::freqscale::{frequency_underscaling, FreqScaleConfig, FreqScaleRow};
use redvolt_core::guardband::VoltageRegions;
use redvolt_core::pruneexp::{pruning_study, PruneStudy};
use redvolt_core::quantexp::{quantization_study, QuantStudy, FIG7_PRECISIONS};
use redvolt_core::report::{fmt, norm, pct, Table};
use redvolt_core::supervisor::{JournalSpec, SupervisorConfig};
use redvolt_core::sweep::{SweepConfig, VoltageSweep};
use redvolt_core::telemetry::CampaignTelemetry;
use redvolt_core::tempexp::{temperature_study, TempStudy, SETPOINTS_C};
use redvolt_core::{efficiency, experiment::Measurement};
use redvolt_faults::bus::BusFaultProfile;
use redvolt_nn::abft::DefenseMode;
use redvolt_nn::models::ModelScale;
use redvolt_num::stats;
use redvolt_telemetry::progress::ProgressReporter;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

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
    /// Adaptive undervolt governor (`--governor`), armed in every cell's
    /// config. Its rescue acts on measurement cells only, and the sweep
    /// campaign has none, so no table here changes with it.
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

/// The (benchmark × board) sweep grid that [`CAMPAIGN_EXPERIMENTS`] read:
/// `repro` runs it once under the supervisor and hands its report to
/// [`Run::new`].
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

/// The experiments that read the [`sweep_plan`] campaign from the [`Run`];
/// `repro` runs the campaign when any of them is asked for.
pub const CAMPAIGN_EXPERIMENTS: [&str; 5] = ["fig3", "fig4", "fig5", "fig6", "table2"];

/// One reproduction run: its settings, the sweeps of its one supervised
/// campaign and its temperature study. `repro` builds it once, after the
/// campaign, and every experiment reads from it, so each table is a pure
/// function of the settings and that campaign.
#[derive(Debug)]
pub struct Run {
    /// The run's settings; the temperature study is measured under them.
    settings: Settings,
    /// The campaign's completed sweeps by (benchmark index, board), or
    /// `None` for a run without a campaign.
    sweeps: Option<HashMap<(usize, u32), VoltageSweep>>,
    /// Figs. 9 and 10's study, measured on first use.
    temperature: OnceLock<TempStudy>,
}

impl Run {
    /// A run over `campaign`, the finished [`sweep_plan`] of `settings`,
    /// or without one when no experiment of [`CAMPAIGN_EXPERIMENTS`] is
    /// run. Only the campaign's sweep outcomes are kept: a cell that
    /// aborted has no sweep, and nothing re-measures it.
    pub fn new(settings: Settings, campaign: Option<&CampaignReport>) -> Run {
        let sweeps = campaign.map(|report| {
            report
                .results
                .iter()
                .filter_map(|r| {
                    let cfg = &r.spec.config;
                    let key = (benchmark_index(cfg.benchmark), cfg.board_sample);
                    r.outcome.as_sweep().map(|sweep| (key, sweep.clone()))
                })
                .collect()
        });
        Run {
            settings,
            sweeps,
            temperature: OnceLock::new(),
        }
    }

    /// The campaign's sweep of `kind` on `board`, or `None` when that cell
    /// aborted.
    ///
    /// # Panics
    ///
    /// Panics, naming `experiment`, when the run has no campaign: the
    /// experiment is missing from [`CAMPAIGN_EXPERIMENTS`].
    fn sweep(&self, experiment: &str, kind: BenchmarkId, board: u32) -> Option<&VoltageSweep> {
        let sweeps = self.sweeps.as_ref().unwrap_or_else(|| {
            panic!(
                "{experiment} reads the sweep campaign, but this run has none: \
                 CAMPAIGN_EXPERIMENTS must list {experiment}"
            )
        });
        sweeps.get(&(benchmark_index(kind), board))
    }

    /// Figs. 9 and 10's temperature study (GoogleNet, first board),
    /// measured on first use and shared by both.
    fn temperature(&self) -> &TempStudy {
        self.temperature.get_or_init(|| {
            let s = &self.settings;
            temperature_study(
                &s.config(BenchmarkId::GoogleNet, s.boards[0]),
                &SETPOINTS_C,
                &fig_sweep(s.images),
            )
            .expect("temperature study")
        })
    }
}

/// The campaign flags that take a value.
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

/// The campaign flags that take none.
const SWITCHES: [&str; 2] = ["--resume", "--governor"];

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
    /// Adaptive undervolt governor (`--governor`); see
    /// [`Settings::governor`].
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
    /// Reads the shared campaign flags out of `args` with one
    /// [`CommandLine`], which also takes the calling binary's own
    /// value-less `switches`. Returns the options and that command line,
    /// from which the caller reads its switches and, in order, its
    /// positional arguments.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for any other `--flag`, a missing
    /// or malformed value, an unknown fault profile or defense mode, or
    /// `--resume` without `--journal`.
    pub fn from_args<'a>(
        args: &'a [String],
        switches: &[&str],
    ) -> Result<(Self, CommandLine<'a>), String> {
        let line = CommandLine::parse(args, &VALUE_FLAGS, &[&SWITCHES[..], switches].concat())?;
        let d = CampaignOptions::default();
        let opts = CampaignOptions {
            jobs: line.value("--jobs")?.unwrap_or(d.jobs),
            image_jobs: line.value("--image-jobs")?.unwrap_or(d.image_jobs),
            journal: line.value("--journal")?,
            resume: line.has("--resume"),
            max_attempts: line
                .read("--max-attempts", "a positive integer", |v| {
                    v.parse().ok().filter(|&n| n >= 1)
                })?
                .unwrap_or(d.max_attempts),
            fault_profile: line
                .read(
                    "--fault-profile",
                    "none, light or heavy",
                    BusFaultProfile::parse,
                )?
                .unwrap_or(d.fault_profile),
            halt_after: line.value("--halt-after-cells")?,
            metrics_out: line.value("--metrics-out")?,
            prom_out: line.value("--prom-out")?,
            progress: line.value("--progress")?,
            defense: line
                .read("--defense", "off, detect or correct", DefenseMode::parse)?
                .unwrap_or(d.defense),
            governor: line.has("--governor"),
        };
        if opts.resume && opts.journal.is_none() {
            return Err("--resume requires --journal PATH".to_string());
        }
        Ok((opts, line))
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
}

/// Writes the telemetry exports `--metrics-out` / `--prom-out` request
/// (no-op when neither path is given) — for a campaign's
/// [`CampaignOptions`] and for `calibrate`'s audit alike. The JSONL
/// stream additionally carries the process-wide workload cache
/// effectiveness samples (hits, misses, occupancy); the Prometheus
/// exposition stays a pure function of `(seed, plan)`.
///
/// # Errors
///
/// Propagates file-write errors.
pub fn export_telemetry(
    telemetry: &CampaignTelemetry,
    metrics_out: Option<&Path>,
    prom_out: Option<&Path>,
) -> std::io::Result<()> {
    if let Some(path) = metrics_out {
        std::fs::write(path, telemetry.to_jsonl_with_cache_stats())?;
    }
    if let Some(path) = prom_out {
        telemetry.write_prometheus(path)?;
    }
    Ok(())
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

/// The regions of one campaign sweep by [`VoltageRegions::from_sweep`]'s
/// rule: no observed fault and accuracy within 1 % of the nominal point.
fn regions(sweep: &VoltageSweep) -> VoltageRegions {
    VoltageRegions::from_sweep(sweep, 0.01).expect("non-empty sweep")
}

/// The row that stands for an aborted campaign cell: `lead`, `ABORTED`,
/// then `-` up to `width` columns.
fn aborted_row(lead: &[String], width: usize) -> Vec<String> {
    let mut row = lead.to_vec();
    row.push("ABORTED".to_string());
    row.resize(width, "-".to_string());
    row
}

/// Appends an [`aborted_row`] for each board whose `kind` cell aborted, to
/// a table that averages over boards and so has no row of that cell.
fn mark_aborted_boards(
    t: &mut Table,
    run: &Run,
    experiment: &str,
    kind: BenchmarkId,
    width: usize,
) {
    for &board in &run.settings.boards {
        if run.sweep(experiment, kind, board).is_none() {
            t.row(&aborted_row(&[format!("{}/b{board}", kind.name())], width));
        }
    }
}

/// **Figure 3** — voltage regions per benchmark and board. An aborted
/// cell's row says so, and the means leave it out.
pub fn fig3(run: &Run) -> Table {
    let s = &run.settings;
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
            let (name, board_col) = (kind.name().to_string(), board.to_string());
            let Some(sweep) = run.sweep("fig3", kind, board) else {
                t.row(&aborted_row(&[name, board_col], 7));
                continue;
            };
            let r = regions(sweep);
            vmins.push(r.vmin_mv);
            vcrashes.push(r.vcrash_mv);
            t.row(&[
                name,
                board_col,
                fmt(r.vmin_mv, 0),
                fmt(r.vcrash_mv, 0),
                fmt(r.guardband_mv(), 0),
                pct(r.guardband_fraction()),
                fmt(r.critical_mv(), 0),
            ]);
        }
    }
    let mean = |v: &[f64]| stats::mean(v).unwrap_or(f64::NAN);
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

/// **Figure 4** — overall voltage behaviour (GoogleNet): power-efficiency
/// and accuracy vs voltage, showing the three regions.
pub fn fig4(run: &Run) -> Table {
    let mut t = Table::new(
        "Fig 4: Overall voltage behaviour (GoogleNet, board 0)",
        &["VCCINT mV", "Power W", "GOPs/W gain", "Accuracy", "Region"],
    );
    let Some(sweep) = run.sweep("fig4", BenchmarkId::GoogleNet, run.settings.boards[0]) else {
        t.row(&aborted_row(&[], 5));
        return t;
    };
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
/// over the configured boards). An aborted cell gets a row of its own
/// after its benchmark's, and the means leave it out.
pub fn fig5(run: &Run) -> Table {
    let s = &run.settings;
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
        for sweep in s.boards.iter().filter_map(|&b| run.sweep("fig5", kind, b)) {
            if let Some(h) = efficiency::headline(sweep, regions(sweep).vmin_mv) {
                at_vmin.push(h.gain_at_vmin);
                at_crash.push(h.gain_at_vcrash);
            }
            base_eff.push(sweep.nominal().gops_per_w);
        }
        let mean = |v: &[f64]| stats::mean(v).unwrap_or(f64::NAN);
        let (gv, gc) = (mean(&at_vmin), mean(&at_crash));
        if !base_eff.is_empty() {
            t.row(&[
                kind.name().to_string(),
                fmt(mean(&base_eff), 1),
                norm(gv),
                norm(gc),
                pct(gc / gv - 1.0),
            ]);
        }
        mark_aborted_boards(&mut t, run, "fig5", kind, 5);
    }
    t
}

/// **Figure 6** — accuracy vs voltage in the critical region, per
/// benchmark and board; an aborted cell has one row that says so.
pub fn fig6(run: &Run) -> Table {
    let s = &run.settings;
    let mut t = Table::new(
        "Fig 6: Accuracy vs voltage below the guardband (per board)",
        &["Model", "Board", "mV", "Accuracy", "Acc std", "Faults"],
    );
    for kind in BenchmarkId::ALL {
        for &board in &s.boards {
            let Some(sweep) = run.sweep("fig6", kind, board) else {
                let lead = [kind.name().to_string(), board.to_string()];
                t.row(&aborted_row(&lead, 6));
                continue;
            };
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
/// three-board average anchored at the mean Vmin of 570 mV). A board
/// whose VGGNet sweep aborted has no Vmin, so it is not scanned: the means
/// leave it out and a trailing row names it.
pub fn table2(run: &Run) -> Table {
    let s = &run.settings;
    let mut per_board: Vec<Vec<FreqScaleRow>> = Vec::new();
    for &board in &s.boards {
        let Some(sweep) = run.sweep("table2", BenchmarkId::VggNet, board) else {
            continue;
        };
        let vmin_mv = regions(sweep).vmin_mv;
        let mut acc = bring_up(&s.config(BenchmarkId::VggNet, board));
        let rows = frequency_underscaling(
            &mut acc,
            &FreqScaleConfig {
                start_mv: vmin_mv,
                stop_mv: vmin_mv - 30.0,
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
    mark_aborted_boards(&mut t, run, "table2", BenchmarkId::VggNet, 6);
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
pub fn fig9(run: &Run) -> Table {
    let study = run.temperature();
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
pub fn fig10(run: &Run) -> Table {
    let study = run.temperature();
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

/// Runs a named experiment on `run`, returning its rendered tables, or
/// `None` for a name outside [`ALL_EXPERIMENTS`].
pub fn run_experiment(name: &str, run: &Run) -> Option<Vec<Table>> {
    let s = &run.settings;
    let tables = match name {
        "table1" => vec![table1(s)],
        "power-breakdown" => vec![power_breakdown(s)],
        "fig3" => vec![fig3(run)],
        "fig4" => vec![fig4(run)],
        "fig5" => vec![fig5(run)],
        "fig6" => vec![fig6(run)],
        "table2" => vec![table2(run)],
        "fig7" => {
            let (a, b) = fig7(s);
            vec![a, b]
        }
        "fig8" => {
            let (a, b) = fig8(s);
            vec![a, b]
        }
        "fig9" => vec![fig9(run)],
        "fig10" => vec![fig10(run)],
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
pub fn select_experiments(names: &[&str]) -> Result<Vec<String>, String> {
    if let Some(bad) = names
        .iter()
        .find(|n| **n != "all" && !ALL_EXPERIMENTS.contains(n))
    {
        return Err(format!("unknown experiment {bad}"));
    }
    let names = if names.is_empty() || names.contains(&"all") {
        &ALL_EXPERIMENTS[..]
    } else {
        names
    };
    Ok(names.iter().map(|s| s.to_string()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use redvolt_core::executor::CellOutcome;
    use redvolt_core::supervisor::run_supervised;

    /// `s`'s sweep campaign, supervised on `jobs` workers with no journal.
    fn campaign(s: &Settings, jobs: usize) -> CampaignReport {
        run_supervised(
            &sweep_plan(s),
            jobs,
            &SupervisorConfig::default(),
            None,
            None,
        )
        .unwrap()
        .report
    }

    #[test]
    fn tiny_table1_has_five_rows() {
        let t = table1(&Settings::tiny());
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn tiny_fig4_covers_regions_and_crash() {
        let s = Settings::tiny();
        let report = campaign(&s, 2);
        let text = fig4(&Run::new(s, Some(&report))).to_text();
        assert!(text.contains("guardband"));
        assert!(text.contains("CRASH"));
    }

    #[test]
    fn run_sweeps_are_the_campaigns_sweep_outcomes_at_any_jobs() {
        let s = Settings::tiny();
        let serial = campaign(&s, 1);
        let parallel = campaign(&s, 4);
        assert_eq!(serial.to_csv(), parallel.to_csv());
        assert_eq!(serial.results.len(), BenchmarkId::ALL.len());
        for report in [&serial, &parallel] {
            let run = Run::new(s.clone(), Some(report));
            for r in &report.results {
                let (kind, board) = (r.spec.config.benchmark, r.spec.config.board_sample);
                let sweep = r.outcome.as_sweep().expect("every tiny cell completes");
                assert_eq!(
                    run.sweep("test", kind, board),
                    Some(sweep),
                    "{}",
                    r.spec.label()
                );
            }
            assert_eq!(
                run.sweeps.as_ref().map(HashMap::len),
                Some(report.results.len())
            );
        }
    }

    #[test]
    fn an_aborted_cell_is_marked_and_left_out_of_means() {
        let s = Settings {
            boards: vec![0, 1],
            ..Settings::tiny()
        };
        let report = campaign(&s, 2);
        let render = |boards: &[u32], report: &CampaignReport| -> Vec<String> {
            let settings = Settings {
                boards: boards.to_vec(),
                ..s.clone()
            };
            let run = Run::new(settings, Some(report));
            CAMPAIGN_EXPERIMENTS
                .iter()
                .map(|name| run_experiment(name, &run).unwrap()[0].to_csv())
                .collect()
        };
        let lines = |csv: &str| csv.lines().map(str::to_string).collect::<Vec<_>>();
        let full = render(&[0, 1], &report);
        for (kind, board) in [(BenchmarkId::GoogleNet, 0), (BenchmarkId::VggNet, 1)] {
            let mut damaged = report.clone();
            for r in &mut damaged.results {
                if r.spec.config.benchmark == kind && r.spec.config.board_sample == board {
                    r.outcome = CellOutcome::Aborted {
                        cause: "panic: injected by the test".to_string(),
                    };
                }
            }
            let [fig3, fig4, fig5, fig6, table2] = &render(&[0, 1], &damaged)[..] else {
                unreachable!("five campaign experiments")
            };
            // The other board alone: the means a board-averaged row keeps.
            let other = render(&[1 - board], &report);
            let (name, label) = (kind.name(), format!("{}/b{board}", kind.name()));
            let cell = format!("{name},{board},");

            // Fig 3 and Fig 6: the cell's rows become one marker row; every
            // other cell's rows are unchanged.
            for (got, want, width) in [(fig3, &full[0], 7), (fig6, &full[3], 6)] {
                let keep = |csv: &str| {
                    lines(csv)
                        .into_iter()
                        .filter(|l| !l.starts_with(&cell) && !l.starts_with("MEAN,"))
                        .collect::<Vec<_>>()
                };
                assert_eq!(keep(got), keep(want), "{label}");
                let marker = format!("{cell}ABORTED{}", ",-".repeat(width - 3));
                let marked: Vec<String> = lines(got)
                    .into_iter()
                    .filter(|l| l.starts_with(&cell))
                    .collect();
                assert_eq!(marked, [marker], "{label}");
            }
            // Fig 3's mean row averages the cells that completed.
            let rows: Vec<Vec<f64>> = lines(fig3)[1..]
                .iter()
                .filter(|l| !l.starts_with(&cell) && !l.starts_with("MEAN,"))
                .map(|l| {
                    l.split(',')
                        .skip(2)
                        .take(2)
                        .map(|v| v.parse().unwrap())
                        .collect()
                })
                .collect();
            let mean = |col: usize| {
                let v: Vec<f64> = rows.iter().map(|r| r[col]).collect();
                fmt(stats::mean(&v).unwrap(), 0)
            };
            let mean_row = lines(fig3).pop().unwrap();
            assert!(
                mean_row.starts_with(&format!("MEAN,-,{},{},", mean(0), mean(1))),
                "{label}: {mean_row}"
            );

            // Fig 4 reads GoogleNet on the first board only.
            if label == "GoogleNet/b0" {
                assert_eq!(lines(fig4)[1..], ["ABORTED,-,-,-,-"], "{label}");
            } else {
                assert_eq!(fig4, &full[1], "{label}");
            }

            // Fig 5: the cell's benchmark averages the other board only and
            // is followed by the marker row; other benchmarks are unchanged.
            let mut want = Vec::new();
            for line in lines(&full[2]) {
                if line.starts_with(&format!("{name},")) {
                    let kept = lines(&other[2])
                        .into_iter()
                        .find(|l| l.starts_with(&format!("{name},")));
                    want.extend(kept);
                    want.push(format!("{label},ABORTED,-,-,-"));
                } else {
                    want.push(line);
                }
            }
            assert_eq!(lines(fig5), want, "{label}");

            // Table 2 scans VGGNet boards only; an aborted one is left out
            // of every mean and named in a trailing row.
            if kind == BenchmarkId::VggNet {
                let mut want = lines(&other[4]);
                want.push(format!("{label},ABORTED,-,-,-,-"));
                assert_eq!(lines(table2), want, "{label}");
            } else {
                assert_eq!(table2, &full[4], "{label}");
            }
        }
    }

    #[test]
    fn a_campaign_experiment_on_a_run_without_a_campaign_panics_naming_itself() {
        let run = Run::new(Settings::tiny(), None);
        for name in CAMPAIGN_EXPERIMENTS {
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_experiment(name, &run)
            }))
            .expect_err(name);
            let msg = panic.downcast_ref::<String>().expect("a formatted message");
            assert!(
                msg.starts_with(&format!("{name} reads the sweep campaign")),
                "{msg}"
            );
        }
    }

    #[test]
    fn campaign_options_parse_both_spellings_and_validate() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let argv = args(&[
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
        ]);
        let (opts, line) = CampaignOptions::from_args(&argv, &[]).unwrap();
        assert_eq!(line.positional(), ["fig6"]);
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

        let argv = args(&["fig3", "--csv"]);
        let (defaults, line) = CampaignOptions::from_args(&argv, &["--csv"]).unwrap();
        assert!(line.has("--csv"));
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
            let argv = args(v);
            CampaignOptions::from_args(&argv, &["--quick", "--csv"])
                .and_then(|(_, line)| select_experiments(line.positional()))
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
        // A switch given as a valued flag's value is that value only: it
        // neither turns the switch on nor names an experiment.
        let argv = args(&["--journal", "--quick", "--metrics-out", "--csv", "fig3"]);
        let (opts, line) = CampaignOptions::from_args(&argv, &["--quick", "--csv"]).unwrap();
        assert_eq!(opts.journal.as_deref(), Some(Path::new("--quick")));
        assert_eq!(opts.metrics_out.as_deref(), Some(Path::new("--csv")));
        assert!(!line.has("--quick") && !line.has("--csv"));
        assert_eq!(line.positional(), ["fig3"]);
        let argv = args(&["--journal=j.log", "--quick", "--csv", "fig3"]);
        let (_, line) = CampaignOptions::from_args(&argv, &["--quick", "--csv"]).unwrap();
        assert!(line.has("--quick") && line.has("--csv"));
        // With no switches of its own, a caller accepts the campaign flags only.
        assert!(CampaignOptions::from_args(&args(&["--bogus"]), &[]).is_err());
        assert!(CampaignOptions::from_args(&args(&["--quick"]), &[]).is_err());
        assert!(CampaignOptions::from_args(&args(&["--jobs", "3", "--governor"]), &[]).is_ok());
    }

    #[test]
    fn halted_campaign_resumes_to_straight_bytes_under_faults() {
        let s = Settings {
            bus_faults: BusFaultProfile::light(),
            ..Settings::tiny()
        };
        let plan = sweep_plan(&s);
        let straight = campaign(&s, 2).to_csv();

        let dir = std::env::temp_dir().join("redvolt-harness-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("campaign-{}.journal", std::process::id()));
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
        assert_eq!(resumed.report.to_csv(), straight);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn experiment_names_resolve() {
        let run = Run::new(Settings::tiny(), None);
        for name in ALL_EXPERIMENTS {
            // Only check dispatch for the cheap ones in tests.
            if matches!(name, "table1" | "power-breakdown") {
                assert!(run_experiment(name, &run).is_some());
            }
        }
        assert!(run_experiment("nope", &run).is_none());
    }
}
