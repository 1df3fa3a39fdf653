//! The benchmark's workloads, each driven through the stack's public
//! entry points (untraced) or through the crate calls beneath them, with
//! a span around every call (traced).

use crate::trace::Tracer;
use redvolt_bench::harness::{self, Settings};
use redvolt_core::bench_suite::Workload;
use redvolt_core::executor::{CampaignPlan, CampaignReport, CellAction, CellOutcome, CellResult};
use redvolt_core::experiment::{Accelerator, AcceleratorConfig, MeasureError};
use redvolt_core::sweep::{SweepConfig, VoltageSweep};
use redvolt_core::telemetry::CampaignTelemetry;
use redvolt_core::workload_cache;
use redvolt_serve::report::ServeReport;
use redvolt_serve::sim::{self, ServeConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The paper's three board samples, as in a full `repro` run.
const BOARDS: [u32; 3] = [0, 1, 2];

/// Simulated-channel counts of one operation (deterministic per input).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Images the simulated DPU executed.
    pub images: u64,
    /// Bit flips delivered into the datapath plus ECC words touched and
    /// ABFT mismatches flagged.
    pub sdc_events: u64,
    /// Mitigation-ladder moves (governor escalations).
    pub escalations: u64,
}

/// One completed operation.
pub struct Done {
    /// Host time of the operation, excluding its correctness checks.
    pub elapsed: Duration,
    /// Items completed: simulated images, or served requests.
    pub items: u64,
    /// Every byte the operation exports; later runs must repeat it.
    pub output: String,
    pub counts: Counts,
    /// Whether the outputs satisfy the paper's invariants.
    pub verdict: Result<(), String>,
}

/// Clean-path inference speed of the workload's quantized models.
pub struct KernelProbe {
    /// Host ns to classify one image on each model once.
    pub ns_per_image: f64,
    pub gmac_per_s: f64,
}

pub trait Bench {
    /// Cold set-up: empties the process-wide workload cache and brings
    /// the stack up to the point where every input can run.
    fn setup(&mut self) -> Result<(), String>;
    /// Cold set-ups per untraced run, spread over it; their median is
    /// `setup_s`.
    fn setups(&self) -> usize;
    /// Distinct inputs the measured operations cycle through.
    fn inputs(&self) -> usize;
    /// Names input `input` in diagnostics.
    fn label(&self, input: usize) -> String;
    /// What `Done::items` counts.
    fn item_name(&self) -> &'static str;
    /// Runs one operation on `input`, traced when a tracer is given.
    fn run(&mut self, input: usize, tracer: Option<&mut Tracer>) -> Result<Done, String>;
    /// Times clean inference of the workload's models (traced runs only).
    fn probe_kernels(&mut self, tracer: &mut Tracer) -> Result<KernelProbe, String>;
}

pub fn build(name: &str, seed: u64) -> Result<Box<dyn Bench>, String> {
    match name {
        "sweep" => Ok(Box::new(Sweep::new(seed))),
        "serve" => Ok(Box::new(Serve::new(seed))),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Evaluation images per sweep point: `repro --quick`'s 32, scaled down
/// 8x so that every cell runs several times in one run.
const SWEEP_IMAGES: usize = 4;

/// The cells of the sweep grid `repro` runs for the paper's Figs. 3-6
/// (`harness::sweep_plan`): every CNN of the suite on each of the three
/// board samples, paper-scale models swept from Vnom past Vcrash in 5 mV
/// steps with 3 repetitions per faulting point. The settings are
/// `repro --quick`'s, on all three boards as in a full run, with
/// [`SWEEP_IMAGES`] images. An operation runs one cell on one worker as
/// a one-cell plan under the run's seed, so the three boards of a CNN
/// share one prepared workload and every run of a cell executes the same
/// images. `repro` spreads the cells over `--jobs` workers instead, which
/// changes their scheduling, not their work.
struct Sweep {
    plans: Vec<CampaignPlan>,
    cycles_per_image: Vec<u64>,
}

impl Sweep {
    fn new(seed: u64) -> Self {
        let settings = Settings {
            boards: BOARDS.to_vec(),
            images: SWEEP_IMAGES,
            ..Settings::quick()
        };
        let plans: Vec<CampaignPlan> = harness::sweep_plan(&settings)
            .cells()
            .iter()
            .map(|cell| {
                let mut plan = CampaignPlan::new(seed);
                plan.push(cell.clone());
                plan
            })
            .collect();
        Sweep {
            cycles_per_image: vec![1; plans.len()],
            plans,
        }
    }

    /// The accelerator of plan `input` with its campaign-derived seed
    /// stamped in, exactly as the executor brings it up.
    fn config(&self, input: usize) -> AcceleratorConfig {
        let plan = &self.plans[input];
        plan.cells()[0].config.with_seed(plan.cell_seed(0))
    }
}

/// The paper's sweep invariants: a fault-free guardband at nominal
/// accuracy down to 600 mV (every board's Vmin lies below it), faults in
/// the critical region, and a hang before the sweep's floor.
fn check_sweep(outcome: &CellOutcome) -> Result<(), String> {
    let CellOutcome::Sweep(s) = outcome else {
        return Err(format!("unexpected cell outcome {outcome:?}"));
    };
    let nominal = s.points.first().ok_or("empty sweep")?;
    if nominal.vccint_mv != 850.0 || s.points.len() < 20 {
        return Err(format!("sweep kept only {} points", s.points.len()));
    }
    if s.crashed_at_mv.is_none() {
        return Err("sweep never reached Vcrash".into());
    }
    if s.points
        .windows(2)
        .any(|w| w[1].vccint_mv >= w[0].vccint_mv)
    {
        return Err("sweep voltages do not descend".into());
    }
    for m in s.points.iter().filter(|m| m.vccint_mv >= 600.0) {
        if m.injected_faults != 0 || m.accuracy != nominal.accuracy {
            return Err(format!("guardband point {} mV is not clean", m.vccint_mv));
        }
    }
    if s.points.iter().all(|m| m.injected_faults == 0) {
        return Err("no point below Vmin injected a fault".into());
    }
    Ok(())
}

/// The bytes a campaign hands its user: the payload CSV plus the
/// telemetry exports of `--metrics-out` and `--prom-out`.
fn campaign_exports(report: &CampaignReport) -> String {
    let telemetry = CampaignTelemetry::collect(report);
    report.to_csv() + &telemetry.to_jsonl() + &telemetry.to_prometheus()
}

/// [`CampaignPlan::run_sharded`]`(1, 1)` for a one-cell sweep plan, one
/// crate call at a time: bring-up, each PMBus voltage step, each
/// measurement, and the telemetry drain and exports.
fn run_cell_traced(
    plan: &CampaignPlan,
    tr: &mut Tracer,
) -> Result<(CampaignReport, String), String> {
    let started = Instant::now();
    let root = tr.begin("cell", "core");
    let mut spec = plan.cells()[0].clone();
    spec.config = spec.config.with_seed(plan.cell_seed(0));
    let CellAction::Sweep(cfg) = spec.action else {
        return Err("only sweep cells are traced".into());
    };
    let mut acc = tr
        .span("bring_up", "core", || Accelerator::bring_up(&spec.config))
        .map_err(|e| e.to_string())?;
    acc.set_cycle_budget(None);
    acc.set_image_jobs(1);
    let sweep = sweep_traced(&mut acc, &cfg, tr)?;
    let telemetry = tr.span("take_telemetry", "telemetry", || acc.take_telemetry());
    let report = CampaignReport {
        jobs: 1,
        image_jobs: 1,
        elapsed: started.elapsed(),
        results: vec![CellResult {
            index: 0,
            spec,
            outcome: CellOutcome::Sweep(sweep),
            elapsed: started.elapsed(),
            worker: 0,
            attempts: 1,
            telemetry,
        }],
    };
    let output = tr.span("export", "telemetry", || campaign_exports(&report));
    tr.end(root);
    Ok((report, output))
}

/// `redvolt_core::sweep::voltage_sweep` with a span per crate call.
fn sweep_traced(
    acc: &mut Accelerator,
    cfg: &SweepConfig,
    tr: &mut Tracer,
) -> Result<VoltageSweep, String> {
    let mut points = Vec::new();
    let mut crashed_at_mv = None;
    for mv in cfg.voltages_mv() {
        let step = tr
            .span("set_vout", "pmbus", || acc.set_vccint_mv(mv))
            .and_then(|()| tr.span("measure", "dpu", || acc.measure(cfg.images)));
        match step {
            Ok(m) => points.push(m),
            Err(MeasureError::Crashed { vccint_mv }) => {
                crashed_at_mv = Some(vccint_mv);
                break;
            }
            Err(e) => {
                acc.power_cycle();
                return Err(e.to_string());
            }
        }
    }
    acc.power_cycle();
    Ok(VoltageSweep {
        points,
        crashed_at_mv,
    })
}

impl Bench for Sweep {
    /// Prepares the workload of every CNN in the plan.
    fn setup(&mut self) -> Result<(), String> {
        workload_cache::reset();
        for input in 0..self.plans.len() {
            let acc = Accelerator::bring_up(&self.config(input)).map_err(|e| e.to_string())?;
            self.cycles_per_image[input] = acc.workload().task.kernel.total_cycles().max(1);
        }
        Ok(())
    }

    /// A set-up prepares five paper-scale models, several seconds of work.
    fn setups(&self) -> usize {
        3
    }

    fn inputs(&self) -> usize {
        self.plans.len()
    }

    fn label(&self, input: usize) -> String {
        self.plans[input].cells()[0].label()
    }

    fn item_name(&self) -> &'static str {
        "images"
    }

    fn run(&mut self, input: usize, tracer: Option<&mut Tracer>) -> Result<Done, String> {
        let plan = &self.plans[input];
        let t = Instant::now();
        let (report, output) = match tracer {
            None => {
                let report = plan.run_sharded(1, 1).map_err(|e| e.to_string())?;
                let output = campaign_exports(&report);
                (report, output)
            }
            Some(tr) => run_cell_traced(plan, tr)?,
        };
        let elapsed = t.elapsed();
        let cell = &report.results[0];
        let tel = &cell.telemetry;
        let images = tel.cycles / self.cycles_per_image[input];
        Ok(Done {
            elapsed,
            items: images,
            output,
            counts: Counts {
                images,
                sdc_events: tel.dpu_faults
                    + tel.ecc_corrected
                    + tel.ecc_uncorrectable
                    + tel.abft_mismatches,
                escalations: 0,
            },
            verdict: check_sweep(&cell.outcome),
        })
    }

    /// Probes every CNN of the plan, on its first board's input.
    fn probe_kernels(&mut self, tracer: &mut Tracer) -> Result<KernelProbe, String> {
        let mut accs = Vec::new();
        for input in 0..self.plans.len() {
            let config = self.config(input);
            if config.board_sample == BOARDS[0] {
                accs.push(Accelerator::bring_up(&config).map_err(|e| e.to_string())?);
            }
        }
        probe_kernels(
            accs.iter_mut().map(|a| a.runtime_and_workload_mut().1),
            tracer,
        )
    }
}

/// A serving scenario: fleet bring-up and Vmin calibration, the event
/// loop over the request stream, then every export `serve run` writes.
struct Serve {
    cfg: ServeConfig,
}

impl Serve {
    fn new(seed: u64) -> Self {
        Serve {
            cfg: ServeConfig {
                seed,
                requests: 400,
                ..ServeConfig::smoke()
            },
        }
    }
}

fn serve_exports(report: &ServeReport) -> String {
    report.to_text()
        + &report.to_jsonl()
        + &report.to_prometheus()
        + &report.to_chrome_trace()
        + &report.to_flight_jsonl()
}

impl Bench for Serve {
    /// Time to the first response of a cold process: workload
    /// preparation, fleet bring-up and calibration, one request served.
    fn setup(&mut self) -> Result<(), String> {
        workload_cache::reset();
        sim::run(&ServeConfig {
            requests: 1,
            ..self.cfg
        })
        .map(|_| ())
        .map_err(|e| e.to_string())
    }

    /// A set-up takes about 0.15 s; contention phases of a few seconds
    /// reach some of them, and many samples keep the median clear of them.
    fn setups(&self) -> usize {
        31
    }

    fn inputs(&self) -> usize {
        1
    }

    fn label(&self, _input: usize) -> String {
        format!("{}/fleet", self.cfg.benchmark.name())
    }

    fn item_name(&self) -> &'static str {
        "requests"
    }

    fn run(&mut self, _input: usize, tracer: Option<&mut Tracer>) -> Result<Done, String> {
        let cfg = &self.cfg;
        let t = Instant::now();
        let (report, output) = match tracer {
            None => {
                let outcome = sim::run(cfg).map_err(|e| e.to_string())?;
                let report = ServeReport::build(cfg, outcome);
                let output = serve_exports(&report);
                (report, output)
            }
            Some(tr) => {
                let root = tr.begin("scenario", "serve");
                let outcome = tr
                    .span("sim_run", "serve", || sim::run(cfg))
                    .map_err(|e| e.to_string())?;
                let report = tr.span("report", "telemetry", || ServeReport::build(cfg, outcome));
                let output = tr.span("export", "telemetry", || serve_exports(&report));
                tr.end(root);
                (report, output)
            }
        };
        let elapsed = t.elapsed();
        let out = &report.outcome;
        let c = &out.counters;
        let verdict = if c.silently_corrupt != 0 {
            Err(format!("{} silently corrupt responses", c.silently_corrupt))
        } else if c.offered != cfg.requests
            || c.completed + c.shed + c.dropped_on_crash != c.offered
            || c.completed == 0
        {
            Err(format!("requests not conserved: {c:?}"))
        } else {
            Ok(())
        };
        let images = out
            .batch_spans
            .iter()
            .filter(|b| !b.crashed)
            .map(|b| b.requests as u64)
            .sum();
        Ok(Done {
            elapsed,
            items: c.completed,
            output,
            counts: Counts {
                images,
                sdc_events: out.boards.iter().map(|b| b.events).sum(),
                escalations: c.escalations,
            },
            verdict,
        })
    }

    /// Probes the served model's workload (the fleet serves tiny-scale
    /// models, so this is the cache entry the scenario prepared).
    fn probe_kernels(&mut self, tracer: &mut Tracer) -> Result<KernelProbe, String> {
        let mut acc = Accelerator::bring_up(&AcceleratorConfig {
            eval_images: self.cfg.eval_images,
            seed: self.cfg.seed,
            ..AcceleratorConfig::tiny(self.cfg.benchmark)
        })
        .map_err(|e| e.to_string())?;
        probe_kernels([acc.runtime_and_workload_mut().1], tracer)
    }
}

/// Clean quantized inference over each workload's evaluation set,
/// repeated for at least half a second per workload: the sum of the
/// median per-image times, and the MACs of one image on every model over
/// that sum.
fn probe_kernels<'a>(
    workloads: impl IntoIterator<Item = &'a mut Workload>,
    tracer: &mut Tracer,
) -> Result<KernelProbe, String> {
    let (mut ns_per_image, mut macs) = (0.0, 0);
    for workload in workloads {
        let images = workload.eval.images.clone();
        macs += workload.task.kernel.total_macs();
        let model = workload.task.model_mut();
        let mut per_image_ns = Vec::new();
        let started = Instant::now();
        while per_image_ns.len() < 5 || started.elapsed() < Duration::from_millis(500) {
            let t = Instant::now();
            tracer.span("predict", "nn", || {
                for image in &images {
                    black_box(model.predict(black_box(image))).map_err(|e| e.to_string())?;
                }
                Ok::<(), String>(())
            })?;
            per_image_ns.push(t.elapsed().as_nanos() as f64 / images.len().max(1) as f64);
        }
        ns_per_image += crate::median(per_image_ns);
    }
    Ok(KernelProbe {
        ns_per_image,
        gmac_per_s: macs as f64 / ns_per_image,
    })
}
