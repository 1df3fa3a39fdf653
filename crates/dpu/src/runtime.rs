//! DNNDK-style runtime: tasks bound to a board.
//!
//! Mirrors the paper's software stack (§3.1): a kernel is created from a
//! quantized model, then tasks run batches of images on the DPU cluster.
//! The runtime publishes the running workload to the board (so power
//! telemetry reflects the live load), derives the fault injector from the
//! board's timing slack at the current operating point, and executes the
//! quantized datapath image by image. If the operating point is outside
//! the responsive region, the board hangs — exactly the paper's behaviour
//! below `Vcrash` — and the run fails until a power cycle.

use crate::compiler::{self, CompileError};
use crate::engine::{self, Timing, DEFAULT_CORES};
use crate::isa::DpuKernel;
use redvolt_faults::board_injector;
use redvolt_faults::ecc::{EccInjector, EccStats};
use redvolt_faults::model::DENSE_CRASH_SLACK_RATIO;
use redvolt_fpga::board::Zcu102Board;
use redvolt_fpga::calib::F_NOM_MHZ;
use redvolt_fpga::ecc::Scrubber;
use redvolt_fpga::power::LoadProfile;
use redvolt_nn::abft::{DefenseMode, DefenseStats};
use redvolt_nn::graph::{Graph, GraphError};
use redvolt_nn::quant::{CleanPrefix, ExecScratch, NoFaults, QuantizedGraph};
use redvolt_nn::tensor::{QTensor, Tensor};
use redvolt_num::par;
use redvolt_num::rng::derive_substream_seed;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Derives the fault-stream seed for one execution of one image of a
/// batch.
///
/// Every execution's injector state is a pure function of
/// `(batch seed, image index, attempt)` — independent of how the batch
/// is sharded across workers and which images ran before it. Attempt 0
/// is the image's first execution; Razor retries in
/// [`DpuRuntime::run_batch`] draw attempts 1, 2, … (fresh attempts draw
/// fresh faults).
pub fn image_stream_seed(batch_seed: u64, image_index: u64, attempt: u32) -> u64 {
    derive_substream_seed(batch_seed, image_index, u64::from(attempt))
}

/// Errors from runtime operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RunError {
    /// The board is hung (operating point below its crash boundary);
    /// power-cycle to recover.
    BoardCrashed,
    /// Kernel compilation failed.
    Compile(CompileError),
    /// Inference failed (bad image shape, etc.).
    Graph(GraphError),
    /// The runtime's simulated-cycle budget was exhausted — the watchdog's
    /// deterministic deadline for a cell that loops without converging.
    CycleBudgetExceeded {
        /// The budget that was exceeded, in DPU cycles.
        budget: u64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::BoardCrashed => write!(f, "board is hung; power-cycle required"),
            RunError::Compile(e) => write!(f, "compile error: {e}"),
            RunError::Graph(e) => write!(f, "inference error: {e}"),
            RunError::CycleBudgetExceeded { budget } => {
                write!(f, "simulated-cycle budget of {budget} cycles exceeded")
            }
        }
    }
}

impl std::error::Error for RunError {}

impl From<CompileError> for RunError {
    fn from(e: CompileError) -> Self {
        RunError::Compile(e)
    }
}

impl From<GraphError> for RunError {
    fn from(e: GraphError) -> Self {
        RunError::Graph(e)
    }
}

/// A loaded DPU task: compiled kernel + quantized model.
#[derive(Debug, Clone)]
pub struct DpuTask {
    /// The compiled kernel (timing/traffic model).
    pub kernel: DpuKernel,
    qgraph: QuantizedGraph,
    /// Throughput of this kernel at the nominal clock, used to normalize
    /// the board's activity (`ops_rate_norm = 1` at 333 MHz).
    nominal_gops: f64,
    /// Workload-dependent crash margin (pruned designs are tighter).
    crash_slack_ratio: f64,
    /// Workload critical-path factor (see `LoadProfile`): FC-heavy
    /// instruction mixes stress the DSP cascades slightly harder, giving
    /// the paper's "slight workload-to-workload variation" in Fig. 3.
    critical_path_factor: f64,
    /// Clean runs of the images this task and its clones have executed:
    /// an execution that draws no fault takes the prediction, a faulted
    /// one resumes after its fault-free prefix. Shared by every clone,
    /// since it belongs to the prepared model like the weights do.
    golden: Arc<GoldenMemo>,
}

impl DpuTask {
    /// Creates a task from an (already batch-norm-folded) graph.
    ///
    /// # Errors
    ///
    /// Propagates compile and quantization errors.
    pub fn create(
        name: &str,
        graph: &Graph,
        bits: u32,
        calib_images: &[Tensor],
    ) -> Result<Self, RunError> {
        let kernel = compiler::compile(name, graph, bits)?;
        let qgraph = QuantizedGraph::quantize(graph, bits, calib_images)?;
        let nominal_gops = engine::timing(&kernel, F_NOM_MHZ, DEFAULT_CORES).gops;
        // FC cycle share of the kernel, mapped onto a sub-percent path
        // stress factor (at most +0.6% effective clock, a ~3 mV Vmin
        // shift -- "slight variation" in the paper's words).
        let fc_cycles: u64 = kernel
            .instrs
            .iter()
            .map(|i| match i {
                crate::isa::DpuInstr::Fc { cycles, .. } => *cycles,
                _ => 0,
            })
            .sum();
        let fc_share = fc_cycles as f64 / kernel.total_cycles().max(1) as f64;
        Ok(DpuTask {
            kernel,
            qgraph,
            nominal_gops,
            crash_slack_ratio: DENSE_CRASH_SLACK_RATIO,
            critical_path_factor: 1.0 + 0.006 * fc_share,
            golden: Arc::default(),
        })
    }

    /// Overrides the crash margin (used for pruned workloads; Fig. 8).
    pub fn with_crash_slack_ratio(mut self, ratio: f64) -> Self {
        self.crash_slack_ratio = ratio;
        self
    }

    /// The task's quantized model (e.g. for calibrated label generation).
    /// The caller may change the model, so this task leaves the clean
    /// runs it shared with its clones and starts a memo of its own; the
    /// clones keep theirs.
    pub fn model_mut(&mut self) -> &mut QuantizedGraph {
        self.golden = Arc::default();
        &mut self.qgraph
    }

    /// Operand precision.
    pub fn bits(&self) -> u32 {
        self.kernel.bits
    }

    /// Workload critical-path factor derived from the kernel's
    /// instruction mix (1.0 = pure-conv reference; FC-heavy mixes are
    /// slightly higher).
    pub fn critical_path_factor(&self) -> f64 {
        self.critical_path_factor
    }
}

/// Result of one batch run.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResult {
    /// Per-image predicted classes.
    pub predictions: Vec<usize>,
    /// Timing at the operating point.
    pub timing: Timing,
    /// Exact on-chip power during the run, watts (telemetry via PMBus is
    /// the experiment layer's job; this is the physical value).
    pub on_chip_power_w: f64,
    /// Junction temperature during the run, °C.
    pub junction_c: f64,
    /// Transient bit flips actually delivered into the datapath during
    /// the batch (after any ECC correction).
    pub injected_faults: u64,
    /// ECC events for this batch (weight/activation upsets seen by the
    /// SECDED layer).
    pub ecc: EccStats,
    /// ABFT events for this batch (checksum checks, mismatches,
    /// re-executions, unresolved corruption).
    pub defense: DefenseStats,
    /// Image executions, Razor retries included (one per image with a
    /// zero retry budget).
    pub attempts: u64,
    /// Images whose last execution still saw a fault event (with a zero
    /// retry budget: every image a fault hit).
    pub unresolved_images: u64,
}

/// Most distinct images a prepared workload remembers the clean run of;
/// later images are never remembered and nothing is evicted. Every
/// campaign cell and serving board of a workload draws from its
/// evaluation set, at most 100 images by default. An entry holds the
/// image and every node's activation codes, 167 KB of codes for
/// paper-scale ResNet50.
const GOLDEN_MEMO_CAPACITY: usize = 256;

/// Elements of an image, evenly spaced, that the memo's hash reads.
const HASH_SAMPLES: usize = 64;

/// One image's clean ([`NoFaults`], undefended) run on a task's model. A
/// fault-free pass cannot mismatch, so every defense mode predicts the
/// same.
struct CleanRun {
    image: Tensor,
    prediction: usize,
    /// Every node's activation, the source of a resumed execution's
    /// prefix.
    acts: Vec<QTensor>,
}

/// The clean runs of the images a prepared workload has executed, shared
/// by every clone of its task and all their image-shard workers. An entry
/// is found through a hash of a fixed sample of the image's elements and
/// its dims; a full bit compare decides a hit, and images that share a
/// sample hash are separate entries. The lock is held only to read or add
/// an entry, never across a forward pass or a bit compare.
///
/// The counters are process state for tests: lookups that found the
/// image, lookups that did not, and faulted executions resumed from a
/// clean run. No export reads them.
#[derive(Default)]
struct GoldenMemo {
    entries: Mutex<MemoEntries>,
    hits: AtomicU64,
    misses: AtomicU64,
    resumed: AtomicU64,
}

/// The memo's entries by sample hash, and how many there are in all.
#[derive(Default)]
struct MemoEntries {
    by_hash: HashMap<u64, Vec<Arc<CleanRun>>>,
    len: usize,
}

impl GoldenMemo {
    fn lock(&self) -> MutexGuard<'_, MemoEntries> {
        // Entries are inserted whole and no inference runs under the
        // lock, so even a poisoned map holds only complete entries.
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The entry for `image` among those with sample hash `key`, comparing
    /// from the `seen`-th on and advancing `seen` past every mismatch.
    fn find(&self, key: u64, image: &Tensor, seen: &mut usize) -> Option<Arc<CleanRun>> {
        loop {
            let run = self.lock().by_hash.get(&key)?.get(*seen).cloned()?;
            if same_bits(&run.image, image) {
                return Some(run);
            }
            *seen += 1;
        }
    }

    /// The clean run of `image`: remembered, or computed on `scratch` and
    /// remembered. `None`, with nothing computed, when the memo is full
    /// and lacks the image.
    fn clean_run(
        &self,
        graph: &QuantizedGraph,
        image: &Tensor,
        scratch: &mut ExecScratch,
    ) -> Result<Option<Arc<CleanRun>>, GraphError> {
        let key = sample_hash(image);
        let mut seen = 0;
        if let Some(run) = self.find(key, image, &mut seen) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Some(run));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if self.lock().len >= GOLDEN_MEMO_CAPACITY {
            return Ok(None);
        }
        let prediction = clean_prediction(graph, image, scratch)?;
        let run = Arc::new(CleanRun {
            image: image.clone(),
            prediction,
            acts: scratch.activations().to_vec(),
        });
        // Another worker may have added entries under this hash since the
        // lookup; compare them outside the lock before adding this one.
        loop {
            if let Some(added) = self.find(key, image, &mut seen) {
                return Ok(Some(added));
            }
            let mut entries = self.lock();
            let MemoEntries { by_hash, len } = &mut *entries;
            if by_hash.get(&key).map_or(0, Vec::len) == seen {
                if *len < GOLDEN_MEMO_CAPACITY {
                    by_hash.entry(key).or_default().push(Arc::clone(&run));
                    *len += 1;
                }
                return Ok(Some(run));
            }
        }
    }
}

impl fmt::Debug for GoldenMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GoldenMemo")
            .field("entries", &self.lock().len)
            .finish()
    }
}

/// The undefended [`NoFaults`] prediction of `image`, computed on
/// `scratch`, which keeps every node's activation.
fn clean_prediction(
    graph: &QuantizedGraph,
    image: &Tensor,
    scratch: &mut ExecScratch,
) -> Result<usize, GraphError> {
    graph.predict_shared(
        image,
        CleanPrefix::default(),
        &mut NoFaults,
        DefenseMode::Off,
        scratch,
        &mut DefenseStats::default(),
    )
}

/// Hash of an image's dims and the exact bits of [`HASH_SAMPLES`] of its
/// elements, evenly spaced (all of a smaller image's). It only finds the
/// memo entries to compare: images that differ elsewhere share it.
fn sample_hash(image: &Tensor) -> u64 {
    let mix = |h: u64, x: u64| (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    let data = image.data();
    let dims = [image.h(), image.w(), image.c()].map(|d| d as u64);
    data.iter()
        .step_by((data.len() / HASH_SAMPLES).max(1))
        .map(|v| u64::from(v.to_bits()))
        .chain(dims)
        .fold(0, mix)
}

/// Whether two images have the same shape and the same bits. Compares
/// every element without an early exit, so the loop vectorizes.
fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    (a.h(), a.w(), a.c()) == (b.h(), b.w(), b.c())
        && a.data()
            .iter()
            .zip(b.data())
            .fold(true, |same, (x, y)| same & (x.to_bits() == y.to_bits()))
}

/// Outcome of one image's isolated execution: its prediction (or graph
/// error) plus every per-image counter, so shards can be merged in image
/// order into exactly the totals a sequential walk would produce.
struct ImageRun {
    outcome: Result<usize, GraphError>,
    ecc: EccStats,
    defense: DefenseStats,
    latent: u64,
    injected: u64,
    attempts: u64,
    unresolved: bool,
}

/// Executes image `index` against the shared graph with the worker's
/// scratch arena, on its own derived fault stream per attempt. Razor
/// detect-and-retry: while an execution sees a fault event and
/// `max_retries` allows, the image re-executes on the next attempt's
/// stream. Counters cover every attempt; the outcome is the last one's.
///
/// Each attempt first dry-runs its fault stream
/// ([`QuantizedGraph::first_faulted_node`]) and takes the image's clean
/// run from the task's memo. An attempt that draws nothing is a clean
/// execution: it takes the clean prediction and the ABFT checks a
/// fault-free pass counts, and runs no forward pass. An attempt that
/// draws any event, ECC-corrected ones included, copies the activations
/// before its first faulted node from the clean run and executes from
/// that node on; from the input when the memo is full and lacks the
/// image.
#[allow(clippy::too_many_arguments)]
fn run_one_image(
    task: &DpuTask,
    board: &Zcu102Board,
    mode: DefenseMode,
    seed: u64,
    max_retries: u32,
    images: &[Tensor],
    index: usize,
    scratch: &mut ExecScratch,
) -> ImageRun {
    let mut ecc = EccStats::default();
    let mut defense = DefenseStats::default();
    let (mut latent, mut injected) = (0, 0);
    let mut attempt = 0;
    let (graph, image, memo) = (&task.qgraph, &images[index], &*task.golden);
    loop {
        let stream = board_injector(board, image_stream_seed(seed, index as u64, attempt));
        let first_faulted = graph.first_faulted_node(&mut stream.clone());
        let clean = memo.clean_run(graph, image, scratch);
        let (outcome, faulted) = match first_faulted {
            None => {
                let outcome = match clean {
                    Ok(Some(run)) => Ok(run.prediction),
                    Ok(None) => clean_prediction(graph, image, scratch),
                    Err(e) => Err(e),
                };
                if outcome.is_ok() {
                    defense.merge(&graph.fault_free_defense_stats(mode));
                }
                (outcome, false)
            }
            Some(node) => {
                // A clean run fails only on the image's shape, which the
                // execution reports too.
                let clean = clean.ok().flatten();
                let prefix = match &clean {
                    Some(run) => {
                        memo.resumed.fetch_add(1, Ordering::Relaxed);
                        CleanPrefix {
                            node,
                            acts: &run.acts,
                        }
                    }
                    None => CleanPrefix::default(),
                };
                let mut injector = EccInjector::new(stream, mode);
                let outcome =
                    graph.predict_shared(image, prefix, &mut injector, mode, scratch, &mut defense);
                ecc.merge(&injector.stats());
                latent += injector.take_latent();
                let inner = injector.into_inner();
                injected += inner.injected_count();
                (outcome, inner.event_count() > 0)
            }
        };
        if !faulted || outcome.is_err() || attempt == max_retries {
            return ImageRun {
                outcome,
                ecc,
                defense,
                latent,
                injected,
                attempts: u64::from(attempt) + 1,
                unresolved: faulted,
            };
        }
        attempt += 1;
    }
}

/// The DNNDK-style runtime bound to one board.
#[derive(Debug)]
pub struct DpuRuntime {
    board: Zcu102Board,
    f_mhz: f64,
    cores: usize,
    cycles_run: u64,
    cycle_budget: Option<u64>,
    faults_observed: u64,
    defense: DefenseMode,
    scrubber: Scrubber,
    ecc_total: EccStats,
    defense_total: DefenseStats,
    /// Requested image-shard workers per batch (0 = available
    /// parallelism, 1 = sequential — the default).
    image_jobs: usize,
    /// Per-worker scratch arenas, reused across batches.
    scratch_pool: Vec<ExecScratch>,
}

impl DpuRuntime {
    /// Opens the runtime on a board with the default 3-core cluster at the
    /// nominal 333 MHz clock.
    pub fn open(board: Zcu102Board) -> Self {
        DpuRuntime {
            board,
            f_mhz: F_NOM_MHZ,
            cores: DEFAULT_CORES,
            cycles_run: 0,
            cycle_budget: None,
            faults_observed: 0,
            defense: DefenseMode::Off,
            scrubber: Scrubber::default(),
            ecc_total: EccStats::default(),
            defense_total: DefenseStats::default(),
            image_jobs: 1,
            scratch_pool: Vec::new(),
        }
    }

    /// Sets how many workers shard a batch's images in
    /// [`DpuRuntime::run_batch`]: `0` means available parallelism, `1`
    /// (the default) keeps the walk sequential. Results are byte-identical
    /// for every value — per-image fault streams derive from
    /// [`image_stream_seed`], never from execution order.
    pub fn set_image_jobs(&mut self, image_jobs: usize) {
        self.image_jobs = image_jobs;
    }

    /// Sets the SDC defense for subsequent batches: ECC filtering of
    /// weight/activation upsets plus ABFT checksums in the executor.
    /// [`DefenseMode::Off`] restores the exact undefended path.
    pub fn set_defense(&mut self, mode: DefenseMode) {
        self.defense = mode;
    }

    /// The active defense mode.
    pub fn defense(&self) -> DefenseMode {
        self.defense
    }

    /// Cumulative ECC events across every batch this runtime executed.
    pub fn ecc_stats(&self) -> EccStats {
        self.ecc_total
    }

    /// Cumulative ABFT events across every batch this runtime executed.
    pub fn defense_stats(&self) -> DefenseStats {
        self.defense_total
    }

    /// The BRAM scrubbing task (latent-upset and pass counters).
    pub fn scrubber(&self) -> &Scrubber {
        &self.scrubber
    }

    /// Installs (or clears) a simulated-cycle budget: once the cumulative
    /// cycles executed by this runtime exceed it, batch runs fail with
    /// [`RunError::CycleBudgetExceeded`]. This is the watchdog's
    /// deterministic deadline — wall-clock caps depend on host load, cycle
    /// budgets do not.
    pub fn set_cycle_budget(&mut self, budget: Option<u64>) {
        self.cycle_budget = budget;
    }

    /// Cumulative DPU cycles executed by this runtime.
    pub fn cycles_run(&self) -> u64 {
        self.cycles_run
    }

    /// Cumulative transient faults observed across every batch this
    /// runtime has executed (including mitigated retries). Telemetry's
    /// fault-rate counters read this rather than re-summing per-batch
    /// results.
    pub fn faults_observed(&self) -> u64 {
        self.faults_observed
    }

    /// Cumulative SDC/ECC events across every batch this runtime has
    /// executed: faults delivered into the datapath, ECC corrected and
    /// uncorrectable words, and ABFT checksum mismatches. Absorbed
    /// corruptions count too, so a before/after difference is the event
    /// signal the adaptive governor and the serving fleet act on.
    pub fn sdc_events(&self) -> u64 {
        self.faults_observed
            + self.ecc_total.corrected_words
            + self.ecc_total.uncorrectable_words
            + self.defense_total.mismatches
    }

    /// Charges `cycles` against the budget, failing once it is exceeded.
    fn charge_cycles(&mut self, cycles: u64) -> Result<(), RunError> {
        self.cycles_run = self.cycles_run.saturating_add(cycles);
        match self.cycle_budget {
            Some(budget) if self.cycles_run > budget => {
                Err(RunError::CycleBudgetExceeded { budget })
            }
            _ => Ok(()),
        }
    }

    /// Charges a whole batch's cycles up front, mirroring the sequential
    /// charge-then-run walk exactly: returns how many leading images fit
    /// the budget (they execute) and the budget error, if the charge for
    /// the first non-fitting image tripped it. Charging before execution
    /// is what lets the batch shard — the budget outcome is decided
    /// deterministically, never raced by workers.
    fn charge_batch_cycles(&mut self, per_image: u64, count: usize) -> (usize, Option<RunError>) {
        let Some(budget) = self.cycle_budget else {
            self.cycles_run = self
                .cycles_run
                .saturating_add(per_image.saturating_mul(count as u64));
            return (count, None);
        };
        let over = Some(RunError::CycleBudgetExceeded { budget });
        if per_image == 0 || count == 0 {
            // Free (or empty) batches never advance the meter; they only
            // fail when the budget was already exhausted.
            if self.cycles_run > budget && count > 0 {
                return (0, over);
            }
            return (count, None);
        }
        let headroom = budget.saturating_sub(self.cycles_run);
        let fit = usize::try_from(headroom / per_image)
            .unwrap_or(usize::MAX)
            .min(count);
        if fit == count {
            self.cycles_run = self
                .cycles_run
                .saturating_add(per_image.saturating_mul(count as u64));
            (count, None)
        } else {
            // `fit` successful charges plus the one that trips — exactly
            // what the old per-image loop accumulated before failing.
            self.cycles_run = self
                .cycles_run
                .saturating_add(per_image.saturating_mul(fit as u64 + 1));
            (fit, over)
        }
    }

    /// The underlying board (telemetry, PMBus).
    pub fn board(&self) -> &Zcu102Board {
        &self.board
    }

    /// Mutable access to the board (voltage control, power cycling).
    pub fn board_mut(&mut self) -> &mut Zcu102Board {
        &mut self.board
    }

    /// Current DPU clock in MHz.
    pub fn clock_mhz(&self) -> f64 {
        self.f_mhz
    }

    /// Sets the DPU clock (frequency underscaling, §5).
    ///
    /// # Panics
    ///
    /// Panics if `f_mhz` is not positive.
    pub fn set_clock_mhz(&mut self, f_mhz: f64) {
        assert!(f_mhz > 0.0, "clock must be positive");
        self.f_mhz = f_mhz;
    }

    /// Timing of a task at the current clock (no execution).
    pub fn timing(&self, task: &DpuTask) -> Timing {
        engine::timing(&task.kernel, self.f_mhz, self.cores)
    }

    /// Runs a batch of images, returning predictions and measurements.
    ///
    /// `max_retries` arms Razor-style detect-and-retry fault mitigation
    /// (the paper's future-work item i, §9): shadow-latch style error
    /// detection flags any timing fault during an inference, and the
    /// image is re-executed (faults are transient, so retries draw fresh
    /// fault outcomes) up to `max_retries` times. Throughput pays for the
    /// re-executions: the returned timing's effective rates are scaled by
    /// `images / attempts`. `0` runs every image exactly once.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::BoardCrashed`] when the operating point is
    /// outside the responsive region (or the board was already hung), and
    /// propagates inference errors.
    pub fn run_batch(
        &mut self,
        task: &DpuTask,
        images: &[Tensor],
        seed: u64,
        max_retries: u32,
    ) -> Result<BatchResult, RunError> {
        if self.board.is_crashed() {
            return Err(RunError::BoardCrashed);
        }
        let mut timing = engine::timing(&task.kernel, self.f_mhz, self.cores);
        let load = LoadProfile {
            f_mhz: self.f_mhz,
            ops_rate_norm: timing.gops / task.nominal_gops,
            energy_per_op_factor: LoadProfile::energy_factor_for_bits(task.kernel.bits),
            critical_path_factor: task.critical_path_factor,
        };
        self.board.set_crash_slack_ratio(task.crash_slack_ratio);
        self.board.set_load(load);
        if self.board.is_crashed() {
            return Err(RunError::BoardCrashed);
        }
        // Decide the budget outcome up front (identical accounting to the
        // old per-image charge loop), then shard the fitting images.
        let per_image = task.kernel.total_cycles();
        let (executed, budget_err) = self.charge_batch_cycles(per_image, images.len());
        // One scratch arena per image worker, kept across batches.
        let workers = par::resolve_workers(self.image_jobs).min(executed.max(1));
        if self.scratch_pool.len() < workers {
            self.scratch_pool.resize_with(workers, ExecScratch::new);
        }
        let (board, mode) = (&self.board, self.defense);
        let pool = &mut self.scratch_pool[..workers];
        let runs = par::run_indexed(executed, pool, |i, scratch| {
            run_one_image(task, board, mode, seed, max_retries, images, i, scratch)
        });
        // Merge in image order, stopping the accounting at the first
        // graph error — exactly what a sequential walk would have seen.
        // Account defense events even when the budget tripped mid-batch.
        let mut predictions = Vec::with_capacity(executed);
        let mut ecc = EccStats::default();
        let mut defense = DefenseStats::default();
        let mut latent = 0u64;
        let mut injected = 0u64;
        let mut attempts = 0u64;
        let mut unresolved_images = 0u64;
        let mut graph_err: Option<GraphError> = None;
        for run in runs {
            if graph_err.is_some() {
                break;
            }
            match run.outcome {
                Ok(pred) => {
                    predictions.push(pred);
                    ecc.merge(&run.ecc);
                    defense.merge(&run.defense);
                    latent += run.latent;
                    injected += run.injected;
                    attempts += run.attempts;
                    unresolved_images += u64::from(run.unresolved);
                }
                Err(e) => graph_err = Some(e),
            }
        }
        // Retries were charged nothing up front; charge them now (only
        // when there are any: a zero charge fails an exhausted budget).
        let retries = attempts.saturating_sub(executed as u64);
        let retry_err = match retries {
            0 => None,
            n => self.charge_cycles(per_image.saturating_mul(n)).err(),
        };
        self.ecc_total.merge(&ecc);
        self.defense_total.merge(&defense);
        self.scrubber.record_latent(latent);
        self.scrubber
            .tick(per_image.saturating_mul(images.len() as u64 + retries));
        // Flips that ECC corrected never reached the datapath.
        let delivered = injected - ecc.dropped_flips;
        self.faults_observed += delivered;
        if let Some(e) = graph_err {
            return Err(e.into());
        }
        if let Some(e) = budget_err.or(retry_err) {
            return Err(e);
        }
        if retries > 0 {
            let redundancy = attempts as f64 / executed as f64;
            timing.images_per_s /= redundancy;
            timing.gops /= redundancy;
        }
        Ok(BatchResult {
            predictions,
            timing,
            on_chip_power_w: self.board.on_chip_power_w(),
            junction_c: self.board.junction_c(),
            injected_faults: delivered,
            ecc,
            defense,
            attempts,
            unresolved_images,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redvolt_nn::dataset::SyntheticDataset;
    use redvolt_nn::models::{ModelKind, ModelScale};
    use redvolt_pmbus::adapter::PmbusAdapter;

    fn setup() -> (DpuRuntime, DpuTask, Vec<Tensor>) {
        let graph = ModelKind::VggNet.build(ModelScale::Tiny).fold_batch_norms();
        let ds = SyntheticDataset::new(32, 32, 3, 10, 42);
        let calib = ds.images(4);
        let task = DpuTask::create("vgg", &graph, 8, &calib).unwrap();
        let rt = DpuRuntime::open(Zcu102Board::new(0).with_exact_telemetry());
        (rt, task, ds.images(12))
    }

    #[test]
    fn clean_run_at_nominal() {
        let (mut rt, task, images) = setup();
        let r = rt.run_batch(&task, &images, 1, 0).unwrap();
        assert_eq!(r.predictions.len(), 12);
        assert_eq!(r.injected_faults, 0);
        assert!((r.on_chip_power_w - 12.59).abs() < 0.1);
        assert!(r.timing.gops > 0.0);
    }

    #[test]
    fn guardband_run_is_fault_free_and_cheaper() {
        let (mut rt, task, images) = setup();
        let nominal = rt.run_batch(&task, &images, 1, 0).unwrap();
        let mut host = PmbusAdapter::new();
        host.set_vout(rt.board_mut(), 0x13, 0.570).unwrap();
        let vmin = rt.run_batch(&task, &images, 1, 0).unwrap();
        assert_eq!(vmin.injected_faults, 0);
        assert_eq!(vmin.predictions, nominal.predictions);
        assert!(vmin.on_chip_power_w < nominal.on_chip_power_w / 2.0);
        assert_eq!(vmin.timing.gops, nominal.timing.gops);
    }

    #[test]
    fn critical_region_injects_faults() {
        let (mut rt, task, images) = setup();
        let mut host = PmbusAdapter::new();
        host.set_vout(rt.board_mut(), 0x13, 0.542).unwrap();
        let r = rt.run_batch(&task, &images, 1, 0).unwrap();
        assert!(r.injected_faults > 0, "expected faults at 542 mV");
    }

    #[test]
    fn crash_below_vcrash_and_power_cycle_recovers() {
        let (mut rt, task, images) = setup();
        let mut host = PmbusAdapter::new();
        host.set_vout(rt.board_mut(), 0x13, 0.535).unwrap();
        assert!(matches!(
            rt.run_batch(&task, &images, 1, 0),
            Err(RunError::BoardCrashed)
        ));
        rt.board_mut().power_cycle();
        assert!(rt.run_batch(&task, &images, 1, 0).is_ok());
    }

    #[test]
    fn frequency_underscaling_restores_correctness() {
        // Table 2's flow: at 545 mV the 333 MHz run faults; 250 MHz doesn't.
        let (mut rt, task, images) = setup();
        let clean = rt.run_batch(&task, &images, 1, 0).unwrap();
        let mut host = PmbusAdapter::new();
        host.set_vout(rt.board_mut(), 0x13, 0.545).unwrap();
        rt.set_clock_mhz(250.0);
        let r = rt.run_batch(&task, &images, 1, 0).unwrap();
        assert_eq!(r.injected_faults, 0);
        assert_eq!(r.predictions, clean.predictions);
        assert!(r.timing.gops < clean.timing.gops);
    }

    #[test]
    fn lower_clock_lowers_power_and_throughput() {
        let (mut rt, task, images) = setup();
        let fast = rt.run_batch(&task, &images, 1, 0).unwrap();
        rt.set_clock_mhz(200.0);
        let slow = rt.run_batch(&task, &images, 1, 0).unwrap();
        assert!(slow.timing.gops < fast.timing.gops);
        assert!(slow.on_chip_power_w < fast.on_chip_power_w);
    }

    #[test]
    fn razor_run_is_clean_at_nominal_with_no_retries() {
        let (mut rt, task, images) = setup();
        let plain = rt.run_batch(&task, &images, 1, 0).unwrap();
        let r = rt.run_batch(&task, &images, 1, 3).unwrap();
        assert_eq!(r.attempts, images.len() as u64);
        assert_eq!(r.unresolved_images, 0);
        assert_eq!(r.predictions, plain.predictions);
        assert_eq!(r.timing.gops, plain.timing.gops);
    }

    #[test]
    fn razor_run_retries_and_recovers_in_critical_region() {
        let (mut rt, task, images) = setup();
        let clean = rt.run_batch(&task, &images, 1, 0).unwrap();
        let mut host = PmbusAdapter::new();
        host.set_vout(rt.board_mut(), 0x13, 0.542).unwrap();
        let mitigated = rt.run_batch(&task, &images, 1, 8).unwrap();
        assert!(
            mitigated.attempts > images.len() as u64,
            "retries expected at 542 mV: {mitigated:?}"
        );
        // Resolved images carry clean predictions.
        if mitigated.unresolved_images == 0 {
            assert_eq!(mitigated.predictions, clean.predictions);
        }
        // Throughput pays for redundancy.
        assert!(mitigated.timing.gops < clean.timing.gops);
    }

    #[test]
    fn fc_heavy_workloads_stress_paths_slightly_harder() {
        // AlexNet's dense-dominated mix gets a (slightly) higher
        // critical-path factor than conv-dominated GoogleNet -- the
        // paper's "slight workload-to-workload variation" (Fig. 3).
        let ds_a = SyntheticDataset::new(48, 48, 3, 2, 42);
        let alex = DpuTask::create(
            "alexnet",
            &ModelKind::AlexNet
                .build(ModelScale::Tiny)
                .fold_batch_norms(),
            8,
            &ds_a.images(2),
        )
        .unwrap();
        let ds_g = SyntheticDataset::new(32, 32, 3, 10, 42);
        let google = DpuTask::create(
            "googlenet",
            &ModelKind::GoogleNet
                .build(ModelScale::Tiny)
                .fold_batch_norms(),
            8,
            &ds_g.images(2),
        )
        .unwrap();
        assert!(alex.critical_path_factor() > google.critical_path_factor());
        assert!(alex.critical_path_factor() < 1.007);
        assert!(google.critical_path_factor() >= 1.0);
    }

    #[test]
    fn cycle_budget_trips_and_accounts() {
        let (mut rt, task, images) = setup();
        assert_eq!(rt.cycles_run(), 0);
        rt.run_batch(&task, &images, 1, 0).unwrap();
        let after_one = rt.cycles_run();
        assert!(after_one > 0);
        // A budget below one more batch's worth must trip mid-run.
        rt.set_cycle_budget(Some(after_one + task.kernel.total_cycles()));
        let err = rt.run_batch(&task, &images, 1, 0).unwrap_err();
        assert!(
            matches!(err, RunError::CycleBudgetExceeded { .. }),
            "{err:?}"
        );
        // Clearing the budget restores service.
        rt.set_cycle_budget(None);
        assert!(rt.run_batch(&task, &images, 1, 0).is_ok());
    }

    #[test]
    fn defended_run_counts_events_and_rescues_when_resolved() {
        let (mut rt, task, images) = setup();
        let clean = rt.run_batch(&task, &images, 1, 0).unwrap().predictions;
        let mut host = PmbusAdapter::new();
        host.set_vout(rt.board_mut(), 0x13, 0.542).unwrap();
        let undefended = rt.run_batch(&task, &images, 1, 0).unwrap();
        assert!(undefended.injected_faults > 0, "expected faults at 542 mV");
        assert_eq!(undefended.ecc, EccStats::default());
        assert_eq!(undefended.defense, DefenseStats::default());

        rt.set_defense(DefenseMode::Correct);
        let defended = rt.run_batch(&task, &images, 1, 0).unwrap();
        assert!(defended.defense.checks > 0, "ABFT must have run");
        assert!(
            defended.defense.mismatches > 0,
            "542 mV faults must be detected: {:?}",
            defended.defense
        );
        // The zero-silent-corruption contract: if every mismatch resolved,
        // the defended predictions are the clean ones.
        if defended.defense.clean() {
            assert_eq!(defended.predictions, clean);
        }
        // Runtime-cumulative counters fold both batches.
        assert_eq!(rt.defense_stats(), defended.defense);
        assert_eq!(rt.ecc_stats(), defended.ecc);
        // Back off: the mode does not leak into later undefended runs.
        rt.set_defense(DefenseMode::Off);
        let again = rt.run_batch(&task, &images, 1, 0).unwrap();
        assert_eq!(again.predictions, undefended.predictions);
        assert_eq!(again.defense, DefenseStats::default());
    }

    #[test]
    fn seeded_runs_reproduce() {
        let (mut rt, task, images) = setup();
        let mut host = PmbusAdapter::new();
        host.set_vout(rt.board_mut(), 0x13, 0.545).unwrap();
        let a = rt.run_batch(&task, &images, 9, 0).unwrap();
        let b = rt.run_batch(&task, &images, 9, 0).unwrap();
        assert_eq!(a.predictions, b.predictions);
        assert_eq!(a.injected_faults, b.injected_faults);
    }

    #[test]
    fn zero_retry_budget_runs_each_image_once() {
        // Deep in the critical region faults hit some images, but with
        // no retry budget none re-executes and throughput is not scaled.
        let (mut rt, task, images) = setup();
        let nominal = rt.run_batch(&task, &images, 7, 0).unwrap();
        let mut host = PmbusAdapter::new();
        host.set_vout(rt.board_mut(), 0x13, 0.542).unwrap();
        let plain = rt.run_batch(&task, &images, 7, 0).unwrap();
        assert!(plain.injected_faults > 0, "expected faults at 542 mV");
        assert_eq!(plain.attempts, images.len() as u64);
        assert!(plain.unresolved_images > 0);
        assert_eq!(plain.timing.gops, nominal.timing.gops);
    }

    /// A batch's result plus the runtime's cumulative cycle meter, fault
    /// counter and scrubber counters after it.
    fn observe(rt: &DpuRuntime, batch: BatchResult) -> (BatchResult, u64, u64, [u64; 3]) {
        let s = rt.scrubber();
        let scrubber = [s.latent(), s.passes(), s.scrubbed()];
        (batch, rt.cycles_run(), rt.faults_observed(), scrubber)
    }

    #[test]
    fn image_sharding_is_invisible_in_the_results() {
        // Per-image fault streams derive from (seed, index, attempt), so
        // any image-shard worker count reproduces the sequential batch —
        // predictions, Razor attempts, fault counts, ECC/ABFT events,
        // cycle meter and scrubber — with and without a retry budget. Each
        // configuration runs twice on one task, its memo of clean runs
        // cold and then warm: at 600 mV every execution reuses a clean
        // prediction, at 542 mV those that draw a fault resume after
        // their fault-free prefix.
        for mv in [0.600, 0.542] {
            for retries in [0u32, 6] {
                let run = |jobs: usize| {
                    let (mut rt, task, images) = setup();
                    let mut host = PmbusAdapter::new();
                    host.set_vout(rt.board_mut(), 0x13, mv).unwrap();
                    rt.set_defense(DefenseMode::Correct);
                    rt.set_image_jobs(jobs);
                    let cold = rt.run_batch(&task, &images, 11, retries).unwrap();
                    let cold = observe(&rt, cold);
                    let warm = rt.run_batch(&task, &images, 11, retries).unwrap();
                    (images.len() as u64, cold, observe(&rt, warm))
                };
                let (images, cold, warm) = run(1);
                assert_eq!(warm.0, cold.0, "{mv} V retries={retries}: warm memo");
                if mv < 0.6 {
                    assert!(cold.0.injected_faults > 0, "expected faults at 542 mV");
                    if retries > 0 {
                        assert!(cold.0.attempts > images, "retries expected");
                    }
                } else {
                    assert_eq!(cold.0.defense.checks, 2 * 6 * images, "two per layer");
                }
                for jobs in [1usize, 2, 3, 8, 0] {
                    let at = format!("{mv} V jobs={jobs} retries={retries}");
                    let (_, sharded_cold, sharded_warm) = run(jobs);
                    assert_eq!(sharded_cold, cold, "{at}: cold memo");
                    assert_eq!(sharded_warm, warm, "{at}: warm memo");
                }
            }
        }
    }

    #[test]
    fn changing_the_model_forgets_remembered_predictions() {
        let (mut rt, mut task, images) = setup();
        let before = rt.run_batch(&task, &images, 1, 0).unwrap().predictions;
        assert_eq!(task.golden.lock().len, images.len());
        // Retrain the readout towards other labels through the task.
        let shuffled: Vec<usize> = before.iter().map(|p| (p + 1) % 10).collect();
        task.model_mut()
            .refit_readout(&images, &shuffled, 250, 0.8)
            .unwrap();
        let mut model = task.model_mut().clone();
        let expected: Vec<usize> = images.iter().map(|i| model.predict(i).unwrap()).collect();
        assert_ne!(expected, before, "the refit must change predictions");
        let after = rt.run_batch(&task, &images, 1, 0).unwrap();
        assert_eq!(after.injected_faults, 0);
        assert_eq!(after.predictions, expected);
    }

    /// The memo's hit, miss and resumed-execution counters.
    fn memo_counts(task: &DpuTask) -> [u64; 3] {
        let memo = &task.golden;
        [&memo.hits, &memo.misses, &memo.resumed].map(|c| c.load(Ordering::Relaxed))
    }

    #[test]
    fn a_cloned_task_shares_the_memo() {
        let (mut rt, task, images) = setup();
        let n = images.len() as u64;
        rt.run_batch(&task, &images, 1, 0).unwrap();
        assert_eq!(memo_counts(&task), [0, n, 0], "one miss per distinct image");
        let clone = task.clone();
        assert!(Arc::ptr_eq(&task.golden, &clone.golden));
        rt.run_batch(&clone, &images, 1, 0).unwrap();
        assert_eq!(memo_counts(&task), [n, n, 0], "the clone's batch only hits");
        assert_eq!(task.golden.lock().len, images.len());
    }

    #[test]
    fn changing_a_clones_model_leaves_the_original_memo_alone() {
        let (mut rt, task, images) = setup();
        let n = images.len() as u64;
        rt.run_batch(&task, &images, 1, 0).unwrap();
        let mut clone = task.clone();
        clone.model_mut();
        rt.run_batch(&clone, &images, 1, 0).unwrap();
        assert_eq!(memo_counts(&clone), [0, n, 0], "a fresh memo");
        assert_eq!(memo_counts(&task), [0, n, 0]);
        assert_eq!(task.golden.lock().len, images.len());
    }

    #[test]
    fn a_warm_batch_resumes_faulted_executions_from_the_clean_run() {
        let (mut rt, task, images) = setup();
        let mut host = PmbusAdapter::new();
        host.set_vout(rt.board_mut(), 0x13, 0.542).unwrap();
        let cold = rt.run_batch(&task, &images, 1, 0).unwrap();
        let [_, misses, resumed] = memo_counts(&task);
        let warm = rt.run_batch(&task, &images, 1, 0).unwrap();
        let [hits, warm_misses, warm_resumed] = memo_counts(&task);
        assert_eq!(warm, cold);
        assert_eq!((hits, warm_misses), (images.len() as u64, misses));
        assert!(warm_resumed > resumed, "no execution resumed");
        // Each image's full execution from the input, without the memo.
        let mut scratch = ExecScratch::new();
        let mut injected = 0;
        let full: Vec<usize> = images
            .iter()
            .enumerate()
            .map(|(i, image)| {
                let stream = board_injector(rt.board(), image_stream_seed(1, i as u64, 0));
                let mut injector = EccInjector::new(stream, DefenseMode::Off);
                let prediction = task
                    .qgraph
                    .predict_shared(
                        image,
                        CleanPrefix::default(),
                        &mut injector,
                        DefenseMode::Off,
                        &mut scratch,
                        &mut DefenseStats::default(),
                    )
                    .unwrap();
                injected += injector.into_inner().injected_count();
                prediction
            })
            .collect();
        assert_eq!(warm.predictions, full);
        assert_eq!(warm.injected_faults, injected);
    }

    #[test]
    fn memo_entries_are_told_apart_by_bits_not_float_equality() {
        // `+0.0 == -0.0` while no NaN equals itself: a float compare
        // would merge the first pair and never find a NaN image again.
        let (_, task, images) = setup();
        let with = |v: f32| {
            let mut image = images[0].clone();
            image.data_mut()[5] = v;
            image
        };
        let (pos, neg) = (with(0.0), with(-0.0));
        let nan_a = with(f32::from_bits(0x7fc0_0001));
        let nan_b = with(f32::from_bits(0x7fc0_0002));
        assert!(!same_bits(&pos, &neg));
        assert!(!same_bits(&nan_a, &nan_b));
        assert!(same_bits(&nan_a, &nan_a.clone()));
        // The hash samples no element 5, so all four share one hash.
        assert!([&neg, &nan_a, &nan_b].map(sample_hash) == [sample_hash(&pos); 3]);
        let mut scratch = ExecScratch::new();
        for image in [&pos, &neg, &nan_a, &nan_b, &neg, &nan_a] {
            task.golden
                .clean_run(&task.qgraph, image, &mut scratch)
                .unwrap();
        }
        assert_eq!(task.golden.lock().len, 4, "one entry per bit pattern");
    }

    #[test]
    fn the_memo_is_bounded_and_images_past_it_are_recomputed() {
        let (mut rt, mut task, _) = setup();
        let images = SyntheticDataset::new(32, 32, 3, 10, 7).images(GOLDEN_MEMO_CAPACITY + 8);
        let batch = rt.run_batch(&task, &images, 1, 0).unwrap();
        assert_eq!(task.golden.lock().len, GOLDEN_MEMO_CAPACITY);
        let again = rt.run_batch(&task, &images, 1, 0).unwrap();
        assert_eq!(again.predictions, batch.predictions);
        // The faulted executions of images past the bound run from the
        // input: no clean run to resume from.
        let mut host = PmbusAdapter::new();
        host.set_vout(rt.board_mut(), 0x13, 0.542).unwrap();
        let [_, _, resumed] = memo_counts(&task);
        let past = rt
            .run_batch(&task, &images[GOLDEN_MEMO_CAPACITY..], 1, 0)
            .unwrap();
        assert!(past.injected_faults > 0, "expected faults at 542 mV");
        assert_eq!(memo_counts(&task)[2], resumed);
        assert_eq!(task.golden.lock().len, GOLDEN_MEMO_CAPACITY);
        let mut model = task.model_mut().clone();
        let clean: Vec<usize> = images.iter().map(|i| model.predict(i).unwrap()).collect();
        assert_eq!(batch.predictions, clean);
    }
}
