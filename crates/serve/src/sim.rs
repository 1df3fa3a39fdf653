//! The discrete-event serving simulation.
//!
//! One single-threaded event loop advances virtual time over a seeded
//! arrival stream and a calibrated board fleet. Everything observable —
//! the event trace, every latency sample, every counter — is a pure
//! function of `(seed, config)`: there is no wall clock, no OS entropy,
//! and the only permitted intra-batch parallelism (`image_jobs`) is the
//! DPU runtime's, which is already bit-invariant across worker counts.
//!
//! Request lifecycle:
//!
//! ```text
//! arrival ──► admission (route / degrade / shed)
//!          ──► bounded per-board queue
//!          ──► batch dispatch (max_batch reached, or batch timeout)
//!          ──► execution on the undervolted board
//!          ──► flagged by the defense?  retry on a different board
//!          ──► completion (latency recorded, prediction audited)
//! ```

use std::collections::VecDeque;
use std::fmt;

use crate::event::{Cycle, Event, EventQueue};
use crate::fleet::{BatchExec, CalibConfig, FleetBoard};
use crate::router::{Admission, BoardView, Router, RouterPolicy};
use crate::traffic::{Request, TrafficConfig, TrafficGenerator};
use redvolt_core::bench_suite::BenchmarkId;
use redvolt_core::experiment::{Accelerator, AcceleratorConfig, MeasureError};
use redvolt_dpu::runtime::RunError;
use redvolt_nn::abft::DefenseMode;
use redvolt_nn::models::ModelScale;
use redvolt_nn::tensor::Tensor;
use redvolt_num::rng::derive_stream_seed;
use redvolt_telemetry::span::DEFAULT_SPAN_CAPACITY;
use redvolt_telemetry::{AttrValue, FlightRecorder, PostMortem, Snapshot, SpanRecord, SpanRing};

/// Seed-stream label for the clean reference pass.
const REFERENCE_STREAM: u64 = 0x5EF0;

/// Full serving-scenario configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Master seed; every stream in the simulation derives from it.
    pub seed: u64,
    /// Fleet size.
    pub boards: usize,
    /// Total offered requests.
    pub requests: u64,
    /// Offered load, requests per simulated second.
    pub rps: f64,
    /// Served model.
    pub benchmark: BenchmarkId,
    /// Model scale (tiny for tests/smoke, paper for campaigns).
    pub scale: ModelScale,
    /// Shared evaluation-set size (requests draw uniformly from it).
    pub eval_images: usize,
    /// Dispatch a batch as soon as this many requests are queued.
    pub max_batch: usize,
    /// ... or when the oldest queued request has waited this long.
    pub batch_timeout_cycles: Cycle,
    /// Per-board queue bound (admission control's hard limit).
    pub queue_depth: usize,
    /// Queue-fill fraction above which admits are degraded.
    pub degrade_watermark: f64,
    /// Fixed dispatch overhead added to each batch, reference cycles.
    pub batch_overhead_cycles: Cycle,
    /// Power-cycle duration after a board hang, reference cycles.
    pub reboot_cycles: Cycle,
    /// Vmin-calibration settings (including the serving margin).
    pub calib: CalibConfig,
    /// Defense armed on every board.
    pub defense: DefenseMode,
    /// Whether the governor walks eventful boards down the ladder.
    pub governor: bool,
    /// Routing policy.
    pub router: RouterPolicy,
    /// Maximum executions per request (1 = no SDC retries).
    pub retry_limit: u32,
    /// p99 latency SLO, reference cycles.
    pub slo_p99_cycles: Cycle,
    /// Every `burst_every`-th arrival starts a burst (0 = none).
    pub burst_every: u64,
    /// Burst length (back-to-back arrivals).
    pub burst_len: u64,
    /// DPU intra-batch image workers (output-invariant by construction;
    /// 0 = the host's available parallelism).
    pub image_jobs: usize,
    /// Bound on retained lifecycle spans (oldest evicted first; evictions
    /// are counted, never silent).
    pub trace_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            seed: 42,
            boards: 3,
            requests: 120,
            rps: 40_000.0,
            benchmark: BenchmarkId::VggNet,
            scale: ModelScale::Tiny,
            eval_images: 24,
            max_batch: 4,
            batch_timeout_cycles: 200_000,
            queue_depth: 8,
            degrade_watermark: 0.75,
            batch_overhead_cycles: 10_000,
            reboot_cycles: 30_000_000,
            calib: CalibConfig::default(),
            defense: DefenseMode::Correct,
            governor: true,
            router: RouterPolicy::VminAware,
            retry_limit: 2,
            slo_p99_cycles: 0,
            burst_every: 0,
            burst_len: 0,
            image_jobs: 1,
            trace_capacity: DEFAULT_SPAN_CAPACITY,
        }
    }
}

impl ServeConfig {
    /// The CI smoke scenario: a 3-board fleet served just below Vmin so
    /// the defense, governor and retry paths all see real traffic.
    pub fn smoke() -> Self {
        ServeConfig {
            calib: CalibConfig {
                margin_mv: -10.0,
                ..CalibConfig::default()
            },
            ..ServeConfig::default()
        }
    }

    fn accelerator(&self) -> AcceleratorConfig {
        let base = match self.scale {
            ModelScale::Tiny => AcceleratorConfig::tiny(self.benchmark),
            ModelScale::Paper => AcceleratorConfig {
                benchmark: self.benchmark,
                ..AcceleratorConfig::default()
            },
        };
        AcceleratorConfig {
            eval_images: self.eval_images,
            seed: self.seed,
            defense: self.defense,
            repetitions: 1,
            // The fleet's governor owns mitigation. This flag only arms
            // the adaptive rescue of campaign measurement cells
            // (`executor::execute_cell_with`), which serving never runs.
            governor: false,
            ..base
        }
    }

    fn traffic(&self) -> TrafficConfig {
        TrafficConfig {
            requests: self.requests,
            rps: self.rps,
            eval_images: self.eval_images,
            burst_every: self.burst_every,
            burst_len: self.burst_len,
        }
    }
}

/// Serving-simulation errors (configuration or bring-up problems; an
/// operating-point excursion mid-serving is handled, not raised).
#[derive(Debug)]
pub enum ServeError {
    /// Bring-up or calibration failed.
    Measure(MeasureError),
    /// A batch failed for a non-crash reason (indicates a bug).
    Run(RunError),
    /// Invalid configuration.
    Config(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Measure(e) => write!(f, "bring-up failed: {e}"),
            ServeError::Run(e) => write!(f, "batch execution failed: {e}"),
            ServeError::Config(msg) => write!(f, "invalid serve config: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<MeasureError> for ServeError {
    fn from(e: MeasureError) -> Self {
        ServeError::Measure(e)
    }
}

impl From<RunError> for ServeError {
    fn from(e: RunError) -> Self {
        ServeError::Run(e)
    }
}

/// Aggregate serving counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Requests generated by the arrival stream.
    pub offered: u64,
    /// Requests admitted (including degraded).
    pub admitted: u64,
    /// Requests admitted in degraded mode.
    pub degraded: u64,
    /// Requests shed at the front door.
    pub shed: u64,
    /// Requests dropped when a crash requeue found no open queue.
    pub dropped_on_crash: u64,
    /// Requests completed with a response.
    pub completed: u64,
    /// Requests re-routed after their batch was flagged by the defense.
    pub retried: u64,
    /// Requests re-routed because their board hung mid-batch.
    pub requeued_on_crash: u64,
    /// Requests completed while still flagged (retry budget exhausted
    /// or degraded admission).
    pub flagged_completed: u64,
    /// Completed responses whose prediction differs from the clean
    /// reference.
    pub corrupt: u64,
    /// Corrupt responses that no defense ever flagged.
    pub silently_corrupt: u64,
    /// Board hangs while serving.
    pub crashes: u64,
    /// Batches executed (including crashed ones).
    pub batches: u64,
    /// Governor ladder escalations.
    pub escalations: u64,
}

/// End-of-run summary of one board.
#[derive(Debug, Clone, PartialEq)]
pub struct BoardSummary {
    /// Board index.
    pub index: usize,
    /// Calibrated Vmin, mV.
    pub vmin_mv: f64,
    /// Serving base point, mV.
    pub base_mv: f64,
    /// Final operating voltage, mV.
    pub vccint_mv: f64,
    /// Final clock, MHz.
    pub f_mhz: f64,
    /// Batches executed.
    pub batches: u64,
    /// Requests whose recorded response ran here.
    pub served: u64,
    /// Reference cycles spent busy.
    pub busy_cycles: Cycle,
    /// Total energy charged, J.
    pub energy_j: f64,
    /// Modeled energy per inference at the final point, J.
    pub energy_per_inf_j: f64,
    /// Cumulative SDC/ECC events.
    pub events: u64,
    /// Final mitigation rungs away from base.
    pub rungs: u32,
    /// Hangs.
    pub crashes: u64,
}

/// One executed batch, for the exported span stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchSpan {
    /// Board that ran the batch.
    pub board: usize,
    /// Dispatch timestamp, reference cycles.
    pub start_cycle: Cycle,
    /// Completion timestamp (== start for a crashed batch).
    pub end_cycle: Cycle,
    /// Requests in the batch.
    pub requests: usize,
    /// SDC/ECC events during the batch.
    pub events: u64,
    /// Whether the defense flagged the batch.
    pub flagged: bool,
    /// Whether the board hung mid-batch.
    pub crashed: bool,
}

/// Raw simulation outcome (rendered by [`crate::report`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// Completion latencies in reference cycles, in completion order.
    pub latencies: Vec<Cycle>,
    /// Aggregate counters.
    pub counters: Counters,
    /// Per-board summaries, by index.
    pub boards: Vec<BoardSummary>,
    /// Every executed batch, in dispatch order.
    pub batch_spans: Vec<BatchSpan>,
    /// Request-lifecycle spans (admission → queue → execute → complete,
    /// plus board/governor markers), in completion order.
    pub trace_spans: Vec<SpanRecord>,
    /// Spans evicted from the bounded trace ring.
    pub trace_dropped: u64,
    /// Flight-recorder post-mortems, in trigger order.
    pub postmortems: Vec<PostMortem>,
    /// Post-mortem triggers suppressed after the dump bound was hit.
    pub postmortems_suppressed: u64,
    /// Highest queue occupancy any board ever reached (the admission
    /// bound says this never exceeds `queue_depth`).
    pub peak_queue_len: usize,
    /// Virtual timestamp of the last event.
    pub end_cycle: Cycle,
}

struct BoardState {
    fleet: FleetBoard,
    queue: VecDeque<Request>,
    in_flight: Option<(Vec<Request>, BatchExec)>,
    available: bool,
    epoch: u64,
    armed_epoch: Option<u64>,
}

impl BoardState {
    fn view(&self, depth: usize) -> BoardView {
        BoardView {
            queue_len: self.queue.len(),
            queue_depth: depth,
            available: self.available,
            energy_per_inf_j: self.fleet.energy_per_inf_j,
            rungs: self.fleet.rungs,
        }
    }
}

struct Sim<'a> {
    cfg: &'a ServeConfig,
    boards: Vec<BoardState>,
    router: Router,
    events: EventQueue,
    traffic: TrafficGenerator,
    pending_arrival: Option<Request>,
    reference: Vec<usize>,
    latencies: Vec<Cycle>,
    counters: Counters,
    batch_spans: Vec<BatchSpan>,
    trace: SpanRing,
    recorder: FlightRecorder,
    /// Request-root span id per request id (0 = none yet).
    req_span: Vec<u64>,
    /// Open queue-wait span id per request id (0 = not queued).
    queue_span: Vec<u64>,
    peak_queue_len: usize,
    end_cycle: Cycle,
}

/// Runs one serving scenario to completion.
///
/// # Errors
///
/// Returns [`ServeError`] on invalid configuration or when fleet
/// bring-up/calibration fails; mid-serving hangs and SDC events are part
/// of the simulation, not errors.
pub fn run(cfg: &ServeConfig) -> Result<ServeOutcome, ServeError> {
    if cfg.boards == 0 {
        return Err(ServeError::Config("fleet needs at least one board".into()));
    }
    if cfg.max_batch == 0 || cfg.queue_depth < cfg.max_batch {
        return Err(ServeError::Config(format!(
            "queue depth {} must hold at least one max batch {}",
            cfg.queue_depth, cfg.max_batch
        )));
    }
    if cfg.retry_limit == 0 {
        return Err(ServeError::Config("retry limit must be >= 1".into()));
    }

    let acc_cfg = cfg.accelerator();
    let reference = reference_predictions(&acc_cfg)?;

    let mut boards = Vec::with_capacity(cfg.boards);
    for index in 0..cfg.boards {
        let mut fleet = FleetBoard::bring_up(index, &acc_cfg)?;
        let ops = fleet.accelerator().workload().dense_equivalent_ops;
        fleet.calibrate(&cfg.calib, ops)?;
        fleet.set_image_jobs(cfg.image_jobs);
        boards.push(BoardState {
            fleet,
            queue: VecDeque::new(),
            in_flight: None,
            available: true,
            epoch: 0,
            armed_epoch: None,
        });
    }

    let mut sim = Sim {
        cfg,
        boards,
        router: Router::new(cfg.router),
        events: EventQueue::new(),
        traffic: TrafficGenerator::new(cfg.seed, cfg.traffic()),
        pending_arrival: None,
        reference,
        latencies: Vec::with_capacity(cfg.requests as usize),
        counters: Counters::default(),
        batch_spans: Vec::new(),
        trace: SpanRing::with_capacity(cfg.trace_capacity),
        recorder: FlightRecorder::new(),
        req_span: vec![0; cfg.requests as usize],
        queue_span: vec![0; cfg.requests as usize],
        peak_queue_len: 0,
        end_cycle: 0,
    };
    sim.schedule_next_arrival();
    sim.run_to_completion()?;

    let boards = sim
        .boards
        .iter()
        .map(|b| {
            let acc = b.fleet.accelerator();
            BoardSummary {
                index: b.fleet.index,
                vmin_mv: b.fleet.vmin_mv,
                base_mv: b.fleet.base_mv,
                vccint_mv: acc.vccint_mv(),
                f_mhz: acc.clock_mhz(),
                batches: b.fleet.batches,
                served: b.fleet.served,
                busy_cycles: b.fleet.busy_cycles,
                energy_j: b.fleet.energy.total_j(),
                energy_per_inf_j: b.fleet.energy_per_inf_j,
                events: b.fleet.events,
                rungs: b.fleet.rungs,
                crashes: b.fleet.crashes,
            }
        })
        .collect();

    Ok(ServeOutcome {
        latencies: sim.latencies,
        counters: sim.counters,
        boards,
        batch_spans: sim.batch_spans,
        trace_dropped: sim.trace.dropped(),
        trace_spans: sim.trace.take(),
        postmortems: sim.recorder.take_dumps(),
        postmortems_suppressed: sim.recorder.suppressed(),
        peak_queue_len: sim.peak_queue_len,
        end_cycle: sim.end_cycle,
    })
}

/// Clean per-image reference predictions, computed once at the nominal
/// operating point (zero fault rate) before the fleet is undervolted.
fn reference_predictions(acc_cfg: &AcceleratorConfig) -> Result<Vec<usize>, ServeError> {
    let mut acc = Accelerator::bring_up(acc_cfg)?;
    let images: Vec<Tensor> = acc.workload().eval.images.clone();
    let seed = derive_stream_seed(acc_cfg.seed, REFERENCE_STREAM);
    let (runtime, workload) = acc.runtime_and_workload_mut();
    let result = runtime.run_batch(&workload.task, &images, seed, 0)?;
    Ok(result.predictions)
}

impl Sim<'_> {
    fn schedule_next_arrival(&mut self) {
        debug_assert!(self.pending_arrival.is_none());
        if let Some(req) = self.traffic.next() {
            self.events.push(req.arrival, Event::Arrival);
            self.pending_arrival = Some(req);
        }
    }

    fn run_to_completion(&mut self) -> Result<(), ServeError> {
        while let Some((now, event)) = self.events.pop() {
            self.end_cycle = self.end_cycle.max(now);
            match event {
                Event::Arrival => {
                    let req = self
                        .pending_arrival
                        .take()
                        .expect("arrival event without a pending request");
                    self.counters.offered += 1;
                    let span = self.trace.begin_root("request", now);
                    self.trace.attr(span, "request", req.id);
                    self.trace.attr(span, "image", req.image as u64);
                    self.req_span[req.id as usize] = span;
                    self.admit(req, now)?;
                    self.schedule_next_arrival();
                }
                Event::BatchTimeout { board, epoch } => {
                    if self.boards[board].armed_epoch == Some(epoch) {
                        self.boards[board].armed_epoch = None;
                        if self.boards[board].epoch == epoch {
                            self.dispatch_if_ready(board, now, true)?;
                        }
                    }
                }
                Event::BatchDone { board } => {
                    self.finish_batch(board, now)?;
                    self.dispatch_if_ready(board, now, false)?;
                }
                Event::BoardUp { board } => {
                    self.boards[board].available = true;
                    let up = self.trace.instant("board_up", None, now);
                    self.trace.attr_done(up, "board", board as u64);
                    self.mirror_last();
                    self.dispatch_if_ready(board, now, false)?;
                }
            }
        }
        Ok(())
    }

    fn admit(&mut self, mut req: Request, now: Cycle) -> Result<(), ServeError> {
        let views: Vec<BoardView> = self
            .boards
            .iter()
            .map(|b| b.view(self.cfg.queue_depth))
            .collect();
        let span = self.req_span[req.id as usize];
        match self.router.admit(&views, self.cfg.degrade_watermark) {
            Admission::Accept { board, degraded } => {
                req.degraded = degraded;
                self.counters.admitted += 1;
                if degraded {
                    self.counters.degraded += 1;
                    self.trace.attr(span, "degraded", true);
                }
                let route = self.trace.instant("route", Some(span), now);
                self.trace.attr_done(route, "board", board as u64);
                self.trace
                    .attr_done(route, "policy", self.router.policy().name());
                if self.router.policy() == RouterPolicy::VminAware {
                    self.trace
                        .attr_done(route, "score", Router::score_of(&views[board]));
                }
                self.mirror_last();
                self.enqueue(board, req, now);
                self.dispatch_if_ready(board, now, false)?;
            }
            Admission::Shed => {
                self.counters.shed += 1;
                self.trace.attr(span, "outcome", "shed");
                self.trace.end(span, now);
                self.mirror_last();
            }
        }
        Ok(())
    }

    /// Re-routes a request mid-flight (SDC retry or crash requeue),
    /// never back onto `from`. Returns whether it found a queue.
    fn reroute(
        &mut self,
        req: Request,
        from: usize,
        now: Cycle,
        reason: &str,
    ) -> Result<bool, ServeError> {
        let views: Vec<BoardView> = self
            .boards
            .iter()
            .map(|b| b.view(self.cfg.queue_depth))
            .collect();
        let span = self.req_span[req.id as usize];
        let target = self.router.route(&views, Some(from));
        let hop = self.trace.instant("reroute", Some(span), now);
        self.trace.attr_done(hop, "from", from as u64);
        self.trace.attr_done(hop, "reason", reason);
        self.trace.attr_done(hop, "found", target.is_some());
        match target {
            Some(board) => {
                self.trace.attr_done(hop, "board", board as u64);
                self.mirror_last();
                self.enqueue(board, req, now);
                self.dispatch_if_ready(board, now, false)?;
                Ok(true)
            }
            None => {
                self.mirror_last();
                Ok(false)
            }
        }
    }

    fn enqueue(&mut self, board: usize, req: Request, now: Cycle) {
        let parent = self.req_span[req.id as usize];
        let wait = self.trace.begin("queue", Some(parent), now);
        self.trace.attr(wait, "board", board as u64);
        self.queue_span[req.id as usize] = wait;
        let queue = &mut self.boards[board].queue;
        queue.push_back(req);
        self.peak_queue_len = self.peak_queue_len.max(queue.len());
    }

    fn dispatch_if_ready(
        &mut self,
        board: usize,
        now: Cycle,
        timed_out: bool,
    ) -> Result<(), ServeError> {
        let ready = {
            let b = &self.boards[board];
            b.available && b.in_flight.is_none() && !b.queue.is_empty()
        };
        if !ready {
            return Ok(());
        }
        let full = self.boards[board].queue.len() >= self.cfg.max_batch;
        if full || timed_out {
            self.dispatch(board, now)
        } else {
            let b = &mut self.boards[board];
            if b.armed_epoch != Some(b.epoch) {
                b.armed_epoch = Some(b.epoch);
                self.events.push(
                    now + self.cfg.batch_timeout_cycles,
                    Event::BatchTimeout {
                        board,
                        epoch: b.epoch,
                    },
                );
            }
            Ok(())
        }
    }

    fn dispatch(&mut self, board: usize, now: Cycle) -> Result<(), ServeError> {
        let batch: Vec<Request> = {
            let b = &mut self.boards[board];
            b.epoch += 1;
            let n = b.queue.len().min(self.cfg.max_batch);
            let mut batch = Vec::with_capacity(n);
            for _ in 0..n {
                let mut req = b.queue.pop_front().expect("batch size checked");
                req.attempts += 1;
                batch.push(req);
            }
            batch
        };
        self.counters.batches += 1;
        for req in &batch {
            let wait = std::mem::take(&mut self.queue_span[req.id as usize]);
            self.trace.end(wait, now);
            self.mirror_last();
        }
        let indices: Vec<usize> = batch.iter().map(|r| r.image).collect();
        let exec = self.boards[board]
            .fleet
            .run_serving_batch(&indices, self.cfg.batch_overhead_cycles)?;

        let done_at = now + exec.service_ref_cycles;
        self.batch_spans.push(BatchSpan {
            board,
            start_cycle: now,
            end_cycle: done_at,
            requests: batch.len(),
            events: exec.events,
            flagged: exec.flagged,
            crashed: exec.crashed,
        });
        let batch_id = self.trace.record(SpanRecord {
            id: 0,
            parent: None,
            name: "batch".to_string(),
            start_cycle: now,
            end_cycle: done_at,
            attrs: vec![
                ("board".to_string(), AttrValue::U64(board as u64)),
                ("requests".to_string(), AttrValue::U64(batch.len() as u64)),
                ("events".to_string(), AttrValue::U64(exec.events)),
                ("flagged".to_string(), AttrValue::Bool(exec.flagged)),
                ("crashed".to_string(), AttrValue::Bool(exec.crashed)),
            ],
        });
        self.mirror_last();

        if exec.crashed {
            self.counters.crashes += 1;
            self.boards[board].fleet.on_crash();
            self.boards[board].available = false;
            self.events
                .push(now + self.cfg.reboot_cycles, Event::BoardUp { board });
            let crash = self.trace.instant("board_crash", Some(batch_id), now);
            self.trace.attr_done(crash, "board", board as u64);
            self.mirror_last();
            self.snapshot_boards(now);
            self.recorder.dump(
                "board_crash",
                now,
                vec![
                    ("board".to_string(), AttrValue::U64(board as u64)),
                    ("batch_span".to_string(), AttrValue::U64(batch_id)),
                ],
            );
            for req in batch {
                self.counters.requeued_on_crash += 1;
                let rid = req.id as usize;
                if !self.reroute(req, board, now, "crash")? {
                    self.counters.dropped_on_crash += 1;
                    let span = self.req_span[rid];
                    self.trace.attr(span, "outcome", "dropped");
                    self.trace.end(span, now);
                    self.mirror_last();
                }
            }
            return Ok(());
        }

        for req in &batch {
            let parent = self.req_span[req.id as usize];
            self.trace.record(SpanRecord {
                id: 0,
                parent: Some(parent),
                name: "execute".to_string(),
                start_cycle: now,
                end_cycle: done_at,
                attrs: vec![
                    (
                        "attempt".to_string(),
                        AttrValue::U64(u64::from(req.attempts)),
                    ),
                    ("batch_span".to_string(), AttrValue::U64(batch_id)),
                    ("board".to_string(), AttrValue::U64(board as u64)),
                ],
            });
            self.mirror_last();
        }

        if self.cfg.governor && exec.events > 0 {
            let esc = self.boards[board].fleet.escalate();
            self.counters.escalations += 1;
            let rung = self
                .trace
                .instant("governor_escalate", Some(batch_id), done_at);
            self.trace.attr_done(rung, "board", board as u64);
            self.trace.attr_done(rung, "kind", esc.kind);
            self.trace.attr_done(rung, "rungs", esc.rungs);
            self.trace.attr_done(rung, "f_mhz", esc.f_mhz);
            self.trace.attr_done(rung, "vccint_mv", esc.vccint_mv);
            self.mirror_last();
            self.snapshot_boards(done_at);
            self.recorder.dump(
                "governor_escalation",
                done_at,
                vec![
                    ("board".to_string(), AttrValue::U64(board as u64)),
                    ("kind".to_string(), AttrValue::Str(esc.kind.to_string())),
                    ("rungs".to_string(), AttrValue::U64(u64::from(esc.rungs))),
                ],
            );
        }
        self.boards[board].fleet.busy_cycles += exec.service_ref_cycles;
        self.boards[board].in_flight = Some((batch, exec));
        self.events.push(done_at, Event::BatchDone { board });
        Ok(())
    }

    fn finish_batch(&mut self, board: usize, now: Cycle) -> Result<(), ServeError> {
        let (batch, exec) = self.boards[board]
            .in_flight
            .take()
            .expect("batch-done event without an in-flight batch");
        let retryable = exec.flagged && self.cfg.defense != DefenseMode::Off;
        for (req, &prediction) in batch.into_iter().zip(exec.predictions.iter()) {
            if retryable && !req.degraded && req.attempts < self.cfg.retry_limit {
                self.counters.retried += 1;
                if self.reroute(req.clone(), board, now, "sdc_retry")? {
                    continue;
                }
                // Nowhere to retry: fall through and answer as-is.
            }
            self.complete(req, prediction, exec.flagged, board, now);
        }
        Ok(())
    }

    fn complete(
        &mut self,
        req: Request,
        prediction: usize,
        flagged: bool,
        board: usize,
        now: Cycle,
    ) {
        self.counters.completed += 1;
        self.boards[board].fleet.served += 1;
        self.latencies.push(now - req.arrival);
        if flagged {
            self.counters.flagged_completed += 1;
        }
        let span = self.req_span[req.id as usize];
        let corrupt = prediction != self.reference[req.image];
        if corrupt {
            self.counters.corrupt += 1;
            if !flagged {
                self.counters.silently_corrupt += 1;
            }
            let audit = self.trace.instant("sdc_audit", Some(span), now);
            self.trace.attr_done(audit, "board", board as u64);
            self.trace.attr_done(audit, "silent", !flagged);
            self.mirror_last();
            self.snapshot_boards(now);
            self.recorder.dump(
                "sdc_audit",
                now,
                vec![
                    ("board".to_string(), AttrValue::U64(board as u64)),
                    ("request".to_string(), AttrValue::U64(req.id)),
                    ("silent".to_string(), AttrValue::Bool(!flagged)),
                ],
            );
        }
        self.trace.attr(span, "attempts", u64::from(req.attempts));
        self.trace.attr(span, "flagged", flagged);
        self.trace.attr(
            span,
            "outcome",
            if corrupt { "corrupt" } else { "complete" },
        );
        self.trace.end(span, now);
        self.mirror_last();
    }

    /// Clones the most recently completed trace span into the flight
    /// recorder's bounded ring.
    fn mirror_last(&mut self) {
        if let Some(span) = self.trace.last() {
            self.recorder.push(span.clone());
        }
    }

    /// Streams a health snapshot of every board into the flight
    /// recorder, taken just before a post-mortem dump freezes the rings.
    fn snapshot_boards(&mut self, now: Cycle) {
        for b in &self.boards {
            let mut attrs = b.fleet.health().attrs();
            attrs.push((
                "queue_len".to_string(),
                AttrValue::U64(b.queue.len() as u64),
            ));
            attrs.push((
                "rungs".to_string(),
                AttrValue::U64(u64::from(b.fleet.rungs)),
            ));
            self.recorder.snapshot(Snapshot {
                cycle: now,
                source: format!("board{}", b.fleet.index),
                attrs,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ServeConfig {
        ServeConfig {
            requests: 40,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn conservation_every_offered_request_is_accounted_for() {
        let out = run(&quick()).unwrap();
        let c = out.counters;
        assert_eq!(c.offered, 40);
        assert_eq!(c.offered, c.admitted + c.shed);
        assert_eq!(c.completed + c.shed + c.dropped_on_crash, c.offered);
        assert_eq!(out.latencies.len() as u64, c.completed);
        assert!(out.end_cycle > 0);
        assert_eq!(out.boards.len(), 3);
    }

    #[test]
    fn outcome_is_a_pure_function_of_seed_and_config() {
        let a = run(&quick()).unwrap();
        let b = run(&quick()).unwrap();
        assert_eq!(a, b);
        let c = run(&ServeConfig {
            seed: 43,
            ..quick()
        })
        .unwrap();
        assert_ne!(a.latencies, c.latencies);
    }

    #[test]
    fn outcome_is_invariant_across_image_jobs() {
        let serial = run(&quick()).unwrap();
        for image_jobs in [0, 4] {
            let parallel = run(&ServeConfig {
                image_jobs,
                ..quick()
            })
            .unwrap();
            assert_eq!(serial, parallel, "image_jobs={image_jobs}");
        }
    }

    #[test]
    fn sub_vmin_smoke_exercises_defense_without_silent_corruption() {
        let out = run(&ServeConfig {
            requests: 60,
            ..ServeConfig::smoke()
        })
        .unwrap();
        assert_eq!(out.counters.silently_corrupt, 0);
        let events: u64 = out.boards.iter().map(|b| b.events).sum();
        assert!(
            events > 0,
            "a -10 mV margin below Vmin should produce SDC/ECC activity"
        );
    }

    #[test]
    fn round_robin_and_vmin_policies_diverge() {
        let vmin = run(&quick()).unwrap();
        let rr = run(&ServeConfig {
            router: RouterPolicy::RoundRobin,
            ..quick()
        })
        .unwrap();
        let served = |o: &ServeOutcome| o.boards.iter().map(|b| b.served).collect::<Vec<_>>();
        assert_ne!(served(&vmin), served(&rr));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(run(&ServeConfig {
            boards: 0,
            ..quick()
        })
        .is_err());
        assert!(run(&ServeConfig {
            queue_depth: 2,
            max_batch: 4,
            ..quick()
        })
        .is_err());
    }
}
