//! Crash-resilient campaign supervisor.
//!
//! [`CampaignPlan::run_sharded`] is fast but brittle in exactly the ways the
//! paper's physical campaign was not allowed to be: a panicking cell
//! poisons the whole run, a hung cell stalls a worker forever, and an
//! interrupted campaign restarts from zero. [`run_supervised`] wraps the
//! same deterministic executor in the supervision the real experimenters
//! provided by hand while babysitting three ZCU102s through days of
//! reboots:
//!
//! * **Panic isolation** — each cell attempt runs under
//!   [`std::panic::catch_unwind`] on its own thread; a panic becomes a
//!   recorded [`CellOutcome::Aborted`] while every other cell completes.
//! * **Watchdog** — each attempt gets a wall-clock cap and (optionally) a
//!   simulated-cycle budget. A hung attempt is reaped and the cell
//!   retried; the fresh attempt brings up a fresh board — the simulation's
//!   power cycle.
//! * **Retry** — crash-region hangs ([`MeasureError::Crashed`]),
//!   transient bus errors that exhausted the adapter's own retry budget,
//!   and watchdog deadlines are retried up to
//!   [`SupervisorConfig::max_attempts`], with the attempt count recorded
//!   in [`CellResult::attempts`]. Everything else aborts the cell (not
//!   the campaign) immediately.
//! * **Journaled resume** — with a journal attached, every completed cell
//!   is appended and flushed *before* it counts as done; a resumed run
//!   skips journaled cells and merges to the exact bytes of an
//!   uninterrupted one (`CampaignReport::to_csv` excludes timing, and
//!   per-cell seeds derive from `(master_seed, index)` alone).
//!
//! ## State machine (per cell)
//!
//! ```text
//!           ┌────────────┐ journaled?  ┌─────────┐
//!  pending ─┤  scheduled ├────────────►│ resumed │ (rehydrated, no run)
//!           └─────┬──────┘             └─────────┘
//!                 ▼
//!           ┌────────────┐ ok          ┌───────────┐
//!       ┌──►│  attempt n ├────────────►│ completed │──► journal + merge
//!       │   └─────┬──────┘             └───────────┘
//!       │         │ crash / transient bus / deadline
//!       │         ▼
//!       │   n < max_attempts ──► power-cycle (fresh board), retry
//!       └─────────┘
//!                 │ n == max_attempts, or panic / hard error
//!                 ▼
//!           ┌───────────┐
//!           │  aborted  │──► journal + merge (cause recorded)
//!           └───────────┘
//! ```

use crate::executor::{
    execute_cell_with, two_level_jobs, CampaignPlan, CampaignReport, CellOutcome, CellResult,
    CellSpec,
};
use crate::experiment::MeasureError;
use crate::journal::{
    decode_outcome, encode_outcome, plan_meta, read_journal, JournalEntry, JournalWriter,
};
use crate::telemetry::{split_telem, CellTelemetry};
use redvolt_dpu::runtime::RunError;
use redvolt_num::par;
use redvolt_telemetry::progress::ProgressReporter;
use redvolt_telemetry::SpanRing;
use std::fmt;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Supervision policy for a campaign run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Attempts per cell (min 1). The paper's scripts rebooted and
    /// retried a crashed point a few times before giving up on it.
    pub max_attempts: u32,
    /// Wall-clock cap per attempt; a slower attempt is reaped and
    /// retried. Generous by default — it is a hang detector, not a
    /// performance budget.
    pub wall_cap: Duration,
    /// Simulated-cycle budget per attempt (deterministic deadline), if
    /// any.
    pub cycle_budget: Option<u64>,
    /// Stop the campaign after this many *newly executed* cells have been
    /// journaled (test/CI hook for killing a run mid-flight in a
    /// controlled, deterministic place).
    pub halt_after: Option<usize>,
    /// Image-shard workers per cell batch: `0` (the default) derives the
    /// count from whatever share of the requested worker budget the cell
    /// level leaves idle, `1` keeps batches sequential. Results are
    /// byte-identical for every value.
    pub image_jobs: usize,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_attempts: 3,
            wall_cap: Duration::from_secs(300),
            cycle_budget: None,
            halt_after: None,
            image_jobs: 0,
        }
    }
}

/// Where (and whether) to journal campaign progress.
#[derive(Debug, Clone)]
pub struct JournalSpec {
    /// Journal file path.
    pub path: PathBuf,
    /// Resume from the journal if it exists (otherwise it is truncated).
    pub resume: bool,
}

impl JournalSpec {
    /// A journal at `path`, fresh (`resume = false`) or resuming.
    pub fn new(path: impl Into<PathBuf>, resume: bool) -> Self {
        JournalSpec {
            path: path.into(),
            resume,
        }
    }
}

/// A supervised campaign's result.
#[derive(Debug)]
pub struct SupervisedReport {
    /// The merged campaign report (journaled + freshly executed cells, in
    /// plan order). Rehydrated cells carry zero elapsed time and worker 0.
    pub report: CampaignReport,
    /// Cells skipped because the journal already held them.
    pub resumed_cells: usize,
    /// Cells whose final outcome is [`CellOutcome::Aborted`].
    pub aborted_cells: usize,
    /// Whether the run stopped early at [`SupervisorConfig::halt_after`].
    /// When true, the report covers only the journaled prefix.
    pub interrupted: bool,
}

/// Supervisor failures — journal I/O only; cell failures are *outcomes*,
/// not errors.
#[derive(Debug)]
pub enum SupervisorError {
    /// The journal could not be read, written, or did not match the plan.
    Journal(io::Error),
}

impl fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SupervisorError::Journal(e) => write!(f, "campaign journal: {e}"),
        }
    }
}

impl std::error::Error for SupervisorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SupervisorError::Journal(e) => Some(e),
        }
    }
}

impl From<io::Error> for SupervisorError {
    fn from(e: io::Error) -> Self {
        SupervisorError::Journal(e)
    }
}

/// Whether a failed attempt is worth a power-cycle-and-retry.
fn is_retryable(err: &MeasureError) -> bool {
    match err {
        // The paper's reboot case: the board hung at this point.
        MeasureError::Crashed { .. } => true,
        // The bus was too marginal even for the adapter's retry budget.
        MeasureError::Pmbus(e) => e.is_transient(),
        // The deterministic watchdog deadline.
        MeasureError::Run(RunError::CycleBudgetExceeded { .. }) => true,
        _ => false,
    }
}

/// What one watchdogged attempt produced.
enum Attempt {
    // Boxed: `CellOutcome::Degraded` carries a full rescue trace, which
    // would otherwise bloat every `Attempt` on the channel.
    Done(Box<Result<CellOutcome, MeasureError>>, CellTelemetry),
    Panicked(String),
    DeadlineExceeded,
}

/// Runs one attempt on its own thread under `catch_unwind`, reaping it if
/// it outlives `wall_cap`. A reaped thread is detached, not joined — the
/// OS thread finishes (or leaks) on its own; the supervisor moves on, as
/// the real campaign moved on by power-cycling a wedged board.
fn run_attempt(
    spec: &CellSpec,
    wall_cap: Duration,
    cycle_budget: Option<u64>,
    image_jobs: usize,
) -> Attempt {
    let spec = spec.clone();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            execute_cell_with(&spec, cycle_budget, image_jobs)
        }));
        // The receiver may be gone (deadline fired); that is fine.
        let _ = tx.send(result);
    });
    match rx.recv_timeout(wall_cap) {
        Ok(Ok((result, telemetry))) => Attempt::Done(Box::new(result), telemetry),
        Ok(Err(payload)) => Attempt::Panicked(panic_message(payload.as_ref())),
        Err(mpsc::RecvTimeoutError::Timeout) => Attempt::DeadlineExceeded,
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The worker died without reporting — treat like a panic with
            // an unknown payload.
            Attempt::Panicked("worker thread died without reporting".to_string())
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Per-cell telemetry accumulator: folds attempt telemetry into a cell
/// total, wrapping each attempt's spans in an `attempt` span and
/// prefix-summing simulated-cycle offsets so the merged stream reads as
/// one timeline per cell.
struct CellFold {
    total: CellTelemetry,
    ring: SpanRing,
    cycle_base: u64,
}

impl CellFold {
    fn new() -> Self {
        CellFold {
            total: CellTelemetry::default(),
            ring: SpanRing::new(),
            cycle_base: 0,
        }
    }

    fn fold(&mut self, attempt_no: u32, telemetry: &CellTelemetry) {
        let span = self.ring.begin("attempt", None, self.cycle_base);
        self.ring.attr(span, "n", attempt_no.to_string());
        self.ring
            .absorb_records(&telemetry.spans, Some(span), self.cycle_base);
        self.ring.end(span, self.cycle_base + telemetry.cycles);
        self.cycle_base += telemetry.cycles;
        self.total.merge_attempt(telemetry);
    }

    /// The supervisor's reboot-between-attempts is the simulation's power
    /// cycle; count it like the paper's operators counted theirs.
    fn power_cycle(&mut self) {
        self.total.power_cycles += 1;
    }

    fn finish(mut self) -> CellTelemetry {
        self.total.spans = self.ring.take();
        self.total
    }
}

/// Drives one cell to a final outcome, retrying per `config`. Returns the
/// outcome, the number of attempts consumed, and the cell's aggregated
/// telemetry (attempt counters summed, gauges from the final attempt,
/// spans wrapped per attempt). Cause strings are deterministic (no
/// timing, no addresses), so aborted outcomes serialize identically
/// across runs.
fn supervise_cell(
    spec: &CellSpec,
    config: &SupervisorConfig,
    image_jobs: usize,
) -> (CellOutcome, u32, CellTelemetry) {
    let max_attempts = config.max_attempts.max(1);
    let mut fold = CellFold::new();
    for attempt in 1..=max_attempts {
        match run_attempt(spec, config.wall_cap, config.cycle_budget, image_jobs) {
            Attempt::Done(result, telemetry) => match *result {
                Ok(outcome) => {
                    fold.fold(attempt, &telemetry);
                    return (outcome, attempt, fold.finish());
                }
                Err(err) => {
                    fold.fold(attempt, &telemetry);
                    if is_retryable(&err) && attempt < max_attempts {
                        fold.power_cycle();
                        continue; // fresh bring-up = power cycle
                    }
                    let cause = if is_retryable(&err) {
                        format!("retry budget exhausted after {attempt} attempts: {err}")
                    } else {
                        format!("{err}")
                    };
                    return (CellOutcome::Aborted { cause }, attempt, fold.finish());
                }
            },
            Attempt::Panicked(msg) => {
                // Panics are deterministic bugs, not operational flakes:
                // retrying reproduces them, so abort immediately. The
                // attempt's telemetry died with the unwound thread.
                return (
                    CellOutcome::Aborted {
                        cause: format!("panic: {msg}"),
                    },
                    attempt,
                    fold.finish(),
                );
            }
            Attempt::DeadlineExceeded => {
                // The reaped thread kept its accelerator — nothing to fold.
                if attempt < max_attempts {
                    fold.power_cycle();
                    continue;
                }
                return (
                    CellOutcome::Aborted {
                        cause: "watchdog: wall-clock cap exceeded".to_string(),
                    },
                    attempt,
                    fold.finish(),
                );
            }
        }
    }
    unreachable!("loop returns on every branch of the final attempt")
}

/// Runs `plan` under supervision across `jobs` workers (0 = available
/// parallelism), optionally journaling progress for resume.
///
/// The merged report is byte-identical (via `CampaignReport::to_csv`) to
/// an uninterrupted, unjournaled supervised run of the same plan at any
/// worker count — including runs that were halted and resumed, and runs
/// with a nonzero injected PMBus fault rate in their cells' configs.
///
/// The `progress` reporter, if any, hears of each freshly executed cell
/// from the worker that finished it, in completion order (which depends
/// on scheduling); it writes to stderr and never feeds anything back into
/// the deterministic payload.
///
/// # Errors
///
/// Only journal I/O fails the call; cell-level failures are recorded as
/// [`CellOutcome::Aborted`] outcomes inside the report.
pub fn run_supervised(
    plan: &CampaignPlan,
    jobs: usize,
    config: &SupervisorConfig,
    journal: Option<&JournalSpec>,
    progress: Option<&ProgressReporter>,
) -> Result<SupervisedReport, SupervisorError> {
    let started = Instant::now();
    let meta = plan_meta(plan);

    // Load the journaled prefix (resume) and open the writer.
    let (journaled, writer) = match journal {
        Some(spec) => {
            let existing = if spec.resume {
                read_journal(&spec.path, &meta)?
            } else {
                Default::default()
            };
            let writer = if spec.resume && spec.path.exists() {
                JournalWriter::append_to(&spec.path)?
            } else {
                JournalWriter::create(&spec.path, &meta)?
            };
            (existing, Some(writer))
        }
        None => (Default::default(), None),
    };

    // Cells still to execute, in plan order; `halt_after` truncates the
    // schedule at a deterministic point regardless of worker count.
    let mut pending: Vec<usize> = (0..plan.len())
        .filter(|i| !journaled.contains_key(i))
        .collect();
    let interrupted = match config.halt_after {
        Some(k) if pending.len() > k => {
            pending.truncate(k);
            true
        }
        _ => false,
    };

    let (jobs, image_jobs) = two_level_jobs(jobs, pending.len(), config.image_jobs);
    let writer = Mutex::new(writer);
    let journal_err: Mutex<Option<io::Error>> = Mutex::new(None);
    let mut workers: Vec<usize> = (0..jobs).collect();
    let fresh = par::run_indexed(pending.len(), &mut workers, |qi, &mut worker| {
        let index = pending[qi];
        let cell_started = Instant::now();
        let spec = plan.cell(index);
        let (outcome, attempts, telemetry) = supervise_cell(&spec, config, image_jobs);
        // Write-ahead: the cell is not "done" until its line is flushed.
        // The scalar telemetry rides along as a space-free trailing token
        // so a resumed campaign reports the same metrics.
        if let Some(w) = writer.lock().unwrap().as_mut() {
            let entry = JournalEntry {
                index,
                attempts,
                payload: format!(
                    "{} telem={}",
                    encode_outcome(&outcome),
                    telemetry.encode_compact()
                ),
            };
            if let Err(e) = w.append(&entry) {
                journal_err.lock().unwrap().get_or_insert(e);
            }
        }
        let result = CellResult {
            index,
            spec,
            outcome,
            elapsed: cell_started.elapsed(),
            worker,
            attempts,
            telemetry,
        };
        if let Some(progress) = progress {
            progress.cell_done(
                matches!(result.outcome, CellOutcome::Aborted { .. }),
                result.attempts.saturating_sub(1),
                result.telemetry.cycles,
            );
        }
        result
    });
    if let Some(e) = journal_err.into_inner().unwrap() {
        return Err(SupervisorError::Journal(e));
    }

    // Merge journaled + fresh results in plan order.
    let resumed_cells = journaled.len();
    let mut results: Vec<CellResult> = Vec::with_capacity(journaled.len() + fresh.len());
    for (&index, entry) in &journaled {
        // Telemetry scalars round-trip through the journal; spans do not
        // (the resume contract covers metrics, not span streams).
        let malformed = || {
            SupervisorError::Journal(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("journal entry for cell {index} is malformed"),
            ))
        };
        if index >= plan.len() {
            return Err(malformed());
        }
        let (payload, telemetry) = split_telem(&entry.payload).ok_or_else(malformed)?;
        let outcome = decode_outcome(payload).ok_or_else(malformed)?;
        results.push(CellResult {
            index,
            spec: plan.cell(index),
            outcome,
            elapsed: Duration::ZERO,
            worker: 0,
            attempts: entry.attempts,
            telemetry,
        });
    }
    results.extend(fresh);
    results.sort_by_key(|r| r.index);

    let aborted_cells = results
        .iter()
        .filter(|r| matches!(r.outcome, CellOutcome::Aborted { .. }))
        .count();
    Ok(SupervisedReport {
        report: CampaignReport {
            jobs,
            image_jobs,
            elapsed: started.elapsed(),
            results,
        },
        resumed_cells,
        aborted_cells,
        interrupted,
    })
}
