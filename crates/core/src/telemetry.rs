//! Campaign observability: per-cell collection, plan-order aggregation.
//!
//! The bridge between the campaign machinery in this crate and the
//! generic `redvolt-telemetry` primitives. The layering is what keeps
//! the determinism contract honest under parallelism:
//!
//! 1. Each cell attempt records into *its own* [`CellTelemetry`] (the
//!    accelerator's counters plus a local span ring) — no cross-thread
//!    shared state, so scheduling cannot interleave anything.
//! 2. The supervisor folds attempts into one [`CellTelemetry`] per cell
//!    (counters summed, gauges from the final attempt, spans wrapped in
//!    `attempt` spans).
//! 3. [`CampaignTelemetry::collect`] merges the per-cell telemetry **in
//!    plan order** into one registry and span stream, prefix-summing
//!    simulated-cycle offsets. The result is a pure function of
//!    `(seed, plan)` — byte-identical across `--jobs 1/2/8` and reruns.
//!
//! Scalar per-cell telemetry is journaled alongside each outcome (see
//! [`CellTelemetry::encode_compact`]), so a `--resume`d campaign reports
//! the same final metrics as an uninterrupted one. Spans are not
//! journaled: the resume contract covers metrics; full span-stream
//! byte-identity holds for straight runs.

use crate::executor::{CampaignReport, CellOutcome};
use crate::report::Table;
use redvolt_pmbus::adapter::BusStats;
use redvolt_telemetry::export::{export_jsonl, export_prometheus};
use redvolt_telemetry::{Registry, SpanRecord, SpanRing};
use std::io;
use std::path::Path;
use std::time::Duration;

/// Bucket bounds (simulated cycles) for the per-cell cycle-cost
/// histogram.
const CELL_CYCLE_BOUNDS: [f64; 5] = [1e6, 1e7, 1e8, 1e9, 1e10];

/// Bucket bounds for the per-cell attempt-count histogram.
const CELL_ATTEMPT_BOUNDS: [f64; 3] = [1.0, 2.0, 4.0];

/// Telemetry of one campaign cell: deterministic counters and gauges from
/// the seeded simulation, plus the cell's local span stream.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CellTelemetry {
    /// Simulated DPU cycles the cell consumed (all attempts).
    pub cycles: u64,
    /// Transient faults the DPU observed (all attempts).
    pub dpu_faults: u64,
    /// PMBus fault-handling counters (all attempts).
    pub bus: BusStats,
    /// PMBus transactions issued (all attempts).
    pub bus_transactions: u64,
    /// Board power cycles, counting the supervisor's reboot-between-
    /// attempts as one each (the paper's "requires a full power cycle").
    pub power_cycles: u64,
    /// Final commanded `VCCINT`, mV (0 when the cell never brought up).
    pub vccint_mv: f64,
    /// Final commanded `VCCBRAM`, mV.
    pub vccbram_mv: f64,
    /// Final junction temperature, °C.
    pub junction_c: f64,
    /// BRAM words whose single-bit upset SECDED corrected (all attempts).
    pub ecc_corrected: u64,
    /// BRAM words with a detectable-but-uncorrectable multi-bit pattern.
    pub ecc_uncorrectable: u64,
    /// ABFT checksum verifications executed.
    pub abft_checks: u64,
    /// ABFT checksum mismatches flagged.
    pub abft_mismatches: u64,
    /// Corrupted tiles re-executed under [`redvolt_nn::abft::DefenseMode::Correct`].
    pub abft_reexecutions: u64,
    /// Mismatches still present after the re-execution budget.
    pub abft_unresolved: u64,
    /// BRAM scrub passes completed.
    pub scrub_passes: u64,
    /// Latent corrected-on-read upsets retired by scrubbing.
    pub scrub_retired: u64,
    /// Cell-local spans (ids self-consistent within the cell; empty for
    /// journal-rehydrated cells).
    pub spans: Vec<SpanRecord>,
}

impl CellTelemetry {
    /// Folds one attempt into the cell total: counters sum, gauges take
    /// the attempt's (last-write-wins) values. Spans are merged
    /// separately by the supervisor so they can nest under `attempt`
    /// spans.
    pub fn merge_attempt(&mut self, attempt: &CellTelemetry) {
        self.cycles += attempt.cycles;
        self.dpu_faults += attempt.dpu_faults;
        self.bus.accumulate(attempt.bus);
        self.bus_transactions += attempt.bus_transactions;
        self.power_cycles += attempt.power_cycles;
        self.vccint_mv = attempt.vccint_mv;
        self.vccbram_mv = attempt.vccbram_mv;
        self.junction_c = attempt.junction_c;
        self.ecc_corrected += attempt.ecc_corrected;
        self.ecc_uncorrectable += attempt.ecc_uncorrectable;
        self.abft_checks += attempt.abft_checks;
        self.abft_mismatches += attempt.abft_mismatches;
        self.abft_reexecutions += attempt.abft_reexecutions;
        self.abft_unresolved += attempt.abft_unresolved;
        self.scrub_passes += attempt.scrub_passes;
        self.scrub_retired += attempt.scrub_retired;
    }

    /// Encodes the scalar telemetry as a single space-free token for the
    /// campaign journal (spans are deliberately excluded). Floats use
    /// `{:?}` shortest round-trip formatting, so
    /// [`CellTelemetry::decode_compact`] reproduces the exact values and
    /// a resumed campaign's metrics match an uninterrupted run's.
    pub fn encode_compact(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{:?},{:?},{:?},{},{},{},{},{},{},{},{}",
            self.cycles,
            self.dpu_faults,
            self.bus.retries,
            self.bus.injected_faults,
            self.bus.pec_failures,
            self.bus.backoff.as_micros(),
            self.bus.exhausted,
            self.bus_transactions,
            self.power_cycles,
            self.vccint_mv,
            self.vccbram_mv,
            self.junction_c,
            self.ecc_corrected,
            self.ecc_uncorrectable,
            self.abft_checks,
            self.abft_mismatches,
            self.abft_reexecutions,
            self.abft_unresolved,
            self.scrub_passes,
            self.scrub_retired,
        )
    }

    /// Decodes [`CellTelemetry::encode_compact`]; `None` on any
    /// malformed blob, including one with other than 20 fields.
    pub fn decode_compact(blob: &str) -> Option<CellTelemetry> {
        let f: Vec<&str> = blob.split(',').collect();
        if f.len() != 20 {
            return None;
        }
        Some(CellTelemetry {
            cycles: f[0].parse().ok()?,
            dpu_faults: f[1].parse().ok()?,
            bus: BusStats {
                retries: f[2].parse().ok()?,
                injected_faults: f[3].parse().ok()?,
                pec_failures: f[4].parse().ok()?,
                backoff: Duration::from_micros(f[5].parse().ok()?),
                exhausted: f[6].parse().ok()?,
            },
            bus_transactions: f[7].parse().ok()?,
            power_cycles: f[8].parse().ok()?,
            vccint_mv: f[9].parse().ok()?,
            vccbram_mv: f[10].parse().ok()?,
            junction_c: f[11].parse().ok()?,
            ecc_corrected: f[12].parse().ok()?,
            ecc_uncorrectable: f[13].parse().ok()?,
            abft_checks: f[14].parse().ok()?,
            abft_mismatches: f[15].parse().ok()?,
            abft_reexecutions: f[16].parse().ok()?,
            abft_unresolved: f[17].parse().ok()?,
            scrub_passes: f[18].parse().ok()?,
            scrub_retired: f[19].parse().ok()?,
            spans: Vec::new(),
        })
    }
}

/// Splits a journal payload into the outcome payload proper and its
/// trailing telemetry token. Every journaled cell carries one, so a
/// payload whose token is missing or fails to decode yields `None`: a
/// resumed cell must report the telemetry of the run that measured it.
pub fn split_telem(payload: &str) -> Option<(&str, CellTelemetry)> {
    let (rest, blob) = payload.rsplit_once(" telem=")?;
    Some((rest, CellTelemetry::decode_compact(blob)?))
}

/// The merged, deterministic telemetry of one finished campaign.
#[derive(Debug)]
pub struct CampaignTelemetry {
    /// Counters, gauges and histograms, aggregated in plan order.
    pub registry: Registry,
    /// The campaign → cell → attempt → bus/DPU span tree, cycle offsets
    /// prefix-summed in plan order.
    pub spans: SpanRing,
}

impl CampaignTelemetry {
    /// Aggregates every cell's telemetry in plan order. The output is
    /// identical for any worker count because the inputs are per-cell
    /// values merged in a fixed order — scheduling never shows.
    pub fn collect(report: &CampaignReport) -> CampaignTelemetry {
        let registry = Registry::new();
        let mut ring = SpanRing::new();

        let cells = registry.counter("redvolt_cells_total", &[]);
        let aborted = registry.counter("redvolt_cells_aborted_total", &[]);
        let degraded = registry.counter("redvolt_cells_degraded_total", &[]);
        let retried = registry.counter("redvolt_cells_retried_total", &[]);
        let attempts = registry.counter("redvolt_attempts_total", &[]);
        let cycles = registry.counter("redvolt_dpu_cycles_total", &[]);
        let dpu_faults = registry.counter("redvolt_dpu_faults_total", &[]);
        let bus_txn = registry.counter("redvolt_bus_transactions_total", &[]);
        let bus_retries = registry.counter("redvolt_bus_retries_total", &[]);
        let bus_injected = registry.counter("redvolt_bus_injected_faults_total", &[]);
        let bus_pec = registry.counter("redvolt_bus_pec_failures_total", &[]);
        let bus_exhausted = registry.counter("redvolt_bus_exhausted_total", &[]);
        let bus_backoff = registry.counter("redvolt_bus_backoff_micros_total", &[]);
        let power_cycles = registry.counter("redvolt_power_cycles_total", &[]);
        let ecc_corrected = registry.counter("redvolt_ecc_corrected_words_total", &[]);
        let ecc_uncorrectable = registry.counter("redvolt_ecc_uncorrectable_words_total", &[]);
        let abft_checks = registry.counter("redvolt_abft_checks_total", &[]);
        let abft_mismatches = registry.counter("redvolt_abft_mismatches_total", &[]);
        let abft_reexec = registry.counter("redvolt_abft_reexecutions_total", &[]);
        let abft_unresolved = registry.counter("redvolt_abft_unresolved_total", &[]);
        let scrub_passes = registry.counter("redvolt_scrub_passes_total", &[]);
        let scrub_retired = registry.counter("redvolt_scrub_retired_upsets_total", &[]);
        let cell_cycles = registry.histogram("redvolt_cell_cycles", &[], &CELL_CYCLE_BOUNDS);
        let cell_attempts = registry.histogram("redvolt_cell_attempts", &[], &CELL_ATTEMPT_BOUNDS);

        let total_cycles: u64 = report.results.iter().map(|r| r.telemetry.cycles).sum();
        let campaign = ring.begin("campaign", None, 0);
        let mut base = 0u64;
        for r in &report.results {
            let t = &r.telemetry;
            cells.inc();
            if matches!(r.outcome, CellOutcome::Aborted { .. }) {
                aborted.inc();
            }
            if matches!(r.outcome, CellOutcome::Degraded { .. }) {
                degraded.inc();
            }
            if r.attempts > 1 {
                retried.inc();
            }
            attempts.add(u64::from(r.attempts));
            cycles.add(t.cycles);
            dpu_faults.add(t.dpu_faults);
            bus_txn.add(t.bus_transactions);
            bus_retries.add(t.bus.retries);
            bus_injected.add(t.bus.injected_faults);
            bus_pec.add(t.bus.pec_failures);
            bus_exhausted.add(t.bus.exhausted);
            bus_backoff.add(t.bus.backoff.as_micros() as u64);
            power_cycles.add(t.power_cycles);
            ecc_corrected.add(t.ecc_corrected);
            ecc_uncorrectable.add(t.ecc_uncorrectable);
            abft_checks.add(t.abft_checks);
            abft_mismatches.add(t.abft_mismatches);
            abft_reexec.add(t.abft_reexecutions);
            abft_unresolved.add(t.abft_unresolved);
            scrub_passes.add(t.scrub_passes);
            scrub_retired.add(t.scrub_retired);
            cell_cycles.observe(t.cycles as f64);
            cell_attempts.observe(f64::from(r.attempts));

            // Rail/temperature gauges per board: plan order makes the
            // last cell touching a board the deterministic winner. Cells
            // that never brought up (default telemetry) are skipped so
            // they cannot zero a live gauge.
            if t.vccint_mv > 0.0 {
                let board = r.spec.config.board_sample.to_string();
                registry
                    .gauge("redvolt_rail_mv", &[("board", &board), ("rail", "vccint")])
                    .set(t.vccint_mv);
                registry
                    .gauge("redvolt_rail_mv", &[("board", &board), ("rail", "vccbram")])
                    .set(t.vccbram_mv);
                registry
                    .gauge("redvolt_temp_c", &[("board", &board)])
                    .set(t.junction_c);
            }

            let cell_span = ring.begin("cell", None, base);
            ring.attr(cell_span, "index", r.index.to_string());
            ring.attr(cell_span, "label", r.spec.label());
            ring.attr(cell_span, "attempts", r.attempts.to_string());
            ring.absorb_records(&t.spans, Some(cell_span), base);
            ring.end(cell_span, base + t.cycles);
            base += t.cycles;
        }
        ring.end(campaign, total_cycles);
        // Surfaced so a truncated span stream is visible in the exports,
        // not silently shorter.
        registry
            .counter("redvolt_spans_dropped_total", &[])
            .add(ring.dropped());

        CampaignTelemetry {
            registry,
            spans: ring,
        }
    }

    /// The JSONL event stream (spans then metrics; see
    /// `redvolt_telemetry::export::export_jsonl`).
    pub fn to_jsonl(&self) -> String {
        let spans: Vec<SpanRecord> = self.spans.spans().cloned().collect();
        export_jsonl(&spans, &self.registry.samples())
    }

    /// The JSONL event stream with the process-wide
    /// [`crate::workload_cache`] effectiveness samples (hits, misses,
    /// occupancy) appended after the campaign's own metrics.
    ///
    /// Cache totals depend on process history (a warm cache serves hits
    /// where a cold one counted misses), so they are *not* a pure
    /// function of `(seed, plan)`. They are therefore appended only
    /// here, for the operator-facing `--metrics-out` stream — never in
    /// [`CampaignTelemetry::to_prometheus`] or the golden-tested
    /// campaign payloads, which stay byte-identical across runs.
    pub fn to_jsonl_with_cache_stats(&self) -> String {
        let spans: Vec<SpanRecord> = self.spans.spans().cloned().collect();
        let mut samples = self.registry.samples();
        samples.extend(crate::workload_cache::metrics_registry().samples());
        export_jsonl(&spans, &samples)
    }

    /// The Prometheus text exposition of the metrics.
    pub fn to_prometheus(&self) -> String {
        export_prometheus(&self.registry.samples())
    }

    /// Writes [`CampaignTelemetry::to_prometheus`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_prometheus(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_prometheus())
    }

    /// End-of-run summary of the headline counters — deterministic and
    /// resume-invariant (built from journaled scalars only), so the
    /// `repro` binary can print it on stdout.
    pub fn summary_table(&self) -> Table {
        let mut t = Table::new("Telemetry summary", &["Metric", "Total"]);
        for sample in self.registry.samples() {
            if let redvolt_telemetry::SampleValue::Counter(v) = sample.value {
                t.row(&[sample.id.name.clone(), v.to_string()]);
            }
        }
        t
    }
}

/// The PMBus health summary the `repro` binary appends to its output —
/// the `BusStats` that used to be dropped on the floor. Integer-only and
/// journal-round-tripped, so straight and resumed runs print identical
/// bytes.
pub fn bus_stats_table(report: &CampaignReport) -> Table {
    let mut bus = BusStats::default();
    let mut transactions = 0u64;
    for r in &report.results {
        bus.accumulate(r.telemetry.bus);
        transactions += r.telemetry.bus_transactions;
    }
    let mut t = Table::new("PMBus bus health", &["Metric", "Total"]);
    t.row(&["transactions".to_string(), transactions.to_string()]);
    t.row(&["retries".to_string(), bus.retries.to_string()]);
    t.row(&[
        "injected faults".to_string(),
        bus.injected_faults.to_string(),
    ]);
    t.row(&["PEC failures".to_string(), bus.pec_failures.to_string()]);
    t.row(&[
        "retry budget exhausted".to_string(),
        bus.exhausted.to_string(),
    ]);
    t.row(&[
        "scheduled backoff (us)".to_string(),
        bus.backoff.as_micros().to_string(),
    ]);
    t
}

/// The SDC-defense summary the `repro` binary appends when a defense is
/// armed: what ECC, ABFT and the scrubber absorbed, plus how many rescue
/// cells settled at a degraded operating point. Integer-only and
/// journal-round-tripped, like [`bus_stats_table`].
pub fn defense_stats_table(report: &CampaignReport) -> Table {
    let mut sum = CellTelemetry::default();
    let mut degraded = 0u64;
    for r in &report.results {
        sum.merge_attempt(&r.telemetry);
        if matches!(r.outcome, CellOutcome::Degraded { .. }) {
            degraded += 1;
        }
    }
    let mut t = Table::new("SDC defense", &["Metric", "Total"]);
    t.row(&[
        "ECC corrected words".to_string(),
        sum.ecc_corrected.to_string(),
    ]);
    t.row(&[
        "ECC uncorrectable words".to_string(),
        sum.ecc_uncorrectable.to_string(),
    ]);
    t.row(&["ABFT checks".to_string(), sum.abft_checks.to_string()]);
    t.row(&[
        "ABFT mismatches".to_string(),
        sum.abft_mismatches.to_string(),
    ]);
    t.row(&[
        "ABFT re-executions".to_string(),
        sum.abft_reexecutions.to_string(),
    ]);
    t.row(&[
        "ABFT unresolved".to_string(),
        sum.abft_unresolved.to_string(),
    ]);
    t.row(&["scrub passes".to_string(), sum.scrub_passes.to_string()]);
    t.row(&[
        "scrub retired upsets".to_string(),
        sum.scrub_retired.to_string(),
    ]);
    t.row(&["cells degraded".to_string(), degraded.to_string()]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_telem() -> CellTelemetry {
        CellTelemetry {
            cycles: 123_456_789,
            dpu_faults: 42,
            bus: BusStats {
                retries: 7,
                injected_faults: 9,
                pec_failures: 2,
                backoff: Duration::from_micros(350),
                exhausted: 1,
            },
            bus_transactions: 512,
            power_cycles: 3,
            vccint_mv: 572.5,
            vccbram_mv: 850.0,
            junction_c: 41.25,
            ecc_corrected: 11,
            ecc_uncorrectable: 2,
            abft_checks: 96,
            abft_mismatches: 5,
            abft_reexecutions: 4,
            abft_unresolved: 1,
            scrub_passes: 6,
            scrub_retired: 9,
            spans: Vec::new(),
        }
    }

    #[test]
    fn compact_codec_round_trips() {
        let t = sample_telem();
        let blob = t.encode_compact();
        assert!(!blob.contains(' '), "journal tokens must be space-free");
        assert_eq!(CellTelemetry::decode_compact(&blob), Some(t));
    }

    #[test]
    fn split_telem_recovers_payload_and_blob() {
        let t = sample_telem();
        let payload = format!("measure 850.0,333.0 telem={}", t.encode_compact());
        assert_eq!(split_telem(&payload), Some(("measure 850.0,333.0", t)));

        // An entry without its blob, or with one that does not decode,
        // is malformed.
        assert_eq!(split_telem("sweep - crashed_at=none"), None);
        assert_eq!(split_telem("aborted something telem=notnumbers"), None);
    }

    #[test]
    fn merge_attempt_sums_counters_keeps_last_gauges() {
        let mut total = CellTelemetry::default();
        let mut a1 = sample_telem();
        a1.vccint_mv = 600.0;
        let a2 = sample_telem();
        total.merge_attempt(&a1);
        total.merge_attempt(&a2);
        assert_eq!(total.cycles, 2 * 123_456_789);
        assert_eq!(total.bus.retries, 14);
        assert_eq!(total.vccint_mv, 572.5, "gauge from the final attempt");
        assert_eq!(total.ecc_corrected, 22);
        assert_eq!(total.abft_unresolved, 2);
        assert_eq!(total.scrub_retired, 18);
    }

    #[test]
    fn truncated_blobs_are_rejected() {
        let blob = sample_telem().encode_compact();
        // 12 fields is the pre-defense layout; its journals fail the plan
        // fingerprint check before any blob is decoded.
        for fields in [3, 12, 13, 19] {
            let short: String = blob.split(',').take(fields).collect::<Vec<_>>().join(",");
            assert_eq!(
                CellTelemetry::decode_compact(&short),
                None,
                "{fields} fields"
            );
        }
    }

    #[test]
    fn cache_stats_appear_in_jsonl_but_not_prometheus() {
        let telem = CampaignTelemetry {
            registry: redvolt_telemetry::Registry::new(),
            spans: redvolt_telemetry::SpanRing::new(),
        };
        let jsonl = telem.to_jsonl_with_cache_stats();
        assert!(jsonl.contains("redvolt_quant_cache_hits_total"));
        assert!(jsonl.contains("redvolt_quant_cache_misses_total"));
        assert!(jsonl.contains("redvolt_quant_cache_occupancy"));
        // The meta line's metric count covers the appended samples.
        let metrics = jsonl.lines().count() - 1;
        assert!(jsonl
            .lines()
            .next()
            .expect("meta line")
            .contains(&format!("\"metrics\":{metrics}")));
        // The plain exports stay pure functions of (seed, plan).
        assert!(!telem.to_jsonl().contains("quant_cache"));
        assert!(!telem.to_prometheus().contains("quant_cache"));
    }
}
