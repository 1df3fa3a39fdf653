//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p redvolt-bench --bin repro -- all
//! cargo run --release -p redvolt-bench --bin repro -- --quick fig6 table2
//! cargo run --release -p redvolt-bench --bin repro -- --quick --jobs 8 all
//! cargo run --release -p redvolt-bench --bin repro -- --quick \
//!     --fault-profile light --journal sweep.journal --resume fig6
//! ```
//!
//! With no arguments, runs everything at full settings (three boards,
//! 100 images, 10 repetitions — the paper's methodology). `--quick` runs
//! board 0 with reduced sampling. `--csv` emits CSV instead of aligned
//! text. `--jobs N` shards the shared sweep campaign across N worker
//! threads (0 or absent: available parallelism); results are byte-identical
//! for every N because each campaign cell derives its seed from the plan,
//! not the schedule. `--image-jobs M` additionally shards each cell's
//! image batch across M workers (0 or absent = divide surplus `--jobs`
//! workers across images; 1 = sequential batches) — every image derives
//! its fault stream from `(cell seed, image index, attempt)`, so output
//! stays byte-identical for any (jobs, image-jobs) combination. Per-cell
//! timing goes to stderr so stdout stays comparable across job counts.
//! An unknown flag or experiment name exits 2 with a usage line before
//! anything runs.
//!
//! The shared sweep campaign runs under the crash-resilient supervisor:
//! `--fault-profile none|light|heavy` injects transient PMBus faults
//! (absorbed by the adapter's retry/PEC machinery, so output stays
//! byte-identical per profile), `--max-attempts N` sets the per-cell
//! reboot-and-retry budget, `--journal PATH` write-ahead-journals each
//! completed cell, and `--resume` continues an interrupted campaign from
//! that journal. `--halt-after-cells K` deterministically stops after K
//! newly journaled cells (exit code 3) — the hook CI uses to prove that
//! interrupted-then-resumed output is byte-identical to a straight run.
//!
//! Telemetry: `--metrics-out PATH` writes the campaign's JSONL event
//! stream (spans + metrics), `--prom-out PATH` writes the Prometheus
//! text exposition, and `--progress SECS` emits live progress lines to
//! stderr. Exported metric bytes are a pure function of (seed, plan) —
//! identical for every `--jobs` value. The JSONL stream also carries the
//! process-wide workload-cache effectiveness counters
//! (`redvolt_quant_cache_{hits,misses}_total`, `_occupancy`); their
//! totals are scheduling-invariant too (once-semantics slots), though
//! they reflect the whole process, not a single campaign.
//!
//! SDC defense: `--defense off|detect|correct` arms ABFT checksums on
//! the kernels and ECC SECDED scrubbing on the BRAM weight store (`off`
//! keeps the execution path bit-identical to the undefended kernels),
//! and `--governor` turns on the adaptive undervolt governor, which
//! walks faulting cells down the mitigation ladder (frequency first,
//! then voltage backoff) and reports them as degraded-but-clean instead
//! of handing back corrupt payloads. Both are deterministic functions of
//! (seed, plan), so defended campaigns remain jobs-invariant.

use redvolt_bench::harness::{
    self, CampaignOptions, Settings, CAMPAIGN_USAGE, SWEEP_CACHED_EXPERIMENTS,
};
use redvolt_core::telemetry::{
    bus_stats_table, defense_stats_table, CampaignObserver, CampaignTelemetry,
};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let csv = args.iter().any(|a| a == "--csv");
    // Every argument is checked before any work starts.
    let (opts, wanted) = CampaignOptions::from_args(&args, &["--quick", "--csv"])
        .and_then(|(opts, names)| Ok((opts, harness::select_experiments(names)?)))
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            eprintln!("usage: repro [--quick] [--csv] {CAMPAIGN_USAGE} [all | EXPERIMENT...]");
            std::process::exit(2);
        });
    let settings = Settings {
        bus_faults: opts.fault_profile,
        defense: opts.defense,
        governor: opts.governor,
        ..if quick {
            Settings::quick()
        } else {
            Settings::full()
        }
    };
    println!(
        "# redvolt reproduction of DSN-2020 'Reduced-Voltage Operation in Modern FPGAs'\n\
         # settings: boards={:?} images={} reps={} faults={} defense={} governor={} ({})\n",
        settings.boards,
        settings.images,
        settings.reps,
        settings.bus_faults.name(),
        settings.defense.name(),
        if settings.governor { "on" } else { "off" },
        if quick { "quick" } else { "full" }
    );
    // Run the shared sweep grid once, in parallel, before any consumer.
    // The supervisor isolates panics, retries crashed cells and, with
    // --journal, records every completed cell write-ahead.
    if wanted
        .iter()
        .any(|w| SWEEP_CACHED_EXPERIMENTS.contains(&w.as_str()))
    {
        let journal = opts.journal_spec();
        let progress = opts.progress_reporter(harness::sweep_plan(&settings).len());
        let sup = match harness::prefetch_sweeps(
            &settings,
            opts.jobs,
            &opts.supervisor_config(),
            journal.as_ref(),
            progress.as_ref().map(|p| p as &dyn CampaignObserver),
        ) {
            Ok(sup) => sup,
            Err(e) => {
                eprintln!("error: sweep campaign: {e}");
                std::process::exit(2);
            }
        };
        if let Some(p) = &progress {
            p.finish();
        }
        if sup.resumed_cells > 0 {
            eprintln!("# resumed {} journaled cells", sup.resumed_cells);
        }
        if sup.aborted_cells > 0 {
            eprintln!("# {} cells aborted (see report)", sup.aborted_cells);
        }
        eprintln!("{}", sup.report.timing_table().to_text());
        // PMBus bus health + telemetry summary go to stdout: every field
        // is an integer counter that round-trips through the journal, so
        // straight and interrupted-then-resumed runs print the same bytes.
        let telem = CampaignTelemetry::collect(&sup.report);
        println!("{}", bus_stats_table(&sup.report).to_text());
        if settings.defense.is_on() || settings.governor {
            println!("{}", defense_stats_table(&sup.report).to_text());
        }
        println!("{}", telem.summary_table().to_text());
        if let Err(e) = opts.export_telemetry(&telem) {
            eprintln!("error: telemetry export: {e}");
            std::process::exit(2);
        }
        if sup.interrupted {
            eprintln!(
                "# campaign halted after {} newly journaled cells; rerun with --resume",
                sup.report.results.len() - sup.resumed_cells
            );
            std::process::exit(3);
        }
    }
    for name in &wanted {
        let t0 = Instant::now();
        let tables = harness::run_experiment(name, &settings)
            .expect("select_experiments admits known names only");
        for table in tables {
            println!("{}", if csv { table.to_csv() } else { table.to_text() });
        }
        // Timing goes to stderr: stdout must stay byte-identical across
        // runs and --jobs values (tests/determinism.rs).
        eprintln!("# {name} done in {:.1}s", t0.elapsed().as_secs_f64());
    }
}
