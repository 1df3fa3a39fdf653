//! Re-derives the fitted calibration constants from the paper's anchors
//! and checks them against `redvolt_fpga::calib`.
//!
//! The board model's free parameters were fitted once against the numbers
//! printed in the paper; this tool repeats the fit so the provenance of
//! every hard-coded constant can be audited:
//!
//! ```text
//! cargo run --release -p redvolt-bench --bin calibrate -- --jobs 3
//! ```
//!
//! `--jobs N` shards the per-board-sample searches across worker threads
//! (default: available parallelism). The checks are deterministic, so the
//! report is identical for every N.
//!
//! `--journal PATH` write-ahead-journals each per-board Vmin/Vcrash
//! search as it completes; `--resume` skips the journaled boards on a
//! rerun. The fits themselves are cheap closed-form checks and always
//! rerun.
//!
//! `--metrics-out PATH` / `--prom-out PATH` export the calibration run's
//! telemetry (check and miss counters, per-board Vmin/Vcrash gauges);
//! `--progress SECS` reports the board searches live on stderr.
//!
//! The full campaign flag set — including `--defense`, `--governor` and
//! `--image-jobs` — parses here for parity with `repro`, but those flags
//! have no effect on this binary: the calibration searches query the
//! timing and power models directly and never execute kernels, so there
//! is nothing for ABFT, the governor or image sharding to act on. Any
//! other argument exits 2 with a usage line before any check runs.

use redvolt_bench::harness::{CampaignOptions, CAMPAIGN_USAGE};
use redvolt_core::executor::run_indexed;
use redvolt_core::journal::{read_journal, JournalEntry, JournalWriter};
use redvolt_core::telemetry::CampaignTelemetry;
use redvolt_fpga::calib;
use redvolt_fpga::power::{LoadProfile, PowerModel};
use redvolt_fpga::timing::TimingModel;
use redvolt_fpga::variation::BoardCorner;
use redvolt_telemetry::{Registry, SpanRing};

fn check(reg: &Registry, name: &str, got: f64, want: f64, tol: f64) -> bool {
    let ok = (got - want).abs() <= tol;
    reg.counter("calibrate_checks_total", &[]).inc();
    if !ok {
        reg.counter("calibrate_checks_missed_total", &[]).inc();
    }
    println!(
        "  [{}] {name}: got {got:.4}, target {want:.4} (tol {tol})",
        if ok { "ok" } else { "MISS" }
    );
    ok
}

/// Journal header meta for the per-board searches: any change to the
/// search grid invalidates old journals.
const JOURNAL_META: &str = "tool=calibrate boards=3 grid=5mv";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Every argument is checked before any work starts.
    let opts = CampaignOptions::from_args(&args, &[])
        .and_then(|(opts, positional)| match positional.first() {
            None => Ok(opts),
            Some(arg) => Err(format!("unexpected argument {arg}")),
        })
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            eprintln!("usage: calibrate {CAMPAIGN_USAGE}");
            std::process::exit(2);
        });
    let jobs = opts.jobs;
    let reg = Registry::new();
    let mut all_ok = true;
    println!("== Leakage temperature coefficient ==");
    // Paper §7.1: power rises 0.46% over 34->52 C at 850 mV. With the
    // fitted leakage share, solve share*(e^{18c}-1) = 0.0046 for c.
    let leak_nom = calib::LEAK_ANCHORS_MV_W.last().unwrap().1;
    let share = leak_nom / calib::P_ONCHIP_NOM_W;
    let c = ((0.0046 / share) + 1.0f64).ln() / 18.0;
    all_ok &= check(
        &reg,
        "LEAK_TEMP_PER_C (analytic)",
        c,
        calib::LEAK_TEMP_PER_C,
        5e-4,
    );
    // Numerically, as a one-dimensional least-squares fit against both
    // temperature anchors (0.46% @850mV, 0.15% @650mV) simultaneously.
    let pm_probe = PowerModel::default();
    let leak650 = pm_probe.leakage_w(650.0, calib::T_REF_C);
    let p650 = pm_probe.vccint_w(650.0, calib::T_REF_C, &LoadProfile::nominal());
    let objective = |cand: f64| {
        let rise = |leak: f64, total: f64| leak / total * ((cand * 18.0f64).exp() - 1.0);
        let e850 = rise(leak_nom, calib::P_ONCHIP_NOM_W) - 0.0046;
        let e650 = rise(leak650, p650) - 0.0015;
        e850 * e850 + e650 * e650
    };
    let c_fit = redvolt_num::fit::golden_section_min(objective, 1e-4, 2e-2, 1e-8);
    all_ok &= check(
        &reg,
        "LEAK_TEMP_PER_C (refit)",
        c_fit,
        calib::LEAK_TEMP_PER_C,
        1e-3,
    );

    println!("== Power scaling anchors (Fig 5 / Table 2) ==");
    let pm = PowerModel::default();
    let t = calib::T_REF_C;
    let nom = pm.vccint_w(850.0, t, &LoadProfile::nominal());
    let vmin = pm.vccint_w(570.0, t, &LoadProfile::nominal());
    let crash = pm.vccint_w(540.0, t, &LoadProfile::nominal());
    all_ok &= check(&reg, "gain at Vmin (paper 2.6x)", nom / vmin, 2.6, 0.05);
    all_ok &= check(&reg, "gain at Vcrash (paper >3x)", nom / crash, 3.6, 0.3);
    let table2 = [
        (565.0, 300.0, 0.94, 0.97),
        (560.0, 250.0, 0.83, 0.84),
        (555.0, 250.0, 0.83, 0.78),
        (550.0, 250.0, 0.83, 0.75),
        (545.0, 250.0, 0.83, 0.74),
        (540.0, 200.0, 0.70, 0.56),
    ];
    for (mv, f, gops, p_norm) in table2 {
        let p = pm.vccint_w(
            mv,
            t,
            &LoadProfile {
                f_mhz: f,
                ops_rate_norm: gops,
                energy_per_op_factor: 1.0,
                critical_path_factor: 1.0,
            },
        ) / vmin;
        all_ok &= check(
            &reg,
            &format!("Table2 power norm @{mv:.0}mV"),
            p,
            p_norm,
            0.06,
        );
    }

    println!("== Fmax surface quantizes to Table 2 ==");
    let tm = TimingModel::default();
    let grid_fmax = |mv: f64| -> f64 {
        let true_fmax = tm.fmax_true_mhz(mv, t);
        if true_fmax >= 333.0 {
            return 333.0;
        }
        (true_fmax / 25.0).floor() * 25.0
    };
    for (mv, want) in [
        (570.0, 333.0),
        (565.0, 300.0),
        (560.0, 250.0),
        (555.0, 250.0),
        (550.0, 250.0),
        (545.0, 250.0),
        (540.0, 200.0),
    ] {
        all_ok &= check(
            &reg,
            &format!("Fmax grid @{mv:.0}mV"),
            grid_fmax(mv),
            want,
            0.0,
        );
    }

    println!("== Process-variation spreads (paper: dVmin 31mV, dVcrash 18mV) ==");
    let vmin_of = |sample: u32| -> f64 {
        let tm = TimingModel::new(BoardCorner::for_sample(sample));
        let mut v = 850.0;
        while tm.slack_deficit(v - 5.0, calib::F_NOM_MHZ, t) == 0.0 {
            v -= 5.0;
        }
        v
    };
    let vcrash_of = |sample: u32| -> f64 {
        let tm = TimingModel::new(BoardCorner::for_sample(sample));
        tm.crash_voltage_mv(
            calib::F_NOM_MHZ,
            t,
            calib::CRASH_SLACK_RATIO,
            480.0,
            850.0,
            5.0,
        )
        .map(|v| v + 5.0)
        .unwrap_or(f64::NAN)
    };
    // Board samples are independent — shard them across workers exactly
    // like campaign cells; the merge below restores sample order whether
    // a value came from the journal or a fresh search.
    let journaled = match &opts.journal {
        Some(path) if opts.resume => match read_journal(path, JOURNAL_META) {
            Ok(entries) => entries,
            Err(e) => {
                eprintln!("error: journal {}: {e}", path.display());
                std::process::exit(2);
            }
        },
        _ => Default::default(),
    };
    let mut writer = opts.journal.as_ref().map(|path| {
        let opened = if opts.resume && path.exists() {
            JournalWriter::append_to(path)
        } else {
            JournalWriter::create(path, JOURNAL_META)
        };
        opened.unwrap_or_else(|e| {
            eprintln!("error: journal {}: {e}", path.display());
            std::process::exit(2);
        })
    });
    let pending: Vec<usize> = (0..3).filter(|i| !journaled.contains_key(i)).collect();
    let progress = opts.progress_reporter(pending.len());
    let fresh: Vec<(usize, f64, f64)> = run_indexed(pending.len(), jobs, |k, _worker| {
        let sample = pending[k];
        let found = (sample, vmin_of(sample as u32), vcrash_of(sample as u32));
        if let Some(p) = &progress {
            p.cell_done(false, 0, 0);
        }
        found
    });
    if let Some(p) = &progress {
        p.finish();
    }
    if let Some(w) = writer.as_mut() {
        for &(sample, vmin, vcrash) in &fresh {
            let entry = JournalEntry {
                index: sample,
                attempts: 1,
                payload: format!("vmin={vmin:?} vcrash={vcrash:?}"),
            };
            if let Err(e) = w.append(&entry) {
                eprintln!("error: journal write: {e}");
                std::process::exit(2);
            }
        }
    }
    let mut vmins = vec![f64::NAN; 3];
    let mut vcrashes = vec![f64::NAN; 3];
    for (&sample, entry) in journaled.iter().filter(|(&sample, _)| sample < 3) {
        for field in entry.payload.split_whitespace() {
            if let Some(v) = field.strip_prefix("vmin=") {
                vmins[sample] = v.parse().unwrap_or(f64::NAN);
            } else if let Some(v) = field.strip_prefix("vcrash=") {
                vcrashes[sample] = v.parse().unwrap_or(f64::NAN);
            }
        }
    }
    if !journaled.is_empty() {
        // stderr, so stdout stays byte-comparable with a straight run.
        eprintln!("# resumed {} journaled board samples", journaled.len());
    }
    for (sample, vmin, vcrash) in fresh {
        vmins[sample] = vmin;
        vcrashes[sample] = vcrash;
    }
    let spread = |v: &[f64]| {
        v.iter().cloned().fold(f64::MIN, f64::max) - v.iter().cloned().fold(f64::MAX, f64::min)
    };
    println!("  Vmin per board:   {vmins:?}");
    println!("  Vcrash per board: {vcrashes:?}");
    all_ok &= check(&reg, "dVmin", spread(&vmins), 31.0, 10.0);
    all_ok &= check(&reg, "dVcrash", spread(&vcrashes), 18.0, 8.0);
    all_ok &= check(
        &reg,
        "mean Vmin",
        vmins.iter().sum::<f64>() / 3.0,
        570.0,
        7.0,
    );

    println!("== Temperature sensitivity of power (Fig 9) ==");
    let rel = |v: f64| {
        let cold = pm.vccint_w(v, 34.0, &LoadProfile::nominal());
        let hot = pm.vccint_w(v, 52.0, &LoadProfile::nominal());
        (hot - cold) / cold
    };
    all_ok &= check(&reg, "rise @850mV (paper 0.46%)", rel(850.0), 0.0046, 0.001);
    all_ok &= check(&reg, "rise @650mV (paper 0.15%)", rel(650.0), 0.0015, 0.001);

    // Per-board search results as gauges, alongside the check counters.
    for sample in 0..3usize {
        let board = sample.to_string();
        reg.gauge("calibrate_vmin_mv", &[("board", &board)])
            .set(vmins[sample]);
        reg.gauge("calibrate_vcrash_mv", &[("board", &board)])
            .set(vcrashes[sample]);
    }
    let telem = CampaignTelemetry {
        registry: reg,
        spans: SpanRing::new(),
    };
    if let Err(e) = opts.export_telemetry(&telem) {
        eprintln!("error: telemetry export: {e}");
        std::process::exit(2);
    }

    if all_ok {
        println!("\nall calibration constants verified against paper anchors");
    } else {
        println!("\nCALIBRATION DRIFT DETECTED — see MISS lines above");
        std::process::exit(1);
    }
}
