//! Re-derives the fitted calibration constants from the paper's anchors
//! and checks them against `redvolt_fpga::calib`.
//!
//! The board model's free parameters were fitted once against the numbers
//! printed in the paper; this tool repeats the fit so the provenance of
//! every hard-coded constant can be audited:
//!
//! ```text
//! cargo run --release -p redvolt-bench --bin calibrate -- --prom-out calib.prom
//! ```
//!
//! `--metrics-out PATH` / `--prom-out PATH` (or `--metrics-out=PATH`)
//! export the run's telemetry: check and miss counters and per-board
//! Vmin/Vcrash gauges. Any other argument exits 2 with a usage line
//! before any check runs. The whole audit is a few closed-form searches
//! and fits that finish in milliseconds, so nothing here is sharded,
//! journaled or reported live.

use redvolt_core::telemetry::CampaignTelemetry;
use redvolt_fpga::calib;
use redvolt_fpga::power::{LoadProfile, PowerModel};
use redvolt_fpga::timing::TimingModel;
use redvolt_fpga::variation::BoardCorner;
use redvolt_telemetry::{Registry, SpanRing};
use std::path::PathBuf;

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

/// Where to write the telemetry exports: `(--metrics-out, --prom-out)`.
type Exports = (Option<PathBuf>, Option<PathBuf>);

/// Parses the two export flags, each as `--flag PATH` or `--flag=PATH`.
fn parse_args(args: &[String]) -> Result<Exports, String> {
    let mut exports: Exports = (None, None);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, path)) => (flag, Some(path)),
            None => (arg.as_str(), None),
        };
        let slot = match flag {
            "--metrics-out" => &mut exports.0,
            "--prom-out" => &mut exports.1,
            _ => return Err(format!("unexpected argument {arg}")),
        };
        let path = inline.or_else(|| it.next().map(String::as_str));
        *slot = Some(PathBuf::from(
            path.ok_or(format!("{flag} needs a file path"))?,
        ));
    }
    Ok(exports)
}

/// Writes the exports the command line asked for.
fn export(telem: &CampaignTelemetry, (metrics_out, prom_out): &Exports) -> std::io::Result<()> {
    if let Some(path) = metrics_out {
        std::fs::write(path, telem.to_jsonl_with_cache_stats())?;
    }
    if let Some(path) = prom_out {
        telem.write_prometheus(path)?;
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Every argument is checked before any work starts.
    let exports = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("usage: calibrate [--metrics-out PATH] [--prom-out PATH]");
        std::process::exit(2);
    });
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
    let vmins: Vec<f64> = (0..3).map(vmin_of).collect();
    let vcrashes: Vec<f64> = (0..3).map(vcrash_of).collect();
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
    if let Err(e) = export(&telem, &exports) {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<Exports, String> {
        parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn only_the_two_export_flags_parse() {
        assert_eq!(parse(&[]), Ok((None, None)));
        assert_eq!(
            parse(&["--metrics-out", "m.jsonl", "--prom-out=c.prom"]),
            Ok((Some("m.jsonl".into()), Some("c.prom".into())))
        );
        for retired in [
            "--jobs",
            "--journal",
            "--resume",
            "--progress",
            "--defense",
            "--governor",
            "--image-jobs",
            "--max-attempts",
            "--fault-profile",
            "--halt-after-cells",
        ] {
            assert!(parse(&[retired, "1"]).is_err(), "{retired}");
            assert!(parse(&[&format!("{retired}=1")]).is_err(), "{retired}=1");
        }
        assert!(parse(&["fig3"]).is_err());
        assert!(parse(&["--metrics-out"]).is_err());
        assert!(parse(&["--prom-out=c.prom", "--metrics-out"]).is_err());
    }
}
