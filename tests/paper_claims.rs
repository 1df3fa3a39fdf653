//! Integration tests pinning the paper's seven headline claims (see
//! DESIGN.md) at reduced scale. The full-scale numbers are produced by
//! `cargo run --release -p redvolt-bench --bin repro` and recorded in
//! EXPERIMENTS.md.
//!
//! Triage verdict on the seed's "failing" tests: every failure here was an
//! environment problem, not a wrong tolerance and not a model bug — the
//! workspace depended on registry crates (`rand`, `serde`, `proptest`)
//! that cannot be fetched in the offline build environment, so no test in
//! this file ever compiled. After vendoring dependency-free substitutes
//! under `vendor/`, all claims below pass with their original tolerances;
//! none needed loosening.

use redvolt::core::bench_suite::BenchmarkId;
use redvolt::core::experiment::{Accelerator, AcceleratorConfig};
use redvolt::core::freqscale::{frequency_underscaling, FreqScaleConfig};
use redvolt::core::pruneexp::pruning_study;
use redvolt::core::sweep::{voltage_sweep, SweepConfig};
use redvolt::core::tempexp::temperature_study;
use redvolt::fpga::calib::F_NOM_MHZ;

fn tiny(benchmark: BenchmarkId) -> AcceleratorConfig {
    AcceleratorConfig::tiny(benchmark)
}

#[test]
fn claim_guardband_is_about_a_third_of_vnom() {
    use redvolt::core::guardband::VoltageRegions;
    let mut acc = Accelerator::bring_up(&tiny(BenchmarkId::GoogleNet)).unwrap();
    let sweep = voltage_sweep(
        &mut acc,
        &SweepConfig {
            start_mv: 850.0,
            stop_mv: 450.0,
            step_mv: 5.0,
            images: 12,
        },
    )
    .unwrap();
    let r = VoltageRegions::from_sweep(&sweep, 0.01).unwrap();
    assert!((0.30..0.36).contains(&r.guardband_fraction()), "{r:?}");
    assert!((20.0..40.0).contains(&r.critical_mv()), "{r:?}");
}

#[test]
fn claim_efficiency_gain_exceeds_3x_at_vcrash() {
    let mut acc = Accelerator::bring_up(&tiny(BenchmarkId::VggNet)).unwrap();
    let sweep = voltage_sweep(
        &mut acc,
        &SweepConfig {
            start_mv: 850.0,
            stop_mv: 530.0,
            step_mv: 10.0,
            images: 12,
        },
    )
    .unwrap();
    let nominal = sweep.nominal().gops_per_w;
    let last = sweep.points.last().unwrap();
    assert!(last.gops_per_w / nominal > 3.0);
}

#[test]
fn claim_accuracy_decays_toward_random_below_vmin() {
    // Paper-scale model: the accuracy trajectory is the emergent result
    // of burst fault injection into real integer arithmetic.
    let mut acc = Accelerator::bring_up(&AcceleratorConfig {
        eval_images: 50,
        repetitions: 3,
        ..AcceleratorConfig::default() // Paper scale, VGGNet
    })
    .unwrap();
    let nominal = acc.measure(50).unwrap().accuracy;
    acc.set_vccint_mv(560.0).unwrap();
    let mid = acc.measure(50).unwrap().accuracy;
    acc.power_cycle();
    acc.set_vccint_mv(540.0).unwrap();
    let deep = acc.measure(50).unwrap().accuracy;
    assert!(mid < nominal - 0.05, "mid = {mid} vs nominal {nominal}");
    assert!(deep < 0.35, "deep = {deep} should be near-random");
}

#[test]
fn claim_parameter_heavy_models_are_more_vulnerable() {
    // ResNet50 vs GoogleNet at a fixed critical-region voltage
    // (paper §4.4): the deeper, parameter-heavier model loses more.
    let relative_drop = |benchmark: BenchmarkId| {
        let mut acc = Accelerator::bring_up(&AcceleratorConfig {
            benchmark,
            eval_images: 60,
            repetitions: 5,
            ..AcceleratorConfig::default()
        })
        .unwrap();
        let nominal = acc.measure(60).unwrap().accuracy;
        // Deep in the critical region, where the separation is widest.
        acc.set_vccint_mv(550.0).unwrap();
        let degraded = acc.measure(60).unwrap().accuracy;
        (nominal - degraded) / nominal
    };
    let resnet = relative_drop(BenchmarkId::ResNet50);
    let googlenet = relative_drop(BenchmarkId::GoogleNet);
    assert!(
        resnet > googlenet,
        "relative drop: ResNet {resnet:.3} vs GoogleNet {googlenet:.3}"
    );
}

#[test]
fn claim_frequency_underscaling_rescues_accuracy() {
    let mut acc = Accelerator::bring_up(&tiny(BenchmarkId::VggNet)).unwrap();
    let rows = frequency_underscaling(
        &mut acc,
        &FreqScaleConfig {
            images: 12,
            ..FreqScaleConfig::default()
        },
    )
    .unwrap();
    assert_eq!(rows.first().unwrap().fmax_mhz, F_NOM_MHZ);
    let last = rows.last().unwrap();
    assert!(last.fmax_mhz < F_NOM_MHZ);
    assert!(last.gops_per_w_norm > 1.1, "{last:?}");
    assert!(last.gops_per_j_norm < 1.0, "{last:?}");
}

#[test]
fn claim_throughput_scales_sublinearly_with_frequency() {
    // Table 2 (§5): the DPU is partly memory-bound, so underclocking from
    // Fnom costs less throughput than the frequency ratio — every row's
    // normalized GOPs stays above fmax/Fnom. (At exactly linear scaling
    // gops_norm == freq_ratio; the margin below guards the inequality
    // from being satisfied by float noise.)
    let mut acc = Accelerator::bring_up(&tiny(BenchmarkId::VggNet)).unwrap();
    let rows = frequency_underscaling(
        &mut acc,
        &FreqScaleConfig {
            images: 12,
            ..FreqScaleConfig::default()
        },
    )
    .unwrap();
    let mut saw_underclocked_row = false;
    for row in &rows {
        let freq_ratio = row.fmax_mhz / F_NOM_MHZ;
        if row.fmax_mhz < F_NOM_MHZ {
            saw_underclocked_row = true;
            assert!(
                row.gops_norm > freq_ratio + 0.01,
                "at {} mV: gops_norm {:.3} <= freq ratio {:.3} (linear or worse)",
                row.vccint_mv,
                row.gops_norm,
                freq_ratio
            );
        }
    }
    assert!(
        saw_underclocked_row,
        "scan never left Fnom — test is vacuous"
    );
}

#[test]
fn claim_vulnerability_ordering_spares_the_shallow_model() {
    // §4.4: deep parameter-heavy models (ResNet50, Inception) lose more
    // accuracy in the critical region than shallow AlexNet, which has
    // far fewer fault-site-exposed MACs per prediction.
    let relative_drop = |benchmark: BenchmarkId| {
        let mut acc = Accelerator::bring_up(&AcceleratorConfig {
            benchmark,
            eval_images: 60,
            repetitions: 5,
            ..AcceleratorConfig::default()
        })
        .unwrap();
        let nominal = acc.measure(60).unwrap().accuracy;
        acc.set_vccint_mv(550.0).unwrap();
        let degraded = acc.measure(60).unwrap().accuracy;
        (nominal - degraded) / nominal
    };
    let alexnet = relative_drop(BenchmarkId::AlexNet);
    let resnet = relative_drop(BenchmarkId::ResNet50);
    let inception = relative_drop(BenchmarkId::Inception);
    assert!(
        resnet > alexnet,
        "relative drop: ResNet {resnet:.3} <= AlexNet {alexnet:.3}"
    );
    assert!(
        inception > alexnet,
        "relative drop: Inception {inception:.3} <= AlexNet {alexnet:.3}"
    );
}

#[test]
fn claim_pruned_models_trade_fragility_for_efficiency() {
    let study = pruning_study(
        &tiny(BenchmarkId::VggNet),
        0.5,
        &SweepConfig {
            start_mv: 850.0,
            stop_mv: 530.0,
            step_mv: 10.0,
            images: 12,
        },
    )
    .unwrap();
    assert!(
        study.pruned.sweep.last_alive_mv().unwrap() > study.dense.sweep.last_alive_mv().unwrap()
    );
    assert!(study.pruned.work_equivalence > 1.5);
}

#[test]
fn claim_temperature_raises_power_and_heals_faults() {
    let study = temperature_study(
        &AcceleratorConfig {
            benchmark: BenchmarkId::GoogleNet,
            eval_images: 50,
            repetitions: 4,
            ..AcceleratorConfig::default()
        },
        &[34.0, 52.0],
        &SweepConfig {
            start_mv: 850.0,
            stop_mv: 545.0,
            step_mv: 5.0,
            images: 50,
        },
    )
    .unwrap();
    let cold = study.at_temp(34.0).unwrap();
    let hot = study.at_temp(52.0).unwrap();
    // Fig 9: hotter boards draw more power at nominal voltage.
    assert!(hot.sweep.nominal().power_w > cold.sweep.nominal().power_w);
    // Fig 10: at a fixed critical voltage, heat improves accuracy (ITD).
    let acc_at = |c: &redvolt::core::tempexp::TempCurve, mv: f64| {
        c.sweep.at_mv(mv).map(|m| m.accuracy).unwrap_or(0.0)
    };
    let mv = 555.0;
    assert!(
        acc_at(hot, mv) >= acc_at(cold, mv),
        "ITD: hot {} vs cold {} at {mv} mV",
        acc_at(hot, mv),
        acc_at(cold, mv)
    );
}
