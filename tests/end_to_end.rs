//! Cross-crate integration tests: the full stack from PMBus writes down
//! to faulty integer arithmetic, exercised the way the paper's
//! measurement scripts drive the real hardware.
//!
//! Triage verdict on the seed's "failing" tests: none of the failures in
//! this file were wrong tolerances or model bugs. The whole suite failed
//! to BUILD because `Cargo.toml` pulled `rand`/`serde`/`proptest` from a
//! registry that is unreachable in the build environment (no lockfile, no
//! cargo cache). With those dependencies removed or replaced by a
//! vendored path crate (`vendor/proptest`) the build succeeds offline and
//! every assertion below passes deterministically, unchanged.

use redvolt::core::bench_suite::BenchmarkId;
use redvolt::core::experiment::{Accelerator, AcceleratorConfig, MeasureError};
use redvolt::core::guardband::VoltageRegions;
use redvolt::core::sweep::{voltage_sweep, SweepConfig};
use redvolt::fpga::board::Zcu102Board;
use redvolt::fpga::power::LoadProfile;
use redvolt::pmbus::adapter::PmbusAdapter;
use redvolt::pmbus::PmbusError;

fn tiny(benchmark: BenchmarkId) -> AcceleratorConfig {
    AcceleratorConfig::tiny(benchmark)
}

#[test]
fn paper_headline_guardband_elimination() {
    // Headline 1: eliminating the guardband gives ~2.6x GOPs/W for free.
    let mut acc = Accelerator::bring_up(&tiny(BenchmarkId::GoogleNet)).unwrap();
    let nominal = acc.measure(24).unwrap();
    acc.set_vccint_mv(570.0).unwrap();
    let vmin = acc.measure(24).unwrap();
    assert_eq!(vmin.accuracy, nominal.accuracy, "guardband is loss-free");
    assert_eq!(vmin.injected_faults, 0);
    let gain = vmin.gops_per_w / nominal.gops_per_w;
    assert!((2.4..2.8).contains(&gain), "gain = {gain}");
}

#[test]
fn paper_headline_crash_and_recovery() {
    // Below Vcrash the FPGA stops responding; a power cycle recovers it.
    let mut acc = Accelerator::bring_up(&tiny(BenchmarkId::VggNet)).unwrap();
    acc.measure(8).unwrap();
    let r = acc
        .set_vccint_mv(530.0)
        .and_then(|()| acc.measure(8).map(|_| ()));
    assert!(matches!(r, Err(MeasureError::Crashed { .. })));
    acc.power_cycle();
    assert!(acc.measure(8).is_ok());
}

#[test]
fn every_benchmark_survives_a_full_sweep() {
    for benchmark in BenchmarkId::ALL {
        let mut acc = Accelerator::bring_up(&tiny(benchmark)).unwrap();
        let sweep = voltage_sweep(
            &mut acc,
            &SweepConfig {
                start_mv: 850.0,
                stop_mv: 520.0,
                step_mv: 20.0,
                images: 8,
            },
        )
        .unwrap();
        assert!(
            sweep.crashed_at_mv.is_some(),
            "{} should reach Vcrash",
            benchmark.name()
        );
        assert!(sweep.points.len() >= 13, "{}", benchmark.name());
    }
}

#[test]
fn boards_disagree_on_vmin_like_real_silicon() {
    let regions: Vec<f64> = (0..3)
        .map(|board| {
            let mut acc = Accelerator::bring_up(&AcceleratorConfig {
                board_sample: board,
                ..tiny(BenchmarkId::VggNet)
            })
            .unwrap();
            let sweep = voltage_sweep(
                &mut acc,
                &SweepConfig {
                    start_mv: 850.0,
                    stop_mv: 450.0,
                    step_mv: 5.0,
                    images: 8,
                },
            )
            .unwrap();
            VoltageRegions::from_sweep(&sweep, 0.01).unwrap().vmin_mv
        })
        .collect();
    let spread = regions.iter().cloned().fold(f64::MIN, f64::max)
        - regions.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        (15.0..=45.0).contains(&spread),
        "dVmin = {spread} mV across boards {regions:?} (paper: 31 mV)"
    );
}

#[test]
fn pmbus_methodology_is_observable() {
    // The entire control/telemetry flow goes over the bus, like the
    // paper's scripts through the Maxim PMBus adapter.
    let mut acc = Accelerator::bring_up(&tiny(BenchmarkId::VggNet)).unwrap();
    acc.set_vccint_mv(600.0).unwrap();
    acc.measure(8).unwrap();
    let log = acc.bus_log();
    use redvolt::pmbus::command::CommandCode;
    assert!(log
        .iter()
        .any(|t| t.command == CommandCode::VoutCommand && t.address == 0x13));
    assert!(log
        .iter()
        .any(|t| t.command == CommandCode::ReadPout && t.address == 0x13));
    assert!(log.iter().all(|t| t.ok));
}

#[test]
fn raw_board_is_usable_without_the_experiment_layer() {
    // The substrates compose independently of redvolt-core.
    let mut board = Zcu102Board::new(1).with_exact_telemetry();
    board.set_load(LoadProfile::nominal());
    let mut host = PmbusAdapter::new();
    host.set_vout(&mut board, 0x13, 0.62).unwrap();
    let p = host.read_pout(&mut board, 0x13).unwrap();
    assert!(p > 1.0 && p < 12.0, "p = {p}");
    assert!(matches!(
        host.set_vout(&mut board, 0x17, 2.0),
        Err(PmbusError::Rejected { .. })
    ));
}

#[test]
fn fault_injection_is_reproducible_across_full_stack() {
    let run = || {
        let mut acc = Accelerator::bring_up(&tiny(BenchmarkId::ResNet50)).unwrap();
        acc.set_vccint_mv(550.0).unwrap();
        let m = acc.measure(16).unwrap();
        (m.accuracy, m.injected_faults)
    };
    assert_eq!(run(), run());
}

#[test]
fn lower_precision_improves_efficiency_on_both_axes() {
    // Narrower operands draw less switching energy AND move fewer DDR
    // bytes (higher GOPs on the roofline) — Fig. 7b's efficiency spread.
    let mut int8 = Accelerator::bring_up(&tiny(BenchmarkId::VggNet)).unwrap();
    let mut int4 = Accelerator::bring_up(&AcceleratorConfig {
        bits: 4,
        ..tiny(BenchmarkId::VggNet)
    })
    .unwrap();
    let m8 = int8.measure(8).unwrap();
    let m4 = int4.measure(8).unwrap();
    assert!(m4.power_w < m8.power_w);
    assert!(m4.gops >= m8.gops);
    assert!(m4.gops_per_w > m8.gops_per_w);
}
