//! Criterion micro-benches of the simulation substrates.

use criterion::{criterion_group, criterion_main, Criterion};
use redvolt_dpu::runtime::{DpuRuntime, DpuTask};
use redvolt_faults::board_injector;
use redvolt_fpga::board::Zcu102Board;
use redvolt_fpga::power::{LoadProfile, PowerModel};
use redvolt_fpga::thermal::ThermalModel;
use redvolt_nn::dataset::SyntheticDataset;
use redvolt_nn::models::{ModelKind, ModelScale};
use redvolt_nn::quant::QuantizedGraph;
use redvolt_pmbus::adapter::PmbusAdapter;
use std::hint::black_box;
use std::time::Duration;

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(5))
        .warm_up_time(Duration::from_secs(1));

    // Quantized inference at paper scale (the inner loop of every figure).
    let graph = ModelKind::VggNet
        .build(ModelScale::Paper)
        .fold_batch_norms();
    let ds = SyntheticDataset::new(32, 32, 3, 10, 42);
    let mut q = QuantizedGraph::quantize(&graph, 8, &ds.images(4)).unwrap();
    let img = ds.image(0).0;
    group.bench_function("int8_inference_vggnet", |b| {
        b.iter(|| q.predict(black_box(&img)).unwrap())
    });

    // Faulty inference at 545 mV (burst injection overhead).
    let mut board = Zcu102Board::new(0).with_exact_telemetry();
    board.set_load(LoadProfile::nominal());
    let mut host = PmbusAdapter::new();
    host.set_vout(&mut board, 0x13, 0.545).unwrap();
    group.bench_function("faulty_inference_545mv", |b| {
        b.iter(|| {
            let mut inj = board_injector(&board, 7);
            q.predict_with(black_box(&img), &mut inj).unwrap()
        })
    });

    // Full DPU batch run.
    let mut task = DpuTask::create("vgg", &graph, 8, &ds.images(4)).unwrap();
    let mut rt = DpuRuntime::open(Zcu102Board::new(0));
    let batch = ds.images(8);
    group.bench_function("dpu_run_batch_8", |b| {
        b.iter(|| rt.run_batch(&mut task, black_box(&batch), 1, 0).unwrap())
    });

    // Board physics: power evaluation and thermal fixed point.
    let pm = PowerModel::default();
    group.bench_function("power_model_eval", |b| {
        b.iter(|| pm.vccint_w(black_box(570.0), 34.0, &LoadProfile::nominal()))
    });
    let thermal = ThermalModel::new();
    group.bench_function("thermal_fixed_point", |b| {
        b.iter(|| thermal.junction_c(&pm, black_box(850.0), 850.0, &LoadProfile::nominal()))
    });

    // PMBus transaction round trip.
    let mut board2 = Zcu102Board::new(0);
    let mut host2 = PmbusAdapter::new();
    group.bench_function("pmbus_read_pout", |b| {
        b.iter(|| host2.read_pout(&mut board2, black_box(0x13)).unwrap())
    });

    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
