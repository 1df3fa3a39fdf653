//! Reproduces the paper's Fig. 3 flow: find the voltage guardband,
//! critical region and crash point of every benchmark on all three board
//! samples.
//!
//! ```text
//! cargo run --release --example guardband_scan
//! ```

use redvolt::core::bench_suite::BenchmarkId;
use redvolt::core::experiment::{Accelerator, AcceleratorConfig};
use redvolt::core::guardband::VoltageRegions;
use redvolt::core::sweep::{voltage_sweep, SweepConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:<10} {:>5} {:>8} {:>9} {:>11} {:>10}",
        "model", "board", "Vmin mV", "Vcrash mV", "guardband", "critical"
    );
    let mut vmins = Vec::new();
    for benchmark in BenchmarkId::ALL {
        for board in 0..3u32 {
            let mut acc = Accelerator::bring_up(&AcceleratorConfig {
                board_sample: board,
                benchmark,
                eval_images: 50,
                repetitions: 3,
                ..AcceleratorConfig::default()
            })?;
            let sweep = voltage_sweep(
                &mut acc,
                &SweepConfig {
                    images: 50,
                    ..SweepConfig::full()
                },
            )?;
            let r = VoltageRegions::from_sweep(&sweep, 0.01).ok_or("empty sweep")?;
            println!(
                "{:<10} {:>5} {:>8.0} {:>9.0} {:>10.1}% {:>8.0}mV",
                benchmark.name(),
                board,
                r.vmin_mv,
                r.vcrash_mv,
                r.guardband_fraction() * 100.0,
                r.critical_mv()
            );
            vmins.push(r.vmin_mv);
        }
    }
    let mean = vmins.iter().sum::<f64>() / vmins.len() as f64;
    let spread = vmins.iter().cloned().fold(f64::MIN, f64::max)
        - vmins.iter().cloned().fold(f64::MAX, f64::min);
    println!("\nmean Vmin {mean:.0} mV (paper: 570), spread {spread:.0} mV (paper dVmin: 31)");
    Ok(())
}
