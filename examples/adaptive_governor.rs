//! Extension of the paper's §9 future work (ii): a closed-loop voltage
//! governor that discovers and tracks the minimum safe voltage online,
//! using fault-detection counters as feedback — no prior calibration.
//!
//! ```text
//! cargo run --release --example adaptive_governor
//! ```

use redvolt::core::bench_suite::BenchmarkId;
use redvolt::core::experiment::{Accelerator, AcceleratorConfig};
use redvolt::core::governor::run_governor;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut acc = Accelerator::bring_up(&AcceleratorConfig {
        benchmark: BenchmarkId::GoogleNet,
        eval_images: 32,
        repetitions: 1,
        ..AcceleratorConfig::default()
    })?;

    let trace = run_governor(&mut acc, 32, 140)?;

    println!("governor trajectory (every 10th batch):");
    println!(
        "{:>6} {:>9} {:>9} {:>7}",
        "batch", "VCCINT", "power W", "faults"
    );
    for step in trace.steps.iter().step_by(10) {
        println!(
            "{:>6} {:>7.0}mV {:>9.2} {:>7}{}",
            step.batch,
            step.vccint_mv,
            step.power_w,
            step.faults,
            if step.crashed {
                "  [CRASH->power-cycle]"
            } else {
                ""
            }
        );
    }
    let first = trace.steps.first().expect("non-empty trace");
    let last = trace.steps.last().expect("non-empty trace");
    println!(
        "\nsettled at {:.0} mV; power {:.2} W -> {:.2} W ({:.1}x saving), {} crash events",
        trace.settled_mv,
        first.power_w,
        last.power_w,
        first.power_w / last.power_w,
        trace.crash_count()
    );
    Ok(())
}
