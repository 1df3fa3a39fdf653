//! Host-time benchmark of the redvolt campaign and serving stack.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep --seed 1 --seconds 50 --trace 0
//! ```
//!
//! Every workload derives its inputs from `--seed` (the same seed gives
//! the same inputs) and repeats one user-facing operation for `--seconds`
//! seconds of host wall-clock time:
//!
//! * `sweep` — the cells of the campaign `repro` runs for the paper's
//!   undervolting figures: each of the five paper-scale CNNs on each of
//!   the three board samples, swept from Vnom down past Vcrash through
//!   the campaign executor, plus the CSV, JSONL and Prometheus exports.
//!   One operation is one cell. The SDC defense is off, so the ECC and
//!   ABFT layers and the governor are bypassed.
//! * `serve` — the virtual-time serving fleet: three boards served 10 mV
//!   below their calibrated Vmin, 400 requests, with `--defense correct`
//!   (ECC, ABFT re-execution) and the governor on, plus the report,
//!   JSONL, Prometheus and Chrome-trace exports.
//!
//! Correctness: every run is checked against the paper's invariants (a
//! clean guardband, faults below Vmin and a hang before the floor, no
//! silently corrupt responses, every request answered or shed), and
//! every run of an input must reproduce the exported bytes of its first
//! run — the determinism contract of the stack.
//!
//! The operations cycle through the workload's inputs; a pass is one
//! operation on every input, timed at the 10th percentile of each
//! input's operation times. With `--trace 0` the last stdout line
//! reports the end-to-end metrics: the items of a pass (simulated
//! images, or served requests) per host second of a pass, and the median
//! of the cold set-ups spread over the run (workload cache emptied, then
//! every input brought up, or for serving the first response). With
//! `--trace 1` a separate traced run drives each operation through the
//! crates' public calls with a span around every call into a crate,
//! reports each crate's self time per pass, counts from the simulated
//! channel per pass and the clean inference speed of the models, and
//! writes the spans as a Chrome trace to
//! `perfbench/out/<workload>.trace.json`.

mod trace;
mod workloads;

use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Bench, Counts, Done};

/// Operations attempted even when they take longer than `--seconds`.
const MIN_OPS: usize = 5;

const USAGE: &str =
    "usage: redvolt-perfbench --workload sweep|serve --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} wants a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} wants a whole number, got {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let mut bench = workloads::build(&args.workload, args.seed).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let result = run(bench.as_mut(), &args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    println!("{result}");
}

/// One measured operation that ran to completion.
struct Sample {
    input: usize,
    elapsed: Duration,
    items: u64,
    counts: Counts,
}

fn timed_setup(bench: &mut dyn Bench, setups: &mut Vec<f64>) -> Result<(), String> {
    let t = Instant::now();
    bench.setup()?;
    setups.push(t.elapsed().as_secs_f64());
    Ok(())
}

fn run(bench: &mut dyn Bench, args: &Args) -> Result<String, String> {
    let setup_count = bench.setups();
    let mut setups = Vec::with_capacity(setup_count);
    timed_setup(bench, &mut setups)?;

    // One untimed operation lets lazy state settle before timing. The
    // first run of every input records the bytes its later runs must
    // repeat; in a traced run it is untraced, so the traced call sequence
    // is checked against the public entry point.
    let mut reference: Vec<Option<String>> = vec![None; bench.inputs()];
    let warm = bench.run(0, None)?;
    warm.verdict
        .map_err(|e| format!("input 0 of {}: {e}", args.workload))?;
    reference[0] = Some(warm.output);

    let mut tracer = args.trace.then(Tracer::new);
    let mut samples = Vec::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    while started.elapsed() < budget || (attempted as usize) < MIN_OPS.max(bench.inputs()) {
        // The remaining set-ups are spread evenly over the run, so host
        // contention that comes and goes reaches them as it reaches the
        // operations. Each leaves the stack ready for the next operation.
        if !args.trace
            && setups.len() < setup_count
            && started.elapsed() >= budget * setups.len() as u32 / setup_count as u32
        {
            timed_setup(bench, &mut setups)?;
        }
        let input = attempted as usize % reference.len();
        if args.trace && reference[input].is_none() {
            reference[input] = Some(bench.run(input, None)?.output);
        }
        if let Some(t) = tracer.as_mut() {
            t.set_op(attempted as usize);
        }
        attempted += 1;
        let problem = match bench.run(input, tracer.as_mut()) {
            Err(e)
            | Ok(Done {
                verdict: Err(e), ..
            }) => Some(e),
            Ok(done) if reference[input].as_ref().is_some_and(|r| *r != done.output) => Some(
                format!("exports differ from the first run of input {input}"),
            ),
            Ok(done) => {
                reference[input].get_or_insert(done.output);
                samples.push(Sample {
                    input,
                    elapsed: done.elapsed,
                    items: done.items,
                    counts: done.counts,
                });
                None
            }
        };
        if let Some(e) = problem {
            failed += 1;
            eprintln!("op {attempted}: {e}");
        }
    }
    if samples.is_empty() {
        return Err(format!("no operation of {} succeeded", args.workload));
    }

    // Contention from other tenants of a shared host only ever adds time,
    // and it comes in phases of seconds that slow every operation by up
    // to 1.8x; how much of a run they cover decides where a median lands.
    // The fast end of each input's operation times tracks the program's
    // own cost.
    let inputs = bench.inputs();
    let pass_ms = per_pass(&samples, inputs, |s| s.elapsed.as_secs_f64() * 1e3, p10);
    let pass_items = per_pass(&samples, inputs, |s| s.items as f64, median);
    eprintln!(
        "# {}: {} ops in {:.1}s; a pass: {pass_items} {} in {pass_ms:.1} ms",
        args.workload,
        samples.len(),
        started.elapsed().as_secs_f64(),
        bench.item_name(),
    );
    let times = by_input(&samples, inputs, |s| s.elapsed.as_secs_f64() * 1e3);
    for (input, ms) in times.into_iter().enumerate() {
        if !ms.is_empty() {
            let (ops, fast) = (ms.len(), p10(ms));
            eprintln!("#   {}: {ops} ops, p10 {fast:.1} ms", bench.label(input));
        }
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    match tracer {
        None => {
            eprintln!("# set-ups (s): {setups:.3?}");
            metrics.push(("items_per_s", pass_items / pass_ms * 1e3, "1/s"));
            metrics.push(("setup_s", median(setups), "s"));
        }
        Some(mut tracer) => {
            metrics.push(("pass_ms_traced", pass_ms, "ms"));
            for (layer, name) in trace::LAYERS {
                metrics.push((name, tracer.pass_self_ms(layer, inputs), "ms"));
            }
            let count =
                |f: fn(&Counts) -> u64| per_pass(&samples, inputs, |s| f(&s.counts) as f64, median);
            metrics.push(("sim_images", count(|c| c.images), "count"));
            metrics.push(("sdc_events", count(|c| c.sdc_events), "count"));
            metrics.push(("escalations", count(|c| c.escalations), "count"));
            tracer.set_op(usize::MAX);
            let probe = bench.probe_kernels(&mut tracer)?;
            metrics.push(("nn_ns_per_image", probe.ns_per_image, "ns"));
            metrics.push(("nn_gmac_per_s", probe.gmac_per_s, "GMAC/s"));
            let path = format!("perfbench/out/{}.trace.json", args.workload);
            match tracer.write_chrome_trace(&path) {
                Ok(()) => eprintln!("# wrote {path}"),
                Err(e) => eprintln!("# could not write {path}: {e}"),
            }
        }
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    ))
}

/// `value` of each sample, grouped by input.
fn by_input(samples: &[Sample], inputs: usize, value: impl Fn(&Sample) -> f64) -> Vec<Vec<f64>> {
    let mut groups = vec![Vec::new(); inputs];
    for s in samples {
        groups[s.input].push(value(s));
    }
    groups
}

/// Sum over inputs of `stat` of their samples' `value`: a figure for one
/// pass. Inputs without a sample add nothing.
fn per_pass(
    samples: &[Sample],
    inputs: usize,
    value: impl Fn(&Sample) -> f64,
    stat: impl Fn(Vec<f64>) -> f64,
) -> f64 {
    by_input(samples, inputs, value)
        .into_iter()
        .filter(|v| !v.is_empty())
        .map(stat)
        .sum()
}

/// 10th percentile of a non-empty sample, rank rounded down: with fewer
/// than 11 samples it is the minimum, which a sweep cell seen only a few
/// times a run needs to stay clear of contention.
fn p10(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[(values.len() - 1) / 10]
}

/// Median of a non-empty sample (mean of the middle pair when even).
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}
