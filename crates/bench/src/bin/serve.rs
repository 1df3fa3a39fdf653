//! CLI for the deterministic inference-serving subsystem.
//!
//! ```text
//! cargo run --release -p redvolt-bench --bin serve -- \
//!     run --boards 3 --requests 120 --rps 40000 --seed 42 \
//!         --defense correct --router vmin --metrics-out serve.jsonl
//! ```
//!
//! `run` executes one serving scenario and prints the deterministic
//! plain-text report to stdout (the golden tests and the CI smoke job
//! diff this byte-for-byte). `--metrics-out` / `--prom-out` /
//! `--trace-out` / `--flight-recorder` additionally write the JSONL,
//! Prometheus, Chrome trace-event and flight-recorder exports, which
//! share the same determinism contract: virtual-time timestamps only,
//! byte identical across reruns and `--image-jobs` values.
//! `--obs-addr HOST:PORT` then serves the final snapshot over HTTP
//! (`/metrics` byte-identical to `--prom-out`, plus `/healthz` and
//! `/trace`) until `--obs-max-requests` connections have been answered.

use redvolt_nn::abft::DefenseMode;
use redvolt_nn::models::ModelKind;
use redvolt_serve::obs::{ObsServer, ObsSnapshot};
use redvolt_serve::report::ServeReport;
use redvolt_serve::router::RouterPolicy;
use redvolt_serve::sim::{self, ServeConfig};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run_cmd(&args[1..]),
        _ => {
            eprintln!("usage: serve run [flags]");
            eprintln!("  run    one serving scenario; report to stdout");
            std::process::exit(2);
        }
    }
}

fn expect_value(it: &mut std::iter::Peekable<std::slice::Iter<String>>, flag: &str) -> String {
    it.next().cloned().unwrap_or_else(|| {
        eprintln!("error: {flag} wants a value");
        std::process::exit(2);
    })
}

fn parse_num<T: std::str::FromStr>(v: &str, flag: &str) -> T {
    v.parse().unwrap_or_else(|_| {
        eprintln!("error: {flag} wants a number, got {v}");
        std::process::exit(2);
    })
}

fn parse_model(v: &str) -> ModelKind {
    match v.to_ascii_lowercase().as_str() {
        "vgg" | "vggnet" => ModelKind::VggNet,
        "googlenet" => ModelKind::GoogleNet,
        "alexnet" => ModelKind::AlexNet,
        "resnet50" => ModelKind::ResNet50,
        "inception" => ModelKind::Inception,
        _ => {
            eprintln!("error: unknown model {v} (vggnet|googlenet|alexnet|resnet50|inception)");
            std::process::exit(2);
        }
    }
}

#[allow(clippy::too_many_lines)]
fn run_cmd(args: &[String]) {
    let mut cfg = ServeConfig::smoke();
    let mut metrics_out: Option<String> = None;
    let mut prom_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut flight_out: Option<String> = None;
    let mut obs_addr: Option<String> = None;
    let mut obs_max_requests: Option<u64> = None;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--boards" => cfg.boards = parse_num(&expect_value(&mut it, a), a),
            "--requests" => cfg.requests = parse_num(&expect_value(&mut it, a), a),
            "--rps" => cfg.rps = parse_num(&expect_value(&mut it, a), a),
            "--seed" => cfg.seed = parse_num(&expect_value(&mut it, a), a),
            "--model" => cfg.benchmark = parse_model(&expect_value(&mut it, a)),
            "--max-batch" => cfg.max_batch = parse_num(&expect_value(&mut it, a), a),
            "--batch-timeout" => {
                cfg.batch_timeout_cycles = parse_num(&expect_value(&mut it, a), a);
            }
            "--queue-depth" => cfg.queue_depth = parse_num(&expect_value(&mut it, a), a),
            "--margin-mv" => cfg.calib.margin_mv = parse_num(&expect_value(&mut it, a), a),
            "--retry-limit" => cfg.retry_limit = parse_num(&expect_value(&mut it, a), a),
            "--slo-p99" => cfg.slo_p99_cycles = parse_num(&expect_value(&mut it, a), a),
            "--burst-every" => cfg.burst_every = parse_num(&expect_value(&mut it, a), a),
            "--burst-len" => cfg.burst_len = parse_num(&expect_value(&mut it, a), a),
            "--image-jobs" => cfg.image_jobs = parse_num(&expect_value(&mut it, a), a),
            "--defense" => {
                let v = expect_value(&mut it, a);
                cfg.defense = DefenseMode::parse(&v).unwrap_or_else(|| {
                    eprintln!("error: --defense wants off|detect|correct, got {v}");
                    std::process::exit(2);
                });
            }
            "--router" => {
                let v = expect_value(&mut it, a);
                cfg.router = RouterPolicy::parse(&v).unwrap_or_else(|| {
                    eprintln!("error: --router wants vmin|rr, got {v}");
                    std::process::exit(2);
                });
            }
            "--no-governor" => cfg.governor = false,
            "--trace-capacity" => cfg.trace_capacity = parse_num(&expect_value(&mut it, a), a),
            "--metrics-out" => metrics_out = Some(expect_value(&mut it, a)),
            "--prom-out" => prom_out = Some(expect_value(&mut it, a)),
            "--trace-out" => trace_out = Some(expect_value(&mut it, a)),
            "--flight-recorder" => flight_out = Some(expect_value(&mut it, a)),
            "--obs-addr" => obs_addr = Some(expect_value(&mut it, a)),
            "--obs-max-requests" => {
                obs_max_requests = Some(parse_num(&expect_value(&mut it, a), a));
            }
            other => {
                eprintln!("error: unknown flag {other}");
                eprintln!(
                    "usage: serve run [--boards N] [--requests N] [--rps R] [--seed S] \
                     [--model NAME] [--max-batch N] [--batch-timeout CYCLES] \
                     [--queue-depth N] [--margin-mv X] [--retry-limit N] \
                     [--slo-p99 CYCLES] [--burst-every N] [--burst-len N] \
                     [--image-jobs N] [--defense off|detect|correct] [--router vmin|rr] \
                     [--no-governor] [--trace-capacity N] [--metrics-out PATH] \
                     [--prom-out PATH] [--trace-out PATH] [--flight-recorder PATH] \
                     [--obs-addr HOST:PORT] [--obs-max-requests N]"
                );
                std::process::exit(2);
            }
        }
    }

    let wall = Instant::now();
    let outcome = sim::run(&cfg).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let report = ServeReport::build(&cfg, outcome);
    // Wall clock goes to stderr only; stdout stays deterministic.
    eprintln!("# served in {:.2}s wall", wall.elapsed().as_secs_f64());
    print!("{}", report.to_text());
    if let Some(path) = metrics_out {
        write_or_die(&path, &report.to_jsonl());
        eprintln!("wrote {path}");
    }
    if let Some(path) = prom_out {
        write_or_die(&path, &report.to_prometheus());
        eprintln!("wrote {path}");
    }
    if let Some(path) = trace_out {
        write_or_die(&path, &report.to_chrome_trace());
        eprintln!("wrote {path}");
    }
    if let Some(path) = flight_out {
        write_or_die(&path, &report.to_flight_jsonl());
        eprintln!("wrote {path}");
    }
    // Serve the observability snapshot *before* the SLO gate decides the
    // exit code, so a violated run can still be inspected over HTTP.
    if let Some(addr) = obs_addr {
        let server = ObsServer::bind(&addr, ObsSnapshot::of(&report)).unwrap_or_else(|e| {
            eprintln!("error: binding {addr}: {e}");
            std::process::exit(1);
        });
        let bound = server.local_addr().expect("bound socket has an address");
        eprintln!("obs: listening on http://{bound} (/metrics /healthz /trace)");
        let handled = server.serve(obs_max_requests).unwrap_or_else(|e| {
            eprintln!("error: obs server: {e}");
            std::process::exit(1);
        });
        eprintln!("obs: served {handled} requests");
    }
    if !report.slo_ok {
        eprintln!("FAIL: SLO violated (p99 or silent corruption)");
        std::process::exit(1);
    }
}

fn write_or_die(path: &str, content: &str) {
    std::fs::write(path, content).unwrap_or_else(|e| {
        eprintln!("error: writing {path}: {e}");
        std::process::exit(1);
    });
}
