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
//! Every flag takes its value as `--flag VALUE` or `--flag=VALUE`; any
//! other subcommand, an unknown flag or a malformed value exits 2 with a
//! usage line before anything runs.

use redvolt_bench::cli::CommandLine;
use redvolt_nn::abft::DefenseMode;
use redvolt_nn::models::ModelKind;
use redvolt_serve::fleet::CalibConfig;
use redvolt_serve::obs::{ObsServer, ObsSnapshot};
use redvolt_serve::report::ServeReport;
use redvolt_serve::router::RouterPolicy;
use redvolt_serve::sim::{self, ServeConfig};
use std::time::Instant;

const USAGE: &str = "usage: serve run [--boards N] [--requests N] [--rps R] [--seed S] \
     [--model NAME] [--max-batch N] [--batch-timeout CYCLES] \
     [--queue-depth N] [--margin-mv X] [--retry-limit N] \
     [--slo-p99 CYCLES] [--burst-every N] [--burst-len N] \
     [--image-jobs N] [--defense off|detect|correct] [--router vmin|rr] \
     [--no-governor] [--trace-capacity N] [--metrics-out PATH] \
     [--prom-out PATH] [--trace-out PATH] [--flight-recorder PATH] \
     [--obs-addr HOST:PORT] [--obs-max-requests N]
  run    one serving scenario; report to stdout";

/// The flags of `serve run` that take a value; `--no-governor` is its one
/// switch.
const VALUE_FLAGS: [&str; 23] = [
    "--boards",
    "--requests",
    "--rps",
    "--seed",
    "--model",
    "--max-batch",
    "--batch-timeout",
    "--queue-depth",
    "--margin-mv",
    "--retry-limit",
    "--slo-p99",
    "--burst-every",
    "--burst-len",
    "--image-jobs",
    "--defense",
    "--router",
    "--trace-capacity",
    "--metrics-out",
    "--prom-out",
    "--trace-out",
    "--flight-recorder",
    "--obs-addr",
    "--obs-max-requests",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Every argument is checked before any work starts.
    let run = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    });
    if let Err(e) = serve(&run) {
        eprintln!("{e}");
        std::process::exit(1);
    }
}

/// What `serve run` was asked to do: the scenario, where its exports go
/// and whether to serve them over HTTP.
#[derive(Debug, PartialEq)]
struct Run {
    cfg: ServeConfig,
    metrics_out: Option<String>,
    prom_out: Option<String>,
    trace_out: Option<String>,
    flight_out: Option<String>,
    obs_addr: Option<String>,
    obs_max_requests: Option<u64>,
}

fn parse_model(v: &str) -> Option<ModelKind> {
    match v.to_ascii_lowercase().as_str() {
        "vgg" | "vggnet" => Some(ModelKind::VggNet),
        "googlenet" => Some(ModelKind::GoogleNet),
        "alexnet" => Some(ModelKind::AlexNet),
        "resnet50" => Some(ModelKind::ResNet50),
        "inception" => Some(ModelKind::Inception),
        _ => None,
    }
}

/// Reads `serve run`'s command line; no flags give
/// [`ServeConfig::smoke`].
fn parse_args(args: &[String]) -> Result<Run, String> {
    let Some((_, flags)) = args.split_first().filter(|(command, _)| *command == "run") else {
        return Err("the only subcommand is run".to_string());
    };
    let line = CommandLine::parse(flags, &VALUE_FLAGS, &["--no-governor"])?;
    if let Some(arg) = line.positional().first() {
        return Err(format!("unexpected argument {arg}"));
    }
    let d = ServeConfig::smoke();
    let models = "vggnet|googlenet|alexnet|resnet50|inception";
    let cfg = ServeConfig {
        boards: line.value("--boards")?.unwrap_or(d.boards),
        requests: line.value("--requests")?.unwrap_or(d.requests),
        rps: line.value("--rps")?.unwrap_or(d.rps),
        seed: line.value("--seed")?.unwrap_or(d.seed),
        benchmark: line
            .read("--model", models, parse_model)?
            .unwrap_or(d.benchmark),
        max_batch: line.value("--max-batch")?.unwrap_or(d.max_batch),
        batch_timeout_cycles: line
            .value("--batch-timeout")?
            .unwrap_or(d.batch_timeout_cycles),
        queue_depth: line.value("--queue-depth")?.unwrap_or(d.queue_depth),
        calib: CalibConfig {
            margin_mv: line.value("--margin-mv")?.unwrap_or(d.calib.margin_mv),
            ..d.calib
        },
        retry_limit: line.value("--retry-limit")?.unwrap_or(d.retry_limit),
        slo_p99_cycles: line.value("--slo-p99")?.unwrap_or(d.slo_p99_cycles),
        burst_every: line.value("--burst-every")?.unwrap_or(d.burst_every),
        burst_len: line.value("--burst-len")?.unwrap_or(d.burst_len),
        image_jobs: line.value("--image-jobs")?.unwrap_or(d.image_jobs),
        defense: line
            .read("--defense", "off|detect|correct", DefenseMode::parse)?
            .unwrap_or(d.defense),
        router: line
            .read("--router", "vmin|rr", RouterPolicy::parse)?
            .unwrap_or(d.router),
        governor: d.governor && !line.has("--no-governor"),
        trace_capacity: line.value("--trace-capacity")?.unwrap_or(d.trace_capacity),
        ..d
    };
    Ok(Run {
        cfg,
        metrics_out: line.value("--metrics-out")?,
        prom_out: line.value("--prom-out")?,
        trace_out: line.value("--trace-out")?,
        flight_out: line.value("--flight-recorder")?,
        obs_addr: line.value("--obs-addr")?,
        obs_max_requests: line.value("--obs-max-requests")?,
    })
}

/// Runs the scenario, prints its report, writes the exports and serves
/// the snapshot. Errs with the line to exit 1 on: a failed run, export
/// or endpoint, or a violated SLO.
fn serve(run: &Run) -> Result<(), String> {
    let wall = Instant::now();
    let outcome = sim::run(&run.cfg).map_err(|e| format!("error: {e}"))?;
    let report = ServeReport::build(&run.cfg, outcome);
    // Wall clock goes to stderr only; stdout stays deterministic.
    eprintln!("# served in {:.2}s wall", wall.elapsed().as_secs_f64());
    print!("{}", report.to_text());
    for (path, render) in [
        (
            &run.metrics_out,
            ServeReport::to_jsonl as fn(&ServeReport) -> String,
        ),
        (&run.prom_out, ServeReport::to_prometheus),
        (&run.trace_out, ServeReport::to_chrome_trace),
        (&run.flight_out, ServeReport::to_flight_jsonl),
    ] {
        if let Some(path) = path {
            std::fs::write(path, render(&report))
                .map_err(|e| format!("error: writing {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
    }
    // Serve the observability snapshot *before* the SLO gate decides the
    // exit code, so a violated run can still be inspected over HTTP.
    if let Some(addr) = &run.obs_addr {
        let server = ObsServer::bind(addr, ObsSnapshot::of(&report))
            .map_err(|e| format!("error: binding {addr}: {e}"))?;
        let bound = server.local_addr().expect("bound socket has an address");
        eprintln!("obs: listening on http://{bound} (/metrics /healthz /trace)");
        let handled = server
            .serve(run.obs_max_requests)
            .map_err(|e| format!("error: obs server: {e}"))?;
        eprintln!("obs: served {handled} requests");
    }
    if !report.slo_ok {
        return Err("FAIL: SLO violated (p99 or silent corruption)".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<Run, String> {
        parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn an_empty_command_line_runs_the_smoke_scenario() {
        let run = Run {
            cfg: ServeConfig::smoke(),
            metrics_out: None,
            prom_out: None,
            trace_out: None,
            flight_out: None,
            obs_addr: None,
            obs_max_requests: None,
        };
        assert_eq!(parse(&["run"]), Ok(run));
    }

    #[test]
    fn every_flag_reaches_its_field() {
        #[rustfmt::skip]
        let args = [
            "run", "--boards", "5", "--requests=7", "--rps", "123.5", "--seed", "9",
            "--model", "ResNet50", "--max-batch", "6", "--batch-timeout", "1000",
            "--queue-depth=12", "--margin-mv", "-20", "--retry-limit", "3",
            "--slo-p99", "777", "--burst-every", "11", "--burst-len", "4",
            "--image-jobs=0", "--defense", "detect", "--router", "rr", "--no-governor",
            "--trace-capacity", "64", "--metrics-out", "m.jsonl", "--prom-out=p.prom",
            "--trace-out", "t.json", "--flight-recorder", "f.jsonl",
            "--obs-addr", "127.0.0.1:0", "--obs-max-requests", "2",
        ];
        let d = ServeConfig::smoke();
        let cfg = ServeConfig {
            boards: 5,
            requests: 7,
            rps: 123.5,
            seed: 9,
            benchmark: ModelKind::ResNet50,
            max_batch: 6,
            batch_timeout_cycles: 1000,
            queue_depth: 12,
            calib: CalibConfig {
                margin_mv: -20.0,
                ..d.calib
            },
            retry_limit: 3,
            slo_p99_cycles: 777,
            burst_every: 11,
            burst_len: 4,
            image_jobs: 0,
            defense: DefenseMode::Detect,
            router: RouterPolicy::RoundRobin,
            governor: false,
            trace_capacity: 64,
            ..d
        };
        let run = Run {
            cfg,
            metrics_out: Some("m.jsonl".into()),
            prom_out: Some("p.prom".into()),
            trace_out: Some("t.json".into()),
            flight_out: Some("f.jsonl".into()),
            obs_addr: Some("127.0.0.1:0".into()),
            obs_max_requests: Some(2),
        };
        assert_eq!(parse(&args), Ok(run));
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        for bad in [
            &[][..],
            &["walk"],
            &["--boards", "3"],
            &["run", "extra"],
            &["run", "--bogus"],
            &["run", "--boards"],
            &["run", "--boards", "x"],
            &["run", "--rps=fast"],
            &["run", "--no-governor=1"],
            &["run", "--model", "lenet"],
            &["run", "--defense=on"],
            &["run", "--router", "random"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
