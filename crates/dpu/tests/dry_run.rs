//! Pins `QuantizedGraph::draws_no_faults` to the executor.
//!
//! The runtime skips the forward pass of every execution whose fault
//! stream draws nothing, so the dry run must say "nothing drawn" exactly
//! when a seeded execution leaves its injector without a fault event, and
//! such an execution must equal a clean one: same prediction, same final
//! logits, and the ABFT counters of a fault-free pass under every defense
//! policy. Covered: every model at tiny scale and INT8, INT4 and 0.5-pruned
//! VGGNet, on three board samples in the 5 mV steps from 600 mV (inside
//! the guardband) down to 540 mV (around Vcrash).

use redvolt_dpu::runtime::{image_stream_seed, DpuRuntime, DpuTask};
use redvolt_faults::board_injector;
use redvolt_faults::ecc::EccInjector;
use redvolt_faults::model::PRUNED_CRASH_SLACK_RATIO;
use redvolt_fpga::board::Zcu102Board;
use redvolt_nn::abft::{DefensePolicy, DefenseStats};
use redvolt_nn::dataset::SyntheticDataset;
use redvolt_nn::graph::Graph;
use redvolt_nn::models::{ModelKind, ModelScale};
use redvolt_nn::prune::channel_prune;
use redvolt_nn::quant::{ExecScratch, NoFaults, QuantizedGraph};
use redvolt_nn::tensor::Tensor;
use redvolt_pmbus::adapter::PmbusAdapter;

const VCCINT: u8 = 0x13;
const STREAMS: u64 = 32;
const IMAGES: usize = 4;

/// One execution's observable result.
#[derive(Debug, PartialEq)]
struct Execution {
    prediction: usize,
    logit_bits: Vec<u32>,
    defense: DefenseStats,
}

fn execute(
    graph: &QuantizedGraph,
    image: &Tensor,
    injector: &mut dyn redvolt_nn::quant::FaultInjector,
    scratch: &mut ExecScratch,
) -> Execution {
    let mut defense = DefenseStats::default();
    let prediction = graph
        .predict_shared(image, injector, scratch, &mut defense)
        .unwrap();
    Execution {
        prediction,
        logit_bits: scratch.final_logits().iter().map(|v| v.to_bits()).collect(),
        defense,
    }
}

/// The model variants under test: model, float graph, bits, pruned.
fn variants() -> Vec<(ModelKind, Graph, u32, bool)> {
    let tiny = |kind: ModelKind| kind.build(ModelScale::Tiny).fold_batch_norms();
    let mut out: Vec<_> = ModelKind::ALL
        .iter()
        .map(|&kind| (kind, tiny(kind), 8, false))
        .collect();
    let vgg = tiny(ModelKind::VggNet);
    let pruned = channel_prune(&vgg, 0.5).unwrap();
    out.push((ModelKind::VggNet, vgg, 4, false));
    out.push((ModelKind::VggNet, pruned, 8, true));
    out
}

#[test]
fn dry_run_predicts_the_executor_and_clean_executions_match_no_faults() {
    let policies = [
        DefensePolicy::off(),
        DefensePolicy::detect(),
        DefensePolicy::correct(),
    ];
    for (kind, graph, bits, pruned) in variants() {
        let name = format!("{} int{bits} pruned={pruned}", kind.name());
        let spec = kind.spec();
        let ds = SyntheticDataset::new(spec.input_hw, spec.input_hw, 3, spec.classes, 42);
        let images = ds.images(IMAGES);
        let mut task = DpuTask::create(&name, &graph, bits, &images).unwrap();
        if pruned {
            task = task.with_crash_slack_ratio(PRUNED_CRASH_SLACK_RATIO);
        }
        let layers = graph.nodes().iter().filter(|n| n.op.has_weights()).count() as u64;
        let mut model = task.model_mut().clone();
        let mut scratch = ExecScratch::new();
        // Clean reference per (policy, image).
        let clean: Vec<Vec<Execution>> = policies
            .iter()
            .map(|&policy| {
                model.set_defense(policy);
                images
                    .iter()
                    .map(|image| execute(&model, image, &mut NoFaults, &mut scratch))
                    .collect()
            })
            .collect();
        for (policy, runs) in policies.iter().zip(&clean) {
            let checks = if policy.is_on() { 2 * layers } else { 0 };
            for run in runs {
                let want = DefenseStats {
                    checks,
                    ..DefenseStats::default()
                };
                assert_eq!(run.defense, want, "{name}: {policy:?}");
            }
        }
        let (mut case_nothing, mut case_drew) = (0u32, 0u32);
        for board in 0..3 {
            let mut rt = DpuRuntime::open(Zcu102Board::new(board).with_exact_telemetry());
            let mut host = PmbusAdapter::new();
            for mv in (540u32..=600).rev().step_by(5) {
                host.set_vout(rt.board_mut(), VCCINT, f64::from(mv) / 1000.0)
                    .unwrap();
                // An empty batch publishes the task's load to the board,
                // exactly as a real batch does before it executes.
                if rt.run_batch(&mut task, &[], 0, 0).is_err() {
                    rt.board_mut().power_cycle();
                    continue;
                }
                for stream in 0..STREAMS {
                    let seed = image_stream_seed(u64::from(mv), stream, board);
                    let image_index = stream as usize % IMAGES;
                    let image = &images[image_index];
                    let at = format!("{name} board {board} {mv} mV stream {stream}");
                    let dry = model.draws_no_faults(&mut board_injector(rt.board(), seed));
                    if dry {
                        case_nothing += 1;
                    } else {
                        case_drew += 1;
                    }
                    for (p, &policy) in policies.iter().enumerate() {
                        model.set_defense(policy);
                        let mut injector =
                            EccInjector::new(board_injector(rt.board(), seed), policy.mode);
                        let run = execute(&model, image, &mut injector, &mut scratch);
                        let events = injector.into_inner().event_count();
                        assert_eq!(dry, events == 0, "{at} {policy:?}: {events} events");
                        if dry {
                            assert_eq!(run, clean[p][image_index], "{at} {policy:?}");
                            assert_eq!(run.defense, model.fault_free_defense_stats(), "{at}");
                        }
                    }
                }
            }
        }
        // Both outcomes occur, so neither half of the check is vacuous.
        assert!(
            case_nothing > 0 && case_drew > 0,
            "{name}: {case_nothing} drew nothing, {case_drew} drew"
        );
    }
}
