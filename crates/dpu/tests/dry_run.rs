//! Pins `QuantizedGraph::first_faulted_node` to the executor.
//!
//! The runtime skips the forward pass of every execution whose fault
//! stream draws nothing, and resumes every other one at the dry run's
//! node from the image's clean run. So the dry run must say "nothing
//! drawn" exactly when a seeded execution leaves its injector without a
//! fault event, and such an execution must equal a clean one: same
//! prediction, same final logits, and the ABFT counters of a fault-free
//! pass under every defense mode. Otherwise its node must be the first
//! whose plans draw, and the execution resumed there with the clean run's
//! activations must equal the full one: prediction, logit bits, ABFT and
//! ECC counters, injected flips and fault events. Covered: every model at
//! tiny scale and INT8, INT4 and 0.5-pruned VGGNet, on three board
//! samples in the 5 mV steps from 600 mV (inside the guardband) down to
//! 540 mV (around Vcrash).

use redvolt_dpu::runtime::{image_stream_seed, DpuRuntime, DpuTask};
use redvolt_faults::board_injector;
use redvolt_faults::ecc::{EccInjector, EccStats};
use redvolt_faults::model::PRUNED_CRASH_SLACK_RATIO;
use redvolt_fpga::board::Zcu102Board;
use redvolt_nn::abft::{DefenseMode, DefenseStats};
use redvolt_nn::dataset::SyntheticDataset;
use redvolt_nn::graph::Graph;
use redvolt_nn::models::{ModelKind, ModelScale};
use redvolt_nn::prune::channel_prune;
use redvolt_nn::quant::{
    BitFlip, CleanPrefix, ExecScratch, FaultInjector, FlipRun, NoFaults, QuantizedGraph,
};
use redvolt_nn::tensor::{QTensor, Tensor};
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
    prefix: CleanPrefix<'_>,
    injector: &mut dyn FaultInjector,
    mode: DefenseMode,
    scratch: &mut ExecScratch,
) -> Execution {
    let mut defense = DefenseStats::default();
    let prediction = graph
        .predict_shared(image, prefix, injector, mode, scratch, &mut defense)
        .unwrap();
    Execution {
        prediction,
        logit_bits: scratch.final_logits().iter().map(|v| v.to_bits()).collect(),
        defense,
    }
}

/// An execution on a seeded board stream behind the ECC wrapper, with
/// the wrapper's and the stream's counters: ECC events, injected flips
/// and fault events.
fn execute_seeded(
    graph: &QuantizedGraph,
    image: &Tensor,
    prefix: CleanPrefix<'_>,
    board: &Zcu102Board,
    seed: u64,
    mode: DefenseMode,
    scratch: &mut ExecScratch,
) -> (Execution, EccStats, u64, u64) {
    let mut injector = EccInjector::new(board_injector(board, seed), mode);
    let run = execute(graph, image, prefix, &mut injector, mode, scratch);
    let ecc = injector.stats();
    let inner = injector.into_inner();
    (run, ecc, inner.injected_count(), inner.event_count())
}

/// Passes plans through, noting the layer of the first non-empty one.
struct FirstDraw<I> {
    inner: I,
    layer: Option<String>,
}

impl<I> FirstDraw<I> {
    fn note<T>(&mut self, layer: &str, plan: Vec<T>) -> Vec<T> {
        if !plan.is_empty() && self.layer.is_none() {
            self.layer = Some(layer.to_string());
        }
        plan
    }
}

impl<I: FaultInjector> FaultInjector for FirstDraw<I> {
    fn plan_weight_faults(&mut self, layer: &str, len: usize, bits: u32) -> Vec<BitFlip> {
        let plan = self.inner.plan_weight_faults(layer, len, bits);
        self.note(layer, plan)
    }
    fn plan_accumulator_faults(&mut self, layer: &str, len: usize, macs: usize) -> Vec<FlipRun> {
        let plan = self.inner.plan_accumulator_faults(layer, len, macs);
        self.note(layer, plan)
    }
    fn plan_activation_faults(&mut self, layer: &str, len: usize, bits: u32) -> Vec<BitFlip> {
        let plan = self.inner.plan_activation_faults(layer, len, bits);
        self.note(layer, plan)
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
    let modes = [DefenseMode::Off, DefenseMode::Detect, DefenseMode::Correct];
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
        let model = task.model_mut().clone();
        let mut scratch = ExecScratch::new();
        let full = CleanPrefix::default();
        // Clean reference per (mode, image), and each image's clean
        // activations.
        let clean: Vec<Vec<Execution>> = modes
            .iter()
            .map(|&mode| {
                images
                    .iter()
                    .map(|image| execute(&model, image, full, &mut NoFaults, mode, &mut scratch))
                    .collect()
            })
            .collect();
        let clean_acts: Vec<Vec<QTensor>> = images
            .iter()
            .map(|image| {
                execute(
                    &model,
                    image,
                    full,
                    &mut NoFaults,
                    DefenseMode::Off,
                    &mut scratch,
                );
                scratch.activations().to_vec()
            })
            .collect();
        for (mode, runs) in modes.iter().zip(&clean) {
            let checks = if mode.is_on() { 2 * layers } else { 0 };
            for run in runs {
                let want = DefenseStats {
                    checks,
                    ..DefenseStats::default()
                };
                assert_eq!(run.defense, want, "{name}: {mode:?}");
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
                if rt.run_batch(&task, &[], 0, 0).is_err() {
                    rt.board_mut().power_cycle();
                    continue;
                }
                for stream in 0..STREAMS {
                    let seed = image_stream_seed(u64::from(mv), stream, board);
                    let image_index = stream as usize % IMAGES;
                    let image = &images[image_index];
                    let at = format!("{name} board {board} {mv} mV stream {stream}");
                    let dry = model.first_faulted_node(&mut board_injector(rt.board(), seed));
                    let mut first_draw = FirstDraw {
                        inner: board_injector(rt.board(), seed),
                        layer: None,
                    };
                    execute(
                        &model,
                        image,
                        full,
                        &mut first_draw,
                        DefenseMode::Off,
                        &mut scratch,
                    );
                    let first_layer = dry.map(|node| graph.nodes()[node].name.clone());
                    assert_eq!(first_layer, first_draw.layer, "{at}: first drawing layer");
                    match dry {
                        None => case_nothing += 1,
                        Some(_) => case_drew += 1,
                    }
                    let mut seeded = |prefix, mode| {
                        execute_seeded(&model, image, prefix, rt.board(), seed, mode, &mut scratch)
                    };
                    for (p, &mode) in modes.iter().enumerate() {
                        let full_run = seeded(full, mode);
                        let events = full_run.3;
                        assert_eq!(dry.is_none(), events == 0, "{at} {mode:?}: {events} events");
                        let Some(node) = dry else {
                            assert_eq!(full_run.0, clean[p][image_index], "{at} {mode:?}");
                            let defense = model.fault_free_defense_stats(mode);
                            assert_eq!(full_run.0.defense, defense, "{at}");
                            continue;
                        };
                        let prefix = CleanPrefix {
                            node,
                            acts: &clean_acts[image_index],
                        };
                        let resumed = seeded(prefix, mode);
                        assert_eq!(resumed, full_run, "{at} {mode:?}: resumed at node {node}");
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
