//! `train_epoch`: the offline half of the system, no sockets.
//!
//! A fixed amount of work — `CtrTrainer` over a prefix of the
//! paper-scale interaction log sized by `--seconds`, then
//! `PopularityIndex::build` and `evaluate_auc_generated` on the held-out
//! tail — so the AUC repeats bit-exactly for a seed and a faster trainer
//! shows as rows per second, not as more rows.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use atnn_core::{
    evaluate_auc_generated, gather_batch, Atnn, AtnnConfig, CtrTrainer, PopularityIndex,
    TrainOptions,
};
use atnn_data::tmall::{TmallConfig, TmallDataset};
use atnn_obs::{Event, Sink};
use atnn_tensor::{pool, Matrix};

use crate::report::{Outcome, PhaseCounts};
use crate::serving::RunArgs;
use crate::spec::{TRAIN_HELD_OUT_SHARE, TRAIN_ROWS_PER_SECOND, TRAIN_STEP_LIMIT_US};
use crate::stats::quantile_sorted;
use crate::trace::{Clock, Tracer};

/// One trainer event with the time the sink received it.
#[derive(Debug, Clone, Copy)]
pub enum StepEvent {
    Step { at_ns: u64, ns: u64, rows: u64 },
    Backward { at_ns: u64, ns: u64, nodes: u64 },
}

/// Keeps only the trainer's `StepTiming` and autograd's `Backward` events
/// — the two the program already emits once any sink is installed.
pub struct StepSink {
    clock: Clock,
    events: Mutex<Vec<StepEvent>>,
}

impl StepSink {
    pub fn new(clock: Clock) -> Arc<StepSink> {
        Arc::new(StepSink { clock, events: Mutex::new(Vec::new()) })
    }

    pub fn take(&self) -> Vec<StepEvent> {
        std::mem::take(&mut *self.events.lock().expect("step sink lock"))
    }
}

impl Sink for StepSink {
    fn emit(&self, event: &Event) {
        let at_ns = self.clock.now_ns();
        let kept = match *event {
            Event::StepTiming { ns, rows, .. } => StepEvent::Step { at_ns, ns, rows },
            Event::Backward { ns, nodes } => StepEvent::Backward { at_ns, ns, nodes },
            _ => return,
        };
        // A poisoned lock only means another emitter panicked; drop the
        // event rather than panic inside a sink.
        if let Ok(mut events) = self.events.lock() {
            events.push(kept);
        }
    }
}

/// Totals over a run of trainer events.
#[derive(Debug, Default, Clone, Copy)]
pub struct StepTotals {
    pub steps: u64,
    pub rows: u64,
    pub step_ns: u64,
    pub backward_ns: u64,
    pub backward_nodes: u64,
}

pub fn step_totals(events: &[StepEvent]) -> StepTotals {
    let mut t = StepTotals::default();
    for e in events {
        match *e {
            StepEvent::Step { ns, rows, .. } => {
                t.steps += 1;
                t.rows += rows;
                t.step_ns += ns;
            }
            StepEvent::Backward { ns, nodes, .. } => {
                t.backward_ns += ns;
                t.backward_nodes += nodes;
            }
        }
    }
    t
}

/// Per-layer metrics every workload can read off its trainer events.
pub fn put_step_metrics(out: &mut Outcome, totals: &StepTotals) {
    if totals.steps == 0 {
        return;
    }
    out.put(
        "core.step_ns_per_row",
        totals.step_ns as f64 / totals.rows.max(1) as f64,
        totals.steps,
    );
    out.put(
        "autograd.backward_share",
        totals.backward_ns as f64 / totals.step_ns.max(1) as f64,
        totals.steps,
    );
    out.put(
        "autograd.nodes_per_step",
        totals.backward_nodes as f64 / totals.steps as f64,
        totals.steps,
    );
}

/// Turns trainer events into spans under `root`: one `core.train_step`
/// per step with its `autograd.backward` children, and the gap before
/// each step (batch gather and loop overhead) as `core.gather`.
fn record_step_spans(tracer: &mut Tracer, root: u32, train_start_ns: u64, events: &[StepEvent]) {
    let mut pending_backward: Vec<(u64, u64)> = Vec::new();
    let mut prev_end = train_start_ns;
    let mut step_no = 0u32;
    for e in events {
        match *e {
            StepEvent::Backward { at_ns, ns, .. } => {
                pending_backward.push((at_ns.saturating_sub(ns), at_ns))
            }
            StepEvent::Step { at_ns, ns, .. } => {
                step_no += 1;
                let start = at_ns.saturating_sub(ns);
                tracer.record("core.gather", root, step_no, prev_end, start.max(prev_end), false);
                let step = tracer.record("core.train_step", root, step_no, start, at_ns, false);
                for (b_start, b_end) in pending_backward.drain(..) {
                    tracer.record("autograd.backward", step, step_no, b_start, b_end, false);
                }
                prev_end = at_ns;
            }
        }
    }
}

/// Dense product rate at the train-step shape (a 256-row batch through the
/// towers' first deep layer). FLOPs are computed from the shape: 2·m·k·n.
pub fn gemm_gflops(m: usize, k: usize, n: usize) -> (f64, u64) {
    let a = Matrix::from_fn(m, k, |i, j| ((i * 31 + j * 17) % 13) as f32 * 0.1 - 0.6);
    let b = Matrix::from_fn(k, n, |i, j| ((i * 7 + j * 29) % 11) as f32 * 0.1 - 0.5);
    let reps = 200u64;
    let mut sink = 0.0f32;
    let t = Instant::now();
    for _ in 0..reps {
        let c = std::hint::black_box(&a).matmul(std::hint::black_box(&b)).expect("shapes agree");
        sink += c.get(0, 0);
    }
    let secs = t.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    ((2 * m * k * n) as f64 * reps as f64 / secs / 1e9, reps)
}

pub fn run(args: &RunArgs, trace: Option<&mut Tracer>, clock: Clock) -> Outcome {
    let mut out = Outcome::default();

    // ---- set-up: the paper-scale dataset (the benchmark's fixed input)
    // and a freshly initialised model; the seed picks the weight
    // initialisation and, below, the shuffle order ----
    let t = Instant::now();
    let data = TmallDataset::generate(TmallConfig::paper_scale());
    let generate_s = t.elapsed().as_secs_f64();
    let mut model = Atnn::new(AtnnConfig::scaled().with_seed(args.seed), &data);
    out.put("setup_s", args.process_start.elapsed().as_secs_f64(), 1);

    let total = data.interactions.len();
    let held_out_from = total - (total as f64 * TRAIN_HELD_OUT_SHARE) as usize;
    let train_rows_n = ((TRAIN_ROWS_PER_SECOND as f64 * args.seconds) as usize).min(held_out_from);
    let train_rows: Vec<u32> = (0..train_rows_n as u32).collect();
    let held_out: Vec<u32> = (held_out_from as u32..total as u32).collect();

    // ---- measured: CtrTrainer::train ----
    let sink = StepSink::new(clock);
    let opts = TrainOptions::builder().epochs(1).seed(args.seed).build().expect("valid options");
    let train_start_ns = clock.now_ns();
    let t = Instant::now();
    let report = {
        let _guard = atnn_obs::install_scoped(sink.clone());
        CtrTrainer::new(opts).train(&mut model, &data, Some(&train_rows))
    };
    let train_secs = t.elapsed().as_secs_f64();
    let train_end_ns = clock.now_ns();
    let events = sink.take();
    let totals = step_totals(&events);

    let losses_finite = report.as_ref().is_ok_and(|r| {
        r.epochs
            .iter()
            .all(|e| e.loss_i.is_finite() && e.loss_g.is_finite() && e.loss_s.is_finite())
    });
    let mut step_ns: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            StepEvent::Step { ns, .. } => Some(*ns),
            StepEvent::Backward { .. } => None,
        })
        .collect();
    step_ns.sort_unstable();
    out.put("throughput_per_s", totals.rows as f64 / train_secs, totals.rows);
    out.put("latency_p50_us", quantile_sorted(&step_ns, 0.5) as f64 / 1e3, totals.steps);
    out.put("latency_p90_us", quantile_sorted(&step_ns, 0.9) as f64 / 1e3, totals.steps);
    out.phases.push(PhaseCounts {
        phase: "train",
        sent: totals.steps,
        succeeded: if losses_finite { totals.steps } else { 0 },
        shed: 0,
        failed: if losses_finite { 0 } else { totals.steps },
    });
    let slow_steps =
        step_ns.len() - step_ns.partition_point(|&ns| ns <= TRAIN_STEP_LIMIT_US * 1_000);
    out.notes.push(format!(
        "trained {} rows in {} steps of <= 256 over {:.3}s with {} pool threads; step p50 {:.1} us, p90 {:.1} us, p99 {:.1} us, max {:.1} us; {slow_steps} steps over the {TRAIN_STEP_LIMIT_US} us limit",
        totals.rows,
        totals.steps,
        train_secs,
        pool::effective_threads(),
        quantile_sorted(&step_ns, 0.5) as f64 / 1e3,
        quantile_sorted(&step_ns, 0.9) as f64 / 1e3,
        quantile_sorted(&step_ns, 0.99) as f64 / 1e3,
        step_ns.last().copied().unwrap_or(0) as f64 / 1e3,
    ));

    // ---- index build + held-out evaluation ----
    let users: Vec<u32> = (0..data.num_users() as u32).collect();
    let index_start_ns = clock.now_ns();
    let index = PopularityIndex::build(&model, &data, &users);
    let index_end_ns = clock.now_ns();
    std::hint::black_box(&index);
    let eval_start_ns = clock.now_ns();
    let auc = evaluate_auc_generated(&model, &data, &held_out);
    let eval_end_ns = clock.now_ns();
    // Evaluation is pooled; the same rows must give the same bits again.
    let auc_again = evaluate_auc_generated(&model, &data, &held_out);
    let auc_ok = auc.is_some() && auc == auc_again;
    out.phases.push(PhaseCounts {
        phase: "evaluate",
        sent: 2,
        succeeded: if auc_ok { 2 } else { 0 },
        shed: 0,
        failed: if auc_ok { 0 } else { 2 },
    });
    let auc = auc.unwrap_or(0.0);
    out.put("quality", auc, held_out.len() as u64);
    // Like a late reply, a slow step misses without failing the run.
    out.put(
        "ok_share",
        (out.attempted() - out.failed()).saturating_sub(slow_steps as u64) as f64
            / out.attempted() as f64,
        out.attempted(),
    );
    out.put("peak_rss_mb", atnn_obs::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0), 1);
    out.notes.push(format!(
        "held-out cold-start AUC {auc:?} over {} rows (f64 bits {:#018x}; must repeat exactly for a seed on a bit-identical backend)",
        held_out.len(),
        auc.to_bits()
    ));
    out.correct = losses_finite && auc_ok && totals.steps > 0;

    // ---- per-layer numbers and spans (traced run only) ----
    if let Some(tracer) = trace {
        let root = tracer.record("train", 0, 0, train_start_ns, train_end_ns, false);
        record_step_spans(tracer, root, train_start_ns, &events);
        tracer.record("core.popularity_index_build", 0, 0, index_start_ns, index_end_ns, false);
        tracer.record("core.evaluate_auc", 0, 0, eval_start_ns, eval_end_ns, false);
        put_step_metrics(&mut out, &totals);
        out.put("data.generate_s", generate_s, 1);
        out.put("core.popularity_index_build_s", (index_end_ns - index_start_ns) as f64 / 1e9, 1);
        out.put(
            "core.eval_rows_per_s",
            held_out.len() as f64 / ((eval_end_ns - eval_start_ns) as f64 / 1e9),
            held_out.len() as u64,
        );

        // Direct calls on the first batches of the same row order.
        let batches: Vec<&[u32]> = train_rows.chunks(256).take(200).collect();
        let t = Instant::now();
        for b in &batches {
            std::hint::black_box(gather_batch(&data, b));
        }
        let rows: usize = batches.iter().map(|b| b.len()).sum();
        out.put("core.gather_ns_per_row", t.elapsed().as_nanos() as f64 / rows as f64, rows as u64);

        let ids: Vec<u32> = (0..data.num_items() as u32).collect();
        let t = Instant::now();
        for chunk in ids.chunks(512) {
            std::hint::black_box(data.encode_item_profiles(chunk));
        }
        out.put(
            "data.encode_profiles_ns_per_row",
            t.elapsed().as_nanos() as f64 / ids.len() as f64,
            ids.len() as u64,
        );
        let t = Instant::now();
        for chunk in ids.chunks(512) {
            let profile = data.encode_item_profiles(chunk);
            let stats = data.encode_item_stats(chunk);
            std::hint::black_box(model.item_vectors_generated(&profile));
            std::hint::black_box(model.item_vectors_full(&profile, &stats));
        }
        out.put(
            "core.embed_rows_per_s",
            ids.len() as f64 / t.elapsed().as_secs_f64(),
            ids.len() as u64,
        );

        let (gflops, reps) = gemm_gflops(256, 128, 64);
        out.put("tensor.gemm_gflops", gflops, reps);
        out.notes
            .push("tensor.gemm_gflops: 256x128x64 matmul, FLOPs computed as 2*m*k*n".to_string());
    }
    out
}
