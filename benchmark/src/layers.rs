//! The traced run of a serving workload: per-layer metrics, outside in.
//!
//! Nothing inside the program is instrumented yet, so every number here
//! comes from timing public calls on the workload's own generated request
//! stream:
//!
//! 1. **Sockets** — `Health` and the workload's mix at one request in
//!    flight (the pure socket → loop → flush cost), the saturation phase
//!    once untraced and once with client spans (their ratio is the tracing
//!    overhead), and a rate ladder that locates the knee.
//! 2. **In-process replay** — each sampled request goes through the same
//!    public calls the server makes, one span per layer boundary:
//!    `protocol.request_encode` → `protocol.frame_read` →
//!    `protocol.request_decode` → `router.split` → `shard.scatter` →
//!    `server.respond` → `protocol.response_encode` →
//!    `protocol.response_decode`, under a root `request` span. The compute
//!    a scatter hides behind the batcher thread is re-run directly on the
//!    same ids afterwards as `shadow` children (`manager.*` → `ann.*` /
//!    `tensor.*`), so `shard.scatter`'s self time is queue wait and
//!    thread hand-off.
//! 3. **Direct calls** — the publish path (`delta_from`, `reassign`,
//!    `update_rows`, `requantize_rows`, `publish`), index build, table
//!    scans and embedding, which no request exercises.

use std::io::Cursor;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use atnn_ann::{IvfFlatIndex, IvfParams, Retriever};
use atnn_serve::protocol::write_frame;
use atnn_serve::router::SlottedItems;
use atnn_serve::{
    FrameRead, FrameReader, ModelManager, ModelSnapshot, PolicyRouter, Request, Response,
    ScatterOutcome, ScorePath, ShardSet, Telemetry, TopKOutcome,
};
use atnn_tensor::{dot, CowMatrix, CowQuantMatrix, Matrix, QuantizedMatrix, Rng64};

use crate::fixture::{serve_config, Served};
use crate::loadgen::{self, Observe, Sample};
use crate::oracle::Oracle;
use crate::report::{Outcome, PhaseCounts};
use crate::serving::{
    self, connect_all, delta_publish_ms, describe_publishes, honesty, ok_share, open_phase,
    percentiles, pool_size, saturation_rps, strided_ids, tally, Judge, RunArgs, Timeline,
};
use crate::spec::{Mix, ServingSpec, NPROBE, WARM_THRESHOLD};
use crate::stats::{median, quantile};
use crate::stream::{poisson_schedule, RequestPool};
use crate::trace::{self, Clock, Span, Tracer};
use crate::train::{gemm_gflops, put_step_metrics, step_totals, StepSink};

/// Shares of `--seconds` the socket phases of a traced run take.
const HEALTH_SHARE: f64 = 0.04;
const ONE_IN_FLIGHT_SHARE: f64 = 0.08;
const SATURATION_EACH_SHARE: f64 = 0.12;
/// The untraced and the traced saturation time are each cut into this
/// many slices, run alternately.
const SATURATION_SLICES: u64 = 3;
const LADDER_STEP_SHARE: f64 = 0.07;
/// Offered load of each ladder step, as a multiple of the frozen rate.
const LADDER: [f64; 8] = [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0];

fn p50(values: &mut [u64]) -> u64 {
    quantile(values, 0.5)
}

fn p50_of(spans: &[Span], name: &str) -> (f64, u64) {
    let mut d = trace::durations_of(spans, name);
    (p50(&mut d) as f64, d.len() as u64)
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// On-CPU and run-queue-wait nanoseconds of this process's thread called
/// `name`, from `/proc/self/task/*/schedstat` — the kernel's own account
/// of how long the thread ran and how long it was runnable but waiting
/// for a core. `None` where the file is missing.
fn thread_sched_ns(name: &str) -> Option<(u64, u64)> {
    // The kernel keeps 15 bytes of a thread's name.
    let name = &name[..name.len().min(15)];
    for entry in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
        let comm = std::fs::read_to_string(entry.path().join("comm")).unwrap_or_default();
        if comm.trim() == name {
            let stat = std::fs::read_to_string(entry.path().join("schedstat")).ok()?;
            let mut fields = stat.split_ascii_whitespace().map(|f| f.parse::<u64>().ok());
            return Some((fields.next()??, fields.next()??));
        }
    }
    None
}

/// Adds `counts` to the phase of the same name, or appends it.
fn merge_phase(out: &mut Outcome, counts: PhaseCounts) {
    match out.phases.iter_mut().find(|p| p.phase == counts.phase) {
        Some(total) => {
            total.sent += counts.sent;
            total.succeeded += counts.succeeded;
            total.shed += counts.shed;
            total.failed += counts.failed;
        }
        None => out.phases.push(counts),
    }
}

pub fn run(spec: &ServingSpec, args: &RunArgs, tracer: &mut Tracer, clock: Clock) -> Outcome {
    let mut out = Outcome::default();
    let d = args.seconds;

    // ---- set-up, once, with the trainer's own step events captured ----
    let sink = StepSink::new(clock);
    let served = Served::build(args.catalog_items, spec.precision, Some(sink.clone()));
    put_step_metrics(&mut out, &step_totals(&sink.take()));
    let timings = served.catalog.timings;
    out.put("data.generate_s", timings.generate_s, 1);
    out.put("core.popularity_index_build_s", timings.index_s / 2.0, 2);
    out.put("manager.full_build_s", timings.snapshot_s, 1);
    let boot = served.manager.load();
    out.put("manager.snapshot_mb", mib(boot.snapshot_bytes()), 1);

    let mut rng = Rng64::seed_from_u64(args.seed);
    let items = served.catalog.num_items();
    let pool = RequestPool::generate(spec.mix, items, pool_size(spec.mix), &mut rng);
    let mut conns = connect_all(&served);
    let mut checks_ok = true;
    let mut judge = Judge::new(Arc::clone(&boot), served.warm_below, pool.len(), None);
    // No publisher runs beside the socket phases up to the ladder, so every
    // reply can be checked against the boot snapshot as it arrives.
    let expected = judge.expected_at_boot(&pool);

    // ---- sockets: Health, then the mix, one request in flight ----
    let health_pool = RequestPool::from_requests(vec![Request::Health]);
    let health = loadgen::closed_loop(
        &mut conns[..1],
        &health_pool,
        0,
        1,
        (d * HEALTH_SHARE * 1e9) as u64,
        Observe::plain(clock),
    );
    let one = loadgen::closed_loop(
        &mut conns[..1],
        &pool,
        0,
        1,
        (d * ONE_IN_FLIGHT_SHARE * 1e9) as u64,
        Observe { clock, expected: Some(&expected), tracer: None },
    );
    let (health, one) = match (health, one) {
        (Ok(h), Ok(o)) => (h, o),
        (h, o) => {
            out.notes.push(format!("one-in-flight phases failed: {:?} / {:?}", h.err(), o.err()));
            return out;
        }
    };
    let expected_health = Response::Health { ok: true, model_version: boot.version }.encode();
    let health_verdicts =
        serving::judge(&health.samples, |_, reply| reply[..] == expected_health[..]);
    out.phases.push(tally("health_rtt", &health_verdicts));
    let one_verdicts = judge.judge(&pool, &one.samples);
    out.phases.push(tally("one_in_flight", &one_verdicts));
    let health_rtt = percentiles(health.samples.iter());
    let one_rtt = percentiles(one.samples.iter());
    out.put("server.health_rtt_us", health_rtt.p50_us, health_rtt.n);
    out.put("server.rtt_1inflight_us", one_rtt.p50_us, one_rtt.n);
    telemetry_skew(&mut out, &served, &pool, &one.samples);

    // ---- sockets: saturation, untraced and traced in alternating slices ----
    // Room for the client spans up front: growing the span list mid-phase
    // would charge reallocation to the tracing overhead.
    tracer.reserve(2_000_000);
    let slice_ns = (d * SATURATION_EACH_SHARE * 1e9) as u64 / SATURATION_SLICES;
    let before = served.handle.telemetry().report(0);
    // Thread names are the server's own (`atnn-serve-loop{i}`, `-shard{i}`).
    let sched_before = [thread_sched_ns("atnn-serve-loop0"), thread_sched_ns("atnn-serve-shard0")];
    let started_ns = clock.now_ns();
    let stop = AtomicBool::new(false);
    let (slices, queue_depth_max) = std::thread::scope(|scope| {
        // Queue depth is a gauge; sample it while the queue is loaded.
        let sampler = scope.spawn(|| {
            let mut max_depth = 0u64;
            while !stop.load(Ordering::Acquire) {
                let report = served.handle.telemetry().report(0);
                max_depth =
                    max_depth.max(report.shards.iter().map(|s| s.queue_depth).max().unwrap_or(0));
                std::thread::sleep(Duration::from_millis(20));
            }
            max_depth
        });
        // plain, traced, plain, traced, ...: drift over the phase (cache
        // warmth, frequency) lands on both sides alike.
        let slices: Vec<_> = (0..2 * SATURATION_SLICES)
            .map(|i| {
                let spans = (i % 2 == 1).then_some(&mut *tracer);
                loadgen::closed_loop(
                    &mut conns,
                    &pool,
                    0,
                    spec.saturation_depth,
                    slice_ns,
                    Observe { clock, expected: Some(&expected), tracer: spans },
                )
            })
            .collect();
        stop.store(true, Ordering::Release);
        (slices, sampler.join().expect("queue sampler"))
    });
    let elapsed = (clock.now_ns() - started_ns) as f64 / 1e9;
    let sched_after = [thread_sched_ns("atnn-serve-loop0"), thread_sched_ns("atnn-serve-shard0")];
    let after = served.handle.telemetry().report(0);
    // (correct replies in window, window seconds) for [plain, traced].
    let mut sides = [(0u64, 0.0f64); 2];
    for (i, slice) in slices.into_iter().enumerate() {
        match slice {
            Ok(slice) => {
                let verdicts = judge.judge(&pool, &slice.samples);
                let phase = if i % 2 == 0 { "saturation" } else { "saturation_traced" };
                merge_phase(&mut out, tally(phase, &verdicts));
                let (_, done) = saturation_rps(&slice, &verdicts);
                sides[i % 2].0 += done;
                sides[i % 2].1 += slice.window_seconds();
            }
            Err(e) => {
                out.notes.push(format!("saturation slice {i} failed: {e}"));
                checks_ok = false;
            }
        }
    }
    if checks_ok {
        let [plain_rps, traced_rps] = sides.map(|(done, secs)| done as f64 / secs);
        out.put("trace.overhead_share", 1.0 - traced_rps / plain_rps, sides[0].0 + sides[1].0);
        out.notes.push(format!(
            "saturation throughput untraced {plain_rps:.0} rps, with client spans {traced_rps:.0} rps ({SATURATION_SLICES} alternating slices each)"
        ));
        let batches = after.batches - before.batches;
        let batched = after.batched_items - before.batched_items;
        let sum = |r: &atnn_serve::StatsReport, f: fn(&atnn_serve::ShardStats) -> u64| -> u64 {
            r.shards.iter().map(f).sum()
        };
        let dispatched = sum(&after, |s| s.dispatched) - sum(&before, |s| s.dispatched);
        let shed = sum(&after, |s| s.shed) - sum(&before, |s| s.shed);
        out.put("batcher.batches_per_s", batches as f64 / elapsed, batches);
        out.put("batcher.mean_batch_items", batched as f64 / batches.max(1) as f64, batches);
        out.put(
            "batcher.shed_share",
            shed as f64 / (dispatched + shed).max(1) as f64,
            dispatched + shed,
        );
        out.put("batcher.queue_depth_max", queue_depth_max as f64, 1);
        let names = [
            ("server.loop_busy_share", "server.loop_runq_wait_share"),
            ("batcher.worker_busy_share", "batcher.worker_runq_wait_share"),
        ];
        for ((busy, waited), (b, a)) in
            names.into_iter().zip(sched_before.into_iter().zip(sched_after))
        {
            if let (Some((run_b, wait_b)), Some((run_a, wait_a))) = (b, a) {
                out.put(busy, (run_a - run_b) as f64 / 1e9 / elapsed, 1);
                out.put(waited, (wait_a - wait_b) as f64 / 1e9 / elapsed, 1);
            }
        }
    }

    // ---- sockets: the rate ladder, or the publish phase ----
    if spec.publishes {
        checks_ok &= publish_phase(
            spec, args, &served, &mut conns, &pool, &mut rng, clock, tracer, &mut out,
        );
    } else {
        checks_ok &= rate_ladder(
            spec, args, &mut conns, &pool, &expected, &mut rng, clock, &mut judge, &mut out,
        );
    }
    drop(conns);

    // ---- in-process replay ----
    // A publish phase moves the served snapshot on; replay and the direct
    // calls work against whatever is being served now.
    let live = served.manager.load();
    // In the live phases the generator busy-polls, so the server's
    // threads hand work to each other without ever waking an idle core —
    // and a wake into an idle virtual core costs ~20 us here, several
    // times the whole hand-off. The replay keeps every core out of idle
    // the same way, with one yielding stand-in poller per core.
    let stop = AtomicBool::new(false);
    checks_ok &= std::thread::scope(|scope| {
        for _ in 0..std::thread::available_parallelism().map_or(1, |n| n.get()) {
            scope.spawn(|| {
                while !stop.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            });
        }
        let ok = replay(spec, &served, &live, &pool, tracer, &mut out);
        stop.store(true, Ordering::Release);
        ok
    });
    reconcile(&mut out, &pool, &one.samples, tracer.spans(), health_rtt.p50_us);

    // ---- direct calls into the layers no request reaches ----
    direct_calls(args, &served, &live, &mut out);

    out.correct = checks_ok && out.failed() == 0;
    out
}

/// Does the in-process stage sum explain the live round trip? Per endpoint
/// (a mix of fast and slow request kinds has no meaningful overall
/// median): the replay's `request` span p50 plus the `Health` round trip —
/// the socket → loop → flush cost every request pays — over the
/// one-in-flight round trip p50, then averaged by request count.
fn reconcile(
    out: &mut Outcome,
    pool: &RequestPool,
    live: &[Sample],
    spans: &[Span],
    health_us: f64,
) {
    let (mut ratio_sum, mut overhead_sum, mut weight) = (0.0, 0.0, 0.0);
    for endpoint in SCORING_ENDPOINTS {
        let is = |pool_idx: usize| pool.requests[pool_idx].endpoint_name() == endpoint;
        let mut client: Vec<u64> =
            live.iter().filter(|s| is(s.pool_idx as usize)).map(Sample::latency_ns).collect();
        let mut replayed: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == "request" && is(s.request as usize - 1))
            .map(Span::duration_ns)
            .collect();
        if client.len() < 20 || replayed.len() < 20 {
            continue;
        }
        let (client_us, replay_us) =
            (p50(&mut client) as f64 / 1e3, p50(&mut replayed) as f64 / 1e3);
        let n = client.len() as f64;
        ratio_sum += n * (replay_us + health_us) / client_us;
        overhead_sum += n * (client_us - replay_us);
        weight += n;
        out.notes.push(format!(
            "reconcile {endpoint}: in-process request span p50 {replay_us:.1} us + health rtt {health_us:.1} us vs one-in-flight rtt {client_us:.1} us"
        ));
    }
    if weight > 0.0 {
        out.put("server.reconcile_ratio", ratio_sum / weight, weight as u64);
        out.put("server.io_overhead_us", overhead_sum / weight, weight as u64);
    }
}

const SCORING_ENDPOINTS: [&str; 5] =
    ["score_new_arrival", "score_warm_item", "score", "topk", "topk_all"];

/// Server-side histogram p50 over exact client p50, per endpoint with
/// traffic, averaged. The server stops its clock before the reply reaches
/// the socket, so values sit below 1; how far below is the cross-check.
fn telemetry_skew(out: &mut Outcome, served: &Served, pool: &RequestPool, samples: &[Sample]) {
    let report = served.handle.telemetry().report(0);
    let mut skews = Vec::new();
    for endpoint in SCORING_ENDPOINTS {
        let mut client: Vec<u64> = samples
            .iter()
            .filter(|s| pool.requests[s.pool_idx as usize].endpoint_name() == endpoint)
            .map(Sample::latency_ns)
            .collect();
        let server = report.endpoint(endpoint).map_or(0, |e| e.p50_ns);
        if client.len() >= 20 && server > 0 {
            let client_p50 = p50(&mut client);
            skews.push(server as f64 / client_p50 as f64);
            out.notes.push(format!(
                "telemetry {endpoint}: server histogram p50 {:.1} us vs exact client p50 {:.1} us over {} requests",
                server as f64 / 1e3,
                client_p50 as f64 / 1e3,
                client.len()
            ));
        }
    }
    if !skews.is_empty() {
        out.put(
            "telemetry.p50_skew",
            skews.iter().sum::<f64>() / skews.len() as f64,
            skews.len() as u64,
        );
    }
}

/// Open-loop steps at rising multiples of the frozen rate, up to the first
/// that misses; the knee is the highest rate, linearly interpolated on
/// p99, that still meets the limit with no failure, no growing backlog
/// and a generator that held its schedule.
#[allow(clippy::too_many_arguments)]
fn rate_ladder(
    spec: &ServingSpec,
    args: &RunArgs,
    conns: &mut [loadgen::Conn],
    pool: &RequestPool,
    expected: &[bytes::Bytes],
    rng: &mut Rng64,
    clock: Clock,
    judge: &mut Judge,
    out: &mut Outcome,
) -> bool {
    let step_ns = (args.seconds * LADDER_STEP_SHARE * 1e9) as u64;
    let limit_us = spec.limit_us as f64;
    // (rate, p99 us, passed)
    let mut steps: Vec<(f64, f64, bool)> = Vec::new();
    let mut ok = true;
    for factor in LADDER {
        let rate = spec.rate_rps * factor;
        let schedule = poisson_schedule(rate, step_ns, 0, pool.len(), rng);
        let t0 = clock.now_ns() + 1_000_000;
        let open = match loadgen::open_loop(
            conns,
            pool,
            &schedule,
            t0,
            3_000_000_000,
            Observe { clock, expected: Some(expected), tracer: None },
        ) {
            Ok(open) => open,
            Err(e) => {
                out.notes.push(format!("ladder step at {rate:.0} rps failed: {e}"));
                return false;
            }
        };
        let verdicts = judge.judge(pool, &open.samples);
        let counts = tally("rate_ladder", &verdicts);
        ok &= counts.failed == 0 && counts.shed == 0;
        merge_phase(out, counts.clone());
        let pct = percentiles(open.samples.iter());
        let honest = honesty(&open.samples, &[], &open.inflight_by_window);
        if factor == 1.0 {
            out.put("server.open_loop_p99_us", pct.p99_us, pct.n);
            out.put(
                "server.stall_share",
                1.0 - ok_share(spec.stall_us, &open.samples, &verdicts),
                pct.n,
            );
        }
        // A step holds a few hundred sends at the low rates; two late ones
        // must not read as a generator that lost its schedule.
        let few_late = honest.late_share * open.samples.len() as f64 <= 3.0;
        let passed = pct.p99_us <= limit_us
            && counts.failed == 0
            && counts.shed == 0
            && (honest.valid() || (few_late && !honest.backlog_grew));
        out.notes.push(format!(
            "ladder {:>4.0}% = {:>7.0} rps: p50 {:>8.1} us, p90 {:>8.1} us, p99 {:>9.1} us, late_share {:.4}, {}",
            factor * 100.0,
            rate,
            pct.p50_us,
            pct.p90_us,
            pct.p99_us,
            honest.late_share,
            if passed { "meets the limit" } else { "misses" }
        ));
        steps.push((rate, pct.p99_us, passed));
        if !passed {
            break;
        }
    }
    let first_miss = steps.iter().position(|s| !s.2);
    let knee = match first_miss {
        None => steps.last().map_or(0.0, |s| s.0),
        Some(0) => 0.0,
        Some(i) => {
            let (r1, p1, _) = steps[i - 1];
            let (r2, p2, _) = steps[i];
            if p2 > limit_us && p2 > p1 {
                r1 + (r2 - r1) * ((limit_us - p1) / (p2 - p1)).clamp(0.0, 1.0)
            } else {
                r1
            }
        }
    };
    out.put("server.knee_rps", knee, steps.len() as u64);
    if first_miss.is_none() {
        out.notes.push(format!("knee lies above the ladder's top step ({knee:.0} rps)"));
    }
    ok
}

/// `publish_under_load`'s open-loop phase with the publisher beside it,
/// client spans on: the under-load publish costs as per-layer numbers.
#[allow(clippy::too_many_arguments)]
fn publish_phase(
    spec: &ServingSpec,
    args: &RunArgs,
    served: &Served,
    conns: &mut [loadgen::Conn],
    pool: &RequestPool,
    rng: &mut Rng64,
    clock: Clock,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> bool {
    let timeline = Timeline::of(spec, args.seconds);
    let schedule = poisson_schedule(spec.rate_rps, timeline.total_ns(), 0, pool.len(), rng);
    let boot = served.manager.load();
    let t0 = clock.now_ns() + 1_000_000;
    let plan = timeline.publish_plan(t0, args.seed);
    let observe = Observe { clock, expected: None, tracer: Some(tracer) };
    let (open, log) = open_phase(served, conns, pool, &schedule, t0, Some(plan), observe);
    let (open, log) = match (open, log) {
        (Ok(open), Some(log)) => (open, log),
        (open, _) => {
            out.notes.push(format!("publish phase failed: {:?}", open.err()));
            return false;
        }
    };
    let mut judge = Judge::new(boot, served.warm_below, pool.len(), Some(&log));
    let verdicts = judge.judge(pool, &open.samples);
    out.phases.push(tally("publish_phase", &verdicts));
    let (delta_from, rebuild_from) = timeline.split(&open.samples, t0);
    out.put(
        "server.stall_share",
        1.0 - ok_share(
            spec.stall_us,
            &open.samples[delta_from..rebuild_from],
            &verdicts[delta_from..rebuild_from],
        ),
        (rebuild_from - delta_from) as u64,
    );
    let delta_ms = delta_publish_ms(&log);
    out.put("manager.publish_delta_ms", median(&delta_ms), delta_ms.len() as u64);
    if let Some(full) = log.events.iter().find(|e| e.is_full()) {
        out.put("manager.publish_full_s", full.seconds(), 1);
    }
    let rebuilds = log.events.iter().filter(|e| e.rebuilt_index()).count();
    out.put("ann.index_rebuilds", rebuilds as f64, log.events.len() as u64);
    describe_publishes(out, served, &log, args.seed, t0 + timeline.total_ns())
}

/// Fires `scatter`/`scatter_topk` and blocks until its `done` ran. The
/// caller sleeps while the shard worker computes, as the server's event
/// loop does in `epoll_wait`, so the span holds the same two thread
/// hand-offs a live request pays (a spinning caller would keep its core
/// and force the worker to be woken on the other one, which costs more).
fn wait_for<T: Send + 'static>(start: impl FnOnce(Box<dyn FnOnce(T) + Send>)) -> T {
    let (tx, rx) = std::sync::mpsc::sync_channel(1);
    start(Box::new(move |value| {
        // The receiver outlives the call; a send can only fail if it panicked.
        let _ = tx.send(value);
    }));
    rx.recv().expect("the shard fleet always completes a scatter")
}

/// The f32 or int8 tables of a snapshot, for direct row dots.
enum Rows<'a> {
    F32(&'a CowMatrix, &'a CowMatrix),
    Int8(
        &'a CowQuantMatrix,
        &'a CowQuantMatrix,
        atnn_tensor::PreparedQuery,
        atnn_tensor::PreparedQuery,
    ),
}

impl Rows<'_> {
    fn of(snapshot: &ModelSnapshot) -> Rows<'_> {
        let q = snapshot.index.mean_user_vec();
        match (snapshot.cold_vecs(), snapshot.warm_vecs(), snapshot.quant_tables()) {
            (Some(cold), Some(warm), _) => Rows::F32(cold, warm),
            (_, _, Some((cold, warm))) => Rows::Int8(cold, warm, cold.prepare(q), warm.prepare(q)),
            _ => unreachable!("a snapshot holds f32 or int8 tables"),
        }
    }

    fn span_name(&self) -> &'static str {
        match self {
            Rows::F32(..) => "tensor.f32_row_dot",
            Rows::Int8(..) => "tensor.i8_row_dot",
        }
    }

    /// Sum of the raw dots of `ids` against the mean user vector.
    fn dots(&self, query: &[f32], path: ScorePath, ids: &[u32]) -> f32 {
        match (self, path) {
            (Rows::F32(cold, _), ScorePath::Cold) => {
                ids.iter().map(|&i| dot(cold.row(i as usize), query)).sum()
            }
            (Rows::F32(_, warm), ScorePath::Warm) => {
                ids.iter().map(|&i| dot(warm.row(i as usize), query)).sum()
            }
            (Rows::Int8(cold, _, prep, _), ScorePath::Cold) => {
                ids.iter().map(|&i| cold.dot_prepared(i as usize, prep)).sum()
            }
            (Rows::Int8(_, warm, _, prep), ScorePath::Warm) => {
                ids.iter().map(|&i| warm.dot_prepared(i as usize, prep)).sum()
            }
        }
    }
}

/// Replays sampled requests through the server's public calls in-process,
/// one span per layer boundary, then derives the span-based metrics.
fn replay(
    spec: &ServingSpec,
    served: &Served,
    live: &Arc<ModelSnapshot>,
    pool: &RequestPool,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> bool {
    let count = match spec.mix {
        Mix::Point => 3_000,
        Mix::TopK => 600,
    }
    .min(pool.len());
    // A replica of the server's plumbing over the same manager: own
    // router (warmed the same way), own telemetry, own shard fleet.
    let router = PolicyRouter::new(served.catalog.num_items(), WARM_THRESHOLD);
    for id in 0..served.warm_below {
        for _ in 0..WARM_THRESHOLD {
            router.record(id);
        }
    }
    let manager = &served.manager;
    let telemetry = Arc::new(Telemetry::with_shards(1));
    let shards = Arc::new(ShardSet::start(&serve_config(spec.precision), manager, &telemetry));
    let rows = Rows::of(live);
    let query = live.index.mean_user_vec().to_vec();
    let probed_ids = probed_candidates(live);
    let oracle = Oracle::new(Arc::clone(live), served.warm_below, pool.len());
    let first_span = tracer.len();

    let mut reader = FrameReader::new();
    let mut wrong = 0u64;
    let mut scattered = 0u64;
    for (i, request) in pool.requests.iter().take(count).enumerate() {
        let rid = i as u32 + 1;
        let root = tracer.open("request", 0, rid, false);
        let frame = tracer.time("protocol.request_encode", root, rid, false, || {
            let payload = request.encode();
            let mut frame = Vec::with_capacity(payload.len() + 4);
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&payload);
            frame
        });
        let payload = tracer.time("protocol.frame_read", root, rid, false, || {
            match reader.read_frame(&mut Cursor::new(&frame[..])) {
                Ok(FrameRead::Frame(payload)) => payload,
                other => panic!("a whole frame reads back as a frame, got {other:?}"),
            }
        });
        let decoded = tracer.time("protocol.request_decode", root, rid, false, || {
            Request::decode(payload).expect("a frame the benchmark encoded decodes")
        });

        // What the scatter hid, to be re-run directly once the root closes.
        let mut shadow_parts: Vec<(ScorePath, Vec<u32>)> = Vec::new();
        let mut shadow_probe: Option<usize> = None;
        let scatter_span;
        let response = match decoded {
            Request::TopKAll { k } => {
                scatter_span = tracer.open("shard.scatter_topk", root, rid, false);
                let set = Arc::clone(&shards);
                let outcome = wait_for(move |done| set.scatter_topk(k as usize, done));
                tracer.close(scatter_span);
                shadow_probe = Some(k as usize);
                tracer.time("server.respond", root, rid, false, || match outcome {
                    TopKOutcome::Winners(winners) => Response::TopK(
                        winners
                            .into_iter()
                            .map(|(id, d)| (id, live.index.score_from_dot(d)))
                            .collect(),
                    ),
                    TopKOutcome::Overloaded => Response::Overloaded,
                    TopKOutcome::Error(msg) => Response::Error(msg),
                })
            }
            other => {
                let (items, k, kind) = match other {
                    Request::ScoreNewArrival { items } => (items, 0, Some(ScorePath::Cold)),
                    Request::ScoreWarmItem { items } => (items, 0, Some(ScorePath::Warm)),
                    Request::Score { items } => (items, 0, None),
                    Request::TopK { items, k } => (items, k, None),
                    _ => unreachable!("pools hold only scoring requests"),
                };
                let (parts, warm_flags): (Vec<(ScorePath, SlottedItems)>, Vec<bool>) = match kind {
                    Some(path) => tracer.time("server.slot_items", root, rid, false, || {
                        (vec![(path, items.iter().copied().enumerate().collect())], Vec::new())
                    }),
                    None => tracer.time("router.split", root, rid, false, || {
                        let (cold, warm) = router.split(&items);
                        let mut flags = vec![false; items.len()];
                        for &(slot, _) in &warm {
                            flags[slot] = true;
                        }
                        (vec![(ScorePath::Cold, cold), (ScorePath::Warm, warm)], flags)
                    }),
                };
                for (path, slotted) in &parts {
                    if !slotted.is_empty() {
                        shadow_parts.push((*path, slotted.iter().map(|&(_, id)| id).collect()));
                    }
                }
                let n = items.len();
                scatter_span = tracer.open("shard.scatter", root, rid, false);
                let set = Arc::clone(&shards);
                let outcome = wait_for(move |done| set.scatter(parts, n, done));
                tracer.close(scatter_span);
                tracer.time("server.respond", root, rid, false, || match outcome {
                    ScatterOutcome::Scores(scores) => match (kind, k) {
                        (Some(_), _) => Response::Scores(scores),
                        (None, 0) => Response::RoutedScores { scores, warm: warm_flags },
                        (None, k) => Response::TopK(atnn_ann::topk_select(
                            items.into_iter().zip(scores),
                            k as usize,
                        )),
                    },
                    ScatterOutcome::Overloaded => Response::Overloaded,
                    ScatterOutcome::Error(msg) => Response::Error(msg),
                })
            }
        };
        scattered += 1;
        let reply_frame = tracer.time("protocol.response_encode", root, rid, false, || {
            let mut buf = Vec::new();
            write_frame(&mut buf, &response.encode()).expect("writing into a Vec cannot fail");
            buf
        });
        let reply = tracer.time("protocol.response_decode", root, rid, false, || {
            match reader.read_frame(&mut Cursor::new(&reply_frame[..])) {
                Ok(FrameRead::Frame(payload)) => Response::decode(payload),
                other => panic!("a whole frame reads back as a frame, got {other:?}"),
            }
        });
        tracer.close(root);
        wrong += u64::from(!matches!(&reply, Ok(r) if *r == oracle.answer(request)));

        // Shadows: the same compute, called directly, timed off the root.
        for (path, ids) in &shadow_parts {
            let name = match path {
                ScorePath::Cold => "manager.score_cold",
                ScorePath::Warm => "manager.score_warm",
            };
            let span = tracer.open(name, scatter_span, rid, true);
            std::hint::black_box(match path {
                ScorePath::Cold => live.score_cold(ids),
                ScorePath::Warm => live.score_warm(ids),
            });
            tracer.close(span);
            tracer.time(rows.span_name(), span, rid, true, || {
                std::hint::black_box(rows.dots(&query, *path, ids))
            });
        }
        if let Some(k) = shadow_probe {
            let span = tracer.open("manager.topk_dots", scatter_span, rid, true);
            std::hint::black_box(live.topk_dots(k, NPROBE, &|_| true));
            tracer.close(span);
            let probe = tracer.open("ann.probe", span, rid, true);
            std::hint::black_box(live.ann().topk_filtered(&query, k, NPROBE, &|_| true));
            tracer.close(probe);
            tracer.time(rows.span_name(), probe, rid, true, || {
                std::hint::black_box(rows.dots(&query, ScorePath::Cold, &probed_ids))
            });
        }
    }
    let dispatched: u64 = telemetry.report(0).shards.iter().map(|s| s.dispatched).sum();
    shards.shutdown();
    manager.unregister_shard_cells(shards.cells());

    out.phases.push(PhaseCounts {
        phase: "replay",
        sent: count as u64,
        succeeded: count as u64 - wrong,
        shed: 0,
        failed: wrong,
    });

    // ---- span-derived metrics ----
    let spans = &tracer.spans()[first_span..];
    // Span ids are global; self times need the whole list, so index back.
    let self_all = trace::self_times_ns(tracer.spans());
    let selfs = &self_all[first_span..];
    for (metric, span) in [
        ("protocol.request_encode_ns", "protocol.request_encode"),
        ("protocol.frame_read_ns", "protocol.frame_read"),
        ("protocol.request_decode_ns", "protocol.request_decode"),
        ("protocol.response_encode_ns", "protocol.response_encode"),
        ("protocol.response_decode_ns", "protocol.response_decode"),
    ] {
        let (v, n) = p50_of(spans, span);
        out.put(metric, v, n);
    }
    let items_of = |rid: u32| -> usize {
        match &pool.requests[rid as usize - 1] {
            Request::ScoreNewArrival { items }
            | Request::ScoreWarmItem { items }
            | Request::Score { items }
            | Request::TopK { items, .. } => items.len(),
            _ => 0,
        }
    };
    let per_item = |name: &str, items: &dyn Fn(&Span) -> usize| -> (f64, u64) {
        let (ns, n) = spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0usize), |(ns, n), s| (ns + s.duration_ns(), n + items(s)));
        (ns as f64 / n.max(1) as f64, n as u64)
    };
    let (v, n) = per_item("router.split", &|s| items_of(s.request));
    out.put("router.split_ns_per_item", v, n);
    // A score span covers one path's share of its request; count the ids
    // it actually scored from the routed split.
    let path_items = |s: &Span, warm: bool| -> usize {
        match &pool.requests[s.request as usize - 1] {
            Request::ScoreNewArrival { items } if !warm => items.len(),
            Request::ScoreWarmItem { items } if warm => items.len(),
            Request::Score { items } | Request::TopK { items, .. } => {
                items.iter().filter(|&&i| (i < served.warm_below) == warm).count()
            }
            _ => 0,
        }
    };
    let (v, n) = per_item("manager.score_cold", &|s| path_items(s, false));
    out.put("manager.score_cold_ns_per_item", v, n);
    let (v, n) = per_item("manager.score_warm", &|s| path_items(s, true));
    out.put("manager.score_warm_ns_per_item", v, n);

    let (v, n) = p50_of(spans, "shard.scatter");
    out.put("shard.scatter_us", v / 1e3, n);
    let (v, n) = p50_of(spans, "shard.scatter_topk");
    out.put("shard.scatter_topk_us", v / 1e3, n);
    out.put("shard.dispatch_per_request", dispatched as f64 / scattered.max(1) as f64, scattered);
    let mut waits: Vec<u64> = spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name.starts_with("shard.scatter"))
        .map(|(_, &t)| t)
        .collect();
    let waits_n = waits.len() as u64;
    out.put("batcher.wait_us", p50(&mut waits) as f64 / 1e3, waits_n);
    let (v, n) = p50_of(spans, "manager.topk_dots");
    out.put("manager.topk_dots_us", v / 1e3, n);

    let request_ns: u64 = spans.iter().filter(|s| s.name == "request").map(Span::duration_ns).sum();
    let compute_ns = trace::self_time_sum_ns(spans, selfs, &["manager.", "ann.", "tensor."]);
    out.put("trace.compute_share", compute_ns as f64 / request_ns.max(1) as f64, count as u64);
    let by_layer: Vec<String> =
        ["protocol.", "router.", "server.", "shard.", "manager.", "ann.", "tensor."]
            .iter()
            .map(|layer| {
                let ns = trace::self_time_sum_ns(spans, selfs, &[layer]);
                format!("{layer}* {:.1}%", ns as f64 / request_ns.max(1) as f64 * 100.0)
            })
            .collect();
    out.notes.push(format!(
        "replay of {count} requests: self time as a share of the request spans: {} (shard.* is queue wait and thread hand-off; manager/ann/tensor are the shadow compute)",
        by_layer.join(", ")
    ));
    wrong == 0
}

/// Ids the one `TopKAll` query actually scores (the members of its
/// `NPROBE` nearest lists), captured through the filter callback.
fn probed_candidates(snapshot: &ModelSnapshot) -> Vec<u32> {
    let seen = std::cell::RefCell::new(Vec::new());
    snapshot.topk_dots(10, NPROBE, &|id| {
        seen.borrow_mut().push(id);
        true
    });
    seen.into_inner()
}

/// Layer functions no request reaches: the publish path, index build,
/// table scans, embedding.
fn direct_calls(args: &RunArgs, served: &Served, live: &Arc<ModelSnapshot>, out: &mut Outcome) {
    let cat = &served.catalog;
    let n = cat.num_items();
    let query = live.index.mean_user_vec();
    let changed = strided_ids(n, args.seed);

    // ---- ann: the probe, alone ----
    let candidates = probed_candidates(live).len() as f64;
    let mut probe_ns: Vec<u64> = (0..50)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(live.ann().topk_filtered(query, 10, NPROBE, &|_| true));
            t.elapsed().as_nanos() as u64
        })
        .collect();
    let probe_p50 = p50(&mut probe_ns);
    out.put("ann.probe_us", probe_p50 as f64 / 1e3, 50);
    out.put("ann.candidates_per_query", candidates, 1);
    out.put("ann.candidates_per_us", candidates / (probe_p50 as f64 / 1e3), 50);
    out.put("ann.recall_at_10", serving::served_retrieval(live, 10).recall, 10);

    // ---- f32 and int8 forms of the cold table, whichever is served ----
    let cold_f32: Matrix = match (live.cold_vecs(), live.quant_tables()) {
        (Some(cold), _) => cold.to_matrix(),
        (None, Some((cold, _))) => cold.dequantize(),
        (None, None) => unreachable!("a snapshot holds f32 or int8 tables"),
    };
    let cow = CowMatrix::from_matrix(&cold_f32);
    let quant = CowQuantMatrix::from_quantized(&QuantizedMatrix::from_matrix(&cold_f32));
    let prep = quant.prepare(query);
    let mut rng = Rng64::seed_from_u64(args.seed ^ 0xD07);
    let ids: Vec<usize> = (0..200_000).map(|_| rng.index(n)).collect();
    let t = Instant::now();
    let mut acc = 0.0f32;
    for &i in &ids {
        acc += dot(cow.row(i), query);
    }
    out.put(
        "tensor.f32_row_dot_ns",
        t.elapsed().as_nanos() as f64 / ids.len() as f64,
        ids.len() as u64,
    );
    let t = Instant::now();
    for &i in &ids {
        acc += quant.dot_prepared(i, &prep);
    }
    out.put(
        "tensor.i8_row_dot_ns",
        t.elapsed().as_nanos() as f64 / ids.len() as f64,
        ids.len() as u64,
    );
    let t = Instant::now();
    for i in 0..n {
        acc += quant.dot_prepared(i, &prep);
    }
    out.put(
        "tensor.i8_scan_gbps",
        quant.storage_bytes() as f64 / t.elapsed().as_secs_f64() / 1e9,
        n as u64,
    );
    std::hint::black_box(acc);
    out.notes.push(format!(
        "tensor.i8_scan_gbps: computed bytes ({} table bytes over {n} rows) / scan time, not a measured bandwidth",
        quant.storage_bytes()
    ));

    // ---- core/data: re-embed the changed rows with model B ----
    let t = Instant::now();
    for chunk in changed.chunks(512) {
        std::hint::black_box(cat.data.encode_item_profiles(chunk));
    }
    out.put(
        "data.encode_profiles_ns_per_row",
        t.elapsed().as_nanos() as f64 / changed.len() as f64,
        changed.len() as u64,
    );
    let dim = cat.model_b.config().vec_dim;
    let mut delta_cold = Matrix::zeros(changed.len(), dim);
    let t = Instant::now();
    for (c, chunk) in changed.chunks(512).enumerate() {
        let profile = cat.data.encode_item_profiles(chunk);
        let stats = cat.data.encode_item_stats(chunk);
        let cold = cat.model_b.item_vectors_generated(&profile);
        std::hint::black_box(cat.model_b.item_vectors_full(&profile, &stats));
        for i in 0..chunk.len() {
            delta_cold.row_mut(c * 512 + i).copy_from_slice(cold.row(i));
        }
    }
    out.put(
        "core.embed_rows_per_s",
        changed.len() as f64 / t.elapsed().as_secs_f64(),
        changed.len() as u64,
    );
    let (gflops, reps) = gemm_gflops(512, 128, 64);
    out.put("tensor.gemm_gflops", gflops, reps);
    out.notes.push(
        "tensor.gemm_gflops: 512x128x64 matmul (a re-embed batch), FLOPs computed as 2*m*k*n"
            .to_string(),
    );

    // ---- tensor: COW patch and in-place requantize of those rows ----
    let t = Instant::now();
    let mut patched = cow.clone();
    patched.update_rows(&changed, &delta_cold);
    out.put(
        "tensor.cow_update_rows_per_s",
        changed.len() as f64 / t.elapsed().as_secs_f64(),
        changed.len() as u64,
    );
    let t = Instant::now();
    let mut requantized = quant.clone();
    requantized.requantize_rows(&changed, &delta_cold);
    out.put(
        "tensor.requantize_rows_per_s",
        changed.len() as f64 / t.elapsed().as_secs_f64(),
        changed.len() as u64,
    );
    std::hint::black_box((&patched, &requantized));

    // ---- ann: frozen-centroid reassign, and a build from scratch ----
    let mut index = live.ann().clone();
    let t = Instant::now();
    let moved = index.reassign(&changed, &delta_cold);
    out.put(
        "ann.reassign_rows_per_s",
        changed.len() as f64 / t.elapsed().as_secs_f64(),
        changed.len() as u64,
    );
    out.put("ann.moved_share", moved as f64 / changed.len() as f64, changed.len() as u64);
    let t = Instant::now();
    std::hint::black_box(IvfFlatIndex::build(Arc::new(cold_f32), IvfParams::for_items(n)));
    out.put("ann.build_s", t.elapsed().as_secs_f64(), 1);

    // ---- manager: delta build, chunk sharing, the swap itself ----
    let mut build_ms = Vec::new();
    let mut deltas = Vec::new();
    for v in 0..3u64 {
        let (snapshot, report) = ModelSnapshot::delta_from(
            live,
            100 + v,
            Arc::clone(&cat.model_b),
            cat.index_b.clone(),
            &changed,
        )
        .expect("delta over the served catalogue");
        build_ms.push(report.build_seconds * 1e3);
        deltas.push(snapshot);
    }
    out.put("manager.delta_build_ms", median(&build_ms), build_ms.len() as u64);
    let first = &deltas[0];
    let (shared, chunks) =
        match (first.cold_vecs(), live.cold_vecs(), first.quant_tables(), live.quant_tables()) {
            (Some(new), Some(old), _, _) => (new.shared_chunks_with(old), new.chunk_count()),
            (_, _, Some((new, _)), Some((old, _))) => {
                (new.shared_chunks_with(old), new.chunk_count())
            }
            _ => (0, 1),
        };
    out.put("manager.shared_chunk_share", shared as f64 / chunks as f64, chunks as u64);
    let mut deltas = deltas.into_iter();
    let scratch = ModelManager::new(deltas.next().expect("three deltas were built"));
    let _cell = scratch.register_shard_cell();
    let mut swap_ns = Vec::new();
    for snapshot in deltas {
        let t = Instant::now();
        scratch.publish(snapshot).expect("same catalogue");
        swap_ns.push(t.elapsed().as_nanos() as u64);
    }
    let swaps = swap_ns.len() as u64;
    out.put("manager.swap_us", p50(&mut swap_ns) as f64 / 1e3, swaps);
}
