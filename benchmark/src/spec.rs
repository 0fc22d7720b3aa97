//! The benchmark's fixed definition: workloads, rates, limits and the
//! metric tables. `BENCHMARK.json` at the repository root mirrors these
//! tables (a unit test keeps the two in step); later changes are judged
//! against them, so nothing here is a tunable.

use atnn_serve::Precision;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named metric. `bound` is the share of the parent's median by which
/// an end-to-end metric may worsen before it counts as a regression;
/// per-layer metrics carry none.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// End-to-end metrics. Every workload reports every one of them; what a
/// shared name measures on each workload is in [`meaning`].
/// Bounds were derived from repeated runs on the reference box
/// (`results/*.json`, three sets of ten seeds): each is three to five times
/// the widest inter-quartile spread seen for that metric on any workload in
/// any set (the README tabulates them) — `latency_p90_us` sits at the
/// contract's cap of 0.25, 2.2 times its widest — and `setup_s` carries the
/// largest because the driver's contract says it must.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("throughput_per_s", "1/s", Higher, 0.15),
    e2e("latency_p50_us", "us", Lower, 0.15),
    e2e("latency_p90_us", "us", Lower, 0.25),
    e2e("ok_share", "ratio", Higher, 0.006),
    e2e("quality", "ratio", Higher, 0.01),
    e2e("peak_rss_mb", "MB", Lower, 0.03),
];

/// What the shared end-to-end name `metric` measures on `workload`.
/// Printed beside the value on every run, so a result is never read
/// against another workload's definition.
pub fn meaning(workload: &str, metric: &str) -> &'static str {
    let serving = workload != "train_epoch";
    match (metric, workload) {
        ("setup_s", _) if serving => {
            "process start -> first request could be sent (data, models A and B, index, snapshot, server, warm router, connect)"
        }
        ("setup_s", _) => "process start -> first train step could run (dataset generation, model initialisation)",
        ("throughput_per_s", "publish_under_load") => {
            "rows patched per second of publish_delta wall time under load, median over the delta publishes"
        }
        ("throughput_per_s", _) if serving => "correct replies per second, saturation phase",
        ("throughput_per_s", _) => "interaction rows stepped per second of CtrTrainer::train",
        ("latency_p50_us", _) if serving => {
            "open-loop median from intended send time: each endpoint's median, averaged over the mix's endpoints"
        }
        ("latency_p50_us", _) => "median ctr.train_step wall time (<= 256 rows)",
        ("latency_p90_us", _) if serving => "open-loop 90th percentile, all endpoints pooled",
        ("latency_p90_us", _) => "90th-percentile train-step wall time",
        ("ok_share", "publish_under_load") => {
            "requests answered correctly within the limit / requests due, delta-publish and full-rebuild phases together"
        }
        ("ok_share", _) if serving => "open-loop requests answered correctly within the limit / requests due",
        ("ok_share", _) => "steps with finite losses within the step limit, and evaluations that repeat, / attempted",
        ("quality", "catalog_topk") => {
            "predicted popularity of the served TopKAll top-100 / that of the brute-force top-100 (one query per model: the same for every seed)"
        }
        ("quality", _) if serving => "AUC of the served new-arrival scores against truly-popular labels",
        ("quality", _) => "held-out evaluate_auc_generated, bit-exact per seed",
        ("peak_rss_mb", _) => "peak resident set of the process at exit",
        _ => "",
    }
}

/// Per-layer metrics, taken only in the traced run. A value of 0 means the
/// workload never calls that layer function (e.g. `protocol.*` on
/// `train_epoch`).
pub const PER_LAYER: &[MetricSpec] = &[
    layer("protocol.request_encode_ns", "ns", Lower),
    layer("protocol.frame_read_ns", "ns", Lower),
    layer("protocol.request_decode_ns", "ns", Lower),
    layer("protocol.response_encode_ns", "ns", Lower),
    layer("protocol.response_decode_ns", "ns", Lower),
    layer("server.health_rtt_us", "us", Lower),
    layer("server.rtt_1inflight_us", "us", Lower),
    layer("server.io_overhead_us", "us", Lower),
    layer("server.reconcile_ratio", "ratio", Higher),
    layer("server.knee_rps", "1/s", Higher),
    layer("server.open_loop_p99_us", "us", Lower),
    layer("server.stall_share", "ratio", Lower),
    layer("server.loop_busy_share", "ratio", Lower),
    layer("server.loop_runq_wait_share", "ratio", Lower),
    layer("router.split_ns_per_item", "ns", Lower),
    layer("shard.scatter_us", "us", Lower),
    layer("shard.scatter_topk_us", "us", Lower),
    layer("shard.dispatch_per_request", "count", Lower),
    layer("batcher.wait_us", "us", Lower),
    layer("batcher.mean_batch_items", "count", Higher),
    layer("batcher.batches_per_s", "1/s", Lower),
    layer("batcher.shed_share", "ratio", Lower),
    layer("batcher.queue_depth_max", "count", Lower),
    layer("batcher.worker_busy_share", "ratio", Lower),
    layer("batcher.worker_runq_wait_share", "ratio", Lower),
    layer("manager.score_cold_ns_per_item", "ns", Lower),
    layer("manager.score_warm_ns_per_item", "ns", Lower),
    layer("manager.topk_dots_us", "us", Lower),
    layer("manager.full_build_s", "s", Lower),
    layer("manager.delta_build_ms", "ms", Lower),
    layer("manager.swap_us", "us", Lower),
    layer("manager.snapshot_mb", "MB", Lower),
    layer("manager.shared_chunk_share", "ratio", Higher),
    layer("manager.publish_delta_ms", "ms", Lower),
    layer("manager.publish_full_s", "s", Lower),
    layer("ann.probe_us", "us", Lower),
    layer("ann.candidates_per_query", "count", Lower),
    layer("ann.candidates_per_us", "1/us", Higher),
    layer("ann.build_s", "s", Lower),
    layer("ann.reassign_rows_per_s", "1/s", Higher),
    layer("ann.moved_share", "ratio", Lower),
    layer("ann.index_rebuilds", "count", Lower),
    layer("ann.recall_at_10", "ratio", Higher),
    layer("tensor.f32_row_dot_ns", "ns", Lower),
    layer("tensor.i8_row_dot_ns", "ns", Lower),
    layer("tensor.i8_scan_gbps", "GB/s", Higher),
    layer("tensor.cow_update_rows_per_s", "1/s", Higher),
    layer("tensor.requantize_rows_per_s", "1/s", Higher),
    layer("tensor.gemm_gflops", "GFLOP/s", Higher),
    layer("core.embed_rows_per_s", "1/s", Higher),
    layer("core.popularity_index_build_s", "s", Lower),
    layer("core.gather_ns_per_row", "ns", Lower),
    layer("core.step_ns_per_row", "ns", Lower),
    layer("core.eval_rows_per_s", "1/s", Higher),
    layer("autograd.backward_share", "ratio", Lower),
    layer("autograd.nodes_per_step", "count", Lower),
    layer("data.generate_s", "s", Lower),
    layer("data.encode_profiles_ns_per_row", "ns", Lower),
    layer("telemetry.p50_skew", "ratio", Higher),
    layer("trace.compute_share", "ratio", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    layer("trace.spans", "count", Lower),
];

/// Looks a metric up in either table.
pub fn metric(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

// ---------------------------------------------------------------------------
// Catalogue and load shape shared by the three serving workloads
// ---------------------------------------------------------------------------

/// Items in the served catalogue: at `AtnnConfig::scaled()` (dim 16) each
/// f32 table is 12.8 MB, beyond this box's L2, so lookups miss cache the
/// way a production-sized table would.
pub const CATALOG_ITEMS: usize = 200_000;
/// Catalogue used by `--smoke`.
pub const SMOKE_CATALOG_ITEMS: usize = 20_000;
pub const CATALOG_USERS: usize = 1_500;
pub const CATALOG_INTERACTIONS: usize = 60_000;
/// The catalogue, model initialisation and training shuffle are fixed:
/// `TopKAll` has exactly one query per model (the mean user vector), so a
/// seed-dependent model would make probe cost — which lists that one query
/// hits — differ between seeds by more than any bound. `--seed` drives the
/// request stream instead.
pub const CATALOG_DATA_SEED: u64 = 7;

/// Client connections (= `nproc` on the reference box), each pipelined.
pub const CONNECTIONS: usize = 2;
/// The server's `max_pipeline`; the generator never exceeds it per
/// connection.
pub const MAX_PIPELINE: usize = 128;
/// A send issued later than this after its due time counts as late.
pub const LATE_SEND_NS: u64 = 100_000;
/// Above this share of late sends the run says nothing about the server
/// and is declared invalid.
pub const MAX_LATE_SHARE: f64 = 0.01;
/// `RecordInteractions` bumps per warmed item (the server's default
/// `warm_threshold`).
pub const WARM_THRESHOLD: u32 = 5;
/// IVF lists probed per `TopKAll`.
pub const NPROBE: usize = 8;
/// Items per scoring request on the point-lookup mix.
pub const POINT_ITEMS: usize = 8;
/// Candidates per `TopK` request on `catalog_topk`.
pub const TOPK_CANDIDATES: usize = 512;
/// Delta publishes are this far apart on `publish_under_load`.
pub const PUBLISH_EVERY_MS: u64 = 250;
/// Every `PUBLISH_STRIDE`-th id changes in a delta publish (1% of the
/// catalogue, maximally spread: the worst case for chunked COW tables).
pub const PUBLISH_STRIDE: usize = 100;

/// Shares of `--seconds` spent in each phase of a serving run.
pub const WARMUP_SHARE: f64 = 0.10;
pub const OPEN_SHARE: f64 = 0.55;
pub const SATURATION_SHARE: f64 = 0.35;
/// `publish_under_load` has no saturation phase: after warm-up this share
/// is the delta-publish phase the latency quantiles are taken from, and
/// the rest is the full-rebuild phase (a rebuild under load takes ≈ 5.3 s
/// on the reference box). Not more: assignment drift accumulates over the
/// delta publishes, and with a 50% share (40 deltas in a 20 s run) the
/// drift-triggered k-means rebuild fired on the 40th — in or out of the
/// phase by a hair. The 24 deltas of a 30% share stay clear of it.
pub const PUBLISH_DELTA_SHARE: f64 = 0.30;

/// Request mix of a serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 40% `ScoreNewArrival`, 40% `ScoreWarmItem`, 20% policy-routed
    /// `Score`; 8 uniform-random ids each.
    Point,
    /// 50% `TopKAll` (k alternating 10/100), 50% `TopK` k=10 over 512
    /// uniform candidates.
    TopK,
}

/// One serving workload's frozen parameters. Rates are ≈ 50% of the
/// saturation throughput calibrated once on the reference box (see the
/// README's calibration table).
#[derive(Debug, Clone, Copy)]
pub struct ServingSpec {
    pub name: &'static str,
    pub precision: Precision,
    pub mix: Mix,
    /// Open-loop arrival rate, requests per second.
    pub rate_rps: f64,
    /// A reply later than this (from its intended send time) is a miss in
    /// `ok_share`. ISSUE 11's limits.
    pub limit_us: u64,
    /// A reply later than this met a stall: the value sits between the body
    /// of the latency distribution and the stalls (batcher flush-deadline
    /// waits, scheduler slices, delta publishes) that make up its tail on
    /// the reference box. Feeds the per-layer `server.stall_share` only.
    pub stall_us: u64,
    /// Requests kept in flight per connection in the saturation phase.
    pub saturation_depth: usize,
    /// Whether a publisher thread runs beside the load.
    pub publishes: bool,
}

pub const POINT_SCORE: ServingSpec = ServingSpec {
    name: "point_score",
    precision: Precision::F32,
    mix: Mix::Point,
    rate_rps: 10_000.0,
    limit_us: 2_000,
    stall_us: 1_000,
    saturation_depth: 32,
    publishes: false,
};

pub const CATALOG_TOPK: ServingSpec = ServingSpec {
    name: "catalog_topk",
    precision: Precision::Int8,
    mix: Mix::TopK,
    rate_rps: 500.0,
    limit_us: 10_000,
    stall_us: 1_500,
    saturation_depth: 8,
    publishes: false,
};

pub const PUBLISH_UNDER_LOAD: ServingSpec = ServingSpec {
    name: "publish_under_load",
    precision: Precision::Int8,
    mix: Mix::Point,
    rate_rps: 5_000.0,
    limit_us: 5_000,
    stall_us: 1_000,
    saturation_depth: 32,
    publishes: true,
};

pub const SERVING: &[ServingSpec] = &[POINT_SCORE, CATALOG_TOPK, PUBLISH_UNDER_LOAD];

/// `train_epoch`: interaction rows stepped per second of `--seconds`. At
/// the registered 20 s that is the whole training split, 360,000 rows —
/// one real epoch, ≈ 8 s on the reference box.
pub const TRAIN_ROWS_PER_SECOND: usize = 18_000;
/// A train step slower than this (≈ twice the median step on the reference
/// box) is a miss in `train_epoch`'s `ok_share`.
pub const TRAIN_STEP_LIMIT_US: u64 = 10_000;
/// Share of the interaction log held out for `evaluate_auc_generated`.
pub const TRAIN_HELD_OUT_SHARE: f64 = 0.10;

/// Workload names with the reason each exists (mirrored into
/// `BENCHMARK.json`).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "point_score",
        "f32 point lookups, 8 ids per request: socket, framing, queue and batching are nearly all of the time; compute almost none",
    ),
    (
        "catalog_topk",
        "int8 IVF probes and 512-candidate rankings over the same tables: ann, quantized dots and the router dominate, the I/O plane is a small share",
    ),
    (
        "publish_under_load",
        "point lookups while a publisher patches the COW tables and inverted lists every 250 ms and then rebuilds in full: writes beside reads",
    ),
    (
        "train_epoch",
        "offline training and evaluation with no sockets: trainer, autograd, gemm and data encoding do everything, the serve crate nothing",
    ),
];
