//! Lock-cheap serving telemetry: per-endpoint counters and fixed-bucket
//! latency histograms, built on the `atnn-obs` instruments.
//!
//! Every counter is a relaxed atomic — a recording is a handful of
//! `fetch_add`s, with no lock anywhere on the request path. Latencies land
//! in [`atnn_obs::Histogram`] — the geometric fixed-bucket histogram
//! (factor-1.25 bucket bounds from 1 µs up) that originated in this module
//! and now lives in `atnn-obs` — from which any quantile is derivable;
//! p50/p95/p99 are exposed through the `Stats` endpoint as the matched
//! bucket's upper bound, so a reported quantile is always ≥ the true one
//! and within one bucket ratio of it. The re-base is observable only
//! through `atnn-obs` sinks (shed decisions also emit
//! [`atnn_obs::Event::Shed`]); `Stats` replies are bit-identical to the
//! pre-obs implementation, which `stats_report_is_bit_identical_to_the_
//! reference_histogram` pins against an independent serial reference.

use std::time::Duration;

use atnn_obs::{Counter, Event, Gauge, Histogram};

use crate::protocol::{EndpointStats, ShardStats, StatsReport};

/// The endpoints accounted separately. Indexes into [`Telemetry::per`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `Health` probes.
    Health,
    /// `Stats` snapshots.
    Stats,
    /// Forced cold-path scoring.
    ScoreNewArrival,
    /// Forced warm-path scoring.
    ScoreWarmItem,
    /// Policy-routed scoring.
    Score,
    /// Interaction-counter updates.
    RecordInteractions,
    /// Routed top-k ranking over explicit candidates.
    TopK,
    /// Catalogue-wide top-k retrieval through the ANN index.
    TopKAll,
    /// Frames that failed `Request::decode` — kept separate so malformed
    /// traffic doesn't pollute any real endpoint's counters.
    Malformed,
}

/// All endpoints, in display order.
pub const ENDPOINTS: [Endpoint; 9] = [
    Endpoint::Health,
    Endpoint::Stats,
    Endpoint::ScoreNewArrival,
    Endpoint::ScoreWarmItem,
    Endpoint::Score,
    Endpoint::RecordInteractions,
    Endpoint::TopK,
    Endpoint::TopKAll,
    Endpoint::Malformed,
];

impl Endpoint {
    /// Stable snake_case name (matches [`crate::protocol::Request::endpoint_name`]).
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Health => "health",
            Endpoint::Stats => "stats",
            Endpoint::ScoreNewArrival => "score_new_arrival",
            Endpoint::ScoreWarmItem => "score_warm_item",
            Endpoint::Score => "score",
            Endpoint::RecordInteractions => "record_interactions",
            Endpoint::TopK => "topk",
            Endpoint::TopKAll => "topk_all",
            Endpoint::Malformed => "malformed",
        }
    }

    fn index(self) -> usize {
        match self {
            Endpoint::Health => 0,
            Endpoint::Stats => 1,
            Endpoint::ScoreNewArrival => 2,
            Endpoint::ScoreWarmItem => 3,
            Endpoint::Score => 4,
            Endpoint::RecordInteractions => 5,
            Endpoint::TopK => 6,
            Endpoint::TopKAll => 7,
            Endpoint::Malformed => 8,
        }
    }
}

#[derive(Debug, Default)]
struct EndpointTelemetry {
    requests: Counter,
    errors: Counter,
    shed: Counter,
    latency: Histogram,
}

/// Per-shard batcher telemetry: one set of counters per catalogue shard,
/// so a hot or starved shard is visible in `Stats` instead of averaged
/// away into a server-wide number.
#[derive(Debug, Default)]
struct ShardTelemetry {
    /// Batched table passes this shard executed.
    batches: Counter,
    /// Items scored through this shard's batched passes.
    batched_items: Counter,
    /// Jobs the shard's queue accepted.
    dispatched: Counter,
    /// Jobs shed at the shard's queue bound.
    shed: Counter,
    /// Items waiting in the shard's queue, sampled at each transition.
    queue_depth: Gauge,
}

/// The server-wide telemetry sink.
#[derive(Debug)]
pub struct Telemetry {
    per: [EndpointTelemetry; ENDPOINTS.len()],
    shards: Vec<ShardTelemetry>,
    accept_errors: Counter,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::with_shards(1)
    }
}

impl Telemetry {
    /// Fresh, zeroed telemetry for a single-shard server.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Fresh telemetry with one batcher-counter set per catalogue shard.
    pub fn with_shards(shards: usize) -> Self {
        Telemetry {
            per: Default::default(),
            shards: (0..shards.max(1)).map(|_| ShardTelemetry::default()).collect(),
            accept_errors: Counter::new(),
        }
    }

    /// Number of shard counter sets.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Accounts one answered request.
    pub fn record_request(&self, endpoint: Endpoint, latency: Duration) {
        let e = &self.per[endpoint.index()];
        e.requests.incr();
        e.latency.record(latency);
    }

    /// Accounts an [`crate::protocol::Response::Error`] answer.
    pub fn record_error(&self, endpoint: Endpoint) {
        self.per[endpoint.index()].errors.incr();
    }

    /// Accounts an [`crate::protocol::Response::Overloaded`] answer, and
    /// surfaces the decision on the `atnn-obs` event stream.
    pub fn record_shed(&self, endpoint: Endpoint) {
        self.per[endpoint.index()].shed.incr();
        atnn_obs::emit(&Event::Shed { endpoint: endpoint.name().into() });
    }

    /// Accounts one batched table pass over `items` items on `shard`.
    pub fn record_batch(&self, shard: usize, items: usize) {
        let s = &self.shards[shard];
        s.batches.incr();
        s.batched_items.add(items as u64);
    }

    /// Accounts a job accepted into `shard`'s queue.
    pub fn record_shard_dispatch(&self, shard: usize) {
        self.shards[shard].dispatched.incr();
    }

    /// Accounts a job shed at `shard`'s queue bound (the endpoint-level
    /// shed is recorded separately via [`Telemetry::record_shed`]).
    pub fn record_shard_shed(&self, shard: usize) {
        self.shards[shard].shed.incr();
    }

    /// Publishes `shard`'s current queued-item count.
    pub fn set_queue_depth(&self, shard: usize, items: usize) {
        self.shards[shard].queue_depth.set(items as f64);
    }

    /// Accounts one failed `accept` call (each also triggers a backoff).
    pub fn record_accept_error(&self) {
        self.accept_errors.incr();
    }

    /// Failed `accept` calls so far.
    pub fn accept_errors(&self) -> u64 {
        self.accept_errors.get()
    }

    /// Requests recorded for `endpoint` so far.
    pub fn requests(&self, endpoint: Endpoint) -> u64 {
        self.per[endpoint.index()].requests.get()
    }

    /// Shed responses recorded for `endpoint` so far.
    pub fn sheds(&self, endpoint: Endpoint) -> u64 {
        self.per[endpoint.index()].shed.get()
    }

    /// A consistent-enough snapshot for the `Stats` endpoint (counters are
    /// read relaxed; exactness across endpoints is not required).
    pub fn report(&self, model_version: u64) -> StatsReport {
        let endpoints = ENDPOINTS
            .iter()
            .map(|&ep| {
                let e = &self.per[ep.index()];
                EndpointStats {
                    name: ep.name().to_string(),
                    requests: e.requests.get(),
                    errors: e.errors.get(),
                    shed: e.shed.get(),
                    p50_ns: e.latency.quantile_ns(0.50),
                    p95_ns: e.latency.quantile_ns(0.95),
                    p99_ns: e.latency.quantile_ns(0.99),
                }
            })
            .collect();
        let shards: Vec<ShardStats> = self
            .shards
            .iter()
            .map(|s| ShardStats {
                batches: s.batches.get(),
                batched_items: s.batched_items.get(),
                dispatched: s.dispatched.get(),
                shed: s.shed.get(),
                queue_depth: s.queue_depth.get() as u64,
            })
            .collect();
        StatsReport {
            model_version,
            batches: shards.iter().map(|s| s.batches).sum(),
            batched_items: shards.iter().map(|s| s.batched_items).sum(),
            accept_errors: self.accept_errors.get(),
            // Snapshot footprints and publish costs belong to the served
            // snapshot / process-wide publish gauges, not the telemetry
            // registry; the server's Stats handler fills them.
            snapshot_bytes: 0,
            snapshot_f32_bytes: 0,
            publishes_full: 0,
            publishes_delta: 0,
            last_full_build_seconds: 0.0,
            last_delta_build_seconds: 0.0,
            endpoints,
            shards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atnn_obs::BASE_NS;

    #[test]
    fn histogram_quantiles_bracket_the_samples() {
        let h = Histogram::default();
        // 100 samples: 1..=100 µs.
        for us in 1..=100u64 {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_ns(0.50);
        let p99 = h.quantile_ns(0.99);
        // Bucket bounds are ×1.25 apart: the reported bound is ≥ the true
        // quantile and < 1.25× the next sample above it.
        assert!((50_000..100_000).contains(&p50), "p50={p50}");
        assert!((99_000..198_000).contains(&p99), "p99={p99}");
        assert!(h.quantile_ns(1.0) >= 100_000);
    }

    #[test]
    fn histogram_handles_extremes() {
        let h = Histogram::default();
        assert_eq!(h.quantile_ns(0.5), 0, "empty histogram");
        h.record(Duration::from_nanos(1));
        h.record(Duration::from_secs(10_000)); // overflow bucket
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile_ns(0.25), BASE_NS);
        assert!(h.quantile_ns(1.0) >= 10_000_000_000, "last finite bound covers ≥ 10 s");
    }

    #[test]
    fn report_collects_all_endpoints() {
        let t = Telemetry::new();
        t.record_request(Endpoint::Score, Duration::from_micros(10));
        t.record_shed(Endpoint::Score);
        t.record_error(Endpoint::TopK);
        t.record_batch(0, 7);
        t.record_batch(0, 3);
        let report = t.report(42);
        assert_eq!(report.model_version, 42);
        assert_eq!(report.batches, 2);
        assert_eq!(report.batched_items, 10);
        assert_eq!(report.mean_batch_size(), 5.0);
        let score = report.endpoint("score").unwrap();
        assert_eq!((score.requests, score.shed, score.errors), (1, 1, 0));
        assert!(score.p50_ns >= 10_000);
        assert_eq!(report.endpoint("topk").unwrap().errors, 1);
        assert_eq!(report.endpoints.len(), ENDPOINTS.len());
        assert_eq!(report.shards.len(), 1);
    }

    #[test]
    fn shard_counters_stay_separate_and_sum_into_the_report() {
        let t = Telemetry::with_shards(3);
        assert_eq!(t.shard_count(), 3);
        t.record_batch(0, 4);
        t.record_batch(2, 6);
        t.record_batch(2, 6);
        t.record_shard_dispatch(0);
        t.record_shard_dispatch(2);
        t.record_shard_dispatch(2);
        t.record_shard_shed(1);
        t.set_queue_depth(2, 17);
        t.record_accept_error();
        let report = t.report(1);
        assert_eq!(report.batches, 3);
        assert_eq!(report.batched_items, 16);
        assert_eq!(report.accept_errors, 1);
        assert_eq!(report.shards.len(), 3);
        assert_eq!((report.shards[0].batches, report.shards[0].batched_items), (1, 4));
        assert_eq!((report.shards[2].batches, report.shards[2].batched_items), (2, 12));
        assert_eq!(report.shards[1].shed, 1);
        assert_eq!(report.shards[1].batches, 0);
        assert_eq!(report.shards[2].dispatched, 2);
        assert_eq!(report.shards[2].queue_depth, 17);
    }

    /// The pre-obs histogram, reimplemented serially and independently:
    /// 83 buckets, 1 µs base, integer ×5/4 bound growth, quantile = upper
    /// bound of the bucket holding the ceil(q·total)-th sample.
    struct Reference {
        buckets: Vec<u64>,
        overflow: u64,
    }

    impl Reference {
        fn new() -> Self {
            Reference { buckets: vec![0; 83], overflow: 0 }
        }

        fn record_ns(&mut self, ns: u64) {
            let mut bound = 1_000u64;
            for b in &mut self.buckets {
                if ns <= bound {
                    *b += 1;
                    return;
                }
                bound += bound / 4;
            }
            self.overflow += 1;
        }

        fn quantile_ns(&self, q: f64) -> u64 {
            let total: u64 = self.buckets.iter().sum::<u64>() + self.overflow;
            if total == 0 {
                return 0;
            }
            let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
            let mut seen = 0u64;
            let mut bound = 1_000u64;
            for b in &self.buckets {
                seen += b;
                if seen >= rank {
                    return bound;
                }
                bound += bound / 4;
            }
            bound
        }
    }

    #[test]
    fn stats_report_is_bit_identical_to_the_reference_histogram() {
        // Awkward latency mix: bucket edges, edge+1, sub-base, huge
        // (overflow), and a pseudo-random spread — then every quantile the
        // Stats endpoint reports must equal the reference exactly.
        let t = Telemetry::new();
        let mut r = Reference::new();
        let mut samples: Vec<u64> = vec![1, 999, 1_000, 1_001, 1_250, 1_251, 90_000_000_000_000];
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..500 {
            // xorshift spread across ~7 decades
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            samples.push(x % 10_000_000_000);
        }
        for &ns in &samples {
            t.record_request(Endpoint::Score, Duration::from_nanos(ns));
            r.record_ns(ns);
        }
        let report = t.report(1);
        let score = report.endpoint("score").unwrap();
        assert_eq!(score.requests, samples.len() as u64);
        assert_eq!(score.p50_ns, r.quantile_ns(0.50));
        assert_eq!(score.p95_ns, r.quantile_ns(0.95));
        assert_eq!(score.p99_ns, r.quantile_ns(0.99));
        // And off-report quantiles of the shared histogram geometry too.
        let h = Histogram::new();
        for &ns in &samples {
            h.record_ns(ns);
        }
        for q in [0.01, 0.1, 0.25, 0.333, 0.5, 0.75, 0.9, 0.999, 1.0] {
            assert_eq!(h.quantile_ns(q), r.quantile_ns(q), "q={q}");
        }
    }
}
