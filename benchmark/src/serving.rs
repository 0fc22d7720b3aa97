//! The three serving workloads, untraced: set-up, warm-up, open-loop
//! phase at the frozen rate, saturation phase, then the oracle over every
//! reply.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use atnn_ann::{BruteForce, Retriever};
use atnn_serve::{DeltaReport, ModelSnapshot, Request, Response};
use atnn_tensor::Rng64;

use crate::fixture::Served;
use crate::loadgen::{self, Conn, Observe, Sample, INFLIGHT_WINDOWS};
use crate::oracle::{classify_mismatch, Oracle, Verdict};
use crate::report::{Outcome, PhaseCounts};
use crate::spec::{
    Mix, ServingSpec, CONNECTIONS, LATE_SEND_NS, MAX_LATE_SHARE, NPROBE, OPEN_SHARE,
    PUBLISH_DELTA_SHARE, PUBLISH_EVERY_MS, PUBLISH_STRIDE, SATURATION_SHARE, WARMUP_SHARE,
};
use crate::stats::{median, quantile_sorted};
use crate::stream::{poisson_schedule, RequestPool};
use crate::trace::Clock;

/// Inputs common to every workload run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub catalog_items: usize,
    /// When `main` was entered: `setup_s` is timed from here.
    pub process_start: Instant,
}

/// Replies wait at most this long after the last scheduled send.
const DRAIN_GRACE_NS: u64 = 3_000_000_000;

/// Distinct pooled requests per workload (phases walk the pool and wrap).
pub fn pool_size(mix: Mix) -> usize {
    match mix {
        Mix::Point => 32_768,
        Mix::TopK => 4_096,
    }
}

pub fn connect_all(served: &Served) -> Vec<Conn> {
    (0..CONNECTIONS).map(|_| Conn::connect(served.addr).expect("generator connects")).collect()
}

/// Verdict per sample, aligned with `samples`.
pub fn judge(
    samples: &[Sample],
    mut accept: impl FnMut(&Sample, &bytes::Bytes) -> bool,
) -> Vec<Verdict> {
    samples
        .iter()
        .map(|s| {
            if s.matched {
                return Verdict::Correct;
            }
            let reply = s.reply.as_ref().expect("a reply is matched on arrival or kept");
            if accept(s, reply) {
                Verdict::Correct
            } else {
                classify_mismatch(reply)
            }
        })
        .collect()
}

pub fn tally(phase: &'static str, verdicts: &[Verdict]) -> PhaseCounts {
    let mut c = PhaseCounts { phase, sent: verdicts.len() as u64, ..PhaseCounts::default() };
    for v in verdicts {
        match v {
            Verdict::Correct => c.succeeded += 1,
            Verdict::Shed => c.shed += 1,
            Verdict::Error | Verdict::Wrong => c.failed += 1,
        }
    }
    c
}

/// Exact latency percentiles (µs).
pub struct Percentiles {
    pub n: u64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
    pub max_us: f64,
}

pub fn percentiles<'a>(samples: impl Iterator<Item = &'a Sample>) -> Percentiles {
    let mut lat: Vec<u64> = samples.map(Sample::latency_ns).collect();
    lat.sort_unstable();
    let us = |q: f64| quantile_sorted(&lat, q) as f64 / 1e3;
    Percentiles {
        n: lat.len() as u64,
        p50_us: us(0.5),
        p90_us: us(0.9),
        p99_us: us(0.99),
        p999_us: us(0.999),
        max_us: us(1.0),
    }
}

/// Exact percentiles of `samples` per endpoint, in endpoint-name order.
pub fn by_endpoint(pool: &RequestPool, samples: &[Sample]) -> Vec<(&'static str, Percentiles)> {
    let endpoint = |s: &Sample| pool.requests[s.pool_idx as usize].endpoint_name();
    let mut names: Vec<&'static str> = samples.iter().map(endpoint).collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|name| (name, percentiles(samples.iter().filter(|s| endpoint(s) == name))))
        .collect()
}

/// The median latency of a mix: each endpoint's median, averaged over the
/// endpoints. The pooled median of `catalog_topk`'s 50/50 mix of a 157 us
/// and a 440 us endpoint falls in the gap between the two modes and moved
/// 5.5-6.9% between runs with the realised mix share; each endpoint's own
/// median repeats to 1%, and a change to either endpoint moves the average
/// in proportion. (The 90th percentile is pooled: it lies inside the slow
/// endpoint's body, where the pooled figure is the steadier one.)
pub fn mean_endpoint_p50(per_endpoint: &[(&'static str, Percentiles)]) -> f64 {
    per_endpoint.iter().map(|(_, p)| p.p50_us).sum::<f64>() / per_endpoint.len().max(1) as f64
}

/// Whether the generator held its schedule. If it ran late or the backlog
/// only ever grew, the numbers describe the generator, not the server.
pub struct Honesty {
    /// Share of gated sends issued more than [`LATE_SEND_NS`] after their
    /// due time.
    pub late_share: f64,
    pub max_send_lag_us: f64,
    pub backlog_grew: bool,
    /// The same share, and the 99th-percentile send lag, among sends due
    /// in the full-rebuild phase (`None` without one).
    pub during_rebuild: Option<(f64, f64)>,
}

/// Largest tolerated 99th-percentile send lag in the rebuild phase.
const MAX_REBUILD_SEND_LAG_P99_US: f64 = 2_500.0;

/// `gated` are the samples the latency metrics are taken from; `rebuild`
/// those due while a full snapshot rebuild holds one of the reference
/// box's two cores. The generator then shares the other core with the
/// server's threads and its sends queue behind their bursts, so the 1%
/// rule cannot hold there. That lateness is still charged to the result —
/// latency is timed from the due time — it is reported on its own, and it
/// invalidates the run only when its p99 passes
/// [`MAX_REBUILD_SEND_LAG_P99_US`].
pub fn honesty(
    gated: &[Sample],
    rebuild: &[Sample],
    inflight_by_window: &[f64; INFLIGHT_WINDOWS],
) -> Honesty {
    let lag = |s: &Sample| s.sent_ns - s.due_ns;
    let late_share = |part: &[Sample]| {
        part.iter().filter(|s| lag(s) > LATE_SEND_NS).count() as f64 / part.len().max(1) as f64
    };
    let mut rebuild_lags: Vec<u64> = rebuild.iter().map(lag).collect();
    let w = inflight_by_window;
    let monotone = w.windows(2).all(|p| p[1] > p[0]);
    Honesty {
        late_share: late_share(gated),
        max_send_lag_us: gated.iter().chain(rebuild).map(lag).max().unwrap_or(0) as f64 / 1e3,
        // Strictly rising through all eight windows *and* ending well
        // above where it began; a flat queue jitters and fails the first.
        backlog_grew: monotone && w[INFLIGHT_WINDOWS - 1] > 2.0 * w[0] + 8.0,
        during_rebuild: (!rebuild.is_empty()).then(|| {
            (late_share(rebuild), crate::stats::quantile(&mut rebuild_lags, 0.99) as f64 / 1e3)
        }),
    }
}

impl Honesty {
    pub fn valid(&self) -> bool {
        self.late_share <= MAX_LATE_SHARE
            && !self.backlog_grew
            && self.during_rebuild.is_none_or(|(_, p99)| p99 <= MAX_REBUILD_SEND_LAG_P99_US)
    }

    pub fn describe(&self, inflight_by_window: &[f64; INFLIGHT_WINDOWS]) -> String {
        format!(
            "generator: late_share {:.5} (sends > {} us after due), max send lag {:.1} us{}, in flight by eighth {:?}, backlog_grew {}{}",
            self.late_share,
            LATE_SEND_NS / 1_000,
            self.max_send_lag_us,
            self.during_rebuild.map_or(String::new(), |(share, p99)| format!(
                "; in the rebuild phase late_share {share:.4}, send lag p99 {p99:.1} us (limit {MAX_REBUILD_SEND_LAG_P99_US:.0})"
            )),
            inflight_by_window.map(|w| (w * 10.0).round() / 10.0),
            self.backlog_grew,
            if self.valid() { "" } else { " -- INVALID: the generator did not hold its schedule" },
        )
    }
}

/// AUC of served new-arrival scores against "truly popular" labels (true
/// popularity above the catalogue median): does what the server returns
/// rank new arrivals the way the ground truth does.
pub fn served_popularity_auc(
    served: &Served,
    pool: &RequestPool,
    samples: &[Sample],
    verdicts: &[Verdict],
    expected: Option<&[bytes::Bytes]>,
) -> (f64, u64) {
    let data = &served.catalog.data;
    let mut pops: Vec<f32> =
        (0..data.num_items() as u32).map(|i| data.true_popularity(i)).collect();
    pops.sort_by(|a, b| a.partial_cmp(b).expect("popularity is finite"));
    let median_pop = pops[pops.len() / 2];
    let mut scores = Vec::new();
    let mut labels = Vec::new();
    for (s, v) in samples.iter().zip(verdicts) {
        if *v != Verdict::Correct || scores.len() >= 100_000 {
            continue;
        }
        if let Request::ScoreNewArrival { items } = &pool.requests[s.pool_idx as usize] {
            // A reply matched on arrival was dropped there; it was, byte
            // for byte, the expected one.
            let reply = match (&s.reply, expected) {
                (Some(reply), _) => reply.clone(),
                (None, Some(owed)) => owed[s.pool_idx as usize].clone(),
                (None, None) => continue,
            };
            if let Ok(Response::Scores(served_scores)) = Response::decode(reply) {
                for (&item, score) in items.iter().zip(served_scores) {
                    scores.push(score);
                    labels.push(data.true_popularity(item) > median_pop);
                }
            }
        }
    }
    (atnn_metrics::auc(&scores, &labels).unwrap_or(0.0), scores.len() as u64)
}

/// How good the served `TopKAll` winners at `k` are against a brute-force
/// scan of the same pool.
pub struct Retrieval {
    /// Share of the exact top-`k` the served list contains.
    pub recall: f64,
    /// Mean predicted popularity of the served winners over that of the
    /// exact winners: 1 when the probe finds items as good as the best,
    /// and — unlike recall — still graded when it finds none of them.
    pub popularity_ratio: f64,
}

pub fn served_retrieval(snapshot: &ModelSnapshot, k: usize) -> Retrieval {
    let served = snapshot.topk_dots(k, NPROBE, &|_| true);
    let oracle = BruteForce::new(snapshot.ann().pool().clone());
    let exact = oracle.topk(snapshot.index.mean_user_vec(), k, 0);
    let hits = served.iter().filter(|(id, _)| exact.iter().any(|(e, _)| e == id)).count();
    let mean_popularity = |winners: &[(u32, f32)]| {
        winners.iter().map(|&(_, d)| f64::from(snapshot.index.score_from_dot(d))).sum::<f64>()
            / winners.len().max(1) as f64
    };
    Retrieval {
        recall: hits as f64 / exact.len().max(1) as f64,
        popularity_ratio: mean_popularity(&served) / mean_popularity(&exact),
    }
}

// ---------------------------------------------------------------------------
// Publisher (publish_under_load)
// ---------------------------------------------------------------------------

/// The table states a reply may legitimately have been computed from.
/// Delta publishes alternate models on one fixed id set, so only these
/// recur; each is pinned by the first snapshot that reached it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableState {
    /// Model A everywhere (the boot snapshot, and every even delta).
    AllA = 0,
    /// Model B on the strided set, A elsewhere (every odd delta).
    StridedB = 1,
    /// The full rebuild from model B.
    FullB = 2,
}

#[derive(Debug, Clone)]
pub struct PublishEvent {
    pub start_ns: u64,
    pub end_ns: u64,
    pub state: TableState,
    /// `None` for the full publish.
    pub delta: Option<DeltaReport>,
}

impl PublishEvent {
    pub fn is_full(&self) -> bool {
        self.delta.is_none()
    }

    /// A delta publish whose drift crossed the budget and re-ran k-means.
    pub fn rebuilt_index(&self) -> bool {
        self.delta.is_some_and(|d| d.index_rebuilt)
    }

    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// When the publisher acts during one open-loop phase.
#[derive(Debug, Clone, Copy)]
pub struct PublishPlan {
    pub first_delta_ns: u64,
    pub full_at_ns: u64,
    /// Picks the phase of the strided changed set.
    pub seed: u64,
}

#[derive(Default)]
pub struct PublishLog {
    pub events: Vec<PublishEvent>,
    /// First snapshot seen in each [`TableState`] (index = state).
    pub exemplars: [Option<Arc<ModelSnapshot>>; 3],
}

/// The 1%-strided changed set; its phase comes from the seed.
pub fn strided_ids(num_items: usize, seed: u64) -> Vec<u32> {
    ((seed as usize % PUBLISH_STRIDE)..num_items)
        .step_by(PUBLISH_STRIDE)
        .map(|i| i as u32)
        .collect()
}

/// Alternates models B/A through `publish_delta` every
/// [`PUBLISH_EVERY_MS`] from the plan's first delta until its full
/// rebuild, then builds and publishes one full snapshot of model B.
pub fn publisher(
    served: &Served,
    clock: Clock,
    plan: PublishPlan,
    stop: &AtomicBool,
) -> PublishLog {
    let PublishPlan { first_delta_ns: start_ns, full_at_ns, seed } = plan;
    let cat = &served.catalog;
    let changed = strided_ids(cat.num_items(), seed);
    let mut log = PublishLog::default();
    log.exemplars[TableState::AllA as usize] = Some(served.manager.load());
    let sleep_until = |t_ns: u64| {
        let now = clock.now_ns();
        if t_ns > now {
            std::thread::sleep(Duration::from_nanos(t_ns - now));
        }
    };
    let mut version = 0u64;
    let mut tick = start_ns;
    while tick < full_at_ns && !stop.load(Ordering::Acquire) {
        sleep_until(tick);
        version += 1;
        let (model, index, state) = if version % 2 == 1 {
            (&cat.model_b, &cat.index_b, TableState::StridedB)
        } else {
            (&cat.model_a, &cat.index_a, TableState::AllA)
        };
        let start = clock.now_ns();
        let report = served
            .manager
            .publish_delta(version, Arc::clone(model), index.clone(), &changed)
            .expect("delta publish under load");
        let end = clock.now_ns();
        log.exemplars[state as usize].get_or_insert_with(|| served.manager.load());
        log.events.push(PublishEvent { start_ns: start, end_ns: end, state, delta: Some(report) });
        tick += PUBLISH_EVERY_MS * 1_000_000;
    }
    if !stop.load(Ordering::Acquire) {
        sleep_until(full_at_ns);
        let start = clock.now_ns();
        let full = ModelSnapshot::new_shared(
            version + 1,
            Arc::clone(&cat.data),
            Arc::clone(&cat.model_b),
            cat.index_b.clone(),
            served.manager.load().precision(),
        );
        served.manager.publish(full).expect("full publish under load");
        let end = clock.now_ns();
        log.exemplars[TableState::FullB as usize] = Some(served.manager.load());
        log.events.push(PublishEvent {
            start_ns: start,
            end_ns: end,
            state: TableState::FullB,
            delta: None,
        });
    }
    log
}

/// The states a request sent at `sent_ns` and answered at `done_ns` may
/// have been served from: the one in force when it was sent, plus that of
/// every publish whose call overlapped its lifetime (the swap happens
/// somewhere inside the call).
pub fn candidate_states(events: &[PublishEvent], sent_ns: u64, done_ns: u64) -> Vec<TableState> {
    let mut states = vec![TableState::AllA];
    for e in events {
        if e.end_ns <= sent_ns {
            states[0] = e.state;
        } else if e.start_ns <= done_ns {
            states.push(e.state);
        }
    }
    states.dedup();
    states
}

/// Whether the snapshot being served at the end still scores exactly like
/// the exemplar of the state the log says it is in (guards the assumption
/// that alternating deltas return to pinned states).
fn final_state_matches(served: &Served, log: &PublishLog) -> bool {
    let Some(last) = log.events.last() else { return true };
    let Some(exemplar) = &log.exemplars[last.state as usize] else { return false };
    let live = served.manager.load();
    let ids: Vec<u32> = (0..served.catalog.num_items() as u32).step_by(37).collect();
    live.score_cold(&ids) == exemplar.score_cold(&ids)
        && live.score_warm(&ids) == exemplar.score_warm(&ids)
}

/// The oracle over every table state a run went through.
pub struct Judge {
    oracles: [Option<Oracle>; 3],
    events: Vec<PublishEvent>,
    /// Routed replies whose cold and warm halves came from two different
    /// table states (accepted, and counted).
    pub torn_replies: u64,
}

impl Judge {
    /// `boot` is the snapshot served before any publish; `log` adds the
    /// states the publisher reached.
    pub fn new(
        boot: Arc<ModelSnapshot>,
        warm_below: u32,
        pool_len: usize,
        log: Option<&PublishLog>,
    ) -> Judge {
        let mut oracles = [Some(Oracle::new(boot, warm_below, pool_len)), None, None];
        let mut events = Vec::new();
        if let Some(log) = log {
            for state in [TableState::StridedB, TableState::FullB] {
                oracles[state as usize] = log.exemplars[state as usize]
                    .clone()
                    .map(|snap| Oracle::new(snap, warm_below, pool_len));
            }
            events = log.events.clone();
        }
        Judge { oracles, events, torn_replies: 0 }
    }

    /// Whether `reply` is the exact answer owed to `s` under any table
    /// state it may have been served from.
    pub fn accept(&mut self, pool: &RequestPool, s: &Sample, reply: &bytes::Bytes) -> bool {
        let states = candidate_states(&self.events, s.sent_ns, s.done_ns);
        let whole = states.iter().any(|&state| {
            self.oracles[state as usize]
                .as_mut()
                .is_some_and(|o| o.matches(pool, s.pool_idx as usize, reply))
        });
        if whole || states.len() < 2 {
            return whole;
        }
        let torn = self.torn_match(&pool.requests[s.pool_idx as usize], &states, reply);
        self.torn_replies += u64::from(torn);
        torn
    }

    /// A policy-routed request is scored as two jobs, one per path, and
    /// each job reads the snapshot current when its batch runs. A publish
    /// landing between the two gives a reply whose cold scores are exact
    /// under one table state and whose warm scores are exact under the
    /// next. The server does that today; the oracle accepts exactly that
    /// much — every score of a path bit-equal under one candidate state —
    /// and the run reports how often it happened.
    fn torn_match(&self, request: &Request, states: &[TableState], reply: &bytes::Bytes) -> bool {
        let (Request::Score { items }, Ok(Response::RoutedScores { scores, warm })) =
            (request, Response::decode(reply.clone()))
        else {
            return false;
        };
        let by_state: Vec<(Vec<f32>, Vec<bool>)> = states
            .iter()
            .filter_map(|&state| self.oracles[state as usize].as_ref())
            .map(|o| o.routed_scores(items))
            .collect();
        let path_matches = |want_warm: bool| {
            by_state.iter().any(|(owed, owed_warm)| {
                *owed_warm == warm
                    && owed.len() == scores.len()
                    && owed
                        .iter()
                        .zip(&scores)
                        .zip(&warm)
                        .filter(|(_, &w)| w == want_warm)
                        .all(|((a, b), _)| a.to_bits() == b.to_bits())
            })
        };
        path_matches(false) && path_matches(true)
    }

    pub fn judge(&mut self, pool: &RequestPool, samples: &[Sample]) -> Vec<Verdict> {
        judge(samples, |s, reply| self.accept(pool, s, reply))
    }

    /// Every pooled request's owed reply under the boot snapshot, for
    /// checking replies as they arrive (static workloads only: with a
    /// publisher the owed reply depends on when the request ran).
    pub fn expected_at_boot(&mut self, pool: &RequestPool) -> Vec<bytes::Bytes> {
        self.oracles[0].as_mut().expect("boot oracle always exists").expected_all(pool)
    }
}

/// How `--seconds` is cut up for one open-loop phase.
#[derive(Debug, Clone, Copy)]
pub struct Timeline {
    /// Discarded.
    pub warmup_ns: u64,
    /// The latency quantiles, `ok_share` and the 1% lateness rule are
    /// taken here. On `publish_under_load` this is the delta-publish phase.
    pub gated_ns: u64,
    /// `publish_under_load` only: the same load goes on while one full
    /// snapshot is rebuilt and published. Every reply is checked by the
    /// oracle and held to the limit in `ok_share`; the latency quantiles
    /// stay out of it (its median is twice the delta phase's — pooling the
    /// two would report neither).
    pub rebuild_ns: u64,
}

impl Timeline {
    pub fn of(spec: &ServingSpec, seconds: f64) -> Timeline {
        let ns = |share: f64| (seconds * share * 1e9) as u64;
        if spec.publishes {
            // No saturation phase: its share goes to the rebuild.
            Timeline {
                warmup_ns: ns(WARMUP_SHARE),
                gated_ns: ns(PUBLISH_DELTA_SHARE),
                rebuild_ns: ns(1.0 - WARMUP_SHARE - PUBLISH_DELTA_SHARE),
            }
        } else {
            Timeline { warmup_ns: ns(WARMUP_SHARE), gated_ns: ns(OPEN_SHARE), rebuild_ns: 0 }
        }
    }

    pub fn total_ns(&self) -> u64 {
        self.warmup_ns + self.gated_ns + self.rebuild_ns
    }

    /// Deltas through the gated phase, the full rebuild right after it,
    /// for a phase whose schedule begins at `t0_ns`.
    pub fn publish_plan(&self, t0_ns: u64, seed: u64) -> PublishPlan {
        let first_delta_ns = t0_ns + self.warmup_ns;
        PublishPlan { first_delta_ns, full_at_ns: first_delta_ns + self.gated_ns, seed }
    }

    /// Where the gated and the rebuild samples start: `(gated_from,
    /// rebuild_from)`; warm-up is everything before.
    pub fn split(&self, samples: &[Sample], t0_ns: u64) -> (usize, usize) {
        let gated_from = samples.partition_point(|s| s.due_ns < t0_ns + self.warmup_ns);
        let rebuild_from =
            samples.partition_point(|s| s.due_ns < t0_ns + self.warmup_ns + self.gated_ns);
        (gated_from, rebuild_from)
    }
}

/// One open-loop phase, with the publisher beside it when `publish` gives
/// its plan.
pub fn open_phase(
    served: &Served,
    conns: &mut [Conn],
    pool: &RequestPool,
    schedule: &[crate::stream::Arrival],
    t0_ns: u64,
    publish: Option<PublishPlan>,
    observe: Observe<'_>,
) -> (std::io::Result<loadgen::OpenLoopOutcome>, Option<PublishLog>) {
    let stop = AtomicBool::new(false);
    let clock = observe.clock;
    std::thread::scope(|scope| {
        let publisher_thread = publish.map(|plan| {
            let stop = &stop;
            // The publisher builds on one pool thread: with the generator
            // and the server already on this box's two cores, a rebuild
            // forked across the whole pool starves the generator, and a
            // late generator measures nothing.
            scope.spawn(move || {
                atnn_tensor::pool::with_threads(1, || publisher(served, clock, plan, stop))
            })
        });
        let open = loadgen::open_loop(conns, pool, schedule, t0_ns, DRAIN_GRACE_NS, observe);
        if open.is_err() {
            stop.store(true, Ordering::Release);
        }
        let log = publisher_thread.map(|h| h.join().expect("publisher thread"));
        (open, log)
    })
}

/// Notes and checks shared by the untraced and traced publish phases.
pub fn describe_publishes(
    out: &mut Outcome,
    served: &Served,
    log: &PublishLog,
    seed: u64,
    load_end_ns: u64,
) -> bool {
    let delta_ms = delta_publish_ms(log);
    let rebuild_at = log.events.iter().position(PublishEvent::rebuilt_index);
    let rebuilds = log.events.iter().filter(|e| e.rebuilt_index()).count();
    let full = log.events.iter().find(|e| e.is_full());
    out.notes.push(format!(
        "publisher: {} delta publishes of {} rows (median {:.2} ms, {} drift rebuilds, first at publish index {:?}); full publish {}",
        log.events.iter().filter(|e| !e.is_full()).count(),
        strided_ids(served.catalog.num_items(), seed).len(),
        median(&delta_ms),
        rebuilds,
        rebuild_at,
        full.map_or("did not run".to_string(), |e| format!(
            "{:.3}s, finished {:.2}s before the load ended",
            e.seconds(),
            load_end_ns.saturating_sub(e.end_ns) as f64 / 1e9
        )),
    ));
    let ok = full.is_some() && !delta_ms.is_empty() && final_state_matches(served, log);
    if !ok {
        out.notes.push(
            "publisher check failed: missing publish or unexpected final table state".to_string(),
        );
    }
    ok
}

/// Wall milliseconds of every delta publish that kept its centroids.
pub fn delta_publish_ms(log: &PublishLog) -> Vec<f64> {
    log.events
        .iter()
        .filter(|e| !e.is_full() && !e.rebuilt_index())
        .map(|e| e.seconds() * 1e3)
        .collect()
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

pub fn run(spec: &ServingSpec, args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    // Set-up: catalogue, models, snapshot, server, warm router, connections.
    let served = Served::build(args.catalog_items, spec.precision, None);
    let mut conns = connect_all(&served);
    out.put("setup_s", args.process_start.elapsed().as_secs_f64(), 1);
    let t = &served.catalog.timings;
    out.notes.push(format!(
        "set-up stages: generate {:.3}s, train A {:.3}s, train B {:.3}s, index {:.3}s, snapshot {:.3}s, serve+warm {:.3}s",
        t.generate_s, t.train_a_s, t.train_b_s, t.index_s, t.snapshot_s, t.serve_and_warm_s,
    ));

    let mut rng = Rng64::seed_from_u64(args.seed);
    let pool =
        RequestPool::generate(spec.mix, served.catalog.num_items(), pool_size(spec.mix), &mut rng);
    let timeline = Timeline::of(spec, args.seconds);
    let schedule = poisson_schedule(spec.rate_rps, timeline.total_ns(), 0, pool.len(), &mut rng);
    let boot = served.manager.load();
    let mut judge = Judge::new(Arc::clone(&boot), served.warm_below, pool.len(), None);
    let expected = (!spec.publishes).then(|| judge.expected_at_boot(&pool));

    let clock = Clock::start();
    let t0 = clock.now_ns() + 1_000_000;
    let plan = spec.publishes.then(|| timeline.publish_plan(t0, args.seed));
    let observe = Observe { clock, expected: expected.as_deref(), tracer: None };
    let (open, publish_log) = open_phase(&served, &mut conns, &pool, &schedule, t0, plan, observe);
    let open = match open {
        Ok(open) => open,
        Err(e) => {
            out.notes.push(format!("open-loop phase failed: {e}"));
            out.phases.push(PhaseCounts {
                phase: "open_loop",
                sent: schedule.len() as u64,
                failed: schedule.len() as u64,
                ..PhaseCounts::default()
            });
            return out;
        }
    };

    let saturation = (!spec.publishes).then(|| {
        loadgen::closed_loop(
            &mut conns,
            &pool,
            schedule.len(),
            spec.saturation_depth,
            (args.seconds * SATURATION_SHARE * 1e9) as u64,
            Observe { clock, expected: expected.as_deref(), tracer: None },
        )
    });
    drop(conns);

    // ---- the oracle, off the clock ----
    if let Some(log) = &publish_log {
        judge = Judge::new(boot, served.warm_below, pool.len(), Some(log));
    }
    let mut checks_ok = report_open_phase(
        spec,
        &served,
        &pool,
        &timeline,
        t0,
        &open,
        &mut judge,
        expected.as_deref(),
        &mut out,
    );

    match (&saturation, &publish_log) {
        (Some(Ok(sat)), _) => {
            let verdicts = judge.judge(&pool, &sat.samples);
            out.phases.push(tally("saturation", &verdicts));
            let (rps, slices) = sliced_saturation_rps(sat, &verdicts);
            let (whole_rps, done) = saturation_rps(sat, &verdicts);
            out.put("throughput_per_s", rps, done);
            let sat_pct = percentiles(sat.samples.iter());
            out.notes.push(format!(
                "saturation: {} conns x {} in flight for {:.2}s: {rps:.0} correct replies/s (median of {slices} slices; {whole_rps:.0} over the whole window); closed-loop p50 {:.1} us, p99 {:.1} us",
                CONNECTIONS,
                spec.saturation_depth,
                sat.window_seconds(),
                sat_pct.p50_us,
                sat_pct.p99_us
            ));
        }
        (Some(Err(e)), _) => {
            out.notes.push(format!("saturation phase failed: {e}"));
            checks_ok = false;
        }
        (None, Some(log)) => {
            // Delta-publish throughput: rows patched per second of
            // `publish_delta` wall time, drift-triggered rebuilds apart.
            let rows = strided_ids(served.catalog.num_items(), args.seed).len() as f64;
            let rows_per_s: Vec<f64> =
                delta_publish_ms(log).iter().map(|ms| rows / (ms / 1e3)).collect();
            out.put("throughput_per_s", median(&rows_per_s), rows_per_s.len() as u64);
            checks_ok &=
                describe_publishes(&mut out, &served, log, args.seed, t0 + timeline.total_ns());
        }
        (None, None) => unreachable!("a workload either saturates or publishes"),
    }

    if spec.mix == Mix::TopK {
        let snapshot = served.manager.load();
        let (top10, top100) = (served_retrieval(&snapshot, 10), served_retrieval(&snapshot, 100));
        out.put("quality", top100.popularity_ratio, 100);
        out.notes.push(format!(
            "quality = mean predicted popularity of the served TopKAll top-100 / that of the brute-force top-100 = {:.4}; recall@100 {:.2}, recall@10 {:.2} at nprobe {NPROBE}",
            top100.popularity_ratio, top100.recall, top10.recall
        ));
    }

    if spec.publishes {
        out.notes.push(format!(
            "oracle: {} routed replies had their cold and warm halves scored from two table states (a publish landed between the two jobs of one request)",
            judge.torn_replies
        ));
    }
    out.put("peak_rss_mb", peak_rss_mb(), 1);
    let stats = served.handle.telemetry().report(served.manager.version());
    out.notes.push(format!(
        "server telemetry: {} batches, mean batch {:.1} items, shard shed {}",
        stats.batches,
        stats.mean_batch_size(),
        stats.shards.iter().map(|s| s.shed).sum::<u64>()
    ));
    out.correct = checks_ok && out.failed() == 0;
    out
}

/// Judges an open-loop phase and reports what is read off it: the phase
/// counts, latency quantiles and `ok_share`, the point mix's `quality`,
/// and the generator's honesty. Returns whether the generator was honest.
#[allow(clippy::too_many_arguments)]
pub fn report_open_phase(
    spec: &ServingSpec,
    served: &Served,
    pool: &RequestPool,
    timeline: &Timeline,
    t0_ns: u64,
    open: &loadgen::OpenLoopOutcome,
    judge: &mut Judge,
    expected: Option<&[bytes::Bytes]>,
    out: &mut Outcome,
) -> bool {
    let verdicts = judge.judge(pool, &open.samples);
    let (gated_from, rebuild_from) = timeline.split(&open.samples, t0_ns);
    let gated = &open.samples[gated_from..rebuild_from];
    let gated_verdicts = &verdicts[gated_from..rebuild_from];
    let rebuild = &open.samples[rebuild_from..];
    out.phases.push(tally("warm_up", &verdicts[..gated_from]));
    out.phases.push(tally("open_loop", gated_verdicts));
    if !rebuild.is_empty() {
        out.phases.push(tally("rebuild_phase", &verdicts[rebuild_from..]));
    }

    let pct = percentiles(gated.iter());
    let per_endpoint = by_endpoint(pool, gated);
    out.put("latency_p50_us", mean_endpoint_p50(&per_endpoint), pct.n);
    out.put("latency_p90_us", pct.p90_us, pct.n);
    // `publish_under_load` holds the full rebuild to the limit too: every
    // request due from the first delta publish to the end of the load.
    let due = &open.samples[gated_from..];
    out.put("ok_share", ok_share(spec.limit_us, due, &verdicts[gated_from..]), due.len() as u64);
    out.notes.push(format!(
        "open loop at {} rps for {:.2}s, limit {} us, all endpoints pooled: p50 {:.1} us, p90 {:.1} us, p99 {:.1} us, p99.9 {:.1} us, max {:.1} us over {} samples; {:.4} of them slower than {} us (met a stall; printed, not gated)",
        spec.rate_rps,
        timeline.gated_ns as f64 / 1e9,
        spec.limit_us,
        pct.p50_us,
        pct.p90_us,
        pct.p99_us,
        pct.p999_us,
        pct.max_us,
        pct.n,
        1.0 - ok_share(spec.stall_us, gated, gated_verdicts),
        spec.stall_us,
    ));
    out.notes.push(format!(
        "by endpoint: {}",
        per_endpoint
            .iter()
            .map(|(name, p)| format!(
                "{name} n={} p50 {:.1} p90 {:.1} p99 {:.1} us",
                p.n, p.p50_us, p.p90_us, p.p99_us
            ))
            .collect::<Vec<_>>()
            .join("; ")
    ));
    if !rebuild.is_empty() {
        let pct = percentiles(rebuild.iter());
        out.notes.push(format!(
            "rebuild phase, same rate for {:.2}s: {:.4} of its requests within the limit, p50 {:.1} us, p99 {:.1} us, p99.9 {:.1} us, max {:.1} us over {} samples (counted in ok_share, not in the latency quantiles)",
            timeline.rebuild_ns as f64 / 1e9,
            ok_share(spec.limit_us, rebuild, &verdicts[rebuild_from..]),
            pct.p50_us,
            pct.p99_us,
            pct.p999_us,
            pct.max_us,
            pct.n
        ));
    }
    if spec.mix == Mix::Point {
        let (auc, n) = served_popularity_auc(served, pool, due, &verdicts[gated_from..], expected);
        out.put("quality", auc, n);
        out.notes.push(format!(
            "quality = AUC of served new-arrival scores vs truly-popular labels over {n} scored items"
        ));
    }
    let honest = honesty(gated, rebuild, &open.inflight_by_window);
    out.notes.push(honest.describe(&open.inflight_by_window));
    honest.valid()
}

/// Share of measured open-loop requests answered correctly within
/// `limit_us`; shed, error, wrong, lost or late all miss.
pub fn ok_share(limit_us: u64, measured: &[Sample], verdicts: &[Verdict]) -> f64 {
    let limit_ns = limit_us * 1_000;
    let ok = measured
        .iter()
        .zip(verdicts)
        .filter(|(s, v)| **v == Verdict::Correct && s.latency_ns() <= limit_ns)
        .count();
    ok as f64 / measured.len().max(1) as f64
}

/// The same, as the median over seven consecutive slices of the window:
/// a transient stall costs one slice, not a share of the whole figure.
pub fn sliced_saturation_rps(
    sat: &loadgen::ClosedLoopOutcome,
    verdicts: &[Verdict],
) -> (f64, usize) {
    const SLICES: usize = 7;
    let span = sat.window_end_ns - sat.window_start_ns;
    let mut done = [0u64; SLICES];
    for (s, v) in sat.samples.iter().zip(verdicts) {
        if *v == Verdict::Correct && sat.in_window(s) {
            let slice = ((s.done_ns - sat.window_start_ns) as u128 * SLICES as u128
                / (span as u128 + 1)) as usize;
            done[slice] += 1;
        }
    }
    let slice_secs = span as f64 / 1e9 / SLICES as f64;
    (median(&done.map(|d| d as f64 / slice_secs)), SLICES)
}

/// Correct replies completed inside the closed-loop window, per second.
pub fn saturation_rps(sat: &loadgen::ClosedLoopOutcome, verdicts: &[Verdict]) -> (f64, u64) {
    let done = sat
        .samples
        .iter()
        .zip(verdicts)
        .filter(|(s, v)| **v == Verdict::Correct && sat.in_window(s))
        .count();
    (done as f64 / sat.window_seconds(), done as u64)
}

pub fn peak_rss_mb() -> f64 {
    atnn_obs::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0)
}
