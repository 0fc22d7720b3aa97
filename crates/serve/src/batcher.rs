//! The micro-batcher: coalesces concurrent scoring requests into batches
//! answered from one model snapshot.
//!
//! The event loop `submit_with`s jobs into a bounded queue; one batch
//! worker per shard drains it, packing jobs into a batch until the batch
//! is full, the flush deadline since the batch's first job expires, or (in
//! the default eager mode) the queue runs dry. Each flush grabs **one**
//! model snapshot from the shard's [`SwapCell`] and answers every job from
//! its cached tables — a row lookup and a dot per item, one index probe per
//! retrieval job; the towers run at publish, never on the request path —
//! in at most one pass per scoring path. A 64-request burst therefore
//! costs one worker wakeup, one snapshot load and two passes instead of 64
//! of each — the "batching requests pays for itself immediately" lesson of
//! the 300M-predictions/s paper — and every job in a flush is answered by
//! a single consistent model version.
//!
//! Replies are delivered by invoking the job's completion closure on the
//! worker thread. The event-driven front hands in a closure that buffers
//! the response and wakes the owning event loop; the blocking `submit`
//! convenience (tests, direct embedding) wraps a channel around the same
//! mechanism.
//!
//! Backpressure is explicit: when the queued-item bound would be exceeded,
//! submission fails immediately — the completion closure is returned to
//! the caller *uninvoked* — and the caller answers `Overloaded`. The event
//! loop never blocks on a full queue, so a saturated shard degrades into
//! fast sheds rather than a connection pile-up.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use atnn_tensor::SwapCell;

use crate::config::ServeConfig;
use crate::manager::ModelSnapshot;
use crate::router::ScorePath;
use crate::telemetry::Telemetry;

/// What a queued job is answered with: the scores, or a description of why
/// the batch worker could not score it (out-of-range ids for the snapshot
/// the batch ran against, or a panic while scoring).
pub type BatchReply = Result<Vec<f32>, String>;

/// A job's completion closure. Invoked exactly once, on the batch worker
/// thread, with the job's reply — unless submission was shed, in which
/// case it is returned to the caller and never invoked.
pub type ReplyFn = Box<dyn FnOnce(BatchReply) + Send>;

/// What a queued ANN probe job is answered with: this shard's top-k in
/// **raw dot space** (best first, ties by ascending id), or the same
/// failure descriptions as [`BatchReply`].
pub type ProbeReply = Result<Vec<(u32, f32)>, String>;

/// A probe job's completion closure; same invocation contract as
/// [`ReplyFn`].
pub type ProbeReplyFn = Box<dyn FnOnce(ProbeReply) + Send>;

/// One queued request.
enum Job {
    /// Batched scoring of explicit items.
    Score { path: ScorePath, items: Vec<u32>, reply: ReplyFn },
    /// Catalogue-wide ANN retrieval over this shard's slice of the
    /// catalogue (probe width comes from `ServeConfig::nprobe`).
    Probe { k: usize, reply: ProbeReplyFn },
}

impl Job {
    /// Queue-capacity units this job occupies. A probe touches at most
    /// `nprobe` inverted lists and retains `k` winners, so it is charged
    /// its result size rather than a per-item cost.
    fn cost(&self) -> usize {
        match self {
            Job::Score { items, .. } => items.len(),
            Job::Probe { k, .. } => (*k).max(1),
        }
    }
}

struct QueueState {
    jobs: VecDeque<Job>,
    queued_items: usize,
    shutdown: bool,
    /// Test hook: a paused worker leaves the queue untouched, letting
    /// capacity tests observe accounting deterministically. Always false
    /// in production; shutdown overrides it.
    paused: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    /// Signals the worker (new job / shutdown).
    cv: Condvar,
    /// The shard's snapshot cell. `ModelManager::publish` fans out to it;
    /// the worker loads from it once per flush.
    source: Arc<SwapCell<ModelSnapshot>>,
    telemetry: Arc<Telemetry>,
    /// This batcher's shard index into the telemetry's shard counters.
    shard: usize,
    cfg: ServeConfig,
}

/// Submission failure: the queue is at capacity (or shutting down) and the
/// request must be shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overloaded;

/// The bounded queue + batch worker pair (one per catalogue shard).
pub struct Batcher {
    shared: Arc<Shared>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl Batcher {
    /// Starts the batch worker for shard `shard`, scoring against
    /// snapshots from `source`.
    pub fn start(
        cfg: ServeConfig,
        source: Arc<SwapCell<ModelSnapshot>>,
        telemetry: Arc<Telemetry>,
        shard: usize,
    ) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                queued_items: 0,
                shutdown: false,
                paused: false,
            }),
            cv: Condvar::new(),
            source,
            telemetry,
            shard,
            cfg,
        });
        let worker_shared = Arc::clone(&shared);
        // Pin the configured compute backend for the whole worker thread:
        // every batch this shard scores runs under it (None inherits the
        // process default).
        let backend = worker_shared.cfg.backend;
        let worker = std::thread::Builder::new()
            .name(format!("atnn-serve-shard{shard}"))
            .spawn(move || atnn_tensor::with_backend_opt(backend, || worker_loop(&worker_shared)))
            .expect("spawn batch worker");
        Batcher { shared, worker: Mutex::new(Some(worker)) }
    }

    /// Enqueues a scoring job whose reply is delivered by invoking
    /// `reply` on the worker thread. When the queue bound would be
    /// exceeded (or the batcher is shutting down) the job is shed:
    /// `reply` comes back in the `Err`, guaranteed uninvoked, so the
    /// caller can answer `Overloaded` through it (or drop it).
    pub fn submit_with(
        &self,
        path: ScorePath,
        items: Vec<u32>,
        reply: ReplyFn,
    ) -> Result<(), (Overloaded, ReplyFn)> {
        self.enqueue(Job::Score { path, items, reply }).map_err(|job| match job {
            Job::Score { reply, .. } => (Overloaded, reply),
            Job::Probe { .. } => unreachable!("enqueue returns the job it was given"),
        })
    }

    /// Enqueues a catalogue-wide ANN probe answered with this shard's
    /// top-`k` in raw dot space. Same shed contract as
    /// [`Batcher::submit_with`].
    pub fn submit_probe_with(
        &self,
        k: usize,
        reply: ProbeReplyFn,
    ) -> Result<(), (Overloaded, ProbeReplyFn)> {
        self.enqueue(Job::Probe { k, reply }).map_err(|job| match job {
            Job::Probe { reply, .. } => (Overloaded, reply),
            Job::Score { .. } => unreachable!("enqueue returns the job it was given"),
        })
    }

    /// Shared admission path: sheds (returning the job uninvoked) when the
    /// queue bound would be exceeded or the batcher is shutting down.
    fn enqueue(&self, job: Job) -> Result<(), Job> {
        let cost = job.cost();
        {
            let mut state = self.shared.state.lock().expect("batcher lock poisoned");
            if state.shutdown || state.queued_items + cost > self.shared.cfg.queue_capacity {
                drop(state);
                self.shared.telemetry.record_shard_shed(self.shared.shard);
                return Err(job);
            }
            state.queued_items += cost;
            self.shared.telemetry.set_queue_depth(self.shared.shard, state.queued_items);
            state.jobs.push_back(job);
        }
        self.shared.telemetry.record_shard_dispatch(self.shared.shard);
        self.shared.cv.notify_one();
        Ok(())
    }

    /// Channel-backed convenience over [`Batcher::submit_with`]: returns a
    /// receiver for the scores, or [`Overloaded`] when the job was shed.
    pub fn submit(
        &self,
        path: ScorePath,
        items: Vec<u32>,
    ) -> Result<mpsc::Receiver<BatchReply>, Overloaded> {
        let (tx, rx) = mpsc::sync_channel(1);
        // A dead receiver just means the caller hung up; nothing to do.
        let reply: ReplyFn = Box::new(move |r| {
            let _ = tx.send(r);
        });
        self.submit_with(path, items, reply).map_err(|(over, _)| over)?;
        Ok(rx)
    }

    /// Channel-backed convenience over [`Batcher::submit_probe_with`].
    pub fn submit_probe(&self, k: usize) -> Result<mpsc::Receiver<ProbeReply>, Overloaded> {
        let (tx, rx) = mpsc::sync_channel(1);
        let reply: ProbeReplyFn = Box::new(move |r| {
            let _ = tx.send(r);
        });
        self.submit_probe_with(k, reply).map_err(|(over, _)| over)?;
        Ok(rx)
    }

    /// This batcher's shard index.
    pub fn shard(&self) -> usize {
        self.shared.shard
    }

    /// Items currently waiting in the queue (diagnostics).
    pub fn queued_items(&self) -> usize {
        self.shared.state.lock().expect("batcher lock poisoned").queued_items
    }

    /// Test hook: freezes (`true`) or thaws (`false`) the batch worker.
    #[cfg(test)]
    fn set_paused(&self, paused: bool) {
        self.shared.state.lock().expect("batcher lock poisoned").paused = paused;
        self.shared.cv.notify_all();
    }

    /// Stops the worker after it drains the queue. Later submissions shed.
    pub fn shutdown(&self) {
        self.shared.state.lock().expect("batcher lock poisoned").shutdown = true;
        self.shared.cv.notify_all();
        let handle = self.worker.lock().expect("batcher worker lock poisoned").take();
        if let Some(worker) = handle {
            let _ = worker.join();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let batch = collect_batch(shared);
        if batch.is_empty() {
            return; // shutdown with a drained queue
        }
        execute_batch(shared, batch);
    }
}

/// Blocks for the first job, then packs more until the batch is full, the
/// flush deadline expires, or (eager mode) the queue runs dry. Returns an
/// empty batch only on shutdown-with-empty-queue.
fn collect_batch(shared: &Shared) -> Vec<Job> {
    let cfg = &shared.cfg;
    let mut state = shared.state.lock().expect("batcher lock poisoned");
    while (state.jobs.is_empty() || state.paused) && !state.shutdown {
        state = shared.cv.wait(state).expect("batcher lock poisoned");
    }
    if state.jobs.is_empty() {
        return Vec::new(); // shutdown with a drained queue
    }

    let deadline = Instant::now() + cfg.flush_deadline;
    let mut batch: Vec<Job> = Vec::new();
    let mut batch_items = 0usize;
    loop {
        // Pack whatever is queued. A job is flushed whole (one reply),
        // so a job that would overflow a non-empty batch waits for the
        // next flush; an oversized job forms its own batch.
        while let Some(job) = state.jobs.front() {
            if !batch.is_empty() && batch_items + job.cost() > cfg.max_batch {
                break;
            }
            let job = state.jobs.pop_front().expect("front exists");
            state.queued_items -= job.cost();
            batch_items += job.cost();
            batch.push(job);
            if batch_items >= cfg.max_batch {
                break;
            }
        }
        shared.telemetry.set_queue_depth(shared.shard, state.queued_items);
        if batch_items >= cfg.max_batch || state.shutdown {
            return batch;
        }
        if cfg.eager_flush && state.jobs.is_empty() {
            return batch;
        }
        let now = Instant::now();
        if now >= deadline {
            return batch;
        }
        let (next, timeout) =
            shared.cv.wait_timeout(state, deadline - now).expect("batcher lock poisoned");
        state = next;
        if timeout.timed_out() && state.jobs.is_empty() {
            return batch;
        }
    }
}

/// Scores one packed batch: one snapshot, at most one table pass per
/// path, replies split back per job in submission order.
///
/// The snapshot is grabbed here, so ids are re-validated against *its*
/// item space — the server validated against the boot snapshot, and even
/// though the manager refuses to publish a differently-sized catalogue,
/// a job with out-of-range ids must answer with an error rather than
/// panic the worker. Scoring runs under `catch_unwind` for the same
/// reason: a panicking pass fails its batch, not the whole shard
/// (a dead worker would leave queued jobs blocking their connections
/// forever).
fn execute_batch(shared: &Shared, batch: Vec<Job>) {
    let snapshot = shared.source.load();
    let num_items = snapshot.num_items() as u32;

    let mut score_jobs: Vec<(ScorePath, Vec<u32>, ReplyFn)> = Vec::new();
    let mut probe_jobs: Vec<(usize, ProbeReplyFn)> = Vec::new();
    for job in batch {
        match job {
            Job::Score { path, items, reply } => {
                // Ids are re-validated against *this* snapshot's item
                // space; the server validated against the boot snapshot.
                if items.iter().all(|&i| i < num_items) {
                    score_jobs.push((path, items, reply));
                } else {
                    reply(Err(format!(
                        "item out of range for model v{} (0..{num_items})",
                        snapshot.version
                    )));
                }
            }
            Job::Probe { k, reply } => probe_jobs.push((k, reply)),
        }
    }
    if score_jobs.is_empty() && probe_jobs.is_empty() {
        return;
    }

    let mut cold_items: Vec<u32> = Vec::new();
    let mut warm_items: Vec<u32> = Vec::new();
    for (path, items, _) in &score_jobs {
        match path {
            ScorePath::Cold => cold_items.extend_from_slice(items),
            ScorePath::Warm => warm_items.extend_from_slice(items),
        }
    }
    // A probe only sees ids this shard owns; the single-shard case skips
    // the hash entirely.
    let shards = shared.cfg.shards.max(1);
    let my_shard = shared.shard;
    let keep: Box<dyn Fn(u32) -> bool> = if shards == 1 {
        Box::new(|_| true)
    } else {
        Box::new(move |id| crate::shard::shard_of(id, shards) == my_shard)
    };
    let nprobe = shared.cfg.nprobe;
    let executed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let cold_scores = if cold_items.is_empty() {
            Vec::new()
        } else {
            shared.telemetry.record_batch(shared.shard, cold_items.len());
            snapshot.score_cold(&cold_items)
        };
        let warm_scores = if warm_items.is_empty() {
            Vec::new()
        } else {
            shared.telemetry.record_batch(shared.shard, warm_items.len());
            snapshot.score_warm(&warm_items)
        };
        let probed: Vec<Vec<(u32, f32)>> =
            probe_jobs.iter().map(|&(k, _)| snapshot.topk_dots(k, nprobe, &keep)).collect();
        (cold_scores, warm_scores, probed)
    }));
    let (cold_scores, warm_scores, probed) = match executed {
        Ok(results) => results,
        Err(_) => {
            let panic_msg = format!("scoring panicked on model v{}", snapshot.version);
            for (_, _, reply) in score_jobs {
                reply(Err(panic_msg.clone()));
            }
            for (_, reply) in probe_jobs {
                reply(Err(panic_msg.clone()));
            }
            return;
        }
    };

    let (mut cold_off, mut warm_off) = (0usize, 0usize);
    for (path, items, reply) in score_jobs {
        let n = items.len();
        let scores = match path {
            ScorePath::Cold => {
                let s = cold_scores[cold_off..cold_off + n].to_vec();
                cold_off += n;
                s
            }
            ScorePath::Warm => {
                let s = warm_scores[warm_off..warm_off + n].to_vec();
                warm_off += n;
                s
            }
        };
        reply(Ok(scores));
    }
    for ((_, reply), winners) in probe_jobs.into_iter().zip(probed) {
        reply(Ok(winners));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::ModelManager;
    use atnn_core::{Atnn, AtnnConfig, CtrTrainer, PopularityIndex, TrainOptions};
    use atnn_data::tmall::{TmallConfig, TmallDataset};
    use std::time::Duration;

    fn tiny_snapshot(version: u64) -> ModelSnapshot {
        let data = TmallDataset::generate(TmallConfig {
            num_users: 50,
            num_items: 100,
            num_interactions: 800,
            ..TmallConfig::tiny()
        });
        let mut model = Atnn::new(AtnnConfig::scaled(), &data);
        let opts = TrainOptions::builder().epochs(1).build().expect("valid options");
        CtrTrainer::new(opts).train(&mut model, &data, None).expect("training runs");
        let index = PopularityIndex::build(&model, &data, &(0..30).collect::<Vec<_>>());
        ModelSnapshot::new(version, data, model, index)
    }

    fn tiny_manager() -> Arc<ModelManager> {
        Arc::new(ModelManager::new(tiny_snapshot(1)))
    }

    fn start_batcher(
        cfg: ServeConfig,
        manager: &Arc<ModelManager>,
        telemetry: &Arc<Telemetry>,
    ) -> Batcher {
        Batcher::start(cfg, manager.register_shard_cell(), Arc::clone(telemetry), 0)
    }

    #[test]
    fn batched_scores_match_direct_calls() {
        let manager = tiny_manager();
        let telemetry = Arc::new(Telemetry::new());
        let batcher = start_batcher(ServeConfig::default(), &manager, &telemetry);
        let snapshot = manager.load();

        let rx_a = batcher.submit(ScorePath::Cold, vec![0, 1, 2]).unwrap();
        let rx_b = batcher.submit(ScorePath::Warm, vec![3, 4]).unwrap();
        let rx_c = batcher.submit(ScorePath::Cold, vec![5]).unwrap();
        assert_eq!(rx_a.recv().unwrap().unwrap(), snapshot.score_cold(&[0, 1, 2]));
        assert_eq!(rx_b.recv().unwrap().unwrap(), snapshot.score_warm(&[3, 4]));
        assert_eq!(rx_c.recv().unwrap().unwrap(), snapshot.score_cold(&[5]));
        assert!(telemetry.report(1).batches >= 1);
    }

    #[test]
    fn concurrent_submissions_coalesce_into_fewer_batches() {
        let manager = tiny_manager();
        let telemetry = Arc::new(Telemetry::new());
        // A long deadline with eager flush off forces full coalescing.
        let cfg = ServeConfig {
            flush_deadline: Duration::from_millis(50),
            eager_flush: false,
            ..ServeConfig::default()
        };
        let batcher = start_batcher(cfg, &manager, &telemetry);
        let snapshot = manager.load();

        let receivers: Vec<_> =
            (0..16u32).map(|i| batcher.submit(ScorePath::Cold, vec![i]).unwrap()).collect();
        for (i, rx) in receivers.into_iter().enumerate() {
            assert_eq!(rx.recv().unwrap().unwrap(), snapshot.score_cold(&[i as u32]));
        }
        let report = telemetry.report(1);
        assert_eq!(report.batched_items, 16);
        assert!(
            report.batches < 16,
            "16 sequential submits under a 50ms deadline must coalesce, got {} batches",
            report.batches
        );
        assert_eq!(report.shards[0].dispatched, 16);
    }

    #[test]
    fn probe_jobs_return_the_snapshots_topk_dots() {
        let manager = tiny_manager();
        let cfg = ServeConfig::default();
        let batcher = start_batcher(cfg.clone(), &manager, &Arc::new(Telemetry::new()));
        let snapshot = manager.load();
        let winners = batcher.submit_probe(5).unwrap().recv().unwrap().unwrap();
        assert_eq!(winners, snapshot.topk_dots(5, cfg.nprobe, &|_| true));
        assert_eq!(winners.len(), 5);
    }

    #[test]
    fn probe_jobs_respect_the_shard_filter() {
        let manager = tiny_manager();
        let cfg = ServeConfig { shards: 3, ..ServeConfig::default() };
        let batcher = Batcher::start(
            cfg.clone(),
            manager.register_shard_cell(),
            Arc::new(Telemetry::with_shards(3)),
            1,
        );
        let snapshot = manager.load();
        let winners = batcher.submit_probe(100).unwrap().recv().unwrap().unwrap();
        let keep = |id: u32| crate::shard::shard_of(id, 3) == 1;
        assert_eq!(winners, snapshot.topk_dots(100, cfg.nprobe, &keep));
        assert!(!winners.is_empty());
        assert!(winners.iter().all(|&(id, _)| keep(id)));
    }

    #[test]
    fn full_queue_sheds_instead_of_blocking() {
        let manager = tiny_manager();
        let telemetry = Arc::new(Telemetry::new());
        let cfg = ServeConfig { queue_capacity: 8, ..ServeConfig::default() };
        let batcher = start_batcher(cfg, &manager, &telemetry);
        // Freeze the worker so the queue accounting below is deterministic.
        batcher.set_paused(true);
        let first = batcher.submit(ScorePath::Cold, vec![0, 1, 2, 3]).unwrap();
        let second = batcher.submit(ScorePath::Cold, vec![4, 5, 6, 7]).unwrap();
        assert_eq!(
            batcher.submit(ScorePath::Cold, vec![8]).unwrap_err(),
            Overloaded,
            "ninth queued item must be shed, not block"
        );
        assert_eq!(telemetry.report(1).shards[0].shed, 1);
        batcher.set_paused(false);
        // Queued work still completes after the shed.
        assert_eq!(first.recv_timeout(Duration::from_secs(10)).unwrap().unwrap().len(), 4);
        assert_eq!(second.recv_timeout(Duration::from_secs(10)).unwrap().unwrap().len(), 4);
        assert_eq!(batcher.queued_items(), 0);
    }

    #[test]
    fn shed_submission_returns_the_reply_uninvoked() {
        let manager = tiny_manager();
        let cfg = ServeConfig { queue_capacity: 2, ..ServeConfig::default() };
        let batcher = start_batcher(cfg, &manager, &Arc::new(Telemetry::new()));
        batcher.set_paused(true);
        let _held = batcher.submit(ScorePath::Cold, vec![0, 1]).unwrap();

        let invoked = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = Arc::clone(&invoked);
        let reply: ReplyFn =
            Box::new(move |_| flag.store(true, std::sync::atomic::Ordering::SeqCst));
        let (over, returned) = batcher.submit_with(ScorePath::Cold, vec![2], reply).unwrap_err();
        assert_eq!(over, Overloaded);
        assert!(!invoked.load(std::sync::atomic::Ordering::SeqCst), "shed must not invoke");
        // The caller owns the closure again and may answer through it.
        returned(Err("overloaded".into()));
        assert!(invoked.load(std::sync::atomic::Ordering::SeqCst));
        batcher.set_paused(false);
    }

    #[test]
    fn shutdown_drains_pending_jobs() {
        let manager = tiny_manager();
        let batcher = start_batcher(ServeConfig::default(), &manager, &Arc::new(Telemetry::new()));
        let receivers: Vec<_> =
            (0..8u32).map(|i| batcher.submit(ScorePath::Cold, vec![i]).unwrap()).collect();
        batcher.shutdown();
        for rx in receivers {
            assert_eq!(rx.recv().unwrap().unwrap().len(), 1, "queued jobs answered before exit");
        }
        assert!(batcher.submit(ScorePath::Cold, vec![0]).is_err(), "post-shutdown submit sheds");
    }

    #[test]
    fn out_of_range_job_gets_an_error_and_worker_survives() {
        let manager = tiny_manager();
        let batcher = start_batcher(ServeConfig::default(), &manager, &Arc::new(Telemetry::new()));
        let snapshot = manager.load();
        let beyond = snapshot.num_items() as u32;

        // An id past the snapshot's item space (reachable only if server
        // validation were bypassed) answers with an error, not a panic.
        let bad = batcher.submit(ScorePath::Cold, vec![0, beyond]).unwrap();
        let reply = bad.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(reply.unwrap_err().contains("out of range"));

        // The worker is still alive and scoring.
        let ok = batcher.submit(ScorePath::Cold, vec![0, 1]).unwrap();
        assert_eq!(
            ok.recv_timeout(Duration::from_secs(10)).unwrap().unwrap(),
            snapshot.score_cold(&[0, 1])
        );
    }

    #[test]
    fn hot_swap_through_the_shard_cell_changes_the_serving_version() {
        let manager = tiny_manager();
        let batcher = start_batcher(ServeConfig::default(), &manager, &Arc::new(Telemetry::new()));
        let beyond = manager.load().num_items() as u32;

        // Republish the same catalogue under a new version tag; the error
        // string carries the version the batch actually ran against.
        manager.publish(tiny_snapshot(9)).unwrap();

        let bad = batcher.submit(ScorePath::Cold, vec![beyond]).unwrap();
        let err = bad.recv_timeout(Duration::from_secs(10)).unwrap().unwrap_err();
        assert!(err.contains("model v9"), "worker must score against the published cell: {err}");
    }
}
