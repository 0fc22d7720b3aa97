//! Set-up shared by the serving workloads: catalogue, models A and B,
//! the served snapshot, the in-process server and its warmed router.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use atnn_core::{Atnn, AtnnConfig, CtrTrainer, PopularityIndex, TrainOptions};
use atnn_data::tmall::{TmallConfig, TmallDataset};
use atnn_obs::Sink;
use atnn_serve::{
    serve, ModelManager, ModelSnapshot, Precision, ServeClient, ServeConfig, ServeHandle,
};

use crate::spec::{
    CATALOG_DATA_SEED, CATALOG_INTERACTIONS, CATALOG_USERS, MAX_PIPELINE, NPROBE, TOPK_CANDIDATES,
    WARM_THRESHOLD,
};

/// Wall time of each set-up stage, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimings {
    pub generate_s: f64,
    pub train_a_s: f64,
    pub train_b_s: f64,
    pub index_s: f64,
    pub snapshot_s: f64,
    pub serve_and_warm_s: f64,
}

/// Catalogue and trained models, before anything is served.
pub struct Catalog {
    pub data: Arc<TmallDataset>,
    /// One training epoch from initialisation.
    pub model_a: Arc<Atnn>,
    /// Model A plus one more epoch.
    pub model_b: Arc<Atnn>,
    pub index_a: PopularityIndex,
    pub index_b: PopularityIndex,
    pub timings: SetupTimings,
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

impl Catalog {
    /// Generates the `items`-item catalogue and trains both models. With
    /// `step_sink`, model A's epoch runs with that sink installed so the
    /// traced run can read the trainer's own step events.
    pub fn build(items: usize, step_sink: Option<Arc<dyn Sink>>) -> Catalog {
        let mut timings = SetupTimings::default();
        let t = Instant::now();
        let cfg = TmallConfig {
            num_items: items,
            num_users: CATALOG_USERS,
            num_interactions: CATALOG_INTERACTIONS,
            ..TmallConfig::tiny()
        }
        .with_seed(CATALOG_DATA_SEED);
        let data = TmallDataset::generate(cfg);
        timings.generate_s = secs(t);

        let opts = TrainOptions::builder().epochs(1).build().expect("valid options");
        let t = Instant::now();
        let mut model_a = Atnn::new(AtnnConfig::scaled(), &data);
        {
            let _guard = step_sink.map(atnn_obs::install_scoped);
            CtrTrainer::new(opts.clone()).train(&mut model_a, &data, None).expect("model A trains");
        }
        timings.train_a_s = secs(t);

        let t = Instant::now();
        let mut model_b = Atnn::new(AtnnConfig::scaled(), &data);
        model_b.load(model_a.save()).expect("model B starts from model A's weights");
        CtrTrainer::new(opts).train(&mut model_b, &data, None).expect("model B trains");
        timings.train_b_s = secs(t);

        let t = Instant::now();
        let users: Vec<u32> = (0..data.num_users() as u32).collect();
        let index_a = PopularityIndex::build(&model_a, &data, &users);
        let index_b = PopularityIndex::build(&model_b, &data, &users);
        timings.index_s = secs(t);

        Catalog {
            data: Arc::new(data),
            model_a: Arc::new(model_a),
            model_b: Arc::new(model_b),
            index_a,
            index_b,
            timings,
        }
    }

    pub fn num_items(&self) -> usize {
        self.data.num_items()
    }

    /// A full snapshot of model A at `precision`.
    pub fn snapshot_a(&self, version: u64, precision: Precision) -> ModelSnapshot {
        ModelSnapshot::new_shared(
            version,
            Arc::clone(&self.data),
            Arc::clone(&self.model_a),
            self.index_a.clone(),
            precision,
        )
    }
}

/// The load shape's server configuration: 1 shard, 1 event thread. The
/// queue bound is sized so the largest backlog two full pipelines can
/// hold still fits — overload shows as latency, never as shed requests.
pub fn serve_config(precision: Precision) -> ServeConfig {
    ServeConfig {
        shards: 1,
        event_threads: 1,
        max_pipeline: MAX_PIPELINE,
        nprobe: NPROBE,
        precision,
        warm_threshold: WARM_THRESHOLD,
        queue_capacity: 2 * MAX_PIPELINE * TOPK_CANDIDATES,
        ..ServeConfig::default()
    }
}

/// A running in-process server over a [`Catalog`].
pub struct Served {
    pub catalog: Catalog,
    pub manager: Arc<ModelManager>,
    pub handle: ServeHandle,
    pub addr: SocketAddr,
    /// Ids below this are warm (routed to the encoder path).
    pub warm_below: u32,
}

impl Served {
    /// Builds the boot snapshot (model A, version 0), starts the server
    /// and warms the first half of the catalogue through
    /// `RecordInteractions`, as a client would.
    pub fn start(mut catalog: Catalog, precision: Precision) -> Served {
        let t = Instant::now();
        let manager = Arc::new(ModelManager::new(catalog.snapshot_a(0, precision)));
        catalog.timings.snapshot_s = secs(t);

        let t = Instant::now();
        let handle = serve(serve_config(precision), Arc::clone(&manager)).expect("bind a port");
        let addr = handle.local_addr();
        let warm_below = (catalog.num_items() / 2) as u32;
        let mut client = ServeClient::connect(addr).expect("set-up connection");
        let per_request = 1_000 / WARM_THRESHOLD as usize;
        let ids: Vec<u32> = (0..warm_below).collect();
        for chunk in ids.chunks(per_request) {
            let repeated: Vec<u32> =
                (0..WARM_THRESHOLD).flat_map(|_| chunk.iter().copied()).collect();
            client.record_interactions(&repeated).expect("warm the catalogue");
        }
        drop(client);
        debug_assert!(handle.router().is_warm(0) && !handle.router().is_warm(warm_below));
        catalog.timings.serve_and_warm_s = secs(t);
        Served { catalog, manager, handle, addr, warm_below }
    }

    /// Whole set-up: catalogue, models, snapshot, server, warm router.
    pub fn build(items: usize, precision: Precision, step_sink: Option<Arc<dyn Sink>>) -> Served {
        Served::start(Catalog::build(items, step_sink), precision)
    }
}
