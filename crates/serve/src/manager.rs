//! The model manager: versioned snapshots behind an atomic swap.
//!
//! A [`ModelSnapshot`] bundles everything one request needs — the model,
//! the feature store, and the frozen O(1) index — so a request that grabbed
//! a snapshot is immune to concurrent republishes: it scores against one
//! consistent model version from start to finish. The manager holds the
//! current snapshot in a [`SwapCell`]; `load` is a refcount bump,
//! `publish` is a pointer swap, and a background reload builds the new
//! snapshot entirely off to the side before publishing, so readers never
//! block behind artifact IO or weight loading.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use atnn_ann::{ItemPool, IvfFlatIndex, IvfParams, PoolQuery, Retriever};
use atnn_core::{ArtifactError, Atnn, ModelArtifact, PopularityIndex, QuantTables};
use atnn_data::tmall::TmallDataset;
use atnn_obs::{Counter, Gauge};
use atnn_tensor::{CowMatrix, CowQuantMatrix, Matrix, QuantizedMatrix, SwapCell};

/// Wall-clock seconds the most recent snapshot build spent precomputing
/// embedding caches and the ANN index, full or delta (set by
/// [`ModelSnapshot::new`], [`ModelSnapshot::from_artifact`], and
/// [`ModelSnapshot::delta_from`]).
static SNAPSHOT_BUILD_SECONDS: Gauge = Gauge::new();

/// `atnn.serve.snapshot_build_full_seconds` — wall-clock cost of the most
/// recent *full* snapshot build (whole-catalogue re-embed + index build).
static SNAPSHOT_BUILD_FULL_SECONDS: Gauge = Gauge::new();

/// `atnn.serve.snapshot_build_delta_seconds` — wall-clock cost of the most
/// recent *delta* snapshot build (changed rows only).
static SNAPSHOT_BUILD_DELTA_SECONDS: Gauge = Gauge::new();

/// `atnn.serve.publishes_full` — full snapshot builds since process start.
static PUBLISHES_FULL: Counter = Counter::new();

/// `atnn.serve.publishes_delta` — delta snapshot builds since process start.
static PUBLISHES_DELTA: Counter = Counter::new();

/// `atnn.serve.snapshot_bytes` — resident bytes of the most recently
/// built snapshot's embedding tables *as served* (int8 codes + affine
/// parameters under [`Precision::Int8`]; raw f32 under
/// [`Precision::F32`]).
static SNAPSHOT_BYTES: Gauge = Gauge::new();

/// `atnn.serve.snapshot_f32_bytes` — what the same tables would occupy
/// uncompressed; the ratio against [`SNAPSHOT_BYTES`] is the memory win.
static SNAPSHOT_F32_BYTES: Gauge = Gauge::new();

/// The gauge tracking the last snapshot build's wall-clock cost.
pub fn snapshot_build_gauge() -> &'static Gauge {
    &SNAPSHOT_BUILD_SECONDS
}

/// The `atnn.serve.snapshot_bytes` gauge: embedding-table bytes of the
/// most recently built snapshot, in its served representation.
pub fn snapshot_bytes_gauge() -> &'static Gauge {
    &SNAPSHOT_BYTES
}

/// The `atnn.serve.snapshot_f32_bytes` gauge: the f32 footprint the same
/// tables would need.
pub fn snapshot_f32_bytes_gauge() -> &'static Gauge {
    &SNAPSHOT_F32_BYTES
}

/// The gauge tracking the last *full* snapshot build's wall-clock cost.
pub fn snapshot_build_full_gauge() -> &'static Gauge {
    &SNAPSHOT_BUILD_FULL_SECONDS
}

/// The gauge tracking the last *delta* snapshot build's wall-clock cost.
pub fn snapshot_build_delta_gauge() -> &'static Gauge {
    &SNAPSHOT_BUILD_DELTA_SECONDS
}

/// Count of full snapshot builds since process start.
pub fn publishes_full_counter() -> &'static Counter {
    &PUBLISHES_FULL
}

/// Count of delta snapshot builds since process start.
pub fn publishes_delta_counter() -> &'static Counter {
    &PUBLISHES_DELTA
}

/// Numeric representation of a snapshot's cached embedding tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Raw f32 rows; scoring is bit-identical to per-request forward
    /// passes. The default.
    #[default]
    F32,
    /// Int8 rows with per-row affine codes over a shared anchor
    /// (~3.7–3.9× smaller at paper dims). Scoring is *toleranced* —
    /// within the quantization error bound of the f32 path — not
    /// bit-identical.
    Int8,
}

/// One immutable, consistently-versioned serving state.
///
/// Construction precomputes both item-tower embedding matrices once per
/// publish — the item side depends only on the item, so scoring becomes a
/// cached-row dot instead of a per-request forward pass — and builds the
/// IVF-flat retrieval index over the cold (new-arrival) embeddings. The
/// cached paths are bit-identical to re-running the towers per request:
/// the GEMM kernel uses a single accumulator per output element with
/// strictly ascending `k`, so forward passes are row-wise invariant and
/// batch-size invariant (pinned by `score_paths_match_direct_model_calls`).
#[derive(Debug)]
pub struct ModelSnapshot {
    /// Publisher's version tag.
    pub version: u64,
    /// The feature store items are encoded from. Shared by refcount so a
    /// delta publish over the same catalogue costs no dataset copy.
    pub data: Arc<TmallDataset>,
    /// The trained model. Shared so a delta publish can hand the same
    /// weights to the next snapshot without a clone.
    pub model: Arc<Atnn>,
    /// The frozen mean-user-vector index.
    pub index: PopularityIndex,
    /// Cached item-tower tables: generator (cold-path) and full-encoder
    /// (warm-path) vectors, row id == item id, in the publish-time
    /// precision. Both are chunked copy-on-write tables (rows live in
    /// `Arc`'d blocks of [`atnn_tensor::COW_CHUNK_ROWS`]), so a delta
    /// publish clones only the chunks holding changed rows and shares the
    /// rest with the previous snapshot by refcount. Item statistics are
    /// frozen per snapshot (`RecordInteractions` feeds the policy router,
    /// not the feature store), so these cannot go stale.
    cold: Served,
    warm: Served,
    /// IVF-flat index over the cold table — catalogue-wide TopK retrieval
    /// shares the new-arrival ranking semantics of the O(1) index.
    ann: IvfFlatIndex,
    /// Wall-clock cost of cache + index construction, in seconds.
    build_seconds: f64,
}

/// One served table with the mean user vector readied for it once per
/// publish (the int8 cold and warm tables have different anchors, so each
/// needs its own prepared query).
#[derive(Debug)]
struct Served {
    pool: ItemPool,
    query: PoolQuery,
}

impl Served {
    fn new(pool: ItemPool, index: &PopularityIndex) -> Self {
        let query = pool.prepare(index.mean_user_vec());
        Served { pool, query }
    }

    /// `σ(dot + bias)` of each item's cached row against the mean user
    /// vector — by definition what `PopularityIndex::score_vector` gives
    /// for the same f32 row.
    fn score(&self, index: &PopularityIndex, items: &[u32]) -> Vec<f32> {
        items.iter().map(|&i| index.score_from_dot(self.pool.dot(i, &self.query))).collect()
    }
}

/// Batch width for server-side forward passes.
const BATCH: usize = 512;

/// Cold (generator) and warm (full-encoder) item vectors of `ids`, one
/// row per id, in batched forward passes. Forward passes are row-wise
/// and batch-size invariant (single accumulator per output element,
/// ascending k), so a row comes out bit-equal whichever ids share its
/// batch — a delta's re-embed matches a whole-catalogue build.
fn embed(data: &TmallDataset, model: &Atnn, ids: &[u32]) -> (Matrix, Matrix) {
    let dim = model.config().vec_dim;
    let mut cold = Matrix::zeros(ids.len(), dim);
    let mut warm = Matrix::zeros(ids.len(), dim);
    for (c, chunk) in ids.chunks(BATCH).enumerate() {
        let profile = data.encode_item_profiles(chunk);
        let stats = data.encode_item_stats(chunk);
        let cold_chunk = model.item_vectors_generated(&profile);
        let warm_chunk = model.item_vectors_full(&profile, &stats);
        for i in 0..chunk.len() {
            cold.row_mut(c * BATCH + i).copy_from_slice(cold_chunk.row(i));
            warm.row_mut(c * BATCH + i).copy_from_slice(warm_chunk.row(i));
        }
    }
    (cold, warm)
}

/// Cumulative assignment-drift fraction past which a delta publish
/// re-runs the k-means build instead of keeping the frozen centroids.
/// Retrieval stays *exact at full probe* under any drift (re-ranking is
/// over true dots); drift only erodes pruned-probe recall, so the budget
/// trades rebuild cost against how far the centroids may lag the data.
pub const DRIFT_REBUILD_FRACTION: f64 = 0.25;

/// What a delta publish did, returned alongside the snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaReport {
    /// Distinct changed item ids re-embedded and re-quantized.
    pub changed: usize,
    /// Changed vectors whose nearest frozen centroid moved (inverted-list
    /// remove + re-insert operations performed).
    pub moved_lists: usize,
    /// Whether cumulative drift crossed [`DRIFT_REBUILD_FRACTION`] and
    /// forced a full k-means rebuild over the updated table.
    pub index_rebuilt: bool,
    /// Wall-clock cost of the delta build, in seconds.
    pub build_seconds: f64,
}

/// Rejected delta publish.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeltaError {
    /// The previous snapshot covers a different item space than the
    /// served catalogue (only reachable through manager-level publishes).
    ItemSpace(ItemSpaceMismatch),
    /// A changed id is outside the catalogue.
    IdOutOfRange {
        /// The offending id.
        id: u32,
        /// Items in the catalogue.
        num_items: usize,
    },
    /// The replacement model embeds into a different dimension than the
    /// tables being patched.
    DimMismatch {
        /// The previous snapshot's embedding dimension.
        prev: usize,
        /// The replacement model's embedding dimension.
        offered: usize,
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::ItemSpace(e) => write!(f, "delta publish rejected: {e}"),
            DeltaError::IdOutOfRange { id, num_items } => {
                write!(f, "delta publish rejected: changed id {id} >= {num_items} items")
            }
            DeltaError::DimMismatch { prev, offered } => {
                write!(f, "delta publish rejected: model dim {offered} != table dim {prev}")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

impl ModelSnapshot {
    /// Builds an f32 snapshot: precomputes both embedding caches and the
    /// ANN index, then records the build cost in [`snapshot_build_gauge`].
    pub fn new(version: u64, data: TmallDataset, model: Atnn, index: PopularityIndex) -> Self {
        Self::assemble(version, Arc::new(data), Arc::new(model), index, None, Precision::F32, None)
    }

    /// Builds a snapshot in the requested table precision. Under
    /// [`Precision::Int8`] the item tables are quantized after the
    /// forward passes and the f32 copies are dropped once the ANN index
    /// (built on the exact vectors) has been re-pointed at the codes.
    pub fn new_with_precision(
        version: u64,
        data: TmallDataset,
        model: Atnn,
        index: PopularityIndex,
        precision: Precision,
    ) -> Self {
        Self::assemble(version, Arc::new(data), Arc::new(model), index, None, precision, None)
    }

    /// [`ModelSnapshot::new_with_precision`] over already-shared dataset
    /// and model handles — the full-rebuild baseline a delta publish is
    /// compared against can reuse the previous snapshot's `Arc`s instead
    /// of cloning a catalogue.
    pub fn new_shared(
        version: u64,
        data: Arc<TmallDataset>,
        model: Arc<Atnn>,
        index: PopularityIndex,
        precision: Precision,
    ) -> Self {
        Self::assemble(version, data, model, index, None, precision, None)
    }

    /// Rebuilds a snapshot from a decoded artifact, adopting its persisted
    /// ANN index when present and valid (otherwise building at load). An
    /// artifact carrying publish-time quantized tables comes back as an
    /// [`Precision::Int8`] snapshot serving the publisher's exact codes;
    /// one without them loads as f32.
    pub fn from_artifact(artifact: &ModelArtifact) -> Result<Self, ArtifactError> {
        let precision = if artifact.quant().is_some() { Precision::Int8 } else { Precision::F32 };
        Self::from_artifact_with_precision(artifact, precision)
    }

    /// Rebuilds a snapshot from an artifact at an explicit precision —
    /// e.g. quantized serving from a plain f32 artifact (the tables are
    /// quantized at load, deterministically identical to publish-time
    /// quantization of the same weights). Persisted codes are only read
    /// under [`Precision::Int8`].
    pub fn from_artifact_with_precision(
        artifact: &ModelArtifact,
        precision: Precision,
    ) -> Result<Self, ArtifactError> {
        let live = artifact.instantiate()?;
        Ok(Self::assemble(
            live.version,
            Arc::new(live.data),
            Arc::new(live.model),
            live.index,
            artifact.ann(),
            precision,
            artifact.quant(),
        ))
    }

    fn assemble(
        version: u64,
        data: Arc<TmallDataset>,
        model: Arc<Atnn>,
        index: PopularityIndex,
        ann_blob: Option<&[u8]>,
        precision: Precision,
        quant: Option<&QuantTables>,
    ) -> Self {
        let started = Instant::now();
        let n = data.num_items();
        let ids: Vec<u32> = (0..n as u32).collect();
        let (cold_vecs, warm_vecs) = embed(&data, &model, &ids);
        let cold_vecs = Arc::new(cold_vecs);
        // The one place a table takes its served form. Either way it is
        // cut into copy-on-write chunks so delta publishes can share the
        // unmodified ones.
        let (cold, warm): (ItemPool, ItemPool) = match precision {
            Precision::F32 => (
                Arc::new(CowMatrix::from_matrix(&cold_vecs)).into(),
                Arc::new(CowMatrix::from_matrix(&warm_vecs)).into(),
            ),
            Precision::Int8 => {
                // Persisted tables are adopted only at the right shape;
                // otherwise quantize the vectors just computed (same
                // deterministic result when the weights match).
                let table = |persisted: Option<&QuantizedMatrix>, vecs: &Matrix| -> ItemPool {
                    let chunked = persisted
                        .filter(|t| (t.rows(), t.cols()) == vecs.shape())
                        .map(CowQuantMatrix::from_quantized)
                        .unwrap_or_else(|| {
                            CowQuantMatrix::from_quantized(&QuantizedMatrix::from_matrix(vecs))
                        });
                    Arc::new(chunked).into()
                };
                (
                    table(quant.map(|q| &q.cold), &cold_vecs),
                    table(quant.map(|q| &q.warm), &warm_vecs),
                )
            }
        };
        // The IVF structure (k-means centroids, inverted lists) is built
        // or decoded over the exact contiguous f32 vectors — adopted as a
        // one-chunk pool, not copied — then re-pointed at the served
        // table; the contiguous vectors are dropped at the end of this
        // scope. A persisted index is adopted only if it decodes cleanly
        // against the freshly computed embeddings; the build is
        // deterministic, so both routes yield bit-identical retrieval.
        let ann = ann_blob
            .and_then(|blob| IvfFlatIndex::decode(blob, Arc::clone(&cold_vecs)).ok())
            .unwrap_or_else(|| IvfFlatIndex::build(Arc::clone(&cold_vecs), IvfParams::for_items(n)))
            .with_pool(cold.clone())
            .expect("served table mirrors the embeddings it was built from");
        let (cold, warm) = (Served::new(cold, &index), Served::new(warm, &index));
        let build_seconds = started.elapsed().as_secs_f64();
        let snapshot =
            ModelSnapshot { version, data, model, index, cold, warm, ann, build_seconds };
        snapshot.record_build(&SNAPSHOT_BUILD_FULL_SECONDS, &PUBLISHES_FULL);
        snapshot
    }

    /// Publishes this build's cost and table sizes to the process gauges;
    /// `seconds` and `count` are the full- or delta-build pair.
    fn record_build(&self, seconds: &Gauge, count: &Counter) {
        SNAPSHOT_BUILD_SECONDS.set(self.build_seconds);
        seconds.set(self.build_seconds);
        count.incr();
        SNAPSHOT_BYTES.set(self.snapshot_bytes() as f64);
        SNAPSHOT_F32_BYTES.set(self.snapshot_f32_bytes() as f64);
    }

    /// Builds a snapshot *incrementally* from `prev`: only the rows in
    /// `changed` are re-embedded (one batched pass over the delta), the
    /// untouched rows are shared with `prev` chunk-by-chunk via
    /// copy-on-write, and the IVF index re-assigns only the changed
    /// vectors under frozen centroids. Cost is proportional to
    /// `changed.len()`, not catalogue size.
    ///
    /// Exactness contract (pinned by the delta-parity proptests): the
    /// result is bit-identical (f32) / code-identical (int8) to a
    /// frozen-structure full recompute — same k-means centroids, same
    /// quantization anchor — whose inputs differ from `prev` only on
    /// `changed`. Re-embedding is row-local (the GEMM is batch-invariant),
    /// re-quantization is row-local (anchored per-row affine codes), and
    /// frozen-centroid re-assignment of an unchanged row re-derives its
    /// existing list, so skipping unchanged rows changes nothing.
    ///
    /// Frozen centroids drift away from the data as deltas accumulate;
    /// once the cumulative fraction of moved assignments exceeds
    /// [`DRIFT_REBUILD_FRACTION`], the k-means build re-runs over the full
    /// updated table (still cheaper than a full publish — no re-embed).
    pub fn delta_from(
        prev: &ModelSnapshot,
        version: u64,
        model: Arc<Atnn>,
        index: PopularityIndex,
        changed: &[u32],
    ) -> Result<(Self, DeltaReport), DeltaError> {
        let started = Instant::now();
        let n = prev.num_items();
        let dim = model.config().vec_dim;
        let prev_dim = prev.model.config().vec_dim;
        if dim != prev_dim {
            return Err(DeltaError::DimMismatch { prev: prev_dim, offered: dim });
        }
        let mut ids: Vec<u32> = changed.to_vec();
        ids.sort_unstable();
        ids.dedup();
        if let Some(&id) = ids.iter().find(|&&id| id as usize >= n) {
            return Err(DeltaError::IdOutOfRange { id, num_items: n });
        }
        let (delta_cold, delta_warm) = embed(&prev.data, &model, &ids);

        // Frozen-centroid re-assignment of the changed vectors, tracked
        // against the drift budget. The index clone is cheap relative to
        // a build: centroids + lists, no k-means.
        let mut ann = prev.ann.clone();
        let moved = ann.reassign(&ids, &delta_cold);
        let rebuild = ann.drift_fraction() > DRIFT_REBUILD_FRACTION;

        // Patch the changed rows in place; each row's stored form depends
        // only on the row (and, for int8, the frozen shared anchor), so
        // this is exact in either precision.
        let (mut cold, mut warm) = (prev.cold.pool.clone(), prev.warm.pool.clone());
        cold.update_rows(&ids, &delta_cold);
        warm.update_rows(&ids, &delta_warm);
        if rebuild {
            // Re-train k-means over the table's f32 form — for int8 the
            // dequantized codes, the only f32 view that exists there —
            // then serve re-ranks from the table as usual.
            ann = IvfFlatIndex::build(Arc::new(cold.to_f32()), *prev.ann.params());
        }
        let ann = ann.with_pool(cold.clone()).expect("updated table keeps the indexed shape");

        let (cold, warm) = (Served::new(cold, &index), Served::new(warm, &index));
        let data = Arc::clone(&prev.data);
        let build_seconds = started.elapsed().as_secs_f64();
        let snapshot =
            ModelSnapshot { version, data, model, index, cold, warm, ann, build_seconds };
        snapshot.record_build(&SNAPSHOT_BUILD_DELTA_SECONDS, &PUBLISHES_DELTA);
        let report = DeltaReport {
            changed: ids.len(),
            moved_lists: moved,
            index_rebuilt: rebuild,
            build_seconds,
        };
        Ok((snapshot, report))
    }

    /// Highest item id this snapshot can score.
    pub fn num_items(&self) -> usize {
        self.data.num_items()
    }

    /// Cold path: the cached generator vector's O(1) dot against the
    /// stored mean user vector (int8 kernel under [`Precision::Int8`]).
    pub fn score_cold(&self, items: &[u32]) -> Vec<f32> {
        self.cold.score(&self.index, items)
    }

    /// Warm path: the cached full-encoder vector's dot against the same
    /// mean user vector.
    pub fn score_warm(&self, items: &[u32]) -> Vec<f32> {
        self.warm.score(&self.index, items)
    }

    /// Catalogue-wide top-`k` retrieval in **raw dot space** (best first,
    /// ties by ascending id), restricted to ids `keep` accepts. Callers
    /// convert winners to probabilities with
    /// [`PopularityIndex::score_from_dot`] — the sigmoid is monotone, so
    /// converting after selection preserves the exact dot-space order
    /// (converting before could collapse distinct dots to equal `f32`
    /// probabilities and flip id tie-breaks).
    pub fn topk_dots(
        &self,
        k: usize,
        nprobe: usize,
        keep: &dyn Fn(u32) -> bool,
    ) -> Vec<(u32, f32)> {
        self.ann.topk_filtered(self.index.mean_user_vec(), k, nprobe, keep)
    }

    /// The retrieval index built over the cold embeddings.
    pub fn ann(&self) -> &IvfFlatIndex {
        &self.ann
    }

    /// The cached cold-path (generator) embedding table, or `None` on a
    /// [`Precision::Int8`] snapshot — the f32 rows are dropped after
    /// quantization; use [`ModelSnapshot::quant_tables`] there instead.
    pub fn cold_vecs(&self) -> Option<&Arc<CowMatrix>> {
        self.cold.pool.as_f32()
    }

    /// The cached warm-path (full-encoder) embedding table; `None` on a
    /// [`Precision::Int8`] snapshot, like [`ModelSnapshot::cold_vecs`].
    pub fn warm_vecs(&self) -> Option<&Arc<CowMatrix>> {
        self.warm.pool.as_f32()
    }

    /// The quantized cold/warm tables of an [`Precision::Int8`] snapshot
    /// (`None` for f32 snapshots). Used to persist publish-time codes
    /// into an artifact so replicas adopt them bit-identically.
    pub fn quant_tables(&self) -> Option<(&Arc<CowQuantMatrix>, &Arc<CowQuantMatrix>)> {
        self.cold.pool.as_int8().zip(self.warm.pool.as_int8())
    }

    /// The numeric representation this snapshot serves from.
    pub fn precision(&self) -> Precision {
        if self.cold.pool.is_quantized() {
            Precision::Int8
        } else {
            Precision::F32
        }
    }

    /// Bytes the cached item tables occupy as served.
    pub fn snapshot_bytes(&self) -> u64 {
        (self.cold.pool.storage_bytes() + self.warm.pool.storage_bytes()) as u64
    }

    /// Bytes the same tables would occupy as raw f32.
    pub fn snapshot_f32_bytes(&self) -> u64 {
        (self.cold.pool.f32_bytes() + self.warm.pool.f32_bytes()) as u64
    }

    /// Serialized form of the ANN index, for persisting into an artifact.
    pub fn encoded_ann(&self) -> Vec<u8> {
        self.ann.encode()
    }

    /// Wall-clock seconds this snapshot spent in cache + index builds.
    pub fn build_seconds(&self) -> f64 {
        self.build_seconds
    }
}

/// Rejected publish: the replacement snapshot covers a different item
/// space than the catalogue being served.
///
/// The server's policy router and request validation are sized to the boot
/// snapshot, so a hot swap must be a retrained model over the same
/// catalogue (the paper's periodic-retrain setup). A snapshot with fewer
/// items would let already-validated ids reach a table that has no row
/// for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItemSpaceMismatch {
    /// Items in the catalogue being served.
    pub serving: usize,
    /// Items in the rejected snapshot.
    pub offered: usize,
}

impl std::fmt::Display for ItemSpaceMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "snapshot covers {} items but the served catalogue has {}",
            self.offered, self.serving
        )
    }
}

impl std::error::Error for ItemSpaceMismatch {}

/// Holds the current [`ModelSnapshot`] and swaps in replacements.
///
/// A sharded server registers one extra [`SwapCell`] per shard; `publish`
/// then fans a single `Arc` of the new snapshot out to the primary cell
/// and every shard cell, so all shards flip to the new version together
/// and share one copy of the weights.
#[derive(Debug)]
pub struct ModelManager {
    current: SwapCell<ModelSnapshot>,
    /// Shard-owned cells `publish` fans out to. Guarded by a mutex only
    /// on the (rare) publish/register path; shard reads go through their
    /// own `Arc<SwapCell>` clone, never through this list.
    shard_cells: Mutex<Vec<Arc<SwapCell<ModelSnapshot>>>>,
    /// Item-space size fixed at construction; every published snapshot
    /// must match it.
    num_items: usize,
}

impl ModelManager {
    /// Starts serving `snapshot`. Its item space becomes the invariant all
    /// later publishes are checked against.
    pub fn new(snapshot: ModelSnapshot) -> Self {
        let num_items = snapshot.num_items();
        ModelManager {
            current: SwapCell::new(snapshot),
            shard_cells: Mutex::new(Vec::new()),
            num_items,
        }
    }

    /// Creates and registers a shard-owned snapshot cell, seeded with the
    /// current snapshot. Every later [`ModelManager::publish`] updates it
    /// atomically alongside the primary cell.
    pub fn register_shard_cell(&self) -> Arc<SwapCell<ModelSnapshot>> {
        let cell = Arc::new(SwapCell::from_arc(self.load()));
        self.shard_cells.lock().unwrap().push(Arc::clone(&cell));
        cell
    }

    /// Unregisters previously registered shard cells (matched by pointer
    /// identity). A server's shutdown path calls this so a manager reused
    /// across serve lifecycles doesn't keep publishing into dead shards.
    pub fn unregister_shard_cells(&self, cells: &[Arc<SwapCell<ModelSnapshot>>]) {
        let mut registered = self.shard_cells.lock().unwrap();
        registered.retain(|c| !cells.iter().any(|dead| Arc::ptr_eq(c, dead)));
    }

    /// Number of shard cells currently registered (test/introspection).
    pub fn shard_cell_count(&self) -> usize {
        self.shard_cells.lock().unwrap().len()
    }

    /// Publishes `snapshot` into a single shard's cell, leaving the
    /// primary and all other shards untouched. This is the canary hook the
    /// scatter-gather tests use to create a deliberately version-skewed
    /// fleet; production swaps go through [`ModelManager::publish`].
    /// Returns `false` if `shard` is out of range.
    pub fn publish_to_shard(
        &self,
        shard: usize,
        snapshot: ModelSnapshot,
    ) -> Result<bool, ItemSpaceMismatch> {
        if snapshot.num_items() != self.num_items {
            return Err(ItemSpaceMismatch {
                serving: self.num_items,
                offered: snapshot.num_items(),
            });
        }
        let registered = self.shard_cells.lock().unwrap();
        match registered.get(shard) {
            Some(cell) => {
                cell.publish_arc(Arc::new(snapshot));
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Items in the served catalogue (fixed across hot swaps).
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Boots a manager straight from an artifact file.
    pub fn from_artifact_file(path: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        let artifact = ModelArtifact::load_from(path)?;
        Ok(ModelManager::new(ModelSnapshot::from_artifact(&artifact)?))
    }

    /// The current snapshot (refcount bump; never copies the model).
    pub fn load(&self) -> Arc<ModelSnapshot> {
        self.current.load()
    }

    /// The version tag of the current snapshot.
    pub fn version(&self) -> u64 {
        self.load().version
    }

    /// Publishes a new snapshot. In-flight requests keep the snapshot
    /// they already hold; new requests see the replacement immediately.
    /// One shared `Arc` fans out to the primary cell and every registered
    /// shard cell under the registration lock, so no two `publish` calls
    /// can interleave and leave shards on different versions. Rejects
    /// snapshots whose item space differs from the served catalogue — see
    /// [`ItemSpaceMismatch`].
    pub fn publish(&self, snapshot: ModelSnapshot) -> Result<(), ItemSpaceMismatch> {
        if snapshot.num_items() != self.num_items {
            return Err(ItemSpaceMismatch {
                serving: self.num_items,
                offered: snapshot.num_items(),
            });
        }
        let version = snapshot.version;
        let shared = Arc::new(snapshot);
        {
            let registered = self.shard_cells.lock().unwrap();
            self.current.publish_arc(Arc::clone(&shared));
            for cell in registered.iter() {
                cell.publish_arc(Arc::clone(&shared));
            }
        }
        atnn_obs::emit(&atnn_obs::Event::Swap { version });
        Ok(())
    }

    /// Builds a delta snapshot from the *current* snapshot (see
    /// [`ModelSnapshot::delta_from`]) and publishes it fleet-wide. The
    /// build happens off to the side against the loaded snapshot, so
    /// readers never block; cost is proportional to `changed.len()`.
    pub fn publish_delta(
        &self,
        version: u64,
        model: Arc<Atnn>,
        index: PopularityIndex,
        changed: &[u32],
    ) -> Result<DeltaReport, DeltaError> {
        let prev = self.load();
        let (snapshot, report) = ModelSnapshot::delta_from(&prev, version, model, index, changed)?;
        self.publish(snapshot).map_err(DeltaError::ItemSpace)?;
        Ok(report)
    }

    /// Canary variant of [`ModelManager::publish_delta`]: the delta
    /// snapshot lands in a single shard's cell only (a delta snapshot is
    /// a plain [`ModelSnapshot`], so it rides the same canary hook as a
    /// full one). Returns `Ok(None)` if `shard` is out of range.
    pub fn publish_delta_to_shard(
        &self,
        shard: usize,
        version: u64,
        model: Arc<Atnn>,
        index: PopularityIndex,
        changed: &[u32],
    ) -> Result<Option<DeltaReport>, DeltaError> {
        let prev = self.load();
        let (snapshot, report) = ModelSnapshot::delta_from(&prev, version, model, index, changed)?;
        match self.publish_to_shard(shard, snapshot).map_err(DeltaError::ItemSpace)? {
            true => Ok(Some(report)),
            false => Ok(None),
        }
    }

    /// Reloads from an artifact file and publishes the result. The build
    /// (file read, checksum, dataset regeneration, weight load) happens
    /// before the swap, so readers never observe a half-loaded model; an
    /// artifact over a different catalogue is rejected without swapping.
    /// Returns the published version.
    pub fn reload_from(&self, path: impl AsRef<Path>) -> Result<u64, ArtifactError> {
        let artifact = ModelArtifact::load_from(path)?;
        let snapshot = ModelSnapshot::from_artifact(&artifact)?;
        let version = snapshot.version;
        self.publish(snapshot).map_err(|_| {
            ArtifactError::Corrupt("artifact item space differs from the served catalogue")
        })?;
        Ok(version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atnn_core::{AtnnConfig, CtrTrainer, TrainOptions};
    use atnn_data::tmall::TmallConfig;

    fn tiny_snapshot(version: u64, epochs: usize) -> (ModelSnapshot, TmallConfig) {
        let cfg = TmallConfig {
            num_users: 60,
            num_items: 120,
            num_interactions: 1_000,
            ..TmallConfig::tiny()
        };
        let data = TmallDataset::generate(cfg.clone());
        let mut model = Atnn::new(AtnnConfig::scaled(), &data);
        if epochs > 0 {
            let opts = TrainOptions::builder().epochs(epochs).build().expect("valid options");
            CtrTrainer::new(opts).train(&mut model, &data, None).expect("training runs");
        }
        let index = PopularityIndex::build(&model, &data, &(0..40).collect::<Vec<_>>());
        (ModelSnapshot::new(version, data, model, index), cfg)
    }

    #[test]
    fn score_paths_match_direct_model_calls() {
        let (snap, _) = tiny_snapshot(1, 1);
        let items: Vec<u32> = (0..20).collect();
        let cold = snap.score_cold(&items);
        let direct = snap.index.score_new_arrivals(&snap.model, &snap.data, &items);
        assert_eq!(cold, direct);

        let warm = snap.score_warm(&items);
        let profile = snap.data.encode_item_profiles(&items);
        let stats = snap.data.encode_item_stats(&items);
        let vecs = snap.model.item_vectors_full(&profile, &stats);
        let expected: Vec<f32> =
            (0..vecs.rows()).map(|i| snap.index.score_vector(vecs.row(i))).collect();
        assert_eq!(warm, expected);
    }

    #[test]
    fn topk_dots_matches_the_brute_force_oracle() {
        let (snap, _) = tiny_snapshot(1, 1);
        let oracle = atnn_ann::BruteForce::new(Arc::clone(snap.cold_vecs().expect("f32 snapshot")));
        let full = snap.ann().nlist();
        let got = snap.topk_dots(10, full, &|_| true);
        assert_eq!(got, oracle.topk(snap.index.mean_user_vec(), 10, 0));
        // Sigmoid-at-the-front: converting a winner's dot must reproduce
        // the scoring path's probability bit for bit.
        for &(id, d) in &got {
            assert_eq!(snap.index.score_from_dot(d), snap.score_cold(&[id])[0]);
        }
        assert!(snapshot_build_gauge().get() > 0.0, "build cost gauge is set");
    }

    #[test]
    fn publish_swaps_while_held_snapshots_stay_valid() {
        let (snap_a, _) = tiny_snapshot(1, 0);
        let (snap_b, _) = tiny_snapshot(2, 1);
        let manager = ModelManager::new(snap_a);
        let held = manager.load();
        assert_eq!(held.version, 1);
        manager.publish(snap_b).unwrap();
        assert_eq!(manager.version(), 2);
        assert_eq!(held.version, 1, "held snapshot unaffected by publish");
    }

    #[test]
    fn publish_rejects_a_different_item_space() {
        let (snap_a, _) = tiny_snapshot(1, 0);
        let manager = ModelManager::new(snap_a);
        assert_eq!(manager.num_items(), 120);

        let shrunk_cfg = TmallConfig {
            num_users: 60,
            num_items: 80,
            num_interactions: 1_000,
            ..TmallConfig::tiny()
        };
        let data = TmallDataset::generate(shrunk_cfg);
        let model = Atnn::new(AtnnConfig::scaled(), &data);
        let index = PopularityIndex::build(&model, &data, &(0..40).collect::<Vec<_>>());
        let shrunk = ModelSnapshot::new(2, data, model, index);

        let err = manager.publish(shrunk).unwrap_err();
        assert_eq!(err, ItemSpaceMismatch { serving: 120, offered: 80 });
        assert_eq!(manager.version(), 1, "rejected publish must not swap");
    }

    #[test]
    fn publish_fans_out_to_registered_shard_cells() {
        let (snap_a, _) = tiny_snapshot(1, 0);
        let (snap_b, _) = tiny_snapshot(2, 0);
        let manager = ModelManager::new(snap_a);
        let cell_0 = manager.register_shard_cell();
        let cell_1 = manager.register_shard_cell();
        assert_eq!(manager.shard_cell_count(), 2);
        assert_eq!(cell_0.load().version, 1, "registration seeds the current snapshot");

        manager.publish(snap_b).unwrap();
        let (s0, s1) = (cell_0.load(), cell_1.load());
        assert_eq!((s0.version, s1.version), (2, 2));
        assert!(Arc::ptr_eq(&s0, &s1), "shards share one copy of the snapshot");
        assert!(Arc::ptr_eq(&s0, &manager.load()), "and so does the primary cell");

        manager.unregister_shard_cells(&[Arc::clone(&cell_0), Arc::clone(&cell_1)]);
        assert_eq!(manager.shard_cell_count(), 0);
        let (snap_c, _) = tiny_snapshot(3, 0);
        manager.publish(snap_c).unwrap();
        assert_eq!(cell_0.load().version, 2, "unregistered cells stop receiving publishes");
    }

    #[test]
    fn publish_to_shard_skews_one_cell_until_the_next_full_publish() {
        let (snap_a, _) = tiny_snapshot(1, 0);
        let (snap_b, _) = tiny_snapshot(2, 0);
        let (snap_c, _) = tiny_snapshot(3, 0);
        let manager = ModelManager::new(snap_a);
        let cell_0 = manager.register_shard_cell();
        let cell_1 = manager.register_shard_cell();

        assert!(manager.publish_to_shard(1, snap_b).unwrap());
        assert_eq!(cell_0.load().version, 1);
        assert_eq!(cell_1.load().version, 2, "canary shard runs ahead");
        assert_eq!(manager.version(), 1, "primary cell untouched");
        assert!(!manager.publish_to_shard(9, tiny_snapshot(4, 0).0).unwrap());

        manager.publish(snap_c).unwrap();
        assert_eq!(cell_0.load().version, 3);
        assert_eq!(cell_1.load().version, 3, "full publish heals the skew");
    }

    fn tiny_quantized_snapshot(version: u64, epochs: usize) -> (ModelSnapshot, TmallConfig) {
        let cfg = TmallConfig {
            num_users: 60,
            num_items: 120,
            num_interactions: 1_000,
            ..TmallConfig::tiny()
        };
        let data = TmallDataset::generate(cfg.clone());
        let mut model = Atnn::new(AtnnConfig::scaled(), &data);
        if epochs > 0 {
            let opts = TrainOptions::builder().epochs(epochs).build().expect("valid options");
            CtrTrainer::new(opts).train(&mut model, &data, None).expect("training runs");
        }
        let index = PopularityIndex::build(&model, &data, &(0..40).collect::<Vec<_>>());
        (ModelSnapshot::new_with_precision(version, data, model, index, Precision::Int8), cfg)
    }

    #[test]
    fn quantized_snapshot_scores_within_the_error_bound_and_shrinks_memory() {
        let (f32_snap, _) = tiny_snapshot(1, 1);
        let (q_snap, _) = tiny_quantized_snapshot(1, 1);
        assert_eq!(f32_snap.precision(), Precision::F32);
        assert_eq!(q_snap.precision(), Precision::Int8);
        assert!(q_snap.quant_tables().is_some());

        let items: Vec<u32> = (0..120).collect();
        for (path, exact, quant) in [
            ("cold", f32_snap.score_cold(&items), q_snap.score_cold(&items)),
            ("warm", f32_snap.score_warm(&items), q_snap.score_warm(&items)),
        ] {
            for (i, (e, q)) in exact.iter().zip(&quant).enumerate() {
                // Scores are sigmoids of small dots; the quantized dot is
                // within the per-row scale/2 · ‖query‖₁ bound, far inside
                // this tolerance for a trained tiny model.
                assert!((e - q).abs() < 5e-3, "{path} item {i}: f32 {e} vs int8 {q} drifted");
            }
        }

        // The served tables must be meaningfully smaller than their f32
        // form. dim = AtnnConfig::scaled().vec_dim (small), so the gate
        // here is loose; the 3.5× gate at paper dims lives in the bench.
        assert!(q_snap.snapshot_bytes() * 2 < q_snap.snapshot_f32_bytes());
        assert_eq!(q_snap.snapshot_f32_bytes(), f32_snap.snapshot_bytes());
        assert!(snapshot_bytes_gauge().get() > 0.0, "snapshot bytes gauge is set");
        assert!(snapshot_f32_bytes_gauge().get() > 0.0, "f32 bytes gauge is set");
    }

    #[test]
    fn quantized_topk_is_self_consistent_and_tracks_the_f32_oracle() {
        let (f32_snap, _) = tiny_snapshot(1, 1);
        let (q_snap, _) = tiny_quantized_snapshot(1, 1);
        let full = q_snap.ann().nlist();

        // Sigmoid-at-the-front still holds on the quantized path: a
        // winner's converted dot equals its scoring-path probability.
        let got = q_snap.topk_dots(10, full, &|_| true);
        for &(id, d) in &got {
            assert_eq!(q_snap.index.score_from_dot(d), q_snap.score_cold(&[id])[0]);
        }

        // Full-probe quantized retrieval recalls the f32 oracle's top-k
        // (same trained embeddings, int8 re-rank).
        let oracle = f32_snap.topk_dots(10, full, &|_| true);
        let oracle_ids: std::collections::HashSet<u32> = oracle.iter().map(|&(id, _)| id).collect();
        let hits = got.iter().filter(|(id, _)| oracle_ids.contains(id)).count();
        assert!(hits >= 9, "quantized top-10 recalled only {hits}/10 of the f32 oracle");
    }

    #[test]
    fn f32_table_accessors_are_none_on_a_quantized_snapshot() {
        let (q_snap, _) = tiny_quantized_snapshot(1, 0);
        assert!(q_snap.cold_vecs().is_none(), "int8 snapshot keeps no f32 cold pool");
        assert!(q_snap.warm_vecs().is_none(), "int8 snapshot keeps no f32 warm pool");

        let (snap, _) = tiny_snapshot(1, 0);
        let cold = snap.cold_vecs().expect("f32 snapshot exposes its cold table");
        let warm = snap.warm_vecs().expect("f32 snapshot exposes its warm table");
        assert_eq!((cold.rows(), warm.rows()), (120, 120));
        assert!(snap.quant_tables().is_none(), "and no quantized tables");
    }

    #[test]
    fn quantized_artifact_roundtrip_serves_identical_scores() {
        let (q_snap, data_cfg) = tiny_quantized_snapshot(9, 1);
        let items: Vec<u32> = (0..30).collect();
        let expected_cold = q_snap.score_cold(&items);
        let expected_warm = q_snap.score_warm(&items);
        let expected_top = q_snap.topk_dots(10, q_snap.ann().nlist(), &|_| true);

        let (cold, warm) = q_snap.quant_tables().expect("int8 snapshot");
        let artifact = ModelArtifact::capture(&q_snap.model, &data_cfg, &q_snap.index, 9)
            .with_ann(q_snap.encoded_ann().into())
            .with_quant(cold.to_quantized(), warm.to_quantized());
        let back = ModelArtifact::decode(artifact.encode()).unwrap();
        let reloaded = ModelSnapshot::from_artifact(&back).unwrap();

        assert_eq!(reloaded.precision(), Precision::Int8, "quant section implies int8 serving");
        assert_eq!(reloaded.score_cold(&items), expected_cold);
        assert_eq!(reloaded.score_warm(&items), expected_warm);
        assert_eq!(reloaded.topk_dots(10, reloaded.ann().nlist(), &|_| true), expected_top);
    }

    #[test]
    fn artifact_reload_publishes_identical_scores() {
        let (snap, data_cfg) = tiny_snapshot(7, 1);
        let items: Vec<u32> = (0..15).collect();
        let expected = snap.score_cold(&items);

        let artifact = ModelArtifact::capture(&snap.model, &data_cfg, &snap.index, 8);
        let path =
            std::env::temp_dir().join(format!("atnn_manager_test_{}.atnn", std::process::id()));
        artifact.save_to(&path).unwrap();

        let manager = ModelManager::new(snap);
        let version = manager.reload_from(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(version, 8);
        assert_eq!(manager.load().score_cold(&items), expected, "reload must be bit-identical");
    }

    /// A previous snapshot built from an untrained model plus a trained
    /// replacement model over the *same* catalogue — the delta-publish
    /// setting: new weights, unchanged item space.
    fn delta_fixture(precision: Precision) -> (ModelSnapshot, Arc<Atnn>) {
        let cfg = TmallConfig {
            num_users: 60,
            num_items: 120,
            num_interactions: 1_000,
            ..TmallConfig::tiny()
        };
        let data = TmallDataset::generate(cfg);
        let model_a = Atnn::new(AtnnConfig::scaled(), &data);
        let mut model_b = Atnn::new(AtnnConfig::scaled().with_seed(7), &data);
        let opts = TrainOptions::builder().epochs(1).build().expect("valid options");
        CtrTrainer::new(opts).train(&mut model_b, &data, None).expect("training runs");
        let index = PopularityIndex::build(&model_a, &data, &(0..40).collect::<Vec<_>>());
        let prev = ModelSnapshot::new_with_precision(1, data, model_a, index, precision);
        (prev, Arc::new(model_b))
    }

    #[test]
    fn delta_patches_changed_rows_to_the_full_rebuild_bitwise() {
        let (prev, model_b) = delta_fixture(Precision::F32);
        let changed: Vec<u32> = vec![5, 17, 18, 19, 60, 119];
        let (delta, report) =
            ModelSnapshot::delta_from(&prev, 2, Arc::clone(&model_b), prev.index.clone(), &changed)
                .unwrap();
        assert_eq!(report.changed, changed.len());
        assert!(Arc::ptr_eq(&delta.data, &prev.data), "catalogue shared, not copied");

        // Oracle: a genuine whole-catalogue rebuild from the new model.
        // Forward passes are batch-invariant, so every changed row must
        // match it bitwise; every unchanged row stays prev's, bitwise.
        let full = ModelSnapshot::new_shared(
            2,
            Arc::clone(&prev.data),
            Arc::clone(&model_b),
            prev.index.clone(),
            Precision::F32,
        );
        for (which, d, f, p) in [
            ("cold", delta.cold_vecs(), full.cold_vecs(), prev.cold_vecs()),
            ("warm", delta.warm_vecs(), full.warm_vecs(), prev.warm_vecs()),
        ] {
            let (d, f, p) = (d.unwrap(), f.unwrap(), p.unwrap());
            for i in 0..prev.num_items() {
                if changed.contains(&(i as u32)) {
                    assert_eq!(d.row(i), f.row(i), "{which} changed row {i} != full rebuild");
                } else {
                    assert_eq!(d.row(i), p.row(i), "{which} unchanged row {i} != previous");
                }
            }
        }
        assert!(snapshot_build_delta_gauge().get() > 0.0, "delta build gauge is set");
        assert!(publishes_delta_counter().get() >= 1);
    }

    /// The incrementality pin: patching S₁ then S₂ must equal patching
    /// S₁ ∪ S₂ in one shot — tables bitwise, IVF structure byte-for-byte,
    /// retrieval (incl. tie order) identical. If the delta path leaked
    /// any dependence on unchanged rows, composition would break. Holds
    /// under frozen centroids, so the sets stay below the drift budget
    /// (a k-means rebuild re-trains the quantizer mid-sequence, which is
    /// a deliberate policy break of pure composition).
    #[test]
    fn delta_composition_is_exact_f32() {
        let (prev, model_b) = delta_fixture(Precision::F32);
        let index = prev.index.clone();
        let s1: Vec<u32> = (0..12).collect();
        let s2: Vec<u32> = (8..20).collect();
        let union: Vec<u32> = (0..20).collect();

        let (step1, r1) =
            ModelSnapshot::delta_from(&prev, 2, Arc::clone(&model_b), index.clone(), &s1).unwrap();
        let (two_step, r2) =
            ModelSnapshot::delta_from(&step1, 3, Arc::clone(&model_b), index.clone(), &s2).unwrap();
        let (one_shot, r3) =
            ModelSnapshot::delta_from(&prev, 3, Arc::clone(&model_b), index, &union).unwrap();
        assert!(
            !r1.index_rebuilt && !r2.index_rebuilt && !r3.index_rebuilt,
            "sets sized below the drift budget must stay incremental"
        );

        let items: Vec<u32> = (0..120).collect();
        assert_eq!(two_step.score_cold(&items), one_shot.score_cold(&items));
        assert_eq!(two_step.score_warm(&items), one_shot.score_warm(&items));
        assert_eq!(
            two_step.cold_vecs().unwrap().to_matrix(),
            one_shot.cold_vecs().unwrap().to_matrix()
        );
        assert_eq!(two_step.encoded_ann(), one_shot.encoded_ann(), "identical IVF bytes");
        let full = one_shot.ann().nlist();
        assert_eq!(
            two_step.topk_dots(20, full, &|_| true),
            one_shot.topk_dots(20, full, &|_| true)
        );
        assert_eq!(two_step.topk_dots(20, 2, &|_| true), one_shot.topk_dots(20, 2, &|_| true));
    }

    #[test]
    fn delta_composition_is_code_identical_int8() {
        let (prev, model_b) = delta_fixture(Precision::Int8);
        let index = prev.index.clone();
        let s1: Vec<u32> = (10..22).collect();
        let s2: Vec<u32> = vec![0, 10, 11, 95, 119];
        let mut union = [s1.clone(), s2.clone()].concat();
        union.sort_unstable();
        union.dedup();

        let (step1, r1) =
            ModelSnapshot::delta_from(&prev, 2, Arc::clone(&model_b), index.clone(), &s1).unwrap();
        let (two_step, r2) =
            ModelSnapshot::delta_from(&step1, 3, Arc::clone(&model_b), index.clone(), &s2).unwrap();
        let (one_shot, r3) =
            ModelSnapshot::delta_from(&prev, 3, Arc::clone(&model_b), index, &union).unwrap();
        assert!(!r1.index_rebuilt && !r2.index_rebuilt && !r3.index_rebuilt);

        let (tc, tw) = two_step.quant_tables().expect("int8 snapshot");
        let (oc, ow) = one_shot.quant_tables().expect("int8 snapshot");
        assert_eq!(tc.to_quantized(), oc.to_quantized(), "cold codes identical");
        assert_eq!(tw.to_quantized(), ow.to_quantized(), "warm codes identical");
        let items: Vec<u32> = (0..120).collect();
        assert_eq!(two_step.score_cold(&items), one_shot.score_cold(&items));
        assert_eq!(two_step.score_warm(&items), one_shot.score_warm(&items));
        assert_eq!(two_step.encoded_ann(), one_shot.encoded_ann());
        let full = one_shot.ann().nlist();
        assert_eq!(
            two_step.topk_dots(20, full, &|_| true),
            one_shot.topk_dots(20, full, &|_| true)
        );
    }

    #[test]
    fn drift_past_the_budget_rebuilds_the_index() {
        let (prev, model_b) = delta_fixture(Precision::F32);
        // Replace every row with a trained model's embeddings: far more
        // than a quarter of the assignments move, so the drift budget
        // trips on the first delta.
        let all: Vec<u32> = (0..120).collect();
        let (delta, report) =
            ModelSnapshot::delta_from(&prev, 2, Arc::clone(&model_b), prev.index.clone(), &all)
                .unwrap();
        assert!(
            report.index_rebuilt,
            "rewriting the whole table moved only {} of 120 assignments",
            report.moved_lists
        );
        assert_eq!(delta.ann().drift(), 0, "a rebuild re-trains the quantizer and clears drift");

        // The rebuilt index serves exact retrieval over the new table.
        let oracle =
            atnn_ann::BruteForce::new(Arc::clone(delta.cold_vecs().expect("f32 snapshot")));
        let got = delta.topk_dots(10, delta.ann().nlist(), &|_| true);
        assert_eq!(got, oracle.topk(delta.index.mean_user_vec(), 10, 0));

        // A small delta stays incremental and keeps its drift.
        let (_, small) =
            ModelSnapshot::delta_from(&prev, 2, Arc::clone(&model_b), prev.index.clone(), &[3])
                .unwrap();
        assert!(!small.index_rebuilt, "one changed row cannot trip the budget");
    }

    #[test]
    fn delta_rejects_bad_ids_and_manager_fans_out() {
        let (prev, model_b) = delta_fixture(Precision::F32);
        let index = prev.index.clone();
        let manager = ModelManager::new(prev);
        let cell = manager.register_shard_cell();

        let report =
            manager.publish_delta(2, Arc::clone(&model_b), index.clone(), &[3, 9, 9]).unwrap();
        assert_eq!(report.changed, 2, "duplicate ids collapse");
        assert_eq!(manager.version(), 2);
        assert_eq!(cell.load().version, 2, "delta publish fans out to shard cells");
        assert!(Arc::ptr_eq(&cell.load(), &manager.load()));

        let err =
            manager.publish_delta(3, Arc::clone(&model_b), index.clone(), &[120]).unwrap_err();
        assert_eq!(err, DeltaError::IdOutOfRange { id: 120, num_items: 120 });
        assert_eq!(manager.version(), 2, "rejected delta must not swap");

        // Canary: the delta lands in one shard only.
        let canary = manager
            .publish_delta_to_shard(0, 4, Arc::clone(&model_b), index.clone(), &[1])
            .unwrap();
        assert!(canary.is_some());
        assert_eq!(cell.load().version, 4);
        assert_eq!(manager.version(), 2, "primary cell untouched by the canary");
        assert!(manager
            .publish_delta_to_shard(9, 5, Arc::clone(&model_b), index, &[1])
            .unwrap()
            .is_none());
    }
}
