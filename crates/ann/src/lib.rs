//! Approximate top-K retrieval over item-tower embeddings.
//!
//! The two-tower split makes sub-linear retrieval possible: item vectors
//! depend only on the item, so they can be materialized once per model
//! publish and indexed offline. This crate provides a hand-rolled IVF-flat
//! index — a k-means coarse quantizer over the embedding pool, one inverted
//! list per centroid, an `nprobe`-controlled probe and an **exact**
//! dot-product re-rank of every probed candidate — plus a [`BruteForce`]
//! scan behind the same [`Retriever`] trait as the always-available recall
//! oracle.
//!
//! # Determinism
//!
//! Every ranking in this crate uses one strict total order: higher dot
//! first, ties broken by ascending item id ([`best_first`]). Because item
//! ids are distinct, the comparator has no true ties, so the k-bounded
//! selection in [`topk_select`] retains a *unique* winner set regardless of
//! candidate insertion order. Each item lives in exactly one inverted list
//! (argmin centroid, ties to the lowest centroid id), so probing **all**
//! lists scans the catalogue exactly once — the candidate multiset equals
//! the brute-force scan's, and with the order-insensitive selection the
//! full-probe IVF result is bit-identical to the oracle (scores, order and
//! tie-breaks included). Index construction itself is deterministic:
//! strided sampling, strided seeding and serial Lloyd iterations with no
//! RNG anywhere, so rebuilding from the same embeddings reproduces the
//! persisted index bit for bit.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use atnn_tensor::{dot, CowMatrix, CowQuantMatrix, Matrix, PreparedQuery, QuantizedMatrix};

/// The embedding pool a retriever scans and a snapshot serves from: one
/// chunked copy-on-write row store per precision.
///
/// The f32 variant keeps every exactness guarantee (probed candidates are
/// re-ranked with the *exact* dot, so approximation error is only missed
/// candidates). The int8 variant trades that for ~3.7× less resident
/// memory: every candidate dot is computed by
/// [`CowQuantMatrix::dot_prepared`], so scores are toleranced against
/// the f32 path — but the ranking itself stays deterministic, and a
/// full-probe scan over an int8 pool is still bit-identical to a
/// [`BruteForce`] scan over the *same* int8 pool.
///
/// A contiguous `Arc<Matrix>` / `Arc<QuantizedMatrix>` converts in
/// zero-copy as a one-chunk table; row reads are bit-identical whatever
/// the chunking.
#[derive(Debug, Clone)]
pub enum ItemPool {
    /// Dense f32 embeddings (row id == item id). Exact dots.
    F32(Arc<CowMatrix>),
    /// Int8-quantized embeddings with per-row scale/zero-point.
    Int8(Arc<CowQuantMatrix>),
}

/// A query readied once for repeated [`ItemPool::dot`] calls against the
/// pool that prepared it: the f32 vector itself, or its int8 codes plus
/// the pool's anchor term.
#[derive(Debug, Clone)]
pub enum PoolQuery {
    /// The query as given, for exact f32 dots.
    F32(Vec<f32>),
    /// The query quantized against an int8 pool's anchor.
    Int8(PreparedQuery),
}

impl From<Arc<CowMatrix>> for ItemPool {
    fn from(vecs: Arc<CowMatrix>) -> Self {
        ItemPool::F32(vecs)
    }
}

impl From<Arc<CowQuantMatrix>> for ItemPool {
    fn from(vecs: Arc<CowQuantMatrix>) -> Self {
        ItemPool::Int8(vecs)
    }
}

impl From<Arc<Matrix>> for ItemPool {
    fn from(vecs: Arc<Matrix>) -> Self {
        ItemPool::F32(Arc::new(vecs.into()))
    }
}

impl From<Arc<QuantizedMatrix>> for ItemPool {
    fn from(vecs: Arc<QuantizedMatrix>) -> Self {
        ItemPool::Int8(Arc::new(vecs.into()))
    }
}

impl ItemPool {
    /// Number of item rows.
    pub fn rows(&self) -> usize {
        match self {
            ItemPool::F32(m) => m.rows(),
            ItemPool::Int8(q) => q.rows(),
        }
    }

    /// Embedding dimensionality.
    pub fn cols(&self) -> usize {
        match self {
            ItemPool::F32(m) => m.cols(),
            ItemPool::Int8(q) => q.cols(),
        }
    }

    /// Resident bytes of the pool's embedding payload.
    pub fn storage_bytes(&self) -> usize {
        match self {
            ItemPool::F32(m) => m.f32_bytes(),
            ItemPool::Int8(q) => q.storage_bytes(),
        }
    }

    /// Bytes the same pool would occupy as raw f32.
    pub fn f32_bytes(&self) -> usize {
        self.rows() * self.cols() * 4
    }

    /// True for the int8 variant.
    pub fn is_quantized(&self) -> bool {
        matches!(self, ItemPool::Int8(_))
    }

    /// The f32 table, or `None` for an int8 pool.
    pub fn as_f32(&self) -> Option<&Arc<CowMatrix>> {
        match self {
            ItemPool::F32(m) => Some(m),
            ItemPool::Int8(_) => None,
        }
    }

    /// The int8 table, or `None` for an f32 pool.
    pub fn as_int8(&self) -> Option<&Arc<CowQuantMatrix>> {
        match self {
            ItemPool::F32(_) => None,
            ItemPool::Int8(q) => Some(q),
        }
    }

    /// Readies `query` for this pool (quantizing it against the anchor
    /// for int8) so each candidate costs one kernel call.
    pub fn prepare(&self, query: &[f32]) -> PoolQuery {
        match self {
            ItemPool::F32(_) => PoolQuery::F32(query.to_vec()),
            ItemPool::Int8(q) => PoolQuery::Int8(q.prepare(query)),
        }
    }

    /// `dot(row id, query)`: exact for f32, quantized for int8.
    ///
    /// # Panics
    /// Panics when `query` was prepared by a pool of the other precision.
    #[inline]
    pub fn dot(&self, id: u32, query: &PoolQuery) -> f32 {
        match (self, query) {
            (ItemPool::F32(m), PoolQuery::F32(q)) => dot(m.row(id as usize), q),
            (ItemPool::Int8(t), PoolQuery::Int8(q)) => t.dot_prepared(id as usize, q),
            _ => panic!("ItemPool::dot: query prepared for the other precision"),
        }
    }

    /// Replaces row `ids[k]` with `rows.row(k)` — a verbatim copy for
    /// f32, a re-quantization against the table's frozen anchor for int8
    /// — cloning only the touched chunks, so every other handle to the
    /// previous table (the snapshot being replaced) keeps reading it
    /// unchanged.
    pub fn update_rows(&mut self, ids: &[u32], rows: &Matrix) {
        match self {
            ItemPool::F32(m) => Arc::make_mut(m).update_rows(ids, rows),
            ItemPool::Int8(q) => Arc::make_mut(q).requantize_rows(ids, rows),
        }
    }

    /// The whole pool as one contiguous f32 matrix (dequantized for
    /// int8) — what an index rebuild trains on; serving never calls this.
    pub fn to_f32(&self) -> Matrix {
        match self {
            ItemPool::F32(m) => m.to_matrix(),
            ItemPool::Int8(q) => q.dequantize(),
        }
    }
}

/// A retrieval backend over a fixed pool of item embeddings.
///
/// Scores are **raw dot products** against the query vector (best first,
/// ties by ascending id) — callers that serve probabilities apply the
/// monotone `sigmoid(dot + bias)` to the winners only, keeping tie-breaks
/// in dot space where they are exact.
pub trait Retriever: Send + Sync {
    /// Number of indexed items (ids are `0..num_items`).
    fn num_items(&self) -> usize;

    /// Embedding dimensionality.
    fn dim(&self) -> usize;

    /// Top-`k` items by dot product with `query`, best first, ties by
    /// ascending id. Exact backends ignore `nprobe`.
    fn topk(&self, query: &[f32], k: usize, nprobe: usize) -> Vec<(u32, f32)> {
        self.topk_filtered(query, k, nprobe, &|_| true)
    }

    /// [`Retriever::topk`] restricted to ids for which `keep` returns
    /// true (e.g. "ids owned by this shard").
    fn topk_filtered(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        keep: &dyn Fn(u32) -> bool,
    ) -> Vec<(u32, f32)>;
}

/// The retrieval order: higher score first, ties by ascending item id.
///
/// Identical to the serving plane's TopK comparator — NaN scores compare
/// as equal and fall through to the id tie-break, so the order stays total
/// over distinct ids no matter what the floats do.
#[inline]
pub fn best_first(a: &(u32, f32), b: &(u32, f32)) -> Ordering {
    b.1.partial_cmp(&a.1).unwrap_or(Ordering::Equal).then(a.0.cmp(&b.0))
}

/// Selects the top `k` of `ranked` under [`best_first`] with a k-bounded
/// worst-on-top heap — `O(n log k)`, and bit-identical to sorting the whole
/// input and truncating because the comparator is a strict total order over
/// distinct ids (the winner set is unique, so insertion order is
/// irrelevant).
pub fn topk_select(ranked: impl IntoIterator<Item = (u32, f32)>, k: usize) -> Vec<(u32, f32)> {
    if k == 0 {
        return Vec::new();
    }
    /// Max-heap wrapper whose "greatest" element is the *worst* candidate.
    struct Worst((u32, f32));
    impl PartialEq for Worst {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }
    impl Eq for Worst {}
    impl PartialOrd for Worst {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Worst {
        fn cmp(&self, other: &Self) -> Ordering {
            // `best_first` sorts better elements Less, so the heap max is
            // the worst retained candidate — exactly what gets evicted.
            best_first(&self.0, &other.0)
        }
    }
    let mut heap: BinaryHeap<Worst> = BinaryHeap::with_capacity(k + 1);
    for candidate in ranked {
        heap.push(Worst(candidate));
        if heap.len() > k {
            heap.pop();
        }
    }
    let mut out: Vec<(u32, f32)> = heap.into_iter().map(|w| w.0).collect();
    out.sort_by(best_first);
    out
}

/// Exact linear scan over the embedding pool — the recall oracle every
/// approximate backend is measured against, and the fallback when no index
/// has been built.
#[derive(Debug, Clone)]
pub struct BruteForce {
    pool: ItemPool,
}

impl BruteForce {
    /// Wraps a pool of item embeddings (row id == item id) — an
    /// `Arc<Matrix>`, an `Arc<QuantizedMatrix>`, or an [`ItemPool`].
    pub fn new(pool: impl Into<ItemPool>) -> Self {
        let pool = pool.into();
        assert!(pool.cols() > 0, "BruteForce: zero-dimensional embeddings");
        BruteForce { pool }
    }

    /// The scanned pool.
    pub fn pool(&self) -> &ItemPool {
        &self.pool
    }
}

impl Retriever for BruteForce {
    fn num_items(&self) -> usize {
        self.pool.rows()
    }

    fn dim(&self) -> usize {
        self.pool.cols()
    }

    fn topk_filtered(
        &self,
        query: &[f32],
        k: usize,
        _nprobe: usize,
        keep: &dyn Fn(u32) -> bool,
    ) -> Vec<(u32, f32)> {
        assert_eq!(query.len(), self.dim(), "query width mismatch");
        let query = self.pool.prepare(query);
        let candidates = (0..self.pool.rows() as u32)
            .filter(|&id| keep(id))
            .map(|id| (id, self.pool.dot(id, &query)));
        topk_select(candidates, k)
    }
}

/// Tunables for [`IvfFlatIndex::build`]. All fields are persisted with the
/// index so a rebuild-at-load reproduces the same structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IvfParams {
    /// Number of k-means centroids / inverted lists.
    pub nlist: usize,
    /// Probe width used when the caller does not specify one.
    pub default_nprobe: usize,
    /// Training-sample budget per list (the quantizer trains on
    /// `nlist × sample_per_list` strided points, not the full pool).
    pub sample_per_list: usize,
    /// Lloyd iteration cap (converges earlier when assignments fix).
    pub max_iters: usize,
}

impl IvfParams {
    /// Defaults scaled to the pool: `nlist ≈ √n` (capped at 4096), probe
    /// width 8, 64 training samples per list, 10 Lloyd iterations.
    pub fn for_items(n: usize) -> Self {
        let nlist = ((n as f64).sqrt().ceil() as usize).clamp(1, 4096).min(n.max(1));
        IvfParams { nlist, default_nprobe: 8.min(nlist), sample_per_list: 64, max_iters: 10 }
    }
}

/// IVF-flat: a k-means coarse quantizer over the embedding pool with one
/// inverted list per centroid. Queries rank centroids by distance, probe
/// the `nprobe` nearest lists and re-rank every probed candidate with the
/// exact dot product, so approximation error is *only* missed candidates —
/// never wrong scores.
#[derive(Debug, Clone)]
pub struct IvfFlatIndex {
    params: IvfParams,
    /// `nlist × dim` centroid matrix.
    centroids: Matrix,
    /// `‖c‖²` per centroid; distance ranking uses `‖c‖² − 2⟨x, c⟩`, which
    /// orders like squared L2 (the `‖x‖²` term is query-constant).
    cnorms: Vec<f32>,
    /// Item ids per centroid, ascending within each list; every id in
    /// `0..n` appears in exactly one list.
    lists: Vec<Vec<u32>>,
    /// Inverse of `lists`: the list each id currently sits in. Kept so
    /// incremental re-assignment finds an id's old list in O(1); derived
    /// from `lists` at build/decode, never persisted.
    assignments: Vec<u32>,
    /// Ids whose assignment changed under [`IvfFlatIndex::reassign`]
    /// since the centroids were last trained. The coarse quantizer is
    /// frozen across deltas, so this is the staleness signal callers use
    /// to trigger a full k-means rebuild. Runtime-only: not persisted
    /// (an adopted index starts fresh at 0).
    drift: u64,
    pool: ItemPool,
}

/// Rows per assignment chunk: bounds the `chunk × nlist` distance matrix
/// to a few MB while leaving GEMM enough work to hit the tiled kernel.
const ASSIGN_CHUNK: usize = 8192;

impl IvfFlatIndex {
    /// Trains the coarse quantizer and assigns every item to its nearest
    /// centroid. Fully deterministic — see the crate docs.
    pub fn build(vecs: Arc<Matrix>, params: IvfParams) -> Self {
        let (n, d) = vecs.shape();
        assert!(n > 0 && d > 0, "IvfFlatIndex: empty embedding pool");
        let nlist = params.nlist.clamp(1, n);

        // Strided training sample: floor(i·n/s) is strictly increasing for
        // s ≤ n, so the ids are distinct and sweep the whole pool.
        let sample_len = (nlist * params.sample_per_list.max(1)).clamp(nlist, n);
        let sample_ids: Vec<u32> = (0..sample_len).map(|i| (i * n / sample_len) as u32).collect();
        let sample = vecs.select_rows(&sample_ids).expect("sample ids in range");

        // Seed centroids by striding the (already strided) sample.
        let seed_ids: Vec<u32> = (0..nlist).map(|j| sample_ids[j * sample_len / nlist]).collect();
        let mut centroids = vecs.select_rows(&seed_ids).expect("seed ids in range");
        let mut cnorms = centroid_norms(&centroids);

        // Serial Lloyd iterations on the sample; an unchanged assignment
        // is a fixed point, so stop there.
        let mut prev_assign: Vec<u32> = Vec::new();
        for _ in 0..params.max_iters {
            let assign = assign_chunked(&sample, &centroids, &cnorms);
            if assign == prev_assign {
                break;
            }
            let mut sums = vec![0.0f64; nlist * d];
            let mut counts = vec![0u64; nlist];
            for (i, &c) in assign.iter().enumerate() {
                let c = c as usize;
                counts[c] += 1;
                for (s, &v) in sums[c * d..(c + 1) * d].iter_mut().zip(sample.row(i)) {
                    *s += f64::from(v);
                }
            }
            for c in 0..nlist {
                // Empty clusters keep their previous centroid.
                if counts[c] == 0 {
                    continue;
                }
                for j in 0..d {
                    centroids.set(c, j, (sums[c * d + j] / counts[c] as f64) as f32);
                }
            }
            cnorms = centroid_norms(&centroids);
            prev_assign = assign;
        }

        // Final pass: bucket the whole pool. Iterating ids in order keeps
        // every inverted list ascending.
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); nlist];
        let mut assignments = vec![0u32; n];
        let mut start = 0usize;
        while start < n {
            let ids: Vec<u32> = (start..(start + ASSIGN_CHUNK).min(n)).map(|i| i as u32).collect();
            let chunk = vecs.select_rows(&ids).expect("chunk ids in range");
            for (off, &c) in assign_chunked(&chunk, &centroids, &cnorms).iter().enumerate() {
                lists[c as usize].push(ids[off]);
                assignments[ids[off] as usize] = c;
            }
            start += ASSIGN_CHUNK;
        }

        IvfFlatIndex {
            params: IvfParams { nlist, ..params },
            centroids,
            cnorms,
            lists,
            assignments,
            drift: 0,
            pool: vecs.into(),
        }
    }

    /// The build parameters (with `nlist` as actually clamped).
    pub fn params(&self) -> &IvfParams {
        &self.params
    }

    /// The pool candidates are re-ranked against.
    pub fn pool(&self) -> &ItemPool {
        &self.pool
    }

    /// Replaces the re-rank pool (typically swapping the f32 training
    /// pool for its int8-quantized serving twin after [`build`] — the
    /// coarse quantizer always trains on f32). The index structure
    /// (centroids, lists) is untouched, so probe order is identical;
    /// only candidate scores change representation.
    ///
    /// # Errors
    /// [`AnnError::Mismatch`] when `pool` has a different shape than the
    /// one the index was built over.
    ///
    /// [`build`]: IvfFlatIndex::build
    pub fn with_pool(mut self, pool: impl Into<ItemPool>) -> Result<Self, AnnError> {
        let pool = pool.into();
        if pool.rows() != self.pool.rows() {
            return Err(AnnError::Mismatch("item count differs from the indexed pool"));
        }
        if pool.cols() != self.pool.cols() {
            return Err(AnnError::Mismatch("dimension differs from the indexed pool"));
        }
        self.pool = pool;
        Ok(self)
    }

    /// Number of inverted lists.
    pub fn nlist(&self) -> usize {
        self.lists.len()
    }

    /// Probe width used when a caller passes `nprobe = 0`.
    pub fn default_nprobe(&self) -> usize {
        self.params.default_nprobe
    }

    /// Re-assigns the items in `ids` — whose embeddings changed to
    /// `vecs.row(k)` for `ids[k]` — under the **frozen** centroids:
    /// each changed vector is scored against the existing coarse
    /// quantizer with exactly the build-time assignment math (the
    /// `assign_chunked` pass: same GEMM, same serial argmin, same
    /// lowest-centroid tie-break), then moved between inverted lists
    /// (sorted remove + sorted insert, so every list stays ascending).
    ///
    /// Exactness: after this call the index structure is bit-identical
    /// to re-running the full build-time bucketing pass over the updated
    /// pool with the same centroids — unchanged items re-derive their
    /// existing assignment, changed items get the same argmin the full
    /// pass would compute. That makes an incremental update over a
    /// changed set `S` indistinguishable from a frozen-centroid full
    /// re-assignment whose input only differs on `S`.
    ///
    /// Returns how many items actually changed lists; the same count
    /// accumulates into [`IvfFlatIndex::drift`]. Centroids are *not*
    /// retrained — callers watch the drift fraction and rebuild past
    /// their threshold.
    ///
    /// The re-rank pool is untouched: callers swap it separately via
    /// [`IvfFlatIndex::with_pool`] (the pool and the index structure are
    /// published together in a snapshot).
    ///
    /// # Panics
    /// Panics on shape mismatches or an id out of range.
    pub fn reassign(&mut self, ids: &[u32], vecs: &Matrix) -> usize {
        assert_eq!(vecs.rows(), ids.len(), "reassign id/row count mismatch");
        assert_eq!(vecs.cols(), self.centroids.cols(), "reassign dimension mismatch");
        let n = self.assignments.len();
        let mut moved = 0usize;
        let mut start = 0usize;
        while start < ids.len() {
            let end = (start + ASSIGN_CHUNK).min(ids.len());
            let rows: Vec<u32> = (start..end).map(|i| i as u32).collect();
            let chunk = vecs.select_rows(&rows).expect("delta rows in range");
            for (off, &c) in
                assign_chunked(&chunk, &self.centroids, &self.cnorms).iter().enumerate()
            {
                let id = ids[start + off];
                assert!((id as usize) < n, "reassign: id {id} out of range ({n} items)");
                let old = self.assignments[id as usize];
                if old == c {
                    continue;
                }
                let old_list = &mut self.lists[old as usize];
                let at = old_list.binary_search(&id).expect("assignments track lists");
                old_list.remove(at);
                let new_list = &mut self.lists[c as usize];
                let at = new_list.binary_search(&id).expect_err("id cannot be in two lists");
                new_list.insert(at, id);
                self.assignments[id as usize] = c;
                moved += 1;
            }
            start = end;
        }
        self.drift += moved as u64;
        moved
    }

    /// Items whose list changed under [`IvfFlatIndex::reassign`] since
    /// the centroids were last trained (build or decode resets to 0).
    pub fn drift(&self) -> u64 {
        self.drift
    }

    /// [`IvfFlatIndex::drift`] as a fraction of the catalogue — the
    /// staleness signal for rebuild policies.
    pub fn drift_fraction(&self) -> f64 {
        self.drift as f64 / self.assignments.len().max(1) as f64
    }

    /// Centroid ids ranked nearest-first for `query` (ties to the lowest
    /// centroid id).
    fn rank_centroids(&self, query: &[f32]) -> Vec<u32> {
        let mut keyed: Vec<(u32, f32)> = (0..self.lists.len())
            .map(|c| (c as u32, self.cnorms[c] - 2.0 * dot(self.centroids.row(c), query)))
            .collect();
        keyed.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal).then(a.0.cmp(&b.0)));
        keyed.into_iter().map(|(c, _)| c).collect()
    }
}

impl Retriever for IvfFlatIndex {
    fn num_items(&self) -> usize {
        self.pool.rows()
    }

    fn dim(&self) -> usize {
        self.pool.cols()
    }

    fn topk_filtered(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        keep: &dyn Fn(u32) -> bool,
    ) -> Vec<(u32, f32)> {
        assert_eq!(query.len(), self.dim(), "query width mismatch");
        let nprobe = if nprobe == 0 { self.params.default_nprobe } else { nprobe };
        let nprobe = nprobe.clamp(1, self.lists.len());
        let order = self.rank_centroids(query);
        let query = self.pool.prepare(query);
        let candidates = order[..nprobe]
            .iter()
            .flat_map(|&c| self.lists[c as usize].iter().copied())
            .filter(|&id| keep(id))
            .map(|id| (id, self.pool.dot(id, &query)));
        topk_select(candidates, k)
    }
}

/// `‖c‖²` per centroid row.
fn centroid_norms(centroids: &Matrix) -> Vec<f32> {
    centroids.iter_rows().map(|c| dot(c, c)).collect()
}

/// Nearest-centroid assignment for a block of points, GEMM-assisted:
/// one `points @ centroidsᵀ` product, then a serial argmin per row over
/// `‖c‖² − 2⟨x, c⟩` with ties to the lowest centroid id.
fn assign_chunked(points: &Matrix, centroids: &Matrix, cnorms: &[f32]) -> Vec<u32> {
    let dots = points.matmul_nt(centroids).expect("assignment shapes agree");
    let mut out = Vec::with_capacity(points.rows());
    for i in 0..points.rows() {
        let row = dots.row(i);
        let mut best = 0usize;
        let mut best_key = cnorms[0] - 2.0 * row[0];
        for (c, (&norm, &d)) in cnorms.iter().zip(row).enumerate().skip(1) {
            let key = norm - 2.0 * d;
            if key < best_key {
                best = c;
                best_key = key;
            }
        }
        out.push(best as u32);
    }
    out
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

/// On-disk magic for a serialized IVF index blob.
pub const INDEX_MAGIC: [u8; 8] = *b"ATNNIVF1";
const INDEX_VERSION: u32 = 1;

/// Decode failures for a persisted index blob.
#[derive(Debug, PartialEq, Eq)]
pub enum AnnError {
    /// Structurally invalid blob (bad magic, truncation, trailing bytes,
    /// out-of-range ids, …) — the message names the first violation.
    Corrupt(&'static str),
    /// Payload bytes do not hash to the stored checksum.
    Checksum {
        /// Checksum stored in the blob header.
        expected: u64,
        /// Checksum of the payload as read.
        actual: u64,
    },
    /// The blob is self-consistent but was built over a different
    /// embedding pool than the one supplied.
    Mismatch(&'static str),
}

impl fmt::Display for AnnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnnError::Corrupt(what) => write!(f, "corrupt index blob: {what}"),
            AnnError::Checksum { expected, actual } => {
                write!(f, "index checksum mismatch: stored {expected:#x}, computed {actual:#x}")
            }
            AnnError::Mismatch(what) => write!(f, "index does not match embeddings: {what}"),
        }
    }
}

impl Error for AnnError {}

/// FNV-1a over a byte slice — local copy so the crate stays dependency-free.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], AnnError> {
        if self.bytes.len() < n {
            return Err(AnnError::Corrupt(what));
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, AnnError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, AnnError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn f32(&mut self, what: &'static str) -> Result<f32, AnnError> {
        Ok(f32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }
}

impl IvfFlatIndex {
    /// Serializes the index (magic, version, FNV-1a checksum, payload).
    /// The embedding pool itself is **not** persisted — the serving
    /// snapshot already carries it; [`IvfFlatIndex::decode`] re-attaches
    /// it and cross-checks the shape.
    pub fn encode(&self) -> Vec<u8> {
        let (n, d) = (self.pool.rows(), self.pool.cols());
        let mut payload = Vec::with_capacity(32 + self.centroids.len() * 4 + n * 4);
        payload.extend_from_slice(&(n as u64).to_le_bytes());
        payload.extend_from_slice(&(d as u32).to_le_bytes());
        payload.extend_from_slice(&(self.params.nlist as u32).to_le_bytes());
        payload.extend_from_slice(&(self.params.default_nprobe as u32).to_le_bytes());
        payload.extend_from_slice(&(self.params.sample_per_list as u32).to_le_bytes());
        payload.extend_from_slice(&(self.params.max_iters as u32).to_le_bytes());
        for &v in self.centroids.as_slice() {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        for list in &self.lists {
            payload.extend_from_slice(&(list.len() as u32).to_le_bytes());
            for &id in list {
                payload.extend_from_slice(&id.to_le_bytes());
            }
        }
        let mut out = Vec::with_capacity(20 + payload.len());
        out.extend_from_slice(&INDEX_MAGIC);
        out.extend_from_slice(&INDEX_VERSION.to_le_bytes());
        out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Deserializes a blob produced by [`IvfFlatIndex::encode`] and
    /// re-attaches the embedding pool (f32 or quantized). Rejects
    /// corruption (checksum, truncation, trailing bytes), ids outside
    /// `0..n`, ids assigned to more than one list, and any shape
    /// disagreement with the supplied pool.
    pub fn decode(bytes: &[u8], pool: impl Into<ItemPool>) -> Result<Self, AnnError> {
        let pool = pool.into();
        let mut r = Reader { bytes };
        if r.take(8, "missing magic")? != INDEX_MAGIC {
            return Err(AnnError::Corrupt("bad magic"));
        }
        if r.u32("missing version")? != INDEX_VERSION {
            return Err(AnnError::Corrupt("unsupported index version"));
        }
        let expected = r.u64("missing checksum")?;
        let actual = fnv1a64(r.bytes);
        if expected != actual {
            return Err(AnnError::Checksum { expected, actual });
        }

        let n = r.u64("missing item count")? as usize;
        let d = r.u32("missing dimension")? as usize;
        if n != pool.rows() {
            return Err(AnnError::Mismatch("item count differs from the embedding pool"));
        }
        if d != pool.cols() || d == 0 {
            return Err(AnnError::Mismatch("dimension differs from the embedding pool"));
        }
        let nlist = r.u32("missing nlist")? as usize;
        if nlist == 0 || nlist > n {
            return Err(AnnError::Corrupt("nlist out of range"));
        }
        let default_nprobe = r.u32("missing default nprobe")? as usize;
        let sample_per_list = r.u32("missing sample budget")? as usize;
        let max_iters = r.u32("missing iteration cap")? as usize;

        let mut centroids = Matrix::zeros(nlist, d);
        for c in 0..nlist {
            for j in 0..d {
                centroids.set(c, j, r.f32("truncated centroids")?);
            }
        }

        let mut lists = Vec::with_capacity(nlist);
        let mut seen = vec![false; n];
        let mut assignments = vec![0u32; n];
        let mut total = 0usize;
        for c in 0..nlist {
            let len = r.u32("truncated list header")? as usize;
            if len > n - total {
                return Err(AnnError::Corrupt("list lengths exceed the catalogue"));
            }
            let mut list = Vec::with_capacity(len);
            for _ in 0..len {
                let id = r.u32("truncated list")?;
                if id as usize >= n {
                    return Err(AnnError::Corrupt("item id out of range"));
                }
                if std::mem::replace(&mut seen[id as usize], true) {
                    return Err(AnnError::Corrupt("item id assigned to two lists"));
                }
                // Ascending order is part of the format: the full-probe
                // bit-identity argument and the incremental update's
                // sorted remove/insert both rely on it.
                if list.last().is_some_and(|&prev| prev >= id) {
                    return Err(AnnError::Corrupt("inverted list not ascending"));
                }
                assignments[id as usize] = c as u32;
                list.push(id);
            }
            total += len;
            lists.push(list);
        }
        if total != n {
            return Err(AnnError::Corrupt("lists do not cover the catalogue"));
        }
        if !r.bytes.is_empty() {
            return Err(AnnError::Corrupt("trailing bytes"));
        }

        let cnorms = centroid_norms(&centroids);
        let params = IvfParams { nlist, default_nprobe, sample_per_list, max_iters };
        Ok(IvfFlatIndex { params, centroids, cnorms, lists, assignments, drift: 0, pool })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atnn_tensor::Rng64;

    /// A clustered pool: `centers` Gaussian blobs plus noise, so IVF has
    /// real structure to find.
    fn clustered_pool(n: usize, d: usize, centers: usize, seed: u64) -> Arc<Matrix> {
        let mut rng = Rng64::seed_from_u64(seed);
        let centroid = Matrix::from_fn(centers, d, |_, _| rng.normal() * 4.0);
        let m = Matrix::from_fn(n, d, |i, j| centroid.get(i % centers, j) + rng.normal() * 0.3);
        Arc::new(m)
    }

    fn query(d: usize, seed: u64) -> Vec<f32> {
        let mut rng = Rng64::seed_from_u64(seed);
        (0..d).map(|_| rng.normal()).collect()
    }

    #[test]
    fn topk_select_matches_sort_truncate() {
        let mut rng = Rng64::seed_from_u64(7);
        for case in 0..50 {
            let n = 1 + rng.index(40);
            let ranked: Vec<(u32, f32)> = (0..n)
                .map(|i| (i as u32, (rng.index(5) as f32) - 2.0)) // coarse scores force ties
                .collect();
            let k = rng.index(n + 3);
            let mut reference = ranked.clone();
            reference.sort_by(best_first);
            reference.truncate(k);
            assert_eq!(topk_select(ranked, k), reference, "case {case}");
        }
    }

    #[test]
    fn full_probe_is_bit_identical_to_brute_force() {
        let pool = clustered_pool(500, 16, 12, 11);
        let params = IvfParams::for_items(pool.rows());
        let ivf = IvfFlatIndex::build(Arc::clone(&pool), params);
        let oracle = BruteForce::new(Arc::clone(&pool));
        let q = query(16, 99);
        let full = ivf.nlist();
        assert_eq!(ivf.topk(&q, 10, full), oracle.topk(&q, 10, 0));
        assert_eq!(ivf.topk(&q, 500, full), oracle.topk(&q, 500, 0));
    }

    #[test]
    fn recall_improves_with_nprobe_and_probe_is_subset_exact() {
        let pool = clustered_pool(2000, 16, 32, 3);
        let ivf = IvfFlatIndex::build(Arc::clone(&pool), IvfParams::for_items(pool.rows()));
        let oracle = BruteForce::new(Arc::clone(&pool));
        let q = query(16, 5);
        let exact = oracle.topk(&q, 10, 0);
        let approx = ivf.topk(&q, 10, 4);
        // Every approximate hit carries its exact score — approximation can
        // only *miss* candidates, never mis-score them.
        for hit in &approx {
            assert_eq!(hit.1, dot(pool.row(hit.0 as usize), &q), "score is exact");
        }
        let recall_lo = overlap(&ivf.topk(&q, 10, 1), &exact);
        let recall_hi = overlap(&ivf.topk(&q, 10, ivf.nlist()), &exact);
        assert!(recall_hi >= recall_lo, "recall is monotone at the extremes");
        assert_eq!(recall_hi, 10, "full probe is exact");
    }

    fn overlap(approx: &[(u32, f32)], exact: &[(u32, f32)]) -> usize {
        approx.iter().filter(|(id, _)| exact.iter().any(|(e, _)| e == id)).count()
    }

    #[test]
    fn filtered_retrieval_respects_the_filter() {
        let pool = clustered_pool(300, 8, 6, 21);
        let ivf = IvfFlatIndex::build(Arc::clone(&pool), IvfParams::for_items(pool.rows()));
        let oracle = BruteForce::new(Arc::clone(&pool));
        let q = query(8, 1);
        let keep = |id: u32| id % 3 == 1;
        let got = ivf.topk_filtered(&q, 20, ivf.nlist(), &keep);
        assert_eq!(got, oracle.topk_filtered(&q, 20, 0, &keep));
        assert!(got.iter().all(|(id, _)| keep(*id)));
    }

    #[test]
    fn encode_decode_round_trips_bit_identically() {
        let pool = clustered_pool(400, 12, 8, 17);
        let ivf = IvfFlatIndex::build(Arc::clone(&pool), IvfParams::for_items(pool.rows()));
        let blob = ivf.encode();
        let back = IvfFlatIndex::decode(&blob, Arc::clone(&pool)).unwrap();
        assert_eq!(back.params(), ivf.params());
        let q = query(12, 2);
        assert_eq!(back.topk(&q, 25, 3), ivf.topk(&q, 25, 3));
        assert_eq!(blob, back.encode(), "re-encode reproduces the blob");
    }

    #[test]
    fn decode_rejects_corruption_and_mismatch() {
        let pool = clustered_pool(200, 8, 4, 31);
        let ivf = IvfFlatIndex::build(Arc::clone(&pool), IvfParams::for_items(pool.rows()));
        let blob = ivf.encode();

        let mut flipped = blob.clone();
        *flipped.last_mut().unwrap() ^= 0x40;
        assert!(matches!(
            IvfFlatIndex::decode(&flipped, Arc::clone(&pool)),
            Err(AnnError::Checksum { .. })
        ));

        assert!(matches!(
            IvfFlatIndex::decode(&blob[..blob.len() - 3], Arc::clone(&pool)),
            Err(AnnError::Checksum { .. })
        ));

        let mut trailing = blob.clone();
        trailing.push(0);
        assert!(IvfFlatIndex::decode(&trailing, Arc::clone(&pool)).is_err());

        let other = clustered_pool(201, 8, 4, 31);
        assert!(matches!(IvfFlatIndex::decode(&blob, other), Err(AnnError::Mismatch(_))));

        let mut bad_magic = blob;
        bad_magic[0] ^= 1;
        assert!(matches!(
            IvfFlatIndex::decode(&bad_magic, pool),
            Err(AnnError::Corrupt("bad magic"))
        ));
    }

    #[test]
    fn rebuild_from_same_pool_is_deterministic() {
        let pool = clustered_pool(350, 8, 7, 13);
        let params = IvfParams::for_items(pool.rows());
        let a = IvfFlatIndex::build(Arc::clone(&pool), params);
        let b = IvfFlatIndex::build(Arc::clone(&pool), params);
        assert_eq!(a.encode(), b.encode());
    }

    #[test]
    fn quantized_full_probe_matches_quantized_brute_force_bitwise() {
        let pool = clustered_pool(600, 16, 10, 23);
        let codes = Arc::new(QuantizedMatrix::from_matrix(&pool));
        let ivf = IvfFlatIndex::build(Arc::clone(&pool), IvfParams::for_items(pool.rows()))
            .with_pool(Arc::clone(&codes))
            .unwrap();
        let oracle = BruteForce::new(codes);
        let q = query(16, 77);
        assert_eq!(ivf.topk(&q, 25, ivf.nlist()), oracle.topk(&q, 25, 0));
        let keep = |id: u32| id.is_multiple_of(2);
        assert_eq!(
            ivf.topk_filtered(&q, 25, ivf.nlist(), &keep),
            oracle.topk_filtered(&q, 25, 0, &keep)
        );
    }

    #[test]
    fn quantized_recall_tracks_the_f32_oracle() {
        // Same-probe comparison: quantized and f32 indexes share the same
        // centroids, so at any nprobe they scan *identical* candidate
        // sets and the only difference is int8 re-rank scores. That
        // isolates quantization error from IVF probe misses (which are a
        // property of the f32 index too, not of the codec).
        let pool = clustered_pool(4000, 16, 40, 9);
        let codes = Arc::new(QuantizedMatrix::from_matrix(&pool));
        let ivf_f = IvfFlatIndex::build(Arc::clone(&pool), IvfParams::for_items(pool.rows()));
        let ivf_q = ivf_f.clone().with_pool(codes).unwrap();
        let mut hits = 0usize;
        for seed in 0..20u64 {
            let q = query(16, 1000 + seed);
            let exact = ivf_f.topk(&q, 10, ivf_f.default_nprobe());
            hits += overlap(&ivf_q.topk(&q, 10, ivf_q.default_nprobe()), &exact);
        }
        let recall = hits as f64 / 200.0;
        assert!(recall >= 0.95, "quantized same-probe recall@10 {recall}");
    }

    #[test]
    fn with_pool_rejects_shape_mismatch() {
        let pool = clustered_pool(100, 8, 4, 5);
        let ivf = IvfFlatIndex::build(Arc::clone(&pool), IvfParams::for_items(100));
        let narrow = Arc::new(QuantizedMatrix::from_matrix(&clustered_pool(100, 4, 4, 5)));
        assert!(matches!(ivf.clone().with_pool(narrow), Err(AnnError::Mismatch(_))));
        let short = Arc::new(QuantizedMatrix::from_matrix(&clustered_pool(99, 8, 4, 5)));
        assert!(matches!(ivf.with_pool(short), Err(AnnError::Mismatch(_))));
    }

    #[test]
    fn decode_reattaches_a_quantized_pool() {
        let pool = clustered_pool(300, 8, 6, 41);
        let codes = Arc::new(QuantizedMatrix::from_matrix(&pool));
        let ivf = IvfFlatIndex::build(Arc::clone(&pool), IvfParams::for_items(300));
        let blob = ivf.encode();
        let back = IvfFlatIndex::decode(&blob, Arc::clone(&codes)).unwrap();
        assert!(back.pool().is_quantized());
        let q = query(8, 3);
        let direct = ivf.with_pool(codes).unwrap();
        assert_eq!(back.topk(&q, 15, 2), direct.topk(&q, 15, 2));
    }

    /// Mutates rows `changed` of `pool` deterministically and returns
    /// the updated matrix (the "new model's embeddings").
    fn mutate_rows(pool: &Matrix, changed: &[u32], seed: u64) -> Matrix {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut updated = pool.clone();
        for &id in changed {
            for j in 0..updated.cols() {
                updated.set(id as usize, j, rng.normal() * 4.0);
            }
        }
        updated
    }

    #[test]
    fn reassign_matches_a_frozen_centroid_full_pass_bitwise() {
        let pool = clustered_pool(700, 12, 9, 51);
        let base = IvfFlatIndex::build(Arc::clone(&pool), IvfParams::for_items(pool.rows()));
        let changed: Vec<u32> = vec![3, 118, 119, 120, 301, 302, 650, 699];
        let updated = mutate_rows(&pool, &changed, 8);

        // Delta: re-assign only the changed set.
        let mut delta = base.clone();
        let changed_rows = updated.select_rows(&changed).unwrap();
        let moved = delta.reassign(&changed, &changed_rows);
        assert_eq!(delta.drift(), moved as u64);

        // Oracle: re-assign *every* id from the updated pool under the
        // same frozen centroids. Unchanged ids re-derive their existing
        // assignment, so skipping them must change nothing — the
        // incrementality contract.
        let mut oracle = base.clone();
        let all: Vec<u32> = (0..pool.rows() as u32).collect();
        let oracle_moved = oracle.reassign(&all, &updated);
        assert_eq!(moved, oracle_moved, "only changed rows can move");
        assert_eq!(delta.encode(), oracle.encode(), "identical structure, bit for bit");

        // Retrieval over the updated pool agrees wherever the index is
        // consulted (same lists, same centroids, same re-rank pool).
        let delta = delta.with_pool(Arc::new(updated.clone())).unwrap();
        let oracle = oracle.with_pool(Arc::new(updated)).unwrap();
        let q = query(12, 4);
        assert_eq!(delta.topk(&q, 20, 3), oracle.topk(&q, 20, 3));
        assert_eq!(delta.topk(&q, 20, delta.nlist()), oracle.topk(&q, 20, oracle.nlist()));
    }

    #[test]
    fn reassign_keeps_lists_ascending_and_covering() {
        let pool = clustered_pool(500, 8, 6, 77);
        let mut ivf = IvfFlatIndex::build(Arc::clone(&pool), IvfParams::for_items(pool.rows()));
        let changed: Vec<u32> = (0..500).step_by(7).collect();
        let updated = mutate_rows(&pool, &changed, 13);
        ivf.reassign(&changed, &updated.select_rows(&changed).unwrap());
        // decode re-validates the structural invariants (full coverage,
        // no duplicates, ascending lists) — a round-trip is the check.
        let back = IvfFlatIndex::decode(&ivf.encode(), Arc::clone(&pool)).unwrap();
        assert_eq!(back.encode(), ivf.encode());
    }

    #[test]
    fn reassign_of_unchanged_rows_moves_nothing() {
        let pool = clustered_pool(300, 8, 5, 19);
        let mut ivf = IvfFlatIndex::build(Arc::clone(&pool), IvfParams::for_items(pool.rows()));
        let before = ivf.encode();
        let ids: Vec<u32> = vec![0, 10, 299];
        let same_rows = pool.select_rows(&ids).unwrap();
        assert_eq!(ivf.reassign(&ids, &same_rows), 0);
        assert_eq!(ivf.drift(), 0);
        assert_eq!(ivf.encode(), before);
    }

    #[test]
    fn drift_accumulates_across_deltas_and_resets_on_build() {
        let pool = clustered_pool(400, 8, 8, 33);
        let mut ivf = IvfFlatIndex::build(Arc::clone(&pool), IvfParams::for_items(pool.rows()));
        let mut total = 0usize;
        let mut current = (*pool).clone();
        for round in 0..4u64 {
            let changed: Vec<u32> = (round as u32 * 40..(round as u32 + 1) * 40).collect();
            current = mutate_rows(&current, &changed, 100 + round);
            total += ivf.reassign(&changed, &current.select_rows(&changed).unwrap());
            assert_eq!(ivf.drift(), total as u64);
        }
        assert!(total > 0, "clustered mutations must move something");
        assert!(ivf.drift_fraction() > 0.0 && ivf.drift_fraction() <= 1.0);
        let rebuilt = IvfFlatIndex::build(Arc::new(current), *ivf.params());
        assert_eq!(rebuilt.drift(), 0, "training the quantizer clears drift");
    }

    /// The single-representation pin: a contiguous table adopted as one
    /// chunk and its 1,024-row-chunked twin are the same pool — every row
    /// dot bit-equal, for both precisions — and writing through an
    /// adopted table copies the chunk instead of touching the donor.
    #[test]
    fn adopted_one_chunk_pools_match_their_chunked_twins_bitwise() {
        let donor = clustered_pool(2 * atnn_tensor::COW_CHUNK_ROWS + 300, 16, 12, 61);
        let codes = Arc::new(QuantizedMatrix::from_matrix(&donor));
        let (donor_before, codes_before) = ((*donor).clone(), (*codes).clone());
        let ivf = IvfFlatIndex::build(Arc::clone(&donor), IvfParams::for_items(donor.rows()));
        let q = query(16, 42);
        let changed: Vec<u32> = vec![0, 1023, 1024, 2347];
        let rows = mutate_rows(&donor, &changed, 5).select_rows(&changed).unwrap();

        let pairs: [(ItemPool, ItemPool); 2] = [
            (Arc::clone(&donor).into(), Arc::new(CowMatrix::from_matrix(&donor)).into()),
            (Arc::clone(&codes).into(), Arc::new(CowQuantMatrix::from_quantized(&codes)).into()),
        ];
        for (mut adopted, mut chunked) in pairs {
            assert_eq!(adopted.is_quantized(), chunked.is_quantized());
            let (prep_a, prep_c) = (adopted.prepare(&q), chunked.prepare(&q));
            for id in 0..donor.rows() as u32 {
                let (a, c) = (adopted.dot(id, &prep_a), chunked.dot(id, &prep_c));
                assert_eq!(a.to_bits(), c.to_bits(), "row {id}");
            }
            let via_adopted = ivf.clone().with_pool(adopted.clone()).unwrap();
            let via_chunked = ivf.clone().with_pool(chunked.clone()).unwrap();
            assert_eq!(via_adopted.topk(&q, 25, 4), via_chunked.topk(&q, 25, 4));
            assert_eq!(
                via_adopted.topk(&q, 25, via_adopted.nlist()),
                BruteForce::new(chunked.clone()).topk(&q, 25, 0)
            );

            adopted.update_rows(&changed, &rows);
            chunked.update_rows(&changed, &rows);
            assert_eq!(adopted.to_f32(), chunked.to_f32(), "same update, same table");
        }
        assert_eq!(*donor, donor_before, "update_rows wrote through the adopted f32 donor");
        assert_eq!(*codes, codes_before, "...or the int8 donor");
    }

    #[test]
    fn tiny_pools_build_and_answer() {
        let pool = Arc::new(Matrix::from_fn(1, 4, |_, j| j as f32));
        let ivf = IvfFlatIndex::build(Arc::clone(&pool), IvfParams::for_items(1));
        assert_eq!(ivf.nlist(), 1);
        let hits = ivf.topk(&[1.0, 0.0, 0.0, 0.0], 5, 0);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 0);
        assert!(topk_select(std::iter::empty(), 3).is_empty());
    }
}
