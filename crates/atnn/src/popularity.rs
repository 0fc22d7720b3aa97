//! O(1) popularity serving with a pre-learned mean user vector (paper
//! Fig. 5 and §III-D).
//!
//! Ranking all new arrivals naively requires scoring the Cartesian product
//! of `N_items × N_users` pairs. The paper's observation: for *ranking
//! items* the user side can be collapsed once — select an active user
//! group, average their user vectors at training time, and score each new
//! arrival against the stored mean vector. Per-item cost drops from
//! `O(N_users)` to `O(1)`.

use atnn_data::tmall::TmallDataset;
use atnn_tensor::{dot, pool, Matrix};

use crate::model::Atnn;

/// The frozen mean-user-vector index.
#[derive(Debug, Clone, PartialEq)]
pub struct PopularityIndex {
    mean_user_vec: Vec<f32>,
    bias: f32,
}

const BATCH: usize = 512;

impl PopularityIndex {
    /// Builds the index from a user group: encodes the group's users in
    /// batches through the user tower and averages the vectors.
    pub fn build(model: &Atnn, data: &TmallDataset, user_group: &[u32]) -> Self {
        assert!(!user_group.is_empty(), "PopularityIndex: empty user group");
        let dim = model.config().vec_dim;
        let mut mean = vec![0.0f64; dim];
        for chunk in user_group.chunks(BATCH) {
            let block = data.encode_users(chunk);
            let vecs = model.user_vectors(&block);
            for i in 0..vecs.rows() {
                for (m, &v) in mean.iter_mut().zip(vecs.row(i)) {
                    *m += v as f64;
                }
            }
        }
        let n = user_group.len() as f64;
        let mean_user_vec = mean.into_iter().map(|v| (v / n) as f32).collect();
        PopularityIndex { mean_user_vec, bias: model.bias_value() }
    }

    /// Builds directly from materialized user vectors (rows) and a bias.
    pub fn from_user_vectors(vectors: &Matrix, bias: f32) -> Self {
        assert!(vectors.rows() > 0, "PopularityIndex: no vectors");
        PopularityIndex { mean_user_vec: vectors.mean_rows().into_vec(), bias }
    }

    /// Reassembles an index from its stored parts (artifact loading).
    pub fn from_parts(mean_user_vec: Vec<f32>, bias: f32) -> Self {
        assert!(!mean_user_vec.is_empty(), "PopularityIndex: empty mean vector");
        PopularityIndex { mean_user_vec, bias }
    }

    /// O(1) popularity score of one item vector:
    /// `σ(⟨v_item, v̄_user⟩ + b)`.
    pub fn score_vector(&self, item_vec: &[f32]) -> f32 {
        assert_eq!(item_vec.len(), self.mean_user_vec.len(), "vector width mismatch");
        sigmoid(dot(item_vec, &self.mean_user_vec) + self.bias)
    }

    /// Scores a batch of *new arrivals* end to end: generator vectors from
    /// profiles, then the O(1) dot against the stored mean user vector.
    pub fn score_new_arrivals(&self, model: &Atnn, data: &TmallDataset, items: &[u32]) -> Vec<f32> {
        let mut scores = Vec::with_capacity(items.len());
        for chunk in items.chunks(BATCH) {
            let profile = data.encode_item_profiles(chunk);
            let vecs = model.item_vectors_generated(&profile);
            scores.extend((0..vecs.rows()).map(|i| self.score_vector(vecs.row(i))));
        }
        scores
    }

    /// Converts a precomputed raw dot product `⟨v_item, v̄_user⟩` into the
    /// popularity probability `σ(dot + b)` — the same sigmoid and bias as
    /// [`PopularityIndex::score_vector`], so retrieval paths that rank in
    /// dot space can convert their winners bit-identically.
    pub fn score_from_dot(&self, dot: f32) -> f32 {
        sigmoid(dot + self.bias)
    }

    /// The stored mean user vector.
    pub fn mean_user_vec(&self) -> &[f32] {
        &self.mean_user_vec
    }

    /// The stored scoring bias.
    pub fn bias(&self) -> f32 {
        self.bias
    }
}

/// Reference implementation of the *naive* ranking path: each item's
/// popularity as the mean pairwise CTR over every user in the group —
/// `O(N_users)` per item. Kept for the fidelity ablation (DESIGN.md A5)
/// and the Fig. 5 efficiency benchmark.
pub fn pairwise_popularity(
    model: &Atnn,
    data: &TmallDataset,
    items: &[u32],
    user_group: &[u32],
) -> Vec<f32> {
    assert!(!user_group.is_empty(), "pairwise_popularity: empty user group");
    // Materialize all user vectors once (batched).
    let mut user_vecs: Vec<Matrix> = Vec::new();
    for chunk in user_group.chunks(BATCH) {
        let block = data.encode_users(chunk);
        user_vecs.push(model.user_vectors(&block));
    }
    let bias = model.bias_value();
    let mut scores = Vec::with_capacity(items.len());
    for chunk in items.chunks(BATCH) {
        let profile = data.encode_item_profiles(chunk);
        let ivecs = model.item_vectors_generated(&profile);
        for i in 0..ivecs.rows() {
            let iv = ivecs.row(i);
            let mut total = 0.0f64;
            for block in &user_vecs {
                for u in 0..block.rows() {
                    total += sigmoid(dot(iv, block.row(u)) + bias) as f64;
                }
            }
            scores.push((total / user_group.len() as f64) as f32);
        }
    }
    scores
}

/// Multi-threaded variant of [`pairwise_popularity`]: splits the item set
/// across the shared [`pool`]. Bit-identical to the serial path — each
/// item's mean is an independent reduction and the item→chunk split
/// depends only on `items.len()` and `threads`.
pub fn pairwise_popularity_parallel(
    model: &Atnn,
    data: &TmallDataset,
    items: &[u32],
    user_group: &[u32],
    threads: usize,
) -> Vec<f32> {
    assert!(threads > 0, "need at least one thread");
    assert!(!user_group.is_empty(), "pairwise_popularity_parallel: empty user group");
    if threads == 1 || items.len() < 2 * threads {
        return pairwise_popularity(model, data, items, user_group);
    }
    let chunk_size = items.len().div_ceil(threads);
    pool::map_chunks(items, chunk_size, threads, |chunk| {
        pairwise_popularity(model, data, chunk, user_group)
    })
    .into_iter()
    .flatten()
    .collect()
}

fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AtnnConfig;
    use crate::trainer::{CtrTrainer, TrainOptions};
    use atnn_data::tmall::TmallConfig;

    fn trained() -> (Atnn, TmallDataset) {
        let data = TmallDataset::generate(TmallConfig {
            num_users: 120,
            num_items: 250,
            num_interactions: 3_000,
            ..TmallConfig::tiny()
        });
        let mut model = Atnn::new(AtnnConfig::scaled(), &data);
        CtrTrainer::new(TrainOptions { epochs: 1, ..Default::default() })
            .train(&mut model, &data, None)
            .unwrap();
        (model, data)
    }

    #[test]
    fn index_is_the_mean_of_user_vectors() {
        let (model, data) = trained();
        let group: Vec<u32> = (0..100).collect();
        let index = PopularityIndex::build(&model, &data, &group);
        let vecs = model.user_vectors(&data.encode_users(&group));
        let manual = vecs.mean_rows();
        for (a, b) in index.mean_user_vec().iter().zip(manual.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
        assert_eq!(index.bias(), model.bias_value());
    }

    #[test]
    fn scores_are_probabilities_and_deterministic() {
        let (model, data) = trained();
        let group: Vec<u32> = (0..80).collect();
        let index = PopularityIndex::build(&model, &data, &group);
        let items: Vec<u32> = (0..50).collect();
        let a = index.score_new_arrivals(&model, &data, &items);
        let b = index.score_new_arrivals(&model, &data, &items);
        assert_eq!(a, b);
        assert!(a.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn mean_vector_ranking_agrees_with_pairwise() {
        // The O(1) path is an approximation of the O(N_U) path; their
        // rankings must agree strongly (ablation A5's core claim).
        let (model, data) = trained();
        let group: Vec<u32> = (0..data.num_users() as u32).collect();
        let items: Vec<u32> = (0..120).collect();
        let index = PopularityIndex::build(&model, &data, &group);
        let fast = index.score_new_arrivals(&model, &data, &items);
        let slow = pairwise_popularity(&model, &data, &items, &group);
        let rho = atnn_metrics::spearman(&fast, &slow).unwrap();
        assert!(rho > 0.95, "rank agreement too weak: {rho}");
    }

    #[test]
    fn from_user_vectors_matches_build() {
        let (model, data) = trained();
        let group: Vec<u32> = (0..64).collect();
        let built = PopularityIndex::build(&model, &data, &group);
        let vecs = model.user_vectors(&data.encode_users(&group));
        let direct = PopularityIndex::from_user_vectors(&vecs, model.bias_value());
        for (a, b) in built.mean_user_vec().iter().zip(direct.mean_user_vec()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn parallel_pairwise_matches_serial() {
        let (model, data) = trained();
        let group: Vec<u32> = (0..64).collect();
        let items: Vec<u32> = (0..90).collect();
        let serial = pairwise_popularity(&model, &data, &items, &group);
        for threads in [1usize, 2, 4, 7] {
            let parallel = pairwise_popularity_parallel(&model, &data, &items, &group, threads);
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn from_parts_roundtrips_the_stored_state() {
        let (model, data) = trained();
        let built = PopularityIndex::build(&model, &data, &(0..40).collect::<Vec<_>>());
        let rebuilt = PopularityIndex::from_parts(built.mean_user_vec().to_vec(), built.bias());
        assert_eq!(rebuilt, built);
    }

    #[test]
    #[should_panic(expected = "empty user group")]
    fn build_rejects_empty_group() {
        let (model, data) = trained();
        let _ = PopularityIndex::build(&model, &data, &[]);
    }
}
