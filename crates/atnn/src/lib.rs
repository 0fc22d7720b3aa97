//! # ATNN — Adversarial Two-Tower Neural Network
//!
//! Rust reproduction of *"ATNN: Adversarial Two-Tower Neural Network for
//! New Item's Popularity Prediction in E-commerce"* (ICDE 2021).
//!
//! The model solves the **new-arrival cold-start problem**: predicting an
//! item's click-through rate (and hence popularity) *before* any user has
//! interacted with it, when only its profile — not its behavioural
//! statistics — exists.
//!
//! ## Architecture (paper Fig. 4)
//! - An **item encoder** tower maps item profile *and* statistics features
//!   to an item vector; a **user tower** maps user features to a user
//!   vector. CTR is scored as `σ(⟨v_item, v_user⟩ + b)`.
//! - A **generator** maps *profile-only* features to a generated item
//!   vector. An **adversarial component** forces generated vectors to be
//!   indistinguishable from encoded vectors; the paper's equations realize
//!   it as a similarity loss `L_s = mean((1 − S(g(X_ip), f_i(X_i)))²)`
//!   ([`AdversarialMode::Similarity`]); a literal GAN discriminator is also
//!   provided ([`AdversarialMode::LearnedDiscriminator`]).
//! - Both item embedding layers **share their embedding tables**
//!   (`shared_embeddings`), and every encoder/generator embeds a **Deep &
//!   Cross Network** (`use_cross`).
//! - Training alternates the paper's Algorithm 1: a *D step* minimizing
//!   the full-feature CTR loss `L_i`, then a *G step* minimizing
//!   `L_g + λ·L_s`.
//!
//! ## Serving (paper Fig. 5)
//! [`PopularityIndex`] stores the frozen **mean user vector** of an active
//! user group; a new arrival's popularity is `σ(⟨v̂_item, v̄_user⟩ + b)` —
//! `O(1)` per item instead of `O(N_users)`.
//!
//! ## Extensions (paper §V, Fig. 6)
//! [`MultiTaskAtnn`] retargets the architecture at the Ele.me food-delivery
//! scenario: location-grouped mean user features and joint VpPV + GMV
//! regression heads trained by Algorithm 2.
//!
//! ## Quick start
//! ```
//! use atnn_core::{Atnn, AtnnConfig, CtrTrainer, PopularityIndex, TrainOptions};
//! use atnn_data::tmall::{TmallConfig, TmallDataset};
//!
//! let data = TmallDataset::generate(TmallConfig::tiny());
//! let mut model = Atnn::new(AtnnConfig::scaled(), &data);
//! let opts = TrainOptions::builder().epochs(1).build().expect("valid options");
//! let report = CtrTrainer::new(opts).train(&mut model, &data, None).expect("training runs");
//! assert!(report.epochs[0].loss_i.is_finite());
//!
//! // O(1) cold-start popularity for three brand-new items:
//! let index = PopularityIndex::build(&model, &data, &(0..100).collect::<Vec<_>>());
//! let scores = index.score_new_arrivals(&model, &data, &[5, 6, 7]);
//! assert_eq!(scores.len(), 3);
//! ```

mod artifact;
mod concat_dnn;
mod config;
mod features;
mod grouping;
mod model;
mod multitask;
mod popularity;
mod towers;
mod trainer;

pub use artifact::{ArtifactError, InstantiatedModel, ModelArtifact, QuantTables};
pub use concat_dnn::ConcatDnn;
pub use config::{embed_dim_for, AdversarialMode, AtnnConfig, AtnnConfigBuilder, ConfigError};
pub use features::FeatureEncoder;
pub use grouping::{GroupedPopularityIndex, KMeans};
pub use model::{Atnn, StepLosses};
pub use multitask::{evaluate_mae_cold, MultiTaskAtnn, MultiTaskReport, MultiTaskTrainOptions};
pub use popularity::{pairwise_popularity, pairwise_popularity_parallel, PopularityIndex};
pub use towers::Tower;
pub use trainer::{
    evaluate_auc_full, evaluate_auc_generated, evaluate_auc_imputed, gather_batch, CtrTrainer,
    EpochStats, TrainError, TrainOptions, TrainOptionsBuilder, TrainReport,
};
