//! Concurrency integration: the serving index under parallel scorers with
//! live republishing must stay consistent (every observed score belongs to
//! one of the published indexes — never a torn mix).

use std::sync::Arc;

use atnn_repro::atnn::{Atnn, AtnnConfig, CtrTrainer, PopularityIndex, TrainOptions};
use atnn_repro::data::tmall::{TmallConfig, TmallDataset};
use atnn_repro::tensor::SwapCell;

#[test]
fn hot_swap_is_atomic_under_concurrent_reads() {
    let data = TmallDataset::generate(
        TmallConfig {
            num_users: 200,
            num_items: 300,
            num_interactions: 2_000,
            ..TmallConfig::tiny()
        }
        .with_seed(4242),
    );
    let mut model = Atnn::new(AtnnConfig::scaled(), &data);
    let opts = TrainOptions::builder().epochs(1).build().expect("valid options");
    CtrTrainer::new(opts).train(&mut model, &data, None).expect("training runs");

    let group_a: Vec<u32> = (0..100).collect();
    let group_b: Vec<u32> = (100..200).collect();
    let index_a = PopularityIndex::build(&model, &data, &group_a);
    let index_b = PopularityIndex::build(&model, &data, &group_b);

    let item_vec = model.item_vectors_generated(&data.encode_item_profiles(&[0])).row(0).to_vec();
    let expected_a = index_a.score_vector(&item_vec);
    let expected_b = index_b.score_vector(&item_vec);
    assert_ne!(expected_a, expected_b, "the two groups must score differently");

    let serving = Arc::new(SwapCell::new(index_a.clone()));
    std::thread::scope(|scope| {
        // Four readers hammer the index; every score must equal one of the
        // two legitimate values.
        for _ in 0..4 {
            let serving = Arc::clone(&serving);
            let item_vec = item_vec.clone();
            scope.spawn(move || {
                for _ in 0..20_000 {
                    let s = serving.load().score_vector(&item_vec);
                    assert!(
                        s == expected_a || s == expected_b,
                        "torn read: {s} not in {{{expected_a}, {expected_b}}}"
                    );
                }
            });
        }
        // One snapshotter checks that whole snapshots are never torn either:
        // each must equal one of the two published indexes exactly.
        {
            let serving = Arc::clone(&serving);
            let index_a = index_a.clone();
            let index_b = index_b.clone();
            scope.spawn(move || {
                for _ in 0..5_000 {
                    let snap = serving.load();
                    assert!(*snap == index_a || *snap == index_b, "torn snapshot");
                }
            });
        }
        // One writer flips between the indexes.
        let serving = Arc::clone(&serving);
        scope.spawn(move || {
            for i in 0..50 {
                serving.publish(if i % 2 == 0 { index_b.clone() } else { index_a.clone() });
            }
        });
    });
}

#[test]
fn snapshots_are_zero_copy_and_stable_across_publish() {
    let data = TmallDataset::generate(TmallConfig::tiny());
    let mut model = Atnn::new(AtnnConfig::scaled(), &data);
    let opts = TrainOptions::builder().epochs(1).build().expect("valid options");
    CtrTrainer::new(opts).train(&mut model, &data, None).expect("training runs");
    let index_a = PopularityIndex::build(&model, &data, &(0..64).collect::<Vec<_>>());
    let index_b = PopularityIndex::build(&model, &data, &(64..128).collect::<Vec<_>>());

    let serving = SwapCell::new(index_a.clone());
    let s1 = serving.load();
    let s2 = serving.load();
    assert!(Arc::ptr_eq(&s1, &s2), "snapshot must share storage, not clone the matrix");

    serving.publish(index_b.clone());
    assert_eq!(*s1, index_a, "pre-publish snapshot unchanged");
    assert_eq!(*serving.load(), index_b);
}
