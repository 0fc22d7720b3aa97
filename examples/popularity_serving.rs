//! Production-shaped serving: train, checkpoint, restore, publish a
//! popularity index, and serve concurrent scoring traffic while a
//! background refresh hot-swaps the index — the deployment shape of the
//! paper's §IV-D real-time data engine.
//!
//! Run with: `cargo run --release --example popularity_serving`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use atnn_repro::atnn::{Atnn, AtnnConfig, CtrTrainer, PopularityIndex, TrainOptions};
use atnn_repro::data::tmall::{TmallConfig, TmallDataset};
use atnn_repro::tensor::SwapCell;

fn main() {
    let data = TmallDataset::generate(TmallConfig::small());
    let mut model = Atnn::new(AtnnConfig::scaled(), &data);
    println!("training...");
    let opts = TrainOptions::builder().epochs(2).build().expect("valid options");
    CtrTrainer::new(opts).train(&mut model, &data, None).expect("training runs");

    // Checkpoint and restore: the serving fleet loads weights produced by
    // the training job.
    let blob = model.save();
    println!("checkpoint: {} bytes for {} parameters", blob.len(), model.num_parameters());
    let mut serving_model = Atnn::new(AtnnConfig::scaled(), &data);
    serving_model.load(blob).expect("restore checkpoint");

    // Publish the initial index from user group A.
    let group_a: Vec<u32> = (0..(data.num_users() / 2) as u32).collect();
    let index = Arc::new(SwapCell::new(PopularityIndex::build(&serving_model, &data, &group_a)));

    // Materialize generated item vectors for a shard of new arrivals —
    // this is the per-item O(1) state the scorers work from.
    let items: Vec<u32> = (0..512).collect();
    let vectors = serving_model.item_vectors_generated(&data.encode_item_profiles(&items));

    // Concurrent scorers + one refresher that republishes the index built
    // from user group B halfway through.
    let total_scored = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for worker in 0..4 {
            let index = Arc::clone(&index);
            let vectors = &vectors;
            let total_scored = Arc::clone(&total_scored);
            scope.spawn(move || {
                let mut checksum = 0.0f64;
                for round in 0..200 {
                    for i in 0..vectors.rows() {
                        checksum += index.load().score_vector(vectors.row(i)) as f64;
                    }
                    total_scored.fetch_add(vectors.rows() as u64, Ordering::Relaxed);
                    if round == 0 && worker == 0 {
                        println!("worker {worker}: first-round checksum {checksum:.1}");
                    }
                }
            });
        }
        let index = Arc::clone(&index);
        let serving_model = &serving_model;
        let data = &data;
        scope.spawn(move || {
            let group_b: Vec<u32> =
                ((data.num_users() / 2) as u32..data.num_users() as u32).collect();
            let fresh = PopularityIndex::build(serving_model, data, &group_b);
            index.publish(fresh);
            println!("refresher: published index from user group B");
        });
    });

    println!(
        "served {} scores across 4 workers with one live index swap",
        total_scored.load(Ordering::Relaxed)
    );

    // Show the end product: the top-5 new arrivals under the final index.
    let final_index = index.load();
    let mut ranked: Vec<(u32, f32)> =
        items.iter().map(|&it| (it, final_index.score_vector(vectors.row(it as usize)))).collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("\ntop new arrivals by served popularity:");
    for (item, score) in ranked.iter().take(5) {
        println!("  item {item}: {score:.3} (true {:.3})", data.true_popularity(*item));
    }
}
