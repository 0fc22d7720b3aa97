//! End-to-end serving tests over real TCP: a trained model behind the full
//! server stack, scored through the wire protocol, checked bit-for-bit
//! against direct model calls. The kernels are bit-identical regardless of
//! batch composition (see `atnn_tensor::pool`), so every comparison here
//! is exact `==`, not a tolerance.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use atnn_core::{Atnn, AtnnConfig, CtrTrainer, ModelArtifact, PopularityIndex, TrainOptions};
use atnn_data::tmall::{TmallConfig, TmallDataset};
use atnn_serve::protocol::write_frame;
use atnn_serve::{
    serve, shard_of, FrameRead, FrameReader, ModelManager, ModelSnapshot, Precision, Request,
    Response, ServeClient, ServeConfig, ServeHandle,
};

/// Reads one whole frame from a blocking stream; `Ok(None)` on a clean
/// EOF at a frame boundary. `FrameReader` never reads past the frame it
/// returns, so a throwaway reader per call loses no bytes.
fn read_frame(r: &mut impl Read) -> Result<Option<bytes::Bytes>, atnn_serve::ProtocolError> {
    let mut reader = FrameReader::new();
    loop {
        match reader.read_frame(r)? {
            FrameRead::Frame(payload) => return Ok(Some(payload)),
            FrameRead::Idle => continue,
            FrameRead::Eof => return Ok(None),
        }
    }
}

fn tiny_data_config() -> TmallConfig {
    TmallConfig { num_users: 60, num_items: 150, num_interactions: 1_200, ..TmallConfig::tiny() }
}

/// Trains a snapshot on the shared tiny dataset. More epochs → different
/// weights, which is how the hot-swap test tells versions apart.
fn snapshot(version: u64, epochs: usize) -> ModelSnapshot {
    let data = TmallDataset::generate(tiny_data_config());
    let mut model = Atnn::new(AtnnConfig::scaled(), &data);
    if epochs > 0 {
        let opts = TrainOptions::builder().epochs(epochs).build().expect("valid options");
        CtrTrainer::new(opts).train(&mut model, &data, None).expect("training runs");
    }
    let index = PopularityIndex::build(&model, &data, &(0..40).collect::<Vec<_>>());
    ModelSnapshot::new(version, data, model, index)
}

fn start_server(cfg: ServeConfig, snap: ModelSnapshot) -> (ServeHandle, Arc<ModelManager>) {
    let manager = Arc::new(ModelManager::new(snap));
    let handle = serve(cfg, Arc::clone(&manager)).expect("bind ephemeral port");
    (handle, manager)
}

#[test]
fn mixed_cold_warm_traffic_matches_direct_model_calls() {
    let (mut handle, manager) = start_server(ServeConfig::default(), snapshot(1, 1));
    let snap = manager.load();
    let mut client = ServeClient::connect(handle.local_addr()).unwrap();

    assert_eq!(client.health().unwrap(), 1);

    // Warm items 0..5 past the default threshold via the wire.
    let warm_items: Vec<u32> = (0..5).collect();
    for _ in 0..ServeConfig::default().warm_threshold {
        client.record_interactions(&warm_items).unwrap();
    }

    // Forced paths are exact.
    let items: Vec<u32> = (0..20).collect();
    match client.score_new_arrival(&items).unwrap() {
        Response::Scores(scores) => assert_eq!(scores, snap.score_cold(&items)),
        other => panic!("unexpected {other:?}"),
    }
    match client.score_warm_item(&items).unwrap() {
        Response::Scores(scores) => assert_eq!(scores, snap.score_warm(&items)),
        other => panic!("unexpected {other:?}"),
    }

    // Policy-routed scoring: items 0..5 take the warm path, the rest cold,
    // each slot matching the corresponding direct call exactly.
    match client.score(&items).unwrap() {
        Response::RoutedScores { scores, warm } => {
            let cold_direct = snap.score_cold(&items);
            let warm_direct = snap.score_warm(&items);
            for (i, item) in items.iter().enumerate() {
                let expect_warm = *item < 5;
                assert_eq!(warm[i], expect_warm, "routing of item {item}");
                let expected = if expect_warm { warm_direct[i] } else { cold_direct[i] };
                assert_eq!(scores[i], expected, "score of item {item}");
            }
        }
        other => panic!("unexpected {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn topk_returns_best_routed_scores_in_order() {
    let (mut handle, manager) = start_server(ServeConfig::default(), snapshot(1, 1));
    let snap = manager.load();
    let mut client = ServeClient::connect(handle.local_addr()).unwrap();

    let items: Vec<u32> = (10..40).collect();
    let direct = snap.score_cold(&items);
    match client.topk(&items, 5).unwrap() {
        Response::TopK(winners) => {
            assert_eq!(winners.len(), 5);
            let mut ranked: Vec<(u32, f32)> = items.iter().copied().zip(direct).collect();
            ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            assert_eq!(winners, ranked[..5].to_vec());
        }
        other => panic!("unexpected {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn invalid_requests_get_errors_and_stats_account_traffic() {
    let cfg = ServeConfig { max_request_items: 16, ..ServeConfig::default() };
    let (mut handle, _manager) = start_server(cfg, snapshot(3, 0));
    let mut client = ServeClient::connect(handle.local_addr()).unwrap();

    // Unknown item id.
    match client.score_new_arrival(&[9_999]).unwrap() {
        Response::Error(msg) => assert!(msg.contains("out of range"), "{msg}"),
        other => panic!("unexpected {other:?}"),
    }
    // Oversized request.
    let big: Vec<u32> = (0..17).collect();
    match client.score(&big).unwrap() {
        Response::Error(msg) => assert!(msg.contains("limit"), "{msg}"),
        other => panic!("unexpected {other:?}"),
    }
    // Valid traffic for the counters.
    client.score_new_arrival(&[1, 2, 3]).unwrap();
    client.score_new_arrival(&[4]).unwrap();

    let stats = client.stats().unwrap();
    assert_eq!(stats.model_version, 3);
    let cold = stats.endpoint("score_new_arrival").unwrap();
    assert_eq!(cold.requests, 3, "two ok + one error");
    assert_eq!(cold.errors, 1);
    assert!(cold.p50_ns > 0, "latency histogram populated");
    assert_eq!(stats.endpoint("score").unwrap().errors, 1);
    assert!(stats.batches >= 2, "scoring went through the batcher");
    handle.shutdown();
}

#[test]
fn saturated_queue_sheds_with_overloaded_over_the_wire() {
    // A queue smaller than one request: every scoring request sheds, which
    // exercises the full TCP shed path deterministically.
    let cfg = ServeConfig { queue_capacity: 4, ..ServeConfig::default() };
    let (mut handle, _manager) = start_server(cfg, snapshot(1, 0));
    let mut client = ServeClient::connect(handle.local_addr()).unwrap();

    let items: Vec<u32> = (0..8).collect();
    match client.score_new_arrival(&items).unwrap() {
        Response::Overloaded => {}
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // Small requests still fit and succeed.
    match client.score_new_arrival(&[0, 1]).unwrap() {
        Response::Scores(scores) => assert_eq!(scores.len(), 2),
        other => panic!("unexpected {other:?}"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.endpoint("score_new_arrival").unwrap().shed, 1);
    handle.shutdown();
}

#[test]
fn client_pausing_mid_frame_stays_synchronized() {
    // A read timeout far shorter than the client's mid-frame pauses: the
    // server must buffer the partial frame across timeouts instead of
    // discarding consumed bytes and misparsing the remainder.
    let cfg = ServeConfig { read_timeout: Duration::from_millis(5), ..ServeConfig::default() };
    let (mut handle, manager) = start_server(cfg, snapshot(1, 1));
    let snap = manager.load();

    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let items: Vec<u32> = (0..6).collect();
    let payload = Request::ScoreNewArrival { items: items.clone() }.encode();
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);

    // Dribble the frame in three writes: mid-length-prefix, mid-payload,
    // rest — each pause several read timeouts long.
    for part in [&frame[..2], &frame[2..7], &frame[7..]] {
        stream.write_all(part).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(30));
    }
    match Response::decode(read_frame(&mut stream).unwrap().unwrap()).unwrap() {
        Response::Scores(scores) => assert_eq!(scores, snap.score_cold(&items)),
        other => panic!("unexpected {other:?}"),
    }

    // The same connection keeps working — the stream never desynchronized.
    write_frame(&mut stream, &Request::Health.encode()).unwrap();
    match Response::decode(read_frame(&mut stream).unwrap().unwrap()).unwrap() {
        Response::Health { ok, model_version } => {
            assert!(ok);
            assert_eq!(model_version, 1);
        }
        other => panic!("unexpected {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn malformed_frames_are_accounted_separately_from_real_endpoints() {
    let (mut handle, _manager) = start_server(ServeConfig::default(), snapshot(1, 0));

    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    write_frame(&mut stream, &[0xff]).unwrap(); // unknown opcode
    match Response::decode(read_frame(&mut stream).unwrap().unwrap()).unwrap() {
        Response::Error(msg) => assert!(msg.contains("bad request"), "{msg}"),
        other => panic!("unexpected {other:?}"),
    }

    let mut client = ServeClient::connect(handle.local_addr()).unwrap();
    client.health().unwrap();
    let stats = client.stats().unwrap();
    let malformed = stats.endpoint("malformed").unwrap();
    assert_eq!((malformed.requests, malformed.errors), (1, 1));
    let health = stats.endpoint("health").unwrap();
    assert_eq!(health.errors, 0, "malformed traffic must not pollute health");
    handle.shutdown();
}

#[test]
fn hot_swap_mid_load_serves_both_versions_and_never_errors() {
    // Single shard: one batch scores the whole request against one
    // snapshot load, so every answer is exactly one model version.
    hot_swap_mid_load(ServeConfig::default(), true);
}

#[test]
fn sharded_hot_swap_mid_load_keeps_every_slot_on_a_published_version() {
    // Under scatter-gather a request can straddle the publish instant:
    // shard A scores its bucket before the flip, shard B after. That is
    // the same semantics a per-shard canary creates on purpose, so the
    // invariant is per slot, not per response: each slot is bit-exactly
    // one of the two published versions — never a blend within a slot,
    // never an error — and the fleet converges to v2.
    hot_swap_mid_load(ServeConfig { shards: 3, event_threads: 2, ..ServeConfig::default() }, false);
}

#[test]
fn sharded_delta_publish_mid_load_keeps_every_slot_on_a_published_version() {
    // Same invariant as the full hot-swap test, but the mid-load publish
    // is a *delta*: a trained replacement model patched in over 30
    // changed items through `ModelManager::publish_delta`. Every slot of
    // every in-flight scatter-gather must land bit-exactly on one of the
    // two published versions — zero errored slots — and new connections
    // converge to the delta snapshot.
    let cfg = ServeConfig { shards: 3, event_threads: 2, ..ServeConfig::default() };
    let (mut handle, manager) = start_server(cfg, snapshot(1, 0));
    let v1 = manager.load();

    // The replacement model, trained over the same catalogue.
    let data = TmallDataset::generate(tiny_data_config());
    let mut model_b = Atnn::new(AtnnConfig::scaled().with_seed(5), &data);
    let opts = TrainOptions::builder().epochs(1).build().expect("valid options");
    CtrTrainer::new(opts).train(&mut model_b, &data, None).expect("training runs");
    let model_b = Arc::new(model_b);
    let changed: Vec<u32> = (0..30).collect();

    // Delta builds are deterministic, so an oracle built from the same
    // previous snapshot predicts the published scores bit-for-bit.
    let (oracle, _) =
        ModelSnapshot::delta_from(&v1, 2, Arc::clone(&model_b), v1.index.clone(), &changed)
            .expect("valid delta");
    let items: Vec<u32> = (0..10).collect();
    let v1_scores = v1.score_cold(&items);
    let v2_scores = oracle.score_cold(&items);
    assert_ne!(v1_scores, v2_scores, "the delta must actually move the queried rows");

    let addr = handle.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let requests_ok = Arc::new(AtomicU64::new(0));
    let saw_v2 = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for _ in 0..3 {
            let stop = Arc::clone(&stop);
            let requests_ok = Arc::clone(&requests_ok);
            let saw_v2 = Arc::clone(&saw_v2);
            let (items, v1_scores, v2_scores) = (&items, &v1_scores, &v2_scores);
            workers.push(scope.spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect");
                while !stop.load(Ordering::Relaxed) {
                    match client.score_new_arrival(items).expect("request failed during delta") {
                        Response::Scores(scores) => {
                            if &scores == v2_scores {
                                saw_v2.store(true, Ordering::Relaxed);
                            } else {
                                for (i, &s) in scores.iter().enumerate() {
                                    assert!(
                                        s == v1_scores[i] || s == v2_scores[i],
                                        "slot {i} matches neither version: {s}"
                                    );
                                }
                            }
                            requests_ok.fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("unexpected response during delta publish: {other:?}"),
                    }
                }
            }));
        }

        std::thread::sleep(Duration::from_millis(50));
        let report = manager
            .publish_delta(2, Arc::clone(&model_b), v1.index.clone(), &changed)
            .expect("delta publish accepted");
        assert_eq!(report.changed, 30);
        std::thread::sleep(Duration::from_millis(100));
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            w.join().expect("worker panicked");
        }
    });

    assert!(requests_ok.load(Ordering::Relaxed) > 0, "no traffic flowed");
    assert!(saw_v2.load(Ordering::Relaxed), "post-publish scores never reflected the delta");
    assert_eq!(manager.version(), 2);

    // New connections see exactly the oracle's scores — and an unchanged
    // item still scores bit-identically to v1 (its row was never touched).
    let mut client = ServeClient::connect(addr).unwrap();
    assert_eq!(client.health().unwrap(), 2);
    match client.score_new_arrival(&items).unwrap() {
        Response::Scores(scores) => assert_eq!(scores, v2_scores),
        other => panic!("unexpected {other:?}"),
    }
    let untouched: Vec<u32> = (140..150).collect();
    match client.score_new_arrival(&untouched).unwrap() {
        Response::Scores(scores) => assert_eq!(scores, v1.score_cold(&untouched)),
        other => panic!("unexpected {other:?}"),
    }
    handle.shutdown();
}

fn hot_swap_mid_load(cfg: ServeConfig, atomic_across_shards: bool) {
    let (mut handle, manager) = start_server(cfg, snapshot(1, 0));
    let v1 = manager.load();
    let v2_snap = snapshot(2, 2);
    let items: Vec<u32> = (0..10).collect();
    let v1_scores = v1.score_cold(&items);
    let v2_scores = v2_snap.score_cold(&items);
    assert_ne!(v1_scores, v2_scores, "retraining must actually move the weights");

    let addr = handle.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let requests_ok = Arc::new(AtomicU64::new(0));
    let saw_v2 = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for _ in 0..3 {
            let stop = Arc::clone(&stop);
            let requests_ok = Arc::clone(&requests_ok);
            let saw_v2 = Arc::clone(&saw_v2);
            let (items, v1_scores, v2_scores) = (&items, &v1_scores, &v2_scores);
            workers.push(scope.spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect");
                while !stop.load(Ordering::Relaxed) {
                    match client.score_new_arrival(items).expect("request failed during swap") {
                        Response::Scores(scores) => {
                            if &scores == v2_scores {
                                saw_v2.store(true, Ordering::Relaxed);
                            } else if atomic_across_shards {
                                // Single shard: every answer is exactly one
                                // model version — never a blend.
                                assert_eq!(&scores, v1_scores, "torn or unknown scores");
                            } else {
                                // Sharded: each slot is one version or the
                                // other, bit-exactly — never garbage.
                                for (i, &s) in scores.iter().enumerate() {
                                    assert!(
                                        s == v1_scores[i] || s == v2_scores[i],
                                        "slot {i} matches neither version: {s}"
                                    );
                                }
                            }
                            requests_ok.fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("unexpected response during swap: {other:?}"),
                    }
                }
            }));
        }

        // Let traffic flow, then publish the retrained snapshot mid-load.
        std::thread::sleep(Duration::from_millis(50));
        manager.publish(v2_snap).expect("same catalogue, publish accepted");
        std::thread::sleep(Duration::from_millis(100));
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            w.join().expect("worker panicked");
        }
    });

    assert!(requests_ok.load(Ordering::Relaxed) > 0, "no traffic flowed");
    assert!(saw_v2.load(Ordering::Relaxed), "post-swap scores never reflected the new weights");
    assert_eq!(manager.version(), 2);

    // New connections see only v2.
    let mut client = ServeClient::connect(addr).unwrap();
    assert_eq!(client.health().unwrap(), 2);
    match client.score_new_arrival(&items).unwrap() {
        Response::Scores(scores) => assert_eq!(scores, v2_scores),
        other => panic!("unexpected {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn artifact_reload_through_manager_swaps_the_served_model() {
    let (mut handle, manager) = start_server(ServeConfig::default(), snapshot(1, 0));
    let mut client = ServeClient::connect(handle.local_addr()).unwrap();
    assert_eq!(client.health().unwrap(), 1);

    // A "training job" writes a fresh artifact...
    let retrained = snapshot(9, 2);
    let artifact =
        ModelArtifact::capture(&retrained.model, &tiny_data_config(), &retrained.index, 9);
    let path = std::env::temp_dir().join(format!("atnn_e2e_reload_{}.atnn", std::process::id()));
    artifact.save_to(&path).unwrap();

    // ...and the running server reloads it without restarting.
    let items: Vec<u32> = (0..12).collect();
    let expected = retrained.score_cold(&items);
    assert_eq!(manager.reload_from(&path).unwrap(), 9);
    std::fs::remove_file(&path).unwrap();

    assert_eq!(client.health().unwrap(), 9, "existing connection sees the new version");
    match client.score_new_arrival(&items).unwrap() {
        Response::Scores(scores) => assert_eq!(scores, expected),
        other => panic!("unexpected {other:?}"),
    }
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Sharded serving: scatter-gather correctness, pipelining, slow clients.
// ---------------------------------------------------------------------------

#[test]
fn sharded_scoring_is_bit_identical_to_direct_calls() {
    let cfg = ServeConfig { shards: 3, event_threads: 2, ..ServeConfig::default() };
    let (mut handle, manager) = start_server(cfg, snapshot(1, 1));
    let snap = manager.load();
    let mut client = ServeClient::connect(handle.local_addr()).unwrap();

    let warm_items: Vec<u32> = (0..5).collect();
    for _ in 0..ServeConfig::default().warm_threshold {
        client.record_interactions(&warm_items).unwrap();
    }

    // Items spread over all three shards; the gathered answer must be the
    // same bits as one snapshot scoring everything in a single pass.
    let items: Vec<u32> = (0..20).collect();
    match client.score_new_arrival(&items).unwrap() {
        Response::Scores(scores) => assert_eq!(scores, snap.score_cold(&items)),
        other => panic!("unexpected {other:?}"),
    }
    match client.score(&items).unwrap() {
        Response::RoutedScores { scores, warm } => {
            let cold_direct = snap.score_cold(&items);
            let warm_direct = snap.score_warm(&items);
            for (i, item) in items.iter().enumerate() {
                let expect_warm = *item < 5;
                assert_eq!(warm[i], expect_warm, "routing of item {item}");
                let expected = if expect_warm { warm_direct[i] } else { cold_direct[i] };
                assert_eq!(scores[i], expected, "score of item {item}");
            }
        }
        other => panic!("unexpected {other:?}"),
    }
    match client.topk(&items, 7).unwrap() {
        Response::TopK(winners) => {
            let cold = snap.score_cold(&items);
            let warm = snap.score_warm(&items);
            let mut ranked: Vec<(u32, f32)> = items
                .iter()
                .map(|&it| (it, if it < 5 { warm[it as usize] } else { cold[it as usize] }))
                .collect();
            ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            assert_eq!(winners, ranked[..7].to_vec());
        }
        other => panic!("unexpected {other:?}"),
    }

    // Per-shard telemetry: every shard the hash touched actually dispatched.
    let stats = client.stats().unwrap();
    assert_eq!(stats.shards.len(), 3);
    let touched: HashSet<usize> = items.iter().map(|&it| shard_of(it, 3)).collect();
    assert!(touched.len() >= 2, "items 0..20 all hashed to one shard — widen the range");
    for &s in &touched {
        assert!(stats.shards[s].dispatched > 0, "shard {s} never dispatched");
    }
    assert_eq!(stats.accept_errors, 0);
    handle.shutdown();
}

#[test]
fn pipelined_requests_are_answered_strictly_in_order() {
    // Inline endpoints (Health) complete immediately; scoring completes on
    // a shard thread later. The connection must still answer in arrival
    // order — a server that released whichever finished first would emit
    // the Health replies ahead of the Scores.
    let cfg = ServeConfig { shards: 2, ..ServeConfig::default() };
    let (mut handle, manager) = start_server(cfg, snapshot(1, 1));
    let snap = manager.load();
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();

    let mut requests = Vec::new();
    for item in 0..6u32 {
        requests.push(Request::ScoreNewArrival { items: vec![item] });
        requests.push(Request::Health);
    }
    for req in &requests {
        write_frame(&mut stream, &req.encode()).unwrap();
    }
    for (i, req) in requests.iter().enumerate() {
        let resp = Response::decode(read_frame(&mut stream).unwrap().unwrap()).unwrap();
        match (req, resp) {
            (Request::ScoreNewArrival { items }, Response::Scores(scores)) => {
                assert_eq!(scores, snap.score_cold(items), "slot {i}");
            }
            (Request::Health, Response::Health { ok, model_version }) => {
                assert!(ok, "slot {i}");
                assert_eq!(model_version, 1, "slot {i}");
            }
            (req, resp) => panic!("slot {i}: {req:?} answered with {resp:?}"),
        }
    }
    handle.shutdown();
}

#[test]
fn per_shard_canary_swap_routes_by_item_hash() {
    let cfg = ServeConfig { shards: 3, ..ServeConfig::default() };
    let (mut handle, manager) = start_server(cfg, snapshot(1, 1));
    let v1 = manager.load();
    let v2 = snapshot(2, 2);
    let items: Vec<u32> = (0..30).collect();
    let v1_scores = v1.score_cold(&items);
    let v2_scores = v2.score_cold(&items);
    assert_ne!(v1_scores, v2_scores, "retraining must actually move the weights");

    // Canary the retrained model onto shard 1 only.
    assert!(manager.publish_to_shard(1, v2).unwrap());
    let mut client = ServeClient::connect(handle.local_addr()).unwrap();
    assert_eq!(client.health().unwrap(), 1, "a canary must not bump the fleet version");

    // Each item scores with exactly the version of the shard it hashes to.
    for (i, &item) in items.iter().enumerate() {
        let expected = if shard_of(item, 3) == 1 { v2_scores[i] } else { v1_scores[i] };
        match client.score_new_arrival(&[item]).unwrap() {
            Response::Scores(scores) => assert_eq!(scores, vec![expected], "item {item}"),
            other => panic!("unexpected {other:?}"),
        }
    }
    let canaried = items.iter().filter(|&&it| shard_of(it, 3) == 1).count();
    assert!(
        canaried > 0 && canaried < items.len(),
        "hash put {canaried}/30 items on the canary shard — test proves nothing"
    );

    // A full publish erases the skew: every shard flips together.
    manager.publish(snapshot(2, 2)).unwrap();
    match client.score_new_arrival(&items).unwrap() {
        Response::Scores(scores) => assert_eq!(scores, v2_scores),
        other => panic!("unexpected {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn sharded_topk_all_at_full_probe_matches_the_exact_oracle() {
    // `nprobe` far above `nlist` clamps to a full probe, which is an
    // exact exactly-once scan — so the sharded, ANN-served answer must be
    // bit-identical to the single-snapshot oracle, sigmoid applied to the
    // merged dot-space winners only.
    let cfg =
        ServeConfig { shards: 3, event_threads: 2, nprobe: usize::MAX, ..ServeConfig::default() };
    let (mut handle, manager) = start_server(cfg, snapshot(1, 1));
    let snap = manager.load();
    let mut client = ServeClient::connect(handle.local_addr()).unwrap();

    for k in [1usize, 7, 40, 150, 200] {
        let expected: Vec<(u32, f32)> = snap
            .topk_dots(k, usize::MAX, &|_| true)
            .into_iter()
            .map(|(id, dot)| (id, snap.index.score_from_dot(dot)))
            .collect();
        assert_eq!(expected.len(), k.min(150), "oracle covers the catalogue");
        match client.topk_all(k as u32).unwrap() {
            Response::TopK(winners) => assert_eq!(winners, expected, "k={k}"),
            other => panic!("k={k}: unexpected {other:?}"),
        }
    }

    // Winner scores are the real cold scores of those items.
    match client.topk_all(5).unwrap() {
        Response::TopK(winners) => {
            for &(id, score) in &winners {
                assert_eq!(score, snap.score_cold(&[id])[0], "item {id}");
            }
        }
        other => panic!("unexpected {other:?}"),
    }

    // Oversized k is rejected before touching the shards.
    match client.topk_all(ServeConfig::default().max_request_items as u32 + 1).unwrap() {
        Response::Error(msg) => assert!(msg.contains("limit"), "{msg}"),
        other => panic!("unexpected {other:?}"),
    }
    let stats = client.stats().unwrap();
    let ep = stats.endpoint("topk_all").unwrap();
    assert_eq!(ep.requests, 7, "6 retrievals + 1 rejected");
    assert_eq!(ep.errors, 1);
    handle.shutdown();
}

/// Same trained tiny model as [`snapshot`], served from int8 tables.
fn quantized_snapshot(version: u64, epochs: usize) -> ModelSnapshot {
    let data = TmallDataset::generate(tiny_data_config());
    let mut model = Atnn::new(AtnnConfig::scaled(), &data);
    if epochs > 0 {
        let opts = TrainOptions::builder().epochs(epochs).build().expect("valid options");
        CtrTrainer::new(opts).train(&mut model, &data, None).expect("training runs");
    }
    let index = PopularityIndex::build(&model, &data, &(0..40).collect::<Vec<_>>());
    ModelSnapshot::new_with_precision(version, data, model, index, Precision::Int8)
}

#[test]
fn quantized_fleet_serves_int8_tables_end_to_end() {
    // A 3-shard fleet over an int8 snapshot: every endpoint answers from
    // the quantized tables. Wire responses are compared bit-for-bit
    // against the *same quantized snapshot's* direct calls (determinism
    // through the fleet), and within tolerance of an f32 twin trained
    // identically (quantization error bound).
    let cfg =
        ServeConfig { shards: 3, event_threads: 2, nprobe: usize::MAX, ..ServeConfig::default() };
    let (mut handle, manager) = start_server(cfg, quantized_snapshot(1, 1));
    let snap = manager.load();
    assert_eq!(snap.precision(), Precision::Int8);
    let f32_twin = snapshot(1, 1);
    let mut client = ServeClient::connect(handle.local_addr()).unwrap();

    let items: Vec<u32> = (0..150).collect();
    let direct_cold = snap.score_cold(&items);
    let direct_warm = snap.score_warm(&items);
    match client.score_new_arrival(&items).unwrap() {
        Response::Scores(scores) => assert_eq!(scores, direct_cold, "fleet is deterministic"),
        other => panic!("unexpected {other:?}"),
    }
    match client.score_warm_item(&items).unwrap() {
        Response::Scores(scores) => assert_eq!(scores, direct_warm),
        other => panic!("unexpected {other:?}"),
    }
    for (i, (q, e)) in direct_cold.iter().zip(f32_twin.score_cold(&items)).enumerate() {
        assert!((q - e).abs() < 5e-3, "cold item {i}: int8 {q} vs f32 {e}");
    }

    // Catalogue-wide retrieval: the scatter-gather answer equals the
    // quantized snapshot's own full-probe ranking (sigmoid at the front),
    // and recalls the f32 oracle's winners.
    let expected: Vec<(u32, f32)> = snap
        .topk_dots(10, usize::MAX, &|_| true)
        .into_iter()
        .map(|(id, dot)| (id, snap.index.score_from_dot(dot)))
        .collect();
    let winners = match client.topk_all(10).unwrap() {
        Response::TopK(w) => w,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(winners, expected, "sharded int8 TopKAll is deterministic");
    let oracle: HashSet<u32> =
        f32_twin.topk_dots(10, usize::MAX, &|_| true).into_iter().map(|(id, _)| id).collect();
    let hits = winners.iter().filter(|(id, _)| oracle.contains(id)).count();
    assert!(hits >= 9, "int8 top-10 recalled only {hits}/10 of the f32 oracle");

    // The stats endpoint reports the compressed footprint.
    let stats = client.stats().unwrap();
    assert_eq!(stats.snapshot_bytes, snap.snapshot_bytes());
    assert_eq!(stats.snapshot_f32_bytes, snap.snapshot_f32_bytes());
    assert!(
        stats.snapshot_bytes * 2 < stats.snapshot_f32_bytes,
        "quantized tables must be reported compressed: {} vs {}",
        stats.snapshot_bytes,
        stats.snapshot_f32_bytes
    );
    handle.shutdown();
}

#[test]
fn artifact_ann_section_round_trips_bit_identical_topk_responses() {
    // Three servers over the same trained model: the live snapshot, an
    // artifact carrying the persisted ANN index, and a legacy-style
    // artifact without one (build-at-load fallback). The index build is
    // fully deterministic, so all three must answer TopKAll with the same
    // bits.
    let snap = snapshot(1, 1);
    let with_index = ModelArtifact::capture(&snap.model, &tiny_data_config(), &snap.index, 1)
        .with_ann(snap.encoded_ann().into());
    assert!(with_index.ann().is_some());
    let without_index = ModelArtifact::capture(&snap.model, &tiny_data_config(), &snap.index, 1);

    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    let path_with = tmp.join(format!("atnn_e2e_ann_{pid}.atnn"));
    let path_without = tmp.join(format!("atnn_e2e_noann_{pid}.atnn"));
    with_index.save_to(&path_with).unwrap();
    without_index.save_to(&path_without).unwrap();

    let reloaded = ModelArtifact::load_from(&path_with).unwrap();
    assert_eq!(reloaded.ann(), with_index.ann(), "ann blob survives the file round trip");

    let (mut h_live, _m) = start_server(ServeConfig::default(), snap);
    let (mut h_with, _m) =
        start_server(ServeConfig::default(), ModelSnapshot::from_artifact(&reloaded).unwrap());
    let (mut h_without, _m) = start_server(
        ServeConfig::default(),
        ModelSnapshot::from_artifact(&ModelArtifact::load_from(&path_without).unwrap()).unwrap(),
    );
    std::fs::remove_file(&path_with).unwrap();
    std::fs::remove_file(&path_without).unwrap();

    let mut live = ServeClient::connect(h_live.local_addr()).unwrap();
    let mut with = ServeClient::connect(h_with.local_addr()).unwrap();
    let mut without = ServeClient::connect(h_without.local_addr()).unwrap();
    for k in [1u32, 10, 64] {
        let reference = match live.topk_all(k).unwrap() {
            Response::TopK(w) => w,
            other => panic!("k={k}: unexpected {other:?}"),
        };
        assert_eq!(reference.len(), k as usize);
        match with.topk_all(k).unwrap() {
            Response::TopK(w) => assert_eq!(w, reference, "persisted index, k={k}"),
            other => panic!("k={k}: unexpected {other:?}"),
        }
        match without.topk_all(k).unwrap() {
            Response::TopK(w) => assert_eq!(w, reference, "build-at-load fallback, k={k}"),
            other => panic!("k={k}: unexpected {other:?}"),
        }
    }
    h_live.shutdown();
    h_with.shutdown();
    h_without.shutdown();
}

/// Caps every read at one byte: the pathological slow client.
struct OneByteReader<R>(R);

impl<R: Read> Read for OneByteReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(1);
        self.0.read(&mut buf[..n])
    }
}

#[test]
fn dribbling_reader_does_not_stall_other_connections() {
    // One event thread on purpose: the slow and fast connections share it,
    // so any blocking write (or busy-wait on the clogged socket) shows up
    // as the fast client stalling.
    let cfg = ServeConfig {
        shards: 2,
        event_threads: 1,
        queue_capacity: 1_000_000,
        ..ServeConfig::default()
    };
    let (mut handle, manager) = start_server(cfg, snapshot(1, 0));
    let snap = manager.load();
    let addr = handle.local_addr();

    // The slow connection pipelines enough replies (~300 KiB) to overflow
    // both the per-connection out buffer high-water mark and the socket's
    // send buffer, while reading nothing back yet.
    const PIPELINED: usize = 400;
    let items: Vec<u32> = (0..150).collect();
    let slow = TcpStream::connect(addr).unwrap();
    slow.set_nodelay(true).unwrap();
    let mut writer_stream = slow.try_clone().unwrap();
    let payload = Request::ScoreNewArrival { items: items.clone() }.encode();
    let writer = std::thread::spawn(move || {
        for _ in 0..PIPELINED {
            write_frame(&mut writer_stream, &payload).unwrap();
        }
    });
    std::thread::sleep(Duration::from_millis(100));

    // Meanwhile a well-behaved client on the same event thread must keep
    // getting answers. A stalled loop turns this into a multi-minute hang.
    let started = Instant::now();
    let mut fast = ServeClient::connect(addr).unwrap();
    for _ in 0..50 {
        match fast.score_new_arrival(&[0, 1, 2]).unwrap() {
            Response::Scores(scores) => assert_eq!(scores, snap.score_cold(&[0, 1, 2])),
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "event loop stalled behind the slow reader: {:?}",
        started.elapsed()
    );

    // Now drain the clogged connection one byte per read() call. Every
    // reply must come back intact, in order, and bit-exact.
    let expected = snap.score_cold(&items);
    let mut one = OneByteReader(slow);
    for i in 0..PIPELINED {
        match Response::decode(read_frame(&mut one).unwrap().unwrap()).unwrap() {
            Response::Scores(scores) => assert_eq!(scores, expected, "reply {i}"),
            other => panic!("reply {i}: unexpected {other:?}"),
        }
    }
    writer.join().unwrap();
    handle.shutdown();
}

#[test]
fn proptest_sharded_score_and_topk_match_brute_force() {
    use proptest::collection;
    use proptest::strategy::Strategy;
    use proptest::test_runner::TestRng;

    // One catalogue behind four shards; property-based generation drives
    // the request composition (which items, how many, what k — duplicates
    // included). The reference is the snapshot scoring everything in one
    // pass plus a full sort — the gathered answer must match it bit for
    // bit, for every composition.
    let cfg = ServeConfig { shards: 4, event_threads: 2, ..ServeConfig::default() };
    let (mut handle, manager) = start_server(cfg, snapshot(1, 0));
    let snap = manager.load();
    let mut client = ServeClient::connect(handle.local_addr()).unwrap();

    let strategy = (collection::vec(0u32..150, 1..=64), 0u32..71);
    let mut rng = TestRng::from_name("proptest_sharded_score_and_topk_match_brute_force");
    for case in 0..24 {
        let (items, k) = strategy.sample(&mut rng);
        let direct = snap.score_cold(&items);
        match client.score(&items).unwrap() {
            Response::RoutedScores { scores, warm } => {
                assert_eq!(scores, direct, "case {case}: {items:?}");
                assert!(warm.iter().all(|&w| !w), "case {case}: nothing was warmed");
            }
            other => panic!("case {case}: unexpected {other:?}"),
        }
        match client.topk(&items, k).unwrap() {
            Response::TopK(winners) => {
                let mut ranked: Vec<(u32, f32)> = items.iter().copied().zip(direct).collect();
                ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
                ranked.truncate(k as usize);
                assert_eq!(winners, ranked, "case {case}: k={k} items={items:?}");
            }
            other => panic!("case {case}: unexpected {other:?}"),
        }
    }
    handle.shutdown();
}
