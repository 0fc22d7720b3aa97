//! The output oracle: what the server must answer, computed by calling
//! the snapshot directly.
//!
//! Replies are compared as encoded bytes, so a check covers routing, slot
//! order, batching splits, tie order and framing at once: f32 scores must
//! be bit-equal to `ModelSnapshot::score_cold`/`score_warm`, int8 scores
//! equal the direct int8 call, and `TopK`/`TopKAll` winners equal the
//! direct `topk_dots`/`topk_select` answer including ties.

use std::collections::HashMap;
use std::sync::Arc;

use atnn_ann::topk_select;
use atnn_serve::{ModelSnapshot, Request, Response};
use bytes::Bytes;

use crate::spec::NPROBE;
use crate::stream::RequestPool;

/// Expected replies against one snapshot, cached per pooled request.
pub struct Oracle {
    snapshot: Arc<ModelSnapshot>,
    /// Ids below this were warmed through `RecordInteractions` at set-up
    /// and nothing records interactions afterwards, so routing is static.
    warm_below: u32,
    expected: Vec<Option<Bytes>>,
    topk_all: HashMap<u32, Bytes>,
}

/// How one reply fared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Correct,
    /// `Response::Overloaded`.
    Shed,
    /// `Response::Error`.
    Error,
    /// Well-formed but not the oracle's answer (or undecodable).
    Wrong,
}

impl Oracle {
    pub fn new(snapshot: Arc<ModelSnapshot>, warm_below: u32, pool_len: usize) -> Oracle {
        Oracle { snapshot, warm_below, expected: vec![None; pool_len], topk_all: HashMap::new() }
    }

    /// Policy-routed scores for `items`: warm path below the warmed
    /// boundary, cold path above, in request order.
    pub fn routed_scores(&self, items: &[u32]) -> (Vec<f32>, Vec<bool>) {
        let warm: Vec<bool> = items.iter().map(|&i| i < self.warm_below).collect();
        let path_ids = |want_warm: bool| -> Vec<u32> {
            items.iter().zip(&warm).filter(|(_, &w)| w == want_warm).map(|(&i, _)| i).collect()
        };
        // One call per path, as the batcher makes, then back into slots.
        let mut cold = self.snapshot.score_cold(&path_ids(false)).into_iter();
        let mut hot = self.snapshot.score_warm(&path_ids(true)).into_iter();
        let scores = warm
            .iter()
            .map(|&w| if w { hot.next() } else { cold.next() }.expect("one score per id"))
            .collect();
        (scores, warm)
    }

    /// The response the server owes for `request`.
    pub fn answer(&self, request: &Request) -> Response {
        let snap = &self.snapshot;
        match request {
            Request::ScoreNewArrival { items } => Response::Scores(snap.score_cold(items)),
            Request::ScoreWarmItem { items } => Response::Scores(snap.score_warm(items)),
            Request::Score { items } => {
                let (scores, warm) = self.routed_scores(items);
                Response::RoutedScores { scores, warm }
            }
            Request::TopK { items, k } => {
                let (scores, _) = self.routed_scores(items);
                Response::TopK(topk_select(items.iter().copied().zip(scores), *k as usize))
            }
            Request::TopKAll { k } => Response::TopK(
                snap.topk_dots(*k as usize, NPROBE, &|_| true)
                    .into_iter()
                    .map(|(id, dot)| (id, snap.index.score_from_dot(dot)))
                    .collect(),
            ),
            Request::Health => Response::Health { ok: true, model_version: snap.version },
            Request::Stats | Request::RecordInteractions { .. } => {
                unreachable!("the benchmark never pools stats or record requests")
            }
        }
    }

    /// Encoded expected reply for pooled request `idx`.
    fn expected(&mut self, pool: &RequestPool, idx: usize) -> Bytes {
        if let Request::TopKAll { k } = &pool.requests[idx] {
            // One query per model: every TopKAll of a given k shares an answer.
            if let Some(bytes) = self.topk_all.get(k) {
                return bytes.clone();
            }
            let bytes = self.answer(&pool.requests[idx]).encode();
            self.topk_all.insert(*k, bytes.clone());
            return bytes;
        }
        if self.expected[idx].is_none() {
            self.expected[idx] = Some(self.answer(&pool.requests[idx]).encode());
        }
        self.expected[idx].clone().expect("filled above")
    }

    /// The owed reply of every pooled request, for checking replies as
    /// they arrive.
    pub fn expected_all(&mut self, pool: &RequestPool) -> Vec<Bytes> {
        (0..pool.len()).map(|idx| self.expected(pool, idx)).collect()
    }

    /// Whether `reply` is exactly what pooled request `idx` is owed.
    pub fn matches(&mut self, pool: &RequestPool, idx: usize, reply: &Bytes) -> bool {
        self.expected(pool, idx)[..] == reply[..]
    }
}

/// Classifies a reply that did not match any acceptable expected answer.
pub fn classify_mismatch(reply: &Bytes) -> Verdict {
    match Response::decode(reply.clone()) {
        Ok(Response::Overloaded) => Verdict::Shed,
        Ok(Response::Error(_)) => Verdict::Error,
        _ => Verdict::Wrong,
    }
}
