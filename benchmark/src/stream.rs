//! The seeded request stream: request kinds, item ids and arrival gaps.
//!
//! Everything the server will see is decided here, from the seed alone,
//! before any timing starts: requests are generated and framed into one
//! byte arena, and the open-loop schedule is a list of due times. The
//! server receives only those bytes.

use atnn_serve::Request;
use atnn_tensor::Rng64;

use crate::spec::{Mix, POINT_ITEMS, TOPK_CANDIDATES};

/// A pool of pre-framed requests. Phases walk it in order and wrap.
#[derive(Debug)]
pub struct RequestPool {
    pub requests: Vec<Request>,
    /// Back-to-back length-prefixed frames.
    arena: Vec<u8>,
    /// `arena[start..end]` is request `i`'s frame.
    bounds: Vec<(u32, u32)>,
}

impl RequestPool {
    /// Draws `size` requests of `mix` over a catalogue of `num_items`.
    pub fn generate(mix: Mix, num_items: usize, size: usize, rng: &mut Rng64) -> RequestPool {
        let mut requests = Vec::with_capacity(size);
        let mut topk_all_seen = 0usize;
        let ids = |rng: &mut Rng64, n: usize| -> Vec<u32> {
            (0..n).map(|_| rng.index(num_items) as u32).collect()
        };
        for _ in 0..size {
            let u = unit(rng);
            let request = match mix {
                Mix::Point => {
                    let items = ids(rng, POINT_ITEMS);
                    if u < 0.4 {
                        Request::ScoreNewArrival { items }
                    } else if u < 0.8 {
                        Request::ScoreWarmItem { items }
                    } else {
                        Request::Score { items }
                    }
                }
                Mix::TopK => {
                    if u < 0.5 {
                        topk_all_seen += 1;
                        Request::TopKAll { k: if topk_all_seen % 2 == 1 { 10 } else { 100 } }
                    } else {
                        Request::TopK { items: ids(rng, TOPK_CANDIDATES), k: 10 }
                    }
                }
            };
            requests.push(request);
        }
        RequestPool::from_requests(requests)
    }

    /// Frames `requests` as given.
    pub fn from_requests(requests: Vec<Request>) -> RequestPool {
        let mut arena = Vec::new();
        let mut bounds = Vec::with_capacity(requests.len());
        for request in &requests {
            let start = arena.len() as u32;
            let payload = request.encode();
            arena.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            arena.extend_from_slice(&payload);
            bounds.push((start, arena.len() as u32));
        }
        RequestPool { requests, arena, bounds }
    }

    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// The length-prefixed frame of request `i`.
    pub fn frame(&self, i: usize) -> &[u8] {
        let (start, end) = self.bounds[i];
        &self.arena[start as usize..end as usize]
    }

    /// Every frame, back to back, in pool order.
    #[cfg(test)]
    pub fn arena(&self) -> &[u8] {
        &self.arena
    }
}

/// Uniform in `[0, 1)` with 53 bits.
fn unit(rng: &mut Rng64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// One open-loop arrival: when it is due and which pooled request it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub due_ns: u64,
    pub pool_idx: u32,
}

/// Poisson arrivals at `rate_rps` over `[0, duration_ns)`: exponential
/// gaps, pool entries taken in order from `first_idx` and wrapping.
pub fn poisson_schedule(
    rate_rps: f64,
    duration_ns: u64,
    first_idx: usize,
    pool_len: usize,
    rng: &mut Rng64,
) -> Vec<Arrival> {
    let mut out = Vec::with_capacity((rate_rps * duration_ns as f64 / 1e9 * 1.1) as usize + 16);
    let mut t = 0.0f64;
    let mut idx = first_idx;
    loop {
        t += -(1.0 - unit(rng)).ln() / rate_rps * 1e9;
        if t >= duration_ns as f64 {
            return out;
        }
        out.push(Arrival { due_ns: t as u64, pool_idx: (idx % pool_len) as u32 });
        idx += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, mix: Mix) -> (RequestPool, Vec<Arrival>) {
        let mut rng = Rng64::seed_from_u64(seed);
        let pool = RequestPool::generate(mix, 10_000, 256, &mut rng);
        let schedule = poisson_schedule(5_000.0, 200_000_000, 0, pool.len(), &mut rng);
        (pool, schedule)
    }

    #[test]
    fn same_seed_gives_the_same_bytes_and_schedule() {
        for mix in [Mix::Point, Mix::TopK] {
            let (pool_a, sched_a) = stream(42, mix);
            let (pool_b, sched_b) = stream(42, mix);
            assert_eq!(pool_a.arena(), pool_b.arena());
            assert_eq!(sched_a, sched_b);
            let (pool_c, sched_c) = stream(43, mix);
            assert_ne!(pool_a.arena(), pool_c.arena());
            assert_ne!(sched_a, sched_c);
        }
    }

    #[test]
    fn frames_decode_back_to_the_pooled_requests() {
        let (pool, _) = stream(7, Mix::TopK);
        let mut offset = 0;
        for (i, request) in pool.requests.iter().enumerate() {
            let frame = pool.frame(i);
            assert_eq!(frame, &pool.arena()[offset..offset + frame.len()]);
            offset += frame.len();
            let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
            assert_eq!(len + 4, frame.len());
            let decoded = Request::decode(bytes::Bytes::from(frame[4..].to_vec())).unwrap();
            assert_eq!(&decoded, request);
        }
        assert_eq!(offset, pool.arena().len());
    }

    #[test]
    fn mixes_have_the_stated_shares_and_shapes() {
        let mut rng = Rng64::seed_from_u64(1);
        let pool = RequestPool::generate(Mix::Point, 1_000, 4_000, &mut rng);
        let share = |f: fn(&Request) -> bool| {
            pool.requests.iter().filter(|r| f(r)).count() as f64 / pool.len() as f64
        };
        assert!((share(|r| matches!(r, Request::ScoreNewArrival { .. })) - 0.4).abs() < 0.04);
        assert!((share(|r| matches!(r, Request::ScoreWarmItem { .. })) - 0.4).abs() < 0.04);
        assert!((share(|r| matches!(r, Request::Score { .. })) - 0.2).abs() < 0.04);

        let pool = RequestPool::generate(Mix::TopK, 1_000, 400, &mut rng);
        let ks: Vec<u32> = pool
            .requests
            .iter()
            .filter_map(|r| match r {
                Request::TopKAll { k } => Some(*k),
                _ => None,
            })
            .collect();
        assert!(ks.chunks(2).all(|pair| pair[0] == 10 && pair.get(1).is_none_or(|&k| k == 100)));
        assert!(pool.requests.iter().all(|r| match r {
            Request::TopK { items, k } => items.len() == TOPK_CANDIDATES && *k == 10,
            Request::TopKAll { .. } => true,
            _ => false,
        }));
    }

    #[test]
    fn schedule_is_sorted_poisson_at_the_asked_rate() {
        let mut rng = Rng64::seed_from_u64(9);
        let sched = poisson_schedule(10_000.0, 2_000_000_000, 5, 64, &mut rng);
        assert!(sched.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!((sched.len() as f64 - 20_000.0).abs() < 600.0, "got {}", sched.len());
        assert_eq!(sched[0].pool_idx, 5);
        assert_eq!(sched[59].pool_idx, 0, "pool index wraps");
        assert!(sched.last().unwrap().due_ns < 2_000_000_000);
    }
}
