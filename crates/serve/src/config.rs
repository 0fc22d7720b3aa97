//! Server configuration.

use std::time::Duration;

use atnn_tensor::BackendKind;

use crate::manager::Precision;

/// All serving dials in one place. `Default` is tuned for tests and the
/// loadgen; production deployments override the address and capacities.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address. Port 0 picks an ephemeral port (tests, loadgen).
    pub addr: String,
    /// Maximum items coalesced into one batch: the jobs one flush answers
    /// from a single snapshot load (cached-row dots and index probes — no
    /// model forward pass runs on the request path).
    pub max_batch: usize,
    /// Maximum items a single request may carry (larger requests are
    /// answered with an `Error` instead of monopolizing the batcher).
    pub max_request_items: usize,
    /// How long the batcher waits for more work after the first job of a
    /// batch arrives (the paper-style micro-batching deadline).
    pub flush_deadline: Duration,
    /// When true (the default), a partially filled batch is flushed as
    /// soon as the queue is empty instead of waiting out the deadline —
    /// latency-optimal under light load, identical under saturation.
    pub eager_flush: bool,
    /// Bound on items waiting in the batcher queue. Submissions beyond it
    /// are shed with `Overloaded` instead of blocking the acceptor.
    pub queue_capacity: usize,
    /// Interactions before an item switches from the cold (generator +
    /// O(1) index) path to the warm (full tower) path.
    pub warm_threshold: u32,
    /// Upper bound on one `epoll_wait` sleep; caps how long an event loop
    /// can go without checking for shutdown even if no wakeup arrives.
    pub read_timeout: Duration,
    /// Catalogue shards: each gets its own batcher thread, queue, and
    /// model-snapshot cell. Item-addressed requests route by item-id hash;
    /// `Score`/`TopK` scatter to all shards and gather at the front.
    pub shards: usize,
    /// Event-loop threads sharing the accepted connections (round-robin).
    /// One is usually right: the loop only shuffles bytes, the shard
    /// threads do the scoring work.
    pub event_threads: usize,
    /// In-flight (responded-but-unsent or still-scoring) requests allowed
    /// per connection before the loop stops reading from it; bounds the
    /// memory a pipelining client can pin.
    pub max_pipeline: usize,
    /// Inverted lists probed per catalogue-wide `TopKAll` retrieval.
    /// Higher probes more of the catalogue (better recall, more work);
    /// `nprobe ≥ nlist` degenerates to an exact scan bit-identical to the
    /// brute-force oracle.
    pub nprobe: usize,
    /// Numeric representation the daemon builds snapshots at
    /// ([`Precision::Int8`] quantizes the item tables at publish, ~4×
    /// less snapshot memory for toleranced — not bit-identical —
    /// scores). Snapshots handed to the server directly carry their own
    /// precision; this dial governs the boot/train path.
    pub precision: Precision,
    /// Compute backend the shard workers score under (see
    /// [`atnn_tensor::backend`]). `None` inherits the process default
    /// (built-in AVX2 auto-detect, or the `ATNN_BACKEND` override).
    pub backend: Option<BackendKind>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            max_batch: 128,
            max_request_items: 1024,
            flush_deadline: Duration::from_millis(2),
            eager_flush: true,
            queue_capacity: 1024,
            warm_threshold: 5,
            read_timeout: Duration::from_millis(50),
            shards: 1,
            event_threads: 1,
            max_pipeline: 128,
            nprobe: 8,
            precision: Precision::F32,
            backend: None,
        }
    }
}
