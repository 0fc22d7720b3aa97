//! # atnn-serve — the online inference service
//!
//! The ATNN paper is deployed behind Taobao-scale traffic: new items must
//! be scorable the moment they are listed (before any behaviour data
//! exists), and the serving layer answers with the frozen mean-user-vector
//! index in O(1) per item. This crate turns the repo's trained model into
//! that service, std-only:
//!
//! - [`protocol`]: a length-prefixed binary wire protocol (`Health`,
//!   `Stats`, `ScoreNewArrival`, `ScoreWarmItem`, `Score`,
//!   `RecordInteractions`, `TopK`, `TopKAll`) in which `f32` scores travel
//!   bit-exact.
//! - [`batcher`]: a bounded micro-batching queue that coalesces concurrent
//!   requests into batches scored from one snapshot's cached tables and
//!   sheds (`Overloaded`) instead of blocking when full.
//! - [`shard`]: the item-sharded scoring fleet — one batcher + snapshot
//!   cell per catalogue shard, with scatter-gather merging at the front.
//! - [`manager`]: versioned model snapshots behind an atomic swap — hot
//!   reloads publish one shared snapshot to the primary cell and every
//!   shard cell atomically.
//! - [`router`]: the paper's §IV-D cold→warm serving switch as live
//!   per-item interaction counters.
//! - [`telemetry`]: lock-free per-endpoint counters, per-shard batcher
//!   counters, and geometric latency histograms, exported through the
//!   `Stats` endpoint.
//! - [`nio`]: dependency-free `epoll`/`eventfd` wrappers over the raw C
//!   entry points.
//! - [`server`] / [`client`]: an event-driven (epoll) TCP server — a few
//!   event-loop threads own all sockets; no thread per connection — and
//!   the matching blocking client.
//!
//! ```no_run
//! use std::sync::Arc;
//! use atnn_serve::{serve, ModelManager, ServeClient, ServeConfig};
//!
//! let manager = Arc::new(ModelManager::from_artifact_file("model.atnn").unwrap());
//! let handle = serve(ServeConfig::default(), manager).unwrap();
//! let mut client = ServeClient::connect(handle.local_addr()).unwrap();
//! println!("serving model v{}", client.health().unwrap());
//! ```

pub mod batcher;
pub mod client;
pub mod config;
pub mod manager;
pub mod nio;
pub mod protocol;
pub mod router;
pub mod server;
pub mod shard;
pub mod telemetry;

pub use batcher::{BatchReply, Batcher, Overloaded, ProbeReply, ProbeReplyFn, ReplyFn};
pub use client::ServeClient;
pub use config::ServeConfig;
pub use manager::{
    publishes_delta_counter, publishes_full_counter, snapshot_build_delta_gauge,
    snapshot_build_full_gauge, snapshot_build_gauge, snapshot_bytes_gauge,
    snapshot_f32_bytes_gauge, DeltaError, DeltaReport, ItemSpaceMismatch, ModelManager,
    ModelSnapshot, Precision, DRIFT_REBUILD_FRACTION,
};
pub use protocol::{
    FrameRead, FrameReader, ProtocolError, Request, Response, ShardStats, StatsReport,
};
pub use router::{PolicyRouter, ScorePath};
pub use server::{serve, ServeHandle};
pub use shard::{shard_of, ScatterOutcome, ShardSet, TopKOutcome};
pub use telemetry::{Endpoint, Telemetry};
