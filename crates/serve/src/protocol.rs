//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! A frame is a little-endian `u32` payload length followed by the
//! payload; the payload's first byte is the opcode, the rest is the
//! op-specific body. Everything is fixed-width little-endian — no text
//! parsing on the hot path, and `f32` scores travel bit-exact, so a served
//! score can be compared to a direct model call with `==`.
//!
//! Request opcodes: `Health`, `Stats`, `ScoreNewArrival` (forced cold
//! path), `ScoreWarmItem` (forced warm path), `Score` (policy-routed),
//! `RecordInteractions` (feeds the router's counters), `TopK` (routed
//! ranking). Responses mirror them, plus `Overloaded` (load shed by the
//! micro-batcher) and `Error`.

use std::io::{Read, Write};

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Frames larger than this are rejected — a corrupt length prefix must not
/// make the server allocate gigabytes.
pub const MAX_FRAME: usize = 8 << 20;

/// Errors from framing and (de)serialization.
#[derive(Debug)]
pub enum ProtocolError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The peer sent a malformed frame or payload.
    Malformed(&'static str),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "protocol io error: {e}"),
            ProtocolError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; returns the served model version.
    Health,
    /// Telemetry snapshot.
    Stats,
    /// Score new arrivals on the cold path: generator vectors + the O(1)
    /// mean-user-vector index (paper §IV-D before the switch).
    ScoreNewArrival {
        /// Item ids to score.
        items: Vec<u32>,
    },
    /// Score warm items on the full encoder path (profile + accrued
    /// statistics — after the switch).
    ScoreWarmItem {
        /// Item ids to score.
        items: Vec<u32>,
    },
    /// Policy-routed scoring: each item goes cold or warm according to the
    /// server's live interaction counters.
    Score {
        /// Item ids to score.
        items: Vec<u32>,
    },
    /// Report observed interactions; bumps the per-item counters that
    /// drive the cold→warm switch.
    RecordInteractions {
        /// One entry per observed interaction (repeats allowed).
        items: Vec<u32>,
    },
    /// Rank candidate items (policy-routed) and return the top `k`.
    TopK {
        /// Candidate item ids.
        items: Vec<u32>,
        /// How many winners to return.
        k: u32,
    },
    /// Rank the **whole catalogue** and return the top `k`, served by the
    /// ANN retrieval index (probe width set by the server's `nprobe`
    /// configuration). Answers with [`Response::TopK`].
    TopKAll {
        /// How many winners to return.
        k: u32,
    },
}

/// Per-endpoint telemetry in a [`Response::Stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointStats {
    /// Endpoint name (snake_case, stable).
    pub name: String,
    /// Requests answered (including errors and sheds).
    pub requests: u64,
    /// Requests answered with [`Response::Error`].
    pub errors: u64,
    /// Requests shed with [`Response::Overloaded`].
    pub shed: u64,
    /// Median service latency, nanoseconds (bucket upper bound).
    pub p50_ns: u64,
    /// 95th-percentile service latency, nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile service latency, nanoseconds.
    pub p99_ns: u64,
}

/// Per-shard batcher telemetry in a [`Response::Stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Batched forward passes this shard executed.
    pub batches: u64,
    /// Items scored through this shard's batched forward passes.
    pub batched_items: u64,
    /// Jobs accepted into this shard's queue.
    pub dispatched: u64,
    /// Jobs shed at this shard's queue bound.
    pub shed: u64,
    /// Items waiting in this shard's queue at snapshot time.
    pub queue_depth: u64,
}

/// The full telemetry snapshot returned by [`Request::Stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct StatsReport {
    /// Version tag of the currently served model snapshot.
    pub model_version: u64,
    /// Batched forward passes executed across all shards.
    pub batches: u64,
    /// Total items scored through batched forward passes, all shards.
    pub batched_items: u64,
    /// Failed `accept` calls observed by the acceptor (each one also
    /// backed off exponentially; see the server's accept loop).
    pub accept_errors: u64,
    /// Bytes the served snapshot's embedding tables occupy in their
    /// served representation (int8 codes + affine parameters on a
    /// quantized snapshot) — the `atnn.serve.snapshot_bytes` gauge.
    pub snapshot_bytes: u64,
    /// Bytes the same tables would occupy as raw f32; the ratio against
    /// `snapshot_bytes` is the quantization memory win (1× on f32
    /// snapshots).
    pub snapshot_f32_bytes: u64,
    /// Full snapshot builds (whole-catalogue re-embed + index build)
    /// since process start — the `atnn.serve.publishes_full` counter.
    pub publishes_full: u64,
    /// Delta snapshot builds (changed rows only) since process start —
    /// the `atnn.serve.publishes_delta` counter.
    pub publishes_delta: u64,
    /// Wall-clock seconds of the most recent full snapshot build (0.0 if
    /// none happened in this process).
    pub last_full_build_seconds: f64,
    /// Wall-clock seconds of the most recent delta snapshot build (0.0
    /// if none happened in this process).
    pub last_delta_build_seconds: f64,
    /// Per-endpoint counters and latency quantiles.
    pub endpoints: Vec<EndpointStats>,
    /// Per-shard batcher counters, indexed by shard id.
    pub shards: Vec<ShardStats>,
}

impl StatsReport {
    /// The stats row for `name`, if present.
    pub fn endpoint(&self, name: &str) -> Option<&EndpointStats> {
        self.endpoints.iter().find(|e| e.name == name)
    }

    /// Mean micro-batch size (items per batched forward pass).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_items as f64 / self.batches as f64
        }
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness + the served model version.
    Health {
        /// Always true when the server answered at all.
        ok: bool,
        /// Version tag of the current model snapshot.
        model_version: u64,
    },
    /// Telemetry snapshot.
    Stats(StatsReport),
    /// Scores, one per requested item, in request order.
    Scores(Vec<f32>),
    /// Policy-routed scores plus the path each item took (`true` = warm).
    RoutedScores {
        /// Scores in request order.
        scores: Vec<f32>,
        /// Whether each item was routed to the warm (full-tower) path.
        warm: Vec<bool>,
    },
    /// Interaction counters recorded.
    Recorded {
        /// Counter total after the bump, per item, in request order.
        counts: Vec<u32>,
    },
    /// `(item, score)` winners, best first.
    TopK(Vec<(u32, f32)>),
    /// The micro-batch queue was full; retry later (load shed).
    Overloaded,
    /// The request was invalid (unknown item, oversized batch, ...).
    Error(String),
}

const OP_HEALTH: u8 = 1;
const OP_STATS: u8 = 2;
const OP_SCORE_NEW: u8 = 3;
const OP_SCORE_WARM: u8 = 4;
const OP_SCORE: u8 = 5;
const OP_RECORD: u8 = 6;
const OP_TOPK: u8 = 7;
const OP_TOPK_ALL: u8 = 8;

const RESP_HEALTH: u8 = 101;
const RESP_STATS: u8 = 102;
const RESP_SCORES: u8 = 103;
const RESP_ROUTED: u8 = 104;
const RESP_RECORDED: u8 = 105;
const RESP_TOPK: u8 = 106;
const RESP_OVERLOADED: u8 = 107;
const RESP_ERROR: u8 = 108;

fn put_items(items: &[u32], buf: &mut BytesMut) {
    buf.put_u32_le(items.len() as u32);
    for &i in items {
        buf.put_u32_le(i);
    }
}

fn get_items(buf: &mut Bytes) -> Result<Vec<u32>, ProtocolError> {
    let n = get_u32(buf)? as usize;
    if buf.remaining() < n * 4 {
        return Err(ProtocolError::Malformed("item list truncated"));
    }
    Ok((0..n).map(|_| buf.get_u32_le()).collect())
}

fn get_u32(buf: &mut Bytes) -> Result<u32, ProtocolError> {
    if buf.remaining() < 4 {
        return Err(ProtocolError::Malformed("field truncated"));
    }
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut Bytes) -> Result<u64, ProtocolError> {
    if buf.remaining() < 8 {
        return Err(ProtocolError::Malformed("field truncated"));
    }
    Ok(buf.get_u64_le())
}

fn put_string(s: &str, buf: &mut BytesMut) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_string(buf: &mut Bytes) -> Result<String, ProtocolError> {
    let n = get_u32(buf)? as usize;
    if buf.remaining() < n {
        return Err(ProtocolError::Malformed("string truncated"));
    }
    let mut bytes = vec![0u8; n];
    buf.copy_to_slice(&mut bytes);
    String::from_utf8(bytes).map_err(|_| ProtocolError::Malformed("string not UTF-8"))
}

impl Request {
    /// Serializes the request payload (without the frame length prefix).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            Request::Health => buf.put_u8(OP_HEALTH),
            Request::Stats => buf.put_u8(OP_STATS),
            Request::ScoreNewArrival { items } => {
                buf.put_u8(OP_SCORE_NEW);
                put_items(items, &mut buf);
            }
            Request::ScoreWarmItem { items } => {
                buf.put_u8(OP_SCORE_WARM);
                put_items(items, &mut buf);
            }
            Request::Score { items } => {
                buf.put_u8(OP_SCORE);
                put_items(items, &mut buf);
            }
            Request::RecordInteractions { items } => {
                buf.put_u8(OP_RECORD);
                put_items(items, &mut buf);
            }
            Request::TopK { items, k } => {
                buf.put_u8(OP_TOPK);
                put_items(items, &mut buf);
                buf.put_u32_le(*k);
            }
            Request::TopKAll { k } => {
                buf.put_u8(OP_TOPK_ALL);
                buf.put_u32_le(*k);
            }
        }
        buf.freeze()
    }

    /// Parses a request payload.
    pub fn decode(mut buf: Bytes) -> Result<Self, ProtocolError> {
        if buf.remaining() < 1 {
            return Err(ProtocolError::Malformed("empty payload"));
        }
        let op = buf.get_u8();
        let req = match op {
            OP_HEALTH => Request::Health,
            OP_STATS => Request::Stats,
            OP_SCORE_NEW => Request::ScoreNewArrival { items: get_items(&mut buf)? },
            OP_SCORE_WARM => Request::ScoreWarmItem { items: get_items(&mut buf)? },
            OP_SCORE => Request::Score { items: get_items(&mut buf)? },
            OP_RECORD => Request::RecordInteractions { items: get_items(&mut buf)? },
            OP_TOPK => {
                let items = get_items(&mut buf)?;
                let k = get_u32(&mut buf)?;
                Request::TopK { items, k }
            }
            OP_TOPK_ALL => Request::TopKAll { k: get_u32(&mut buf)? },
            _ => return Err(ProtocolError::Malformed("unknown request opcode")),
        };
        if buf.remaining() != 0 {
            return Err(ProtocolError::Malformed("trailing bytes"));
        }
        Ok(req)
    }

    /// The telemetry endpoint name this request is accounted under.
    pub fn endpoint_name(&self) -> &'static str {
        match self {
            Request::Health => "health",
            Request::Stats => "stats",
            Request::ScoreNewArrival { .. } => "score_new_arrival",
            Request::ScoreWarmItem { .. } => "score_warm_item",
            Request::Score { .. } => "score",
            Request::RecordInteractions { .. } => "record_interactions",
            Request::TopK { .. } => "topk",
            Request::TopKAll { .. } => "topk_all",
        }
    }
}

impl Response {
    /// Serializes the response payload (without the frame length prefix).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            Response::Health { ok, model_version } => {
                buf.put_u8(RESP_HEALTH);
                buf.put_u8(*ok as u8);
                buf.put_u64_le(*model_version);
            }
            Response::Stats(report) => {
                buf.put_u8(RESP_STATS);
                buf.put_u64_le(report.model_version);
                buf.put_u64_le(report.batches);
                buf.put_u64_le(report.batched_items);
                buf.put_u64_le(report.accept_errors);
                buf.put_u64_le(report.snapshot_bytes);
                buf.put_u64_le(report.snapshot_f32_bytes);
                buf.put_u64_le(report.publishes_full);
                buf.put_u64_le(report.publishes_delta);
                // f64 gauges travel as their IEEE-754 bit patterns.
                buf.put_u64_le(report.last_full_build_seconds.to_bits());
                buf.put_u64_le(report.last_delta_build_seconds.to_bits());
                buf.put_u32_le(report.endpoints.len() as u32);
                for e in &report.endpoints {
                    put_string(&e.name, &mut buf);
                    buf.put_u64_le(e.requests);
                    buf.put_u64_le(e.errors);
                    buf.put_u64_le(e.shed);
                    buf.put_u64_le(e.p50_ns);
                    buf.put_u64_le(e.p95_ns);
                    buf.put_u64_le(e.p99_ns);
                }
                buf.put_u32_le(report.shards.len() as u32);
                for s in &report.shards {
                    buf.put_u64_le(s.batches);
                    buf.put_u64_le(s.batched_items);
                    buf.put_u64_le(s.dispatched);
                    buf.put_u64_le(s.shed);
                    buf.put_u64_le(s.queue_depth);
                }
            }
            Response::Scores(scores) => {
                buf.put_u8(RESP_SCORES);
                buf.put_u32_le(scores.len() as u32);
                for &s in scores {
                    buf.put_f32_le(s);
                }
            }
            Response::RoutedScores { scores, warm } => {
                buf.put_u8(RESP_ROUTED);
                buf.put_u32_le(scores.len() as u32);
                for &s in scores {
                    buf.put_f32_le(s);
                }
                for &w in warm {
                    buf.put_u8(w as u8);
                }
            }
            Response::Recorded { counts } => {
                buf.put_u8(RESP_RECORDED);
                buf.put_u32_le(counts.len() as u32);
                for &c in counts {
                    buf.put_u32_le(c);
                }
            }
            Response::TopK(winners) => {
                buf.put_u8(RESP_TOPK);
                buf.put_u32_le(winners.len() as u32);
                for &(item, score) in winners {
                    buf.put_u32_le(item);
                    buf.put_f32_le(score);
                }
            }
            Response::Overloaded => buf.put_u8(RESP_OVERLOADED),
            Response::Error(msg) => {
                buf.put_u8(RESP_ERROR);
                put_string(msg, &mut buf);
            }
        }
        buf.freeze()
    }

    /// Parses a response payload.
    pub fn decode(mut buf: Bytes) -> Result<Self, ProtocolError> {
        if buf.remaining() < 1 {
            return Err(ProtocolError::Malformed("empty payload"));
        }
        let op = buf.get_u8();
        let resp = match op {
            RESP_HEALTH => {
                if buf.remaining() < 1 {
                    return Err(ProtocolError::Malformed("health truncated"));
                }
                let ok = buf.get_u8() != 0;
                Response::Health { ok, model_version: get_u64(&mut buf)? }
            }
            RESP_STATS => {
                let model_version = get_u64(&mut buf)?;
                let batches = get_u64(&mut buf)?;
                let batched_items = get_u64(&mut buf)?;
                let accept_errors = get_u64(&mut buf)?;
                let snapshot_bytes = get_u64(&mut buf)?;
                let snapshot_f32_bytes = get_u64(&mut buf)?;
                let publishes_full = get_u64(&mut buf)?;
                let publishes_delta = get_u64(&mut buf)?;
                let last_full_build_seconds = f64::from_bits(get_u64(&mut buf)?);
                let last_delta_build_seconds = f64::from_bits(get_u64(&mut buf)?);
                let n = get_u32(&mut buf)? as usize;
                let mut endpoints = Vec::with_capacity(n);
                for _ in 0..n {
                    endpoints.push(EndpointStats {
                        name: get_string(&mut buf)?,
                        requests: get_u64(&mut buf)?,
                        errors: get_u64(&mut buf)?,
                        shed: get_u64(&mut buf)?,
                        p50_ns: get_u64(&mut buf)?,
                        p95_ns: get_u64(&mut buf)?,
                        p99_ns: get_u64(&mut buf)?,
                    });
                }
                let ns = get_u32(&mut buf)? as usize;
                let mut shards = Vec::with_capacity(ns);
                for _ in 0..ns {
                    shards.push(ShardStats {
                        batches: get_u64(&mut buf)?,
                        batched_items: get_u64(&mut buf)?,
                        dispatched: get_u64(&mut buf)?,
                        shed: get_u64(&mut buf)?,
                        queue_depth: get_u64(&mut buf)?,
                    });
                }
                Response::Stats(StatsReport {
                    model_version,
                    batches,
                    batched_items,
                    accept_errors,
                    snapshot_bytes,
                    snapshot_f32_bytes,
                    publishes_full,
                    publishes_delta,
                    last_full_build_seconds,
                    last_delta_build_seconds,
                    endpoints,
                    shards,
                })
            }
            RESP_SCORES => {
                let n = get_u32(&mut buf)? as usize;
                if buf.remaining() < n * 4 {
                    return Err(ProtocolError::Malformed("scores truncated"));
                }
                Response::Scores((0..n).map(|_| buf.get_f32_le()).collect())
            }
            RESP_ROUTED => {
                let n = get_u32(&mut buf)? as usize;
                if buf.remaining() < n * 5 {
                    return Err(ProtocolError::Malformed("routed scores truncated"));
                }
                let scores = (0..n).map(|_| buf.get_f32_le()).collect();
                let warm = (0..n).map(|_| buf.get_u8() != 0).collect();
                Response::RoutedScores { scores, warm }
            }
            RESP_RECORDED => {
                let n = get_u32(&mut buf)? as usize;
                if buf.remaining() < n * 4 {
                    return Err(ProtocolError::Malformed("counts truncated"));
                }
                Response::Recorded { counts: (0..n).map(|_| buf.get_u32_le()).collect() }
            }
            RESP_TOPK => {
                let n = get_u32(&mut buf)? as usize;
                if buf.remaining() < n * 8 {
                    return Err(ProtocolError::Malformed("topk truncated"));
                }
                Response::TopK((0..n).map(|_| (buf.get_u32_le(), buf.get_f32_le())).collect())
            }
            RESP_OVERLOADED => Response::Overloaded,
            RESP_ERROR => Response::Error(get_string(&mut buf)?),
            _ => return Err(ProtocolError::Malformed("unknown response opcode")),
        };
        if buf.remaining() != 0 {
            return Err(ProtocolError::Malformed("trailing bytes"));
        }
        Ok(resp)
    }
}

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Outcome of one [`FrameReader::read_frame`] call.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete frame payload.
    Frame(Bytes),
    /// Clean EOF at a frame boundary (the peer hung up between requests).
    Eof,
    /// The read timed out (`WouldBlock`/`TimedOut`). Any partial bytes of
    /// the next frame stay buffered; call again to resume where the stream
    /// left off.
    Idle,
}

/// The frame reader, for blocking sockets and sockets with a read timeout
/// alike.
///
/// A timeout can fire anywhere — including in the middle of a frame's
/// length prefix or payload. This reader keeps whatever it has consumed so
/// far across calls, so a timeout never discards partial bytes and the
/// next call resumes mid-frame instead of misparsing payload bytes as a
/// new length prefix.
#[derive(Debug, Default)]
pub struct FrameReader {
    header: [u8; 4],
    header_have: usize,
    /// Allocated once the length prefix is complete; `None` while the
    /// prefix itself is still being read.
    payload: Option<Vec<u8>>,
    payload_have: usize,
}

/// Outcome of one buffer-filling attempt.
enum Fill {
    Done,
    Timeout,
    Eof,
}

/// Reads into `buf[*have..]` until full, EOF, or a timeout, advancing
/// `have` past every successfully consumed byte.
fn fill(r: &mut impl Read, buf: &mut [u8], have: &mut usize) -> Result<Fill, ProtocolError> {
    while *have < buf.len() {
        match r.read(&mut buf[*have..]) {
            Ok(0) => return Ok(Fill::Eof),
            Ok(n) => *have += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(Fill::Timeout)
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Fill::Done)
}

impl FrameReader {
    /// A reader positioned at a frame boundary.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Whether partial bytes of an unfinished frame are buffered.
    pub fn mid_frame(&self) -> bool {
        self.header_have > 0 || self.payload.is_some()
    }

    /// Reads one frame, resuming from any partial bytes buffered by an
    /// earlier timed-out call. EOF mid-frame is an error; EOF at a frame
    /// boundary is [`FrameRead::Eof`].
    pub fn read_frame(&mut self, r: &mut impl Read) -> Result<FrameRead, ProtocolError> {
        if self.payload.is_none() {
            match fill(r, &mut self.header, &mut self.header_have)? {
                Fill::Timeout => return Ok(FrameRead::Idle),
                Fill::Eof => {
                    if self.header_have == 0 {
                        return Ok(FrameRead::Eof);
                    }
                    return Err(ProtocolError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "eof inside a frame length prefix",
                    )));
                }
                Fill::Done => {
                    let len = u32::from_le_bytes(self.header) as usize;
                    if len > MAX_FRAME {
                        return Err(ProtocolError::Malformed("frame too large"));
                    }
                    self.payload = Some(vec![0u8; len]);
                    self.payload_have = 0;
                }
            }
        }
        let payload = self.payload.as_mut().expect("payload allocated above");
        match fill(r, payload, &mut self.payload_have)? {
            Fill::Timeout => Ok(FrameRead::Idle),
            Fill::Eof => Err(ProtocolError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "eof inside a frame payload",
            ))),
            Fill::Done => {
                let frame = self.payload.take().expect("payload present");
                self.header_have = 0;
                self.payload_have = 0;
                Ok(FrameRead::Frame(Bytes::from(frame)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        assert_eq!(Request::decode(req.encode()).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        assert_eq!(Response::decode(resp.encode()).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Health);
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::ScoreNewArrival { items: vec![1, 2, 3] });
        roundtrip_request(Request::ScoreWarmItem { items: vec![] });
        roundtrip_request(Request::Score { items: vec![9, 9, 9] });
        roundtrip_request(Request::RecordInteractions { items: vec![0, u32::MAX] });
        roundtrip_request(Request::TopK { items: vec![5, 4, 3], k: 2 });
        roundtrip_request(Request::TopKAll { k: 12 });
        roundtrip_request(Request::TopKAll { k: 0 });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Health { ok: true, model_version: 7 });
        roundtrip_response(Response::Scores(vec![0.25, f32::MIN_POSITIVE, 1.0]));
        roundtrip_response(Response::RoutedScores {
            scores: vec![0.5, 0.75],
            warm: vec![true, false],
        });
        roundtrip_response(Response::Recorded { counts: vec![1, 2, 3] });
        roundtrip_response(Response::TopK(vec![(3, 0.9), (1, 0.1)]));
        roundtrip_response(Response::Overloaded);
        roundtrip_response(Response::Error("bad item".into()));
        roundtrip_response(Response::Stats(StatsReport {
            model_version: 2,
            batches: 10,
            batched_items: 55,
            accept_errors: 3,
            snapshot_bytes: 4_096,
            snapshot_f32_bytes: 16_384,
            publishes_full: 2,
            publishes_delta: 17,
            last_full_build_seconds: 1.25,
            last_delta_build_seconds: 0.0625,
            endpoints: vec![EndpointStats {
                name: "score".into(),
                requests: 100,
                errors: 1,
                shed: 2,
                p50_ns: 1_000,
                p95_ns: 5_000,
                p99_ns: 9_000,
            }],
            shards: vec![
                ShardStats {
                    batches: 6,
                    batched_items: 30,
                    dispatched: 40,
                    shed: 1,
                    queue_depth: 7,
                },
                ShardStats {
                    batches: 4,
                    batched_items: 25,
                    dispatched: 31,
                    shed: 0,
                    queue_depth: 0,
                },
            ],
        }));
    }

    #[test]
    fn scores_travel_bit_exact() {
        let scores = vec![0.1f32, 1.0 / 3.0, 0.9999999];
        let Response::Scores(back) =
            Response::decode(Response::Scores(scores.clone()).encode()).unwrap()
        else {
            panic!("wrong variant");
        };
        for (a, b) in scores.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        assert!(Request::decode(Bytes::from_static(b"")).is_err());
        assert!(Request::decode(Bytes::from_static(b"\xff")).is_err());
        // Truncated item list.
        assert!(
            Request::decode(Bytes::from_static(b"\x03\x02\x00\x00\x00\x01\x00\x00\x00")).is_err()
        );
        // Trailing garbage.
        assert!(Request::decode(Bytes::from_static(b"\x01\x00")).is_err());
        assert!(Response::decode(Bytes::from_static(b"\xee")).is_err());
    }

    /// Serves `data` in `chunk`-byte slices with a `WouldBlock` timeout
    /// between every chunk — the worst-case dribbling client.
    struct Dribble {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
        ready: bool,
    }

    impl std::io::Read for Dribble {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(std::io::Error::from(std::io::ErrorKind::WouldBlock));
            }
            self.ready = false;
            let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn frame_reader_resumes_after_mid_frame_timeouts() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Score { items: vec![7, 8, 9] }.encode()).unwrap();
        write_frame(&mut wire, &Request::Health.encode()).unwrap();
        // One byte per read, a timeout before each: every length prefix and
        // payload is split across many timed-out calls.
        let mut r = Dribble { data: wire, pos: 0, chunk: 1, ready: false };
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        loop {
            match reader.read_frame(&mut r).unwrap() {
                FrameRead::Frame(payload) => frames.push(payload),
                FrameRead::Idle => continue,
                FrameRead::Eof => break,
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(
            Request::decode(frames[0].clone()).unwrap(),
            Request::Score { items: vec![7, 8, 9] }
        );
        assert_eq!(Request::decode(frames[1].clone()).unwrap(), Request::Health);
    }

    #[test]
    fn frame_reader_reports_mid_frame_state_and_bad_eof() {
        // 4-byte prefix announcing 10 payload bytes, but only 2 arrive.
        let mut truncated = 10u32.to_le_bytes().to_vec();
        truncated.extend_from_slice(b"ab");
        let mut r = Dribble { data: truncated, pos: 0, chunk: 3, ready: false };
        let mut reader = FrameReader::new();
        loop {
            match reader.read_frame(&mut r) {
                Ok(FrameRead::Idle) => continue,
                Err(ProtocolError::Io(e)) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
                    break;
                }
                other => panic!("expected eof-mid-frame error, got {other:?}"),
            }
        }

        // Clean EOF at a boundary is not an error.
        let mut empty = Dribble { data: Vec::new(), pos: 0, chunk: 1, ready: true };
        assert!(matches!(FrameReader::new().read_frame(&mut empty).unwrap(), FrameRead::Eof));

        // A reader that consumed part of a prefix knows it is mid-frame.
        let mut partial = Dribble { data: vec![1, 0], pos: 0, chunk: 2, ready: true };
        let mut reader = FrameReader::new();
        assert!(!reader.mid_frame());
        assert!(matches!(reader.read_frame(&mut partial).unwrap(), FrameRead::Idle));
        assert!(reader.mid_frame());
    }

    #[test]
    fn frame_reader_rejects_oversize_prefix() {
        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
        let mut r = std::io::Cursor::new(huge.to_vec());
        assert!(matches!(
            FrameReader::new().read_frame(&mut r),
            Err(ProtocolError::Malformed("frame too large"))
        ));
    }

    #[test]
    fn frames_roundtrip_through_a_blocking_reader() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = std::io::Cursor::new(wire);
        let mut reader = FrameReader::new();
        for expected in [&b"hello"[..], b""] {
            match reader.read_frame(&mut r).unwrap() {
                FrameRead::Frame(payload) => assert_eq!(payload.as_ref(), expected),
                other => panic!("expected a frame, got {other:?}"),
            }
        }
        assert!(matches!(reader.read_frame(&mut r).unwrap(), FrameRead::Eof), "clean EOF");
    }
}
