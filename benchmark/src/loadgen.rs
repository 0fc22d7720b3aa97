//! The load generator: one thread, a few nonblocking pipelined
//! connections, exact client-side timestamps.
//!
//! The generator busy-polls instead of sleeping in `epoll_wait`, whose
//! millisecond timeout cannot hold a 100 µs send schedule; with two
//! sockets a poll is two `read` calls. A poll that found nothing ends in
//! `sched_yield`: the generator shares a two-core box with the server it
//! measures, and a spinner that never yields makes the scheduler hold
//! woken server threads back for a whole slice (p99 went from 0.17 ms to
//! 3 ms without it). Replies are only timestamped and
//! stored here — decoding and checking them happens after the phase, off
//! the clock, so the oracle never delays a send.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};

use atnn_serve::{FrameRead, FrameReader};
use bytes::Bytes;

use crate::spec::MAX_PIPELINE;
use crate::stream::{Arrival, RequestPool};
use crate::trace::{Clock, Tracer};

/// One request's life as the client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    pub pool_idx: u32,
    /// When the schedule wanted it sent (= `sent_ns` in closed loops).
    pub due_ns: u64,
    pub sent_ns: u64,
    /// When its reply frame was complete. Both loops return an error rather
    /// than samples when a reply never arrives, so this is always set.
    pub done_ns: u64,
    /// The reply matched the expected bytes handed to the loop (and was
    /// dropped on the spot).
    pub matched: bool,
    /// The reply payload, kept when it has yet to be judged.
    pub reply: Option<Bytes>,
}

impl Sample {
    fn sent(pool_idx: u32, due_ns: u64, sent_ns: u64) -> Sample {
        Sample { pool_idx, due_ns, sent_ns, done_ns: 0, matched: false, reply: None }
    }

    /// Stamps the reply. With `expected` (the owed reply bytes per pooled
    /// request) a matching payload is only noted — 200k stored replies
    /// would otherwise show up in the peak RSS this benchmark reports — and
    /// anything else is kept for the oracle to classify off the clock.
    fn answered(&mut self, done_ns: u64, payload: Bytes, expected: Option<&[Bytes]>) {
        self.done_ns = done_ns;
        match expected {
            Some(owed) if owed[self.pool_idx as usize][..] == payload[..] => self.matched = true,
            _ => self.reply = Some(payload),
        }
    }

    /// Latency from the intended send time.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }
}

/// One nonblocking client connection with requests pipelined on it. The
/// server answers a connection's requests in order, so replies match the
/// front of `inflight`.
pub struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    out: Vec<u8>,
    sent: usize,
    inflight: VecDeque<u32>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            reader: FrameReader::new(),
            out: Vec::new(),
            sent: 0,
            inflight: VecDeque::new(),
        })
    }

    fn queue(&mut self, frame: &[u8], sample: u32) {
        self.out.extend_from_slice(frame);
        self.inflight.push_back(sample);
    }

    /// Writes as much buffered output as the socket takes.
    fn flush(&mut self) -> io::Result<()> {
        while self.sent < self.out.len() {
            match self.stream.write(&self.out[self.sent..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.sent = 0;
        Ok(())
    }

    /// The next complete reply frame, if one has arrived.
    fn poll_reply(&mut self) -> io::Result<Option<(u32, Bytes)>> {
        match self.reader.read_frame(&mut self.stream) {
            Ok(FrameRead::Frame(payload)) => {
                let sample = self.inflight.pop_front().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "reply without a request in flight")
                })?;
                Ok(Some((sample, payload)))
            }
            Ok(FrameRead::Idle) => Ok(None),
            Ok(FrameRead::Eof) => {
                Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection"))
            }
            Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        }
    }
}

/// What both loops need beside the load itself.
pub struct Observe<'a> {
    pub clock: Clock,
    /// The owed reply bytes per pooled request, when replies can be
    /// checked as they arrive (see [`Sample`]).
    pub expected: Option<&'a [Bytes]>,
    /// Client-side spans are recorded here when tracing.
    pub tracer: Option<&'a mut Tracer>,
}

impl Observe<'_> {
    /// Timestamps only: replies are kept for the oracle, nothing is traced.
    pub fn plain(clock: Clock) -> Observe<'static> {
        Observe { clock, expected: None, tracer: None }
    }
}

/// Records the three client-side spans of a finished request.
fn trace_sample(tracer: &mut Tracer, request: u32, s: &Sample) {
    let root = tracer.record("socket.request", 0, request, s.due_ns, s.done_ns, false);
    tracer.record("socket.send_lag", root, request, s.due_ns, s.sent_ns, false);
    tracer.record("socket.in_flight", root, request, s.sent_ns, s.done_ns, false);
}

/// Windows the open-loop phase is cut into for the backlog-growth check.
pub const INFLIGHT_WINDOWS: usize = 8;

#[derive(Debug)]
pub struct OpenLoopOutcome {
    pub samples: Vec<Sample>,
    /// Mean requests in flight, as seen at send time, per eighth of the
    /// schedule.
    pub inflight_by_window: [f64; INFLIGHT_WINDOWS],
}

/// Sends `schedule` (due times relative to `t0_ns` on the clock) regardless
/// of how the server keeps up, alternating connections, and collects every
/// reply. A request whose connection already has [`MAX_PIPELINE`] requests
/// in flight waits for a slot — that wait is part of its latency, which is
/// timed from the due time. Gives up, with an error, `grace_ns` after the
/// last due time.
pub fn open_loop(
    conns: &mut [Conn],
    pool: &RequestPool,
    schedule: &[Arrival],
    t0_ns: u64,
    grace_ns: u64,
    observe: Observe<'_>,
) -> io::Result<OpenLoopOutcome> {
    let Observe { clock, expected, mut tracer } = observe;
    let mut samples: Vec<Sample> = Vec::with_capacity(schedule.len());
    let mut outstanding = 0usize;
    let mut window_sum = [0u64; INFLIGHT_WINDOWS];
    let mut window_n = [0u64; INFLIGHT_WINDOWS];
    let give_up = t0_ns + schedule.last().map_or(0, |a| a.due_ns) + grace_ns;
    let mut next = 0usize;
    loop {
        let mut now = clock.now_ns();
        while next < schedule.len() {
            let due = t0_ns + schedule[next].due_ns;
            let conn = &mut conns[next % conns.len()];
            if due > now || conn.inflight.len() >= MAX_PIPELINE {
                break;
            }
            let window = next * INFLIGHT_WINDOWS / schedule.len();
            window_sum[window] += outstanding as u64;
            window_n[window] += 1;
            let pool_idx = schedule[next].pool_idx;
            conn.queue(pool.frame(pool_idx as usize), samples.len() as u32);
            samples.push(Sample::sent(pool_idx, due, now));
            outstanding += 1;
            next += 1;
            now = clock.now_ns();
        }
        for conn in conns.iter_mut() {
            conn.flush()?;
        }
        let mut idle = true;
        for conn in conns.iter_mut() {
            while let Some((idx, payload)) = conn.poll_reply()? {
                let sample = &mut samples[idx as usize];
                sample.answered(clock.now_ns(), payload, expected);
                outstanding -= 1;
                idle = false;
                if let Some(t) = tracer.as_deref_mut() {
                    trace_sample(t, idx, sample);
                }
            }
        }
        if (next == schedule.len() && outstanding == 0) || clock.now_ns() > give_up {
            break;
        }
        if idle {
            std::thread::yield_now();
        }
    }
    // Unanswered requests must not be matched against later phases' replies.
    let abandoned = conns.iter().any(|c| !c.inflight.is_empty());
    if abandoned || next < schedule.len() {
        return Err(io::Error::new(
            io::ErrorKind::TimedOut,
            format!(
                "{outstanding} requests unanswered and {} unsent {grace_ns} ns after the last due time",
                schedule.len() - next
            ),
        ));
    }
    let mut inflight_by_window = [0.0; INFLIGHT_WINDOWS];
    for (mean, (&sum, &n)) in inflight_by_window.iter_mut().zip(window_sum.iter().zip(&window_n)) {
        *mean = if n == 0 { 0.0 } else { sum as f64 / n as f64 };
    }
    Ok(OpenLoopOutcome { samples, inflight_by_window })
}

#[derive(Debug)]
pub struct ClosedLoopOutcome {
    pub samples: Vec<Sample>,
    /// The measured window; replies completing inside it count towards
    /// throughput.
    pub window_start_ns: u64,
    pub window_end_ns: u64,
}

impl ClosedLoopOutcome {
    pub fn window_seconds(&self) -> f64 {
        (self.window_end_ns - self.window_start_ns) as f64 / 1e9
    }

    pub fn in_window(&self, s: &Sample) -> bool {
        s.done_ns <= self.window_end_ns
    }
}

/// Keeps `depth` requests in flight on every connection for `duration_ns`
/// (each reply triggers the next send on its connection), then drains.
pub fn closed_loop(
    conns: &mut [Conn],
    pool: &RequestPool,
    first_idx: usize,
    depth: usize,
    duration_ns: u64,
    observe: Observe<'_>,
) -> io::Result<ClosedLoopOutcome> {
    let Observe { clock, expected, mut tracer } = observe;
    assert!((1..=MAX_PIPELINE).contains(&depth), "depth must fit the server's pipeline");
    let mut samples: Vec<Sample> = Vec::new();
    let mut next_idx = first_idx;
    let mut outstanding = 0usize;
    let send = |conn: &mut Conn, samples: &mut Vec<Sample>, next_idx: &mut usize, now: u64| {
        let pool_idx = (*next_idx % pool.len()) as u32;
        *next_idx += 1;
        conn.queue(pool.frame(pool_idx as usize), samples.len() as u32);
        samples.push(Sample::sent(pool_idx, now, now));
    };
    let window_start_ns = clock.now_ns();
    let window_end_ns = window_start_ns + duration_ns;
    for conn in conns.iter_mut() {
        for _ in 0..depth {
            send(conn, &mut samples, &mut next_idx, window_start_ns);
            outstanding += 1;
        }
    }
    let give_up = window_end_ns + 5_000_000_000;
    while outstanding > 0 {
        let mut idle = true;
        for conn in conns.iter_mut() {
            conn.flush()?;
            while let Some((idx, payload)) = conn.poll_reply()? {
                idle = false;
                let now = clock.now_ns();
                let sample = &mut samples[idx as usize];
                sample.answered(now, payload, expected);
                outstanding -= 1;
                if let Some(t) = tracer.as_deref_mut() {
                    trace_sample(t, idx, sample);
                }
                if now < window_end_ns {
                    send(conn, &mut samples, &mut next_idx, now);
                    outstanding += 1;
                }
            }
        }
        if clock.now_ns() > give_up {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("{outstanding} closed-loop requests unanswered 5 s after the window"),
            ));
        }
        if idle {
            std::thread::yield_now();
        }
    }
    Ok(ClosedLoopOutcome { samples, window_start_ns, window_end_ns })
}
