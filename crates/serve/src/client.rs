//! A blocking TCP client for the serve protocol, used by the smoke check,
//! the load generator, and the end-to-end tests.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{
    write_frame, FrameRead, FrameReader, ProtocolError, Request, Response, StatsReport,
};

/// One connection speaking the length-prefixed binary protocol.
pub struct ServeClient {
    stream: TcpStream,
    reader: FrameReader,
}

impl ServeClient {
    /// Connects and disables Nagle (the frames are tiny; latency wins).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(ServeClient { stream, reader: FrameReader::new() })
    }

    /// Sends one request and reads its response.
    pub fn call(&mut self, request: &Request) -> Result<Response, ProtocolError> {
        write_frame(&mut self.stream, &request.encode())?;
        match self.reader.read_frame(&mut self.stream)? {
            FrameRead::Frame(payload) => Response::decode(payload),
            FrameRead::Idle => Err(ProtocolError::Io(io::ErrorKind::TimedOut.into())),
            FrameRead::Eof => Err(ProtocolError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-request",
            ))),
        }
    }

    /// Health probe; returns the served model version.
    pub fn health(&mut self) -> Result<u64, ProtocolError> {
        match self.call(&Request::Health)? {
            Response::Health { ok: true, model_version } => Ok(model_version),
            Response::Health { ok: false, .. } => {
                Err(ProtocolError::Malformed("server reported unhealthy"))
            }
            _ => Err(ProtocolError::Malformed("unexpected response to Health")),
        }
    }

    /// Telemetry snapshot.
    pub fn stats(&mut self) -> Result<StatsReport, ProtocolError> {
        match self.call(&Request::Stats)? {
            Response::Stats(report) => Ok(report),
            _ => Err(ProtocolError::Malformed("unexpected response to Stats")),
        }
    }

    /// Forced cold-path scoring. The response may be `Scores`,
    /// `Overloaded`, or `Error` — callers match.
    pub fn score_new_arrival(&mut self, items: &[u32]) -> Result<Response, ProtocolError> {
        self.call(&Request::ScoreNewArrival { items: items.to_vec() })
    }

    /// Forced warm-path scoring.
    pub fn score_warm_item(&mut self, items: &[u32]) -> Result<Response, ProtocolError> {
        self.call(&Request::ScoreWarmItem { items: items.to_vec() })
    }

    /// Policy-routed scoring.
    pub fn score(&mut self, items: &[u32]) -> Result<Response, ProtocolError> {
        self.call(&Request::Score { items: items.to_vec() })
    }

    /// Reports interactions; returns the updated per-item counts.
    pub fn record_interactions(&mut self, items: &[u32]) -> Result<Vec<u32>, ProtocolError> {
        match self.call(&Request::RecordInteractions { items: items.to_vec() })? {
            Response::Recorded { counts } => Ok(counts),
            _ => Err(ProtocolError::Malformed("unexpected response to RecordInteractions")),
        }
    }

    /// Routed top-k ranking over candidate items.
    pub fn topk(&mut self, items: &[u32], k: u32) -> Result<Response, ProtocolError> {
        self.call(&Request::TopK { items: items.to_vec(), k })
    }

    /// Catalogue-wide top-k retrieval through the server's ANN index.
    pub fn topk_all(&mut self, k: u32) -> Result<Response, ProtocolError> {
        self.call(&Request::TopKAll { k })
    }
}
