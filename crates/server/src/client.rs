//! A blocking client for the label server's framed protocol.
//!
//! One [`Client`] wraps one connection (TCP or Unix) and issues
//! request/response pairs synchronously — the protocol is strictly
//! ping-pong per connection, so a client wanting pipelining opens more
//! connections (the bench harness runs 64 of them).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::Path as FsPath;

use crate::protocol::{
    read_message, write_message, DocInfo, ErrCode, Request, Response, ServerStats, WireApply,
    WireMutation,
};

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, framing).
    Io(std::io::Error),
    /// The server closed the connection mid-exchange.
    Disconnected,
    /// The response payload failed to decode.
    Codec(String),
    /// The server answered with a typed error.
    Server {
        /// The wire error code.
        code: ErrCode,
        /// Detail string from the server.
        msg: String,
    },
    /// The server answered with a response of the wrong kind.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::Codec(msg) => write!(f, "bad response payload: {msg}"),
            ClientError::Server { code, msg } => write!(f, "server error ({code:?}): {msg}"),
            ClientError::Unexpected(what) => write!(f, "unexpected response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Query hits together with the snapshot coordinates they came from.
#[derive(Debug, Clone)]
pub struct Hits {
    /// Label epoch of the answering snapshot.
    pub epoch: u64,
    /// Mutation sequence folded into it.
    pub seq: u64,
    /// Matching nodes (arena indices, document order).
    pub nodes: Vec<u64>,
}

/// Apply acknowledgement.
#[derive(Debug, Clone)]
pub struct Applied {
    /// Epoch that published this batch.
    pub epoch: u64,
    /// Document sequence after this client's mutations.
    pub seq: u64,
    /// Per-mutation outcome.
    pub results: Vec<WireApply>,
}

enum Transport {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Read for Transport {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Transport::Tcp(s) => s.read(buf),
            Transport::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Transport {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Transport::Tcp(s) => s.write(buf),
            Transport::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Transport::Tcp(s) => s.flush(),
            Transport::Unix(s) => s.flush(),
        }
    }
}

/// One blocking connection to the server.
pub struct Client {
    stream: Transport,
}

impl Client {
    /// Connects over TCP.
    pub fn connect_tcp(addr: &str) -> Result<Client, ClientError> {
        let s = TcpStream::connect(addr)?;
        let _ = s.set_nodelay(true);
        Ok(Client { stream: Transport::Tcp(s) })
    }

    /// Connects over a Unix-domain socket.
    pub fn connect_unix(path: &FsPath) -> Result<Client, ClientError> {
        Ok(Client { stream: Transport::Unix(UnixStream::connect(path)?) })
    }

    fn round_trip(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_message(&mut self.stream, |out| req.encode_into(out))?;
        let payload = read_message(&mut self.stream)?.ok_or(ClientError::Disconnected)?;
        let resp = Response::decode(&payload).map_err(|e| ClientError::Codec(e.to_string()))?;
        if let Response::Err { code, msg } = resp {
            return Err(ClientError::Server { code, msg });
        }
        Ok(resp)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.round_trip(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Lists the server's documents.
    pub fn docs(&mut self) -> Result<Vec<DocInfo>, ClientError> {
        match self.round_trip(&Request::ListDocs)? {
            Response::Docs(d) => Ok(d),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Evaluates `path` against `uri`'s latest published snapshot.
    pub fn query(&mut self, uri: &str, path: &str) -> Result<Hits, ClientError> {
        let req = Request::Query { uri: uri.into(), path: path.into() };
        match self.round_trip(&req)? {
            Response::Hits { epoch, seq, nodes } => Ok(Hits { epoch, seq, nodes }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Applies a batch of mutations through the epoch loop, waiting for
    /// the commit.
    pub fn apply(&mut self, uri: &str, mutations: &[WireMutation]) -> Result<Applied, ClientError> {
        let req = Request::Apply {
            uri: uri.into(),
            mutations: mutations.iter().map(WireMutation::to_bytes).collect(),
        };
        match self.round_trip(&req)? {
            Response::Applied { epoch, seq, results } => Ok(Applied { epoch, seq, results }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Fetches server counters.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        match self.round_trip(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Asks the server to shut down.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.round_trip(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }
}
