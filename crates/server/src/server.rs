//! Socket front end: accept loops, per-connection handlers, shutdown.
//!
//! The server listens on TCP and/or a Unix-domain socket; both speak the
//! same framed protocol. Each accepted connection gets a handler thread
//! that parses requests and serves them:
//!
//! * **Reads** (`Ping`, `ListDocs`, `Query`, `Stats`) are answered
//!   entirely from published [`Snapshot`]s — the handler clones an
//!   `Arc` out of the shared map and never talks to the writer. A long
//!   query holds its snapshot alive; it cannot block an epoch or observe
//!   a half-applied batch.
//! * **Writes** (`Apply`) are packaged as [`ApplyJob`]s, queued to the
//!   epoch loop, and the handler blocks on its private reply channel. The
//!   response carries the epoch the batch committed under.
//! * **`Shutdown`** flips the stop flag; the accept loops notice within
//!   one poll interval, the epoch loop drains, and `Handle::join`
//!   returns the store.
//!
//! Everything here is generic over the [`DocKind`] the epoch loop serves,
//! so one server answers flat and sharded documents alike.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use xp_query::engine::{Path, QueryError};
use xp_store::Store;

use crate::epoch::{
    ApplyJob, ApplyOutcome, BatchPolicy, Counters, DocCaches, EpochLoop, JobSender, PublishedDocs,
};
use crate::kind::DocKind;
use crate::protocol::{read_message, write_message, DocInfo, ErrCode, Request, Response};
use crate::snapshot::Snapshot;
use crate::{lock, read};

/// Where the server should listen. At least one of the two must be set.
#[derive(Debug, Clone, Default)]
pub struct ListenConfig {
    /// TCP bind address, e.g. `127.0.0.1:0` (port 0 picks a free port).
    pub tcp: Option<String>,
    /// Unix-domain socket path. An existing socket file is replaced.
    pub unix: Option<PathBuf>,
}

/// A running server over a store of kind `K`.
pub struct Handle<K: DocKind = Store> {
    stop: Arc<AtomicBool>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
    accepters: Vec<std::thread::JoinHandle<()>>,
    epoch: EpochLoop<K>,
}

impl<K: DocKind> Handle<K> {
    /// The bound TCP address, if TCP was configured.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The Unix socket path, if configured.
    pub fn unix_path(&self) -> Option<&PathBuf> {
        self.unix_path.as_ref()
    }

    /// Requests shutdown without waiting.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Stops the server, joins every thread, and returns the store.
    pub fn join(self) -> Option<K> {
        self.stop.store(true, Ordering::SeqCst);
        self.wait()
    }

    /// Blocks until something else stops the server — a client
    /// `Shutdown` request or a concurrent [`Handle::stop`] — then tears
    /// down and returns the store. This is the foreground-serving mode
    /// the CLI uses.
    pub fn wait(self) -> Option<K> {
        for t in self.accepters {
            let _ = t.join();
        }
        let store = self.epoch.shutdown();
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
        store
    }
}

/// Starts serving `store` on the configured listeners.
pub fn serve<K: DocKind>(
    store: K,
    listen: ListenConfig,
    policy: BatchPolicy,
) -> std::io::Result<Handle<K>> {
    serve_inner(store, listen, policy, None)
}

/// Like [`serve`], with a per-document query-result cache of
/// `cache_capacity` entries (`xmlprime serve --cache`). Hits, misses, and
/// invalidations show up in [`crate::protocol::ServerStats`].
pub fn serve_with_cache<K: DocKind>(
    store: K,
    listen: ListenConfig,
    policy: BatchPolicy,
    cache_capacity: usize,
) -> std::io::Result<Handle<K>> {
    serve_inner(store, listen, policy, Some(cache_capacity))
}

fn serve_inner<K: DocKind>(
    store: K,
    listen: ListenConfig,
    policy: BatchPolicy,
    cache_capacity: Option<usize>,
) -> std::io::Result<Handle<K>> {
    let epoch = match cache_capacity {
        Some(cap) => EpochLoop::start_with_cache(store, policy, cap),
        None => EpochLoop::start(store, policy),
    };
    let docs = epoch.docs();
    let caches = epoch.caches();
    let counters = epoch.counters();
    let stop = Arc::new(AtomicBool::new(false));
    let mut accepters = Vec::new();
    let mut tcp_addr = None;
    let mut unix_path = None;

    if let Some(addr) = &listen.tcp {
        let listener = TcpListener::bind(addr.as_str())?;
        listener.set_nonblocking(true)?;
        tcp_addr = Some(listener.local_addr()?);
        accepters.push(spawn_acceptor(
            "xp-accept-tcp",
            Arc::clone(&stop),
            move |stop| accept_tcp(&listener, stop),
            Arc::clone(&docs),
            caches.clone(),
            epoch.sender(),
            Arc::clone(&counters),
        ));
    }
    if let Some(path) = &listen.unix {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        unix_path = Some(path.clone());
        accepters.push(spawn_acceptor(
            "xp-accept-unix",
            Arc::clone(&stop),
            move |stop| accept_unix(&listener, stop),
            Arc::clone(&docs),
            caches.clone(),
            epoch.sender(),
            Arc::clone(&counters),
        ));
    }
    if accepters.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "ListenConfig names neither a TCP address nor a Unix path",
        ));
    }
    Ok(Handle { stop, tcp_addr, unix_path, accepters, epoch })
}

/// One accepted connection, generic over the stream type.
type Conn = Box<dyn ReadWrite + Send>;

/// A blocking byte stream (TCP or Unix).
pub trait ReadWrite: Read + Write {}
impl<T: Read + Write> ReadWrite for T {}

/// Idle handlers wake at this interval to check the stop flag; mid-frame
/// reads are unaffected (the framing layer waits out timeouts once a
/// frame has started).
const READ_POLL: Duration = Duration::from_millis(50);

fn accept_tcp(listener: &TcpListener, stop: &AtomicBool) -> Option<Conn> {
    poll_accept(stop, || match listener.accept() {
        Ok((s, _)) => {
            let _ = s.set_nodelay(true);
            let _ = s.set_nonblocking(false);
            let _ = s.set_read_timeout(Some(READ_POLL));
            Some(Box::new(s) as Conn)
        }
        Err(_) => None,
    })
}

fn accept_unix(listener: &UnixListener, stop: &AtomicBool) -> Option<Conn> {
    poll_accept(stop, || match listener.accept() {
        Ok((s, _)) => {
            let _ = s.set_nonblocking(false);
            let _ = s.set_read_timeout(Some(READ_POLL));
            Some(Box::new(s) as Conn)
        }
        Err(_) => None,
    })
}

/// Polls `try_accept` until it yields a connection or `stop` is set.
fn poll_accept(stop: &AtomicBool, mut try_accept: impl FnMut() -> Option<Conn>) -> Option<Conn> {
    loop {
        if stop.load(Ordering::SeqCst) {
            return None;
        }
        if let Some(conn) = try_accept() {
            return Some(conn);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn spawn_acceptor<S: Snapshot>(
    name: &str,
    stop: Arc<AtomicBool>,
    mut next_conn: impl FnMut(&AtomicBool) -> Option<Conn> + Send + 'static,
    docs: PublishedDocs<S>,
    caches: Option<DocCaches>,
    jobs: JobSender,
    counters: Arc<Counters>,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            let mut handlers = Vec::new();
            while let Some(conn) = next_conn(&stop) {
                let docs = Arc::clone(&docs);
                let caches = caches.clone();
                let jobs = jobs.clone();
                let counters = Arc::clone(&counters);
                let stop = Arc::clone(&stop);
                if let Ok(h) = std::thread::Builder::new()
                    .name("xp-conn".into())
                    .spawn(move || handle_connection(conn, docs, caches, jobs, counters, stop))
                {
                    handlers.push(h);
                }
            }
            for h in handlers {
                let _ = h.join();
            }
        })
        .unwrap_or_else(|e| panic!("spawning acceptor failed: {e}"))
}

fn handle_connection<S: Snapshot>(
    mut conn: Conn,
    docs: PublishedDocs<S>,
    caches: Option<DocCaches>,
    jobs: JobSender,
    counters: Arc<Counters>,
    stop: Arc<AtomicBool>,
) {
    loop {
        let payload = match read_message(&mut conn) {
            Ok(Some(p)) => p,
            Ok(None) => return,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Idle poll tick: keep serving unless shutdown started.
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        let response = match Request::decode(&payload) {
            Ok(req) => {
                let is_shutdown = matches!(req, Request::Shutdown);
                let resp = handle_request(req, &docs, caches.as_ref(), &jobs, &counters);
                if is_shutdown {
                    let _ = write_message(&mut conn, |out| resp.encode_into(out));
                    stop.store(true, Ordering::SeqCst);
                    return;
                }
                resp
            }
            Err(e) => Response::Err { code: ErrCode::BadRequest, msg: e.to_string() },
        };
        if write_message(&mut conn, |out| response.encode_into(out)).is_err() {
            return;
        }
    }
}

impl<K: DocKind> EpochLoop<K> {
    /// Serves one request in process, exactly as a connection handler
    /// would.
    pub fn handle(&self, req: Request) -> Response {
        handle_request(req, &self.docs(), self.caches().as_ref(), &self.sender(), &self.counters())
    }
}

/// Serves one request. Reads go straight to published snapshots (through
/// the per-document query cache when one is configured); writes round-trip
/// through the epoch loop.
pub fn handle_request<S: Snapshot>(
    req: Request,
    docs: &PublishedDocs<S>,
    caches: Option<&DocCaches>,
    jobs: &JobSender,
    counters: &Counters,
) -> Response {
    match req {
        Request::Ping => Response::Pong,
        Request::Stats => Response::Stats(counters.stats()),
        Request::Shutdown => Response::Bye,
        Request::ListDocs => {
            let mut infos: Vec<DocInfo> = read(docs)
                .iter()
                .map(|(uri, snap)| DocInfo {
                    uri: uri.clone(),
                    epoch: snap.epoch(),
                    seq: snap.seq(),
                    elements: snap.elements(),
                })
                .collect();
            infos.sort_by(|a, b| a.uri.cmp(&b.uri));
            Response::Docs(infos)
        }
        Request::Query { uri, path } => {
            let snap = read(docs).get(&uri).cloned();
            let Some(snap) = snap else {
                return Response::Err {
                    code: ErrCode::UnknownDoc,
                    msg: format!("no document at uri {uri:?}"),
                };
            };
            let parsed = match Path::parse(&path) {
                Ok(p) => p,
                Err(e) => {
                    return Response::Err { code: ErrCode::BadPath, msg: e.to_string() }
                }
            };
            // Consult the document's cache, keyed by path text and gated
            // on the reader's epoch stamp. The lock covers only the map
            // probe — cold evaluation runs without it, so a slow query
            // never blocks the writer's invalidation step.
            let cache = caches.and_then(|c| read(c).get(&uri).cloned());
            if let Some(cache) = &cache {
                let cached = lock(cache).lookup(&path, snap.epoch());
                match cached {
                    Some(nodes) => {
                        counters.count_cache_hit();
                        return Response::Hits {
                            epoch: snap.epoch(),
                            seq: snap.seq(),
                            nodes: nodes.iter().map(|n| n.index() as u64).collect(),
                        };
                    }
                    None => counters.count_cache_miss(),
                }
            }
            match snap.query(&parsed) {
                Ok(nodes) => {
                    if let Some(cache) = &cache {
                        lock(cache).insert(&path, &parsed, snap.epoch(), nodes.clone());
                    }
                    Response::Hits {
                        epoch: snap.epoch(),
                        seq: snap.seq(),
                        nodes: nodes.iter().map(|n| n.index() as u64).collect(),
                    }
                }
                Err(e @ QueryError::LimitExceeded(_)) => {
                    Response::Err { code: ErrCode::QueryLimit, msg: e.to_string() }
                }
                Err(e) => Response::Err { code: ErrCode::Internal, msg: e.to_string() },
            }
        }
        Request::Apply { uri, mutations } => {
            let (reply_tx, reply_rx) = mpsc::sync_channel(1);
            let job = ApplyJob { uri, mutations, reply: reply_tx };
            if jobs.submit(job).is_err() {
                return Response::Err {
                    code: ErrCode::Internal,
                    msg: "the epoch loop has stopped".into(),
                };
            }
            match reply_rx.recv() {
                Ok(ApplyOutcome::Applied { epoch, seq, results }) => {
                    Response::Applied { epoch, seq, results }
                }
                Ok(ApplyOutcome::Rejected { code, msg }) => Response::Err { code, msg },
                Err(_) => Response::Err {
                    code: ErrCode::Internal,
                    msg: "the epoch loop dropped the job".into(),
                },
            }
        }
    }
}
