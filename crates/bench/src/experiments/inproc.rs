//! In-process harness around the server's epoch loop: the cache and
//! multi-writer benches drive [`handle_request`] — the exact code path a
//! TCP connection handler runs — without socket framing, so latencies
//! isolate evaluation + cache cost from network noise (the wire path is
//! `bench_server`'s subject).

use std::path::PathBuf;
use std::sync::Arc;
use xp_labelkit::Mutation;
use xp_server::epoch::{BatchPolicy, Counters, EpochLoop};
use xp_server::protocol::{Request, Response};
use xp_server::snapshot::EpochSnapshot;
use xp_store::Store;

/// The single document every in-process bench serves.
pub(crate) const URI: &str = "bench.xml";

/// One served document plus the handles a connection handler would hold.
pub(crate) struct InprocServer {
    epoch: EpochLoop,
    counters: Arc<Counters>,
    dir: PathBuf,
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xp-bench-inproc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

impl InprocServer {
    /// Creates a store under a scratch directory, adds `xml` as the one
    /// document, and starts the epoch loop (with a result cache of
    /// `cache_capacity` entries when given).
    pub fn start(tag: &str, xml: &str, cache_capacity: Option<usize>) -> InprocServer {
        let dir = scratch_dir(tag);
        let mut store = Store::create(&dir).expect("bench store create");
        store.add_document(URI, xml, 4).expect("bench document");
        let policy = BatchPolicy::default();
        let epoch = match cache_capacity {
            Some(cap) => EpochLoop::start_with_cache(store, policy, cap),
            None => EpochLoop::start(store, policy),
        };
        let counters = epoch.counters();
        InprocServer { epoch, counters, dir }
    }

    /// Shared server counters (cache hits/misses, epochs, …).
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The latest published snapshot of the document.
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        self.epoch
            .docs()
            .read()
            .expect("published docs")
            .get(URI)
            .cloned()
            .expect("bench document published")
    }

    /// Routes a query through the server's request handler; returns the
    /// answering epoch and the hit list.
    pub fn query(&self, path: &str) -> (u64, Vec<u64>) {
        let req = Request::Query { uri: URI.into(), path: path.into() };
        match self.epoch.handle(req) {
            Response::Hits { epoch, nodes, .. } => (epoch, nodes),
            other => panic!("bench query {path} got {other:?}"),
        }
    }

    /// Applies one mutation through the request handler, blocking until
    /// the writer publishes the epoch that contains it.
    pub fn apply(&self, mutation: &Mutation) -> Result<u64, String> {
        let mut bytes = Vec::new();
        mutation.encode(&mut bytes);
        let req = Request::Apply { uri: URI.into(), mutations: vec![bytes] };
        match self.epoch.handle(req) {
            Response::Applied { results, .. } => {
                results.into_iter().next().expect("one mutation, one result")
            }
            other => panic!("bench apply got {other:?}"),
        }
    }

    /// Stops the loop, runs the store's full consistency suite, removes
    /// the scratch directory. Returns whether verification passed.
    pub fn shutdown_and_verify(self) -> bool {
        let ok = match self.epoch.shutdown() {
            Some(store) => store.verify().is_ok(),
            None => false,
        };
        let _ = std::fs::remove_dir_all(&self.dir);
        ok
    }
}
