//! The single-writer epoch loop: batching, group commit, publish.
//!
//! One thread owns the store — a flat [`Store`] or a sharded
//! [`ShardedDocStore`](xp_store::ShardedDocStore), see [`crate::kind`] —
//! and therefore every document's authoritative tree, labels, and SC
//! table. Connection handlers never touch it — they enqueue [`ApplyJob`]s
//! and read published snapshots. That single-writer discipline is what
//! makes the concurrency story trivially torn-read-free: there is exactly
//! one mutator, and everything readers see is immutable.
//!
//! # Epoch lifecycle
//!
//! 1. **Gather.** The loop blocks for one job, then drains whatever else
//!    has queued, up to [`BatchPolicy::max_mutations`].
//! 2. **Decode.** Each job's mutation bytes are decoded against the live
//!    tree. A job that fails to decode is rejected whole, before anything
//!    is logged — it consumes no sequence numbers.
//! 3. **Commit.** All of a document's decoded mutations go through the
//!    kind's [`DocKind::commit`]: every frame is written to the WAL, then
//!    one `fdatasync` covers the batch (group commit), then the batch
//!    applies. A mutation the scheme rejects still consumed its sequence
//!    number and will re-fail identically on replay; its error is
//!    reported to the submitting client only.
//! 4. **Publish.** The kind builds the document's next snapshot, stamped
//!    one epoch past the current one; the document's query cache drops
//!    what the batch touched; then the shared snapshot pointer swaps.
//!    Readers that already hold the previous `Arc` keep a consistent
//!    pre-batch view; new queries see the new epoch.
//! 5. **Reply.** Every job in the batch gets its per-mutation outcomes and
//!    the epoch that covers them.
//!
//! Epochs count published batches per document, from 0 at start; a batch
//! with nothing to log publishes nothing and advances nothing.
//! Durability before visibility: the fsync in step 3 happens before the
//! publish in step 4, so no client can observe (or build on) labels that
//! a crash could un-happen.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, RwLock};

use xp_labelkit::Mutation;
use xp_query::QueryCache;
use xp_store::{Store, StoreError};
use xp_xmltree::XmlTree;

use crate::kind::DocKind;
use crate::protocol::{ErrCode, ServerStats, WireApply};
use crate::snapshot::{EpochSnapshot, Snapshot};
use crate::{lock, read, write};

/// Group-commit policy for the epoch loop.
#[derive(Debug, Clone, Copy)]
pub struct BatchPolicy {
    /// Most mutations folded into one epoch (and one fsync) per document.
    /// `1` disables group commit: every mutation pays its own sync — the
    /// knob the `bench_server` fsync gate flips.
    pub max_mutations: usize,
    /// Checkpoint a document once its WAL tail exceeds this many
    /// mutations. `None` leaves checkpointing to the operator.
    pub checkpoint_after: Option<u64>,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy { max_mutations: 256, checkpoint_after: Some(4096) }
    }
}

/// Outcome of one [`ApplyJob`].
#[derive(Debug, Clone)]
pub enum ApplyOutcome {
    /// The batch committed; per-mutation results in submission order.
    Applied {
        /// Label epoch whose snapshot reflects this job.
        epoch: u64,
        /// Document sequence after the job's mutations.
        seq: u64,
        /// One entry per submitted mutation.
        results: Vec<WireApply>,
    },
    /// The job was rejected before consuming any sequence numbers.
    Rejected {
        /// Failure classification for the wire.
        code: ErrCode,
        /// Human-readable detail.
        msg: String,
    },
}

/// A mutation batch from one client, awaiting the writer.
pub struct ApplyJob {
    /// Target document URI.
    pub uri: String,
    /// Encoded mutations ([`crate::protocol::WireMutation`] bytes).
    pub mutations: Vec<Vec<u8>>,
    /// Where the outcome goes. A dropped receiver just discards the
    /// reply.
    pub reply: mpsc::SyncSender<ApplyOutcome>,
}

enum Job {
    Apply(ApplyJob),
    Stop,
}

/// A cloneable handle for submitting jobs to the writer thread.
#[derive(Clone)]
pub struct JobSender(mpsc::Sender<Job>);

impl JobSender {
    /// Enqueues a job; gives it back if the writer has stopped.
    pub fn submit(&self, job: ApplyJob) -> Result<(), ApplyJob> {
        self.0.send(Job::Apply(job)).map_err(|e| match e.0 {
            Job::Apply(j) => j,
            Job::Stop => unreachable!("JobSender only sends Apply"),
        })
    }
}

/// Atomic counters mirrored into [`ServerStats`].
#[derive(Debug, Default)]
pub struct Counters {
    epochs: AtomicU64,
    applied: AtomicU64,
    failed: AtomicU64,
    wal_fsyncs: AtomicU64,
    reclaimed: AtomicU64,
    cloned: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_invalidated: AtomicU64,
}

impl Counters {
    /// Snapshot of the counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            epochs: self.epochs.load(Ordering::Relaxed),
            applied: self.applied.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            wal_fsyncs: self.wal_fsyncs.load(Ordering::Relaxed),
            snapshots_reclaimed: self.reclaimed.load(Ordering::Relaxed),
            snapshots_cloned: self.cloned.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_invalidated: self.cache_invalidated.load(Ordering::Relaxed),
        }
    }

    /// Counts one query answered from the result cache.
    pub fn count_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one query that fell through to cold evaluation.
    pub fn count_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `n` cache entries dropped by invalidation.
    pub fn count_cache_invalidated(&self, n: u64) {
        self.cache_invalidated.fetch_add(n, Ordering::Relaxed);
    }
}

/// Every document's current snapshot, by URI.
pub type Snapshots<S> = HashMap<String, Arc<S>>;

/// The reader-facing side of the epoch loop: the published snapshot per
/// document, swapped atomically at each epoch boundary.
pub type PublishedDocs<S = EpochSnapshot> = Arc<RwLock<Snapshots<S>>>;

/// Per-document query-result caches (present only when caching is on).
/// Connection handlers consult these; the writer invalidates them right
/// before each epoch swap.
pub type DocCaches = Arc<RwLock<HashMap<String, Arc<Mutex<QueryCache>>>>>;

/// Handle to a running epoch loop over a store of kind `K`.
pub struct EpochLoop<K: DocKind = Store> {
    jobs: mpsc::Sender<Job>,
    docs: PublishedDocs<K::Snapshot>,
    caches: Option<DocCaches>,
    counters: Arc<Counters>,
    writer: Option<std::thread::JoinHandle<K>>,
}

impl<K: DocKind> EpochLoop<K> {
    /// Takes ownership of `store` and starts the writer thread. Every
    /// document already in the store is published as its epoch 0.
    pub fn start(store: K, policy: BatchPolicy) -> Self {
        Self::launch(store, policy, None)
    }

    /// Like [`EpochLoop::start`], with a query-result cache of
    /// `cache_capacity` entries per document (see `xp_query::cache`).
    pub fn start_with_cache(store: K, policy: BatchPolicy, cache_capacity: usize) -> Self {
        Self::launch(store, policy, Some(cache_capacity))
    }

    fn launch(store: K, policy: BatchPolicy, cache_capacity: Option<usize>) -> Self {
        // Publish every document's initial epoch *before* the writer
        // thread exists, so callers see a complete map the moment this
        // returns.
        let (publishing, initial) = store.start_publishing();
        let caches = cache_capacity.map(|cap| {
            let map = initial
                .keys()
                .map(|uri| (uri.clone(), Arc::new(Mutex::new(QueryCache::new(cap, 0)))))
                .collect();
            Arc::new(RwLock::new(map))
        });
        let docs = Arc::new(RwLock::new(initial));
        let counters = Arc::new(Counters::default());
        let (tx, rx) = mpsc::channel::<Job>();
        let writer = Writer {
            store,
            publishing,
            policy,
            docs: Arc::clone(&docs),
            caches: caches.clone(),
            counters: Arc::clone(&counters),
        };
        let writer = std::thread::Builder::new()
            .name("xp-epoch-writer".into())
            .spawn(move || writer.run(rx))
            .unwrap_or_else(|e| panic!("spawning the epoch writer failed: {e}"));
        EpochLoop { jobs: tx, docs, caches, counters, writer: Some(writer) }
    }

    /// The published-snapshot map readers query against.
    pub fn docs(&self) -> PublishedDocs<K::Snapshot> {
        Arc::clone(&self.docs)
    }

    /// The per-document query caches, when caching is enabled.
    pub fn caches(&self) -> Option<DocCaches> {
        self.caches.clone()
    }

    /// A cloneable submitter for connection handlers.
    pub fn sender(&self) -> JobSender {
        JobSender(self.jobs.clone())
    }

    /// Shared counters.
    pub fn counters(&self) -> Arc<Counters> {
        Arc::clone(&self.counters)
    }

    /// Enqueues a job. Fails only if the writer has already stopped.
    pub fn submit(&self, job: ApplyJob) -> Result<(), ApplyJob> {
        self.sender().submit(job)
    }

    /// Stops the writer after it drains queued jobs, returning the store.
    pub fn shutdown(mut self) -> Option<K> {
        let _ = self.jobs.send(Job::Stop);
        self.writer.take().and_then(|w| w.join().ok())
    }
}

/// Everything the writer thread owns.
struct Writer<K: DocKind> {
    store: K,
    publishing: K::Publishing,
    policy: BatchPolicy,
    docs: PublishedDocs<K::Snapshot>,
    caches: Option<DocCaches>,
    counters: Arc<Counters>,
}

impl<K: DocKind> Writer<K> {
    fn run(mut self, jobs: mpsc::Receiver<Job>) -> K {
        loop {
            let first = match jobs.recv() {
                Ok(Job::Apply(j)) => j,
                Ok(Job::Stop) | Err(_) => break,
            };
            let mut batch = vec![first];
            let mut queued_mutations = batch[0].mutations.len();
            let mut stop_after = false;
            while queued_mutations < self.policy.max_mutations {
                match jobs.try_recv() {
                    Ok(Job::Apply(j)) => {
                        queued_mutations += j.mutations.len();
                        batch.push(j);
                    }
                    Ok(Job::Stop) => {
                        stop_after = true;
                        break;
                    }
                    Err(_) => break,
                }
            }
            self.run_batch(batch);
            if stop_after {
                break;
            }
        }
        self.store
    }

    /// Applies one gathered batch: group jobs by URI (preserving submission
    /// order), run each document's share, reply.
    fn run_batch(&mut self, batch: Vec<ApplyJob>) {
        // (uri -> job indices), in first-seen order.
        let mut by_uri: Vec<(String, Vec<usize>)> = Vec::new();
        for (i, job) in batch.iter().enumerate() {
            match by_uri.iter_mut().find(|(u, _)| *u == job.uri) {
                Some((_, idxs)) => idxs.push(i),
                None => by_uri.push((job.uri.clone(), vec![i])),
            }
        }
        let mut replies: Vec<Option<ApplyOutcome>> = batch.iter().map(|_| None).collect();
        for (uri, job_idxs) in by_uri {
            self.run_document(&uri, &batch, &job_idxs, &mut replies);
        }

        let stats = K::publish_stats(&self.publishing);
        self.counters.reclaimed.store(stats.reclaimed, Ordering::Relaxed);
        self.counters.cloned.store(stats.cloned, Ordering::Relaxed);

        for (job, outcome) in batch.into_iter().zip(replies) {
            let outcome = outcome.unwrap_or(ApplyOutcome::Rejected {
                code: ErrCode::Internal,
                msg: "job was never scheduled".into(),
            });
            let _ = job.reply.try_send(outcome);
        }
    }

    /// Decodes, commits, publishes and slices replies for the jobs of one
    /// document.
    fn run_document(
        &mut self,
        uri: &str,
        batch: &[ApplyJob],
        job_idxs: &[usize],
        replies: &mut [Option<ApplyOutcome>],
    ) {
        let current = read(&self.docs).get(uri).cloned();
        let (Some(current), Some(tree)) = (current, self.store.tree(uri)) else {
            for &i in job_idxs {
                replies[i] = Some(ApplyOutcome::Rejected {
                    code: ErrCode::UnknownDoc,
                    msg: format!("no document at uri {uri:?}"),
                });
            }
            return;
        };

        // Decode every job against the live tree; reject bad jobs whole.
        let mut decoded: Vec<(usize, usize)> = Vec::new(); // (job, mutations)
        let mut flat: Vec<Mutation> = Vec::new();
        for &i in job_idxs {
            match decode_job(&batch[i].mutations, tree) {
                Ok(muts) => {
                    decoded.push((i, muts.len()));
                    flat.extend(muts);
                }
                Err(msg) => {
                    replies[i] = Some(ApplyOutcome::Rejected { code: ErrCode::BadRequest, msg })
                }
            }
        }
        if flat.is_empty() {
            // Nothing to log: empty jobs still get a (trivial) reply
            // stamped with the current epoch.
            for (i, _) in decoded {
                replies[i] = Some(ApplyOutcome::Applied {
                    epoch: current.epoch(),
                    seq: current.seq(),
                    results: Vec::new(),
                });
            }
            return;
        }

        let reject = |replies: &mut [Option<ApplyOutcome>], code: ErrCode, msg: String| {
            for &(i, _) in &decoded {
                replies[i] = Some(ApplyOutcome::Rejected { code, msg: msg.clone() });
            }
        };
        // One WAL append = one fsync for the whole epoch.
        let track_tags = self.caches.is_some();
        let (results, touched) =
            match self.store.commit(&mut self.publishing, uri, &flat, track_tags) {
                Ok(r) => r,
                Err(e) => {
                    let code = match &e {
                        StoreError::UnknownUri(_) => ErrCode::UnknownDoc,
                        _ => ErrCode::Internal,
                    };
                    reject(replies, code, format!("apply failed: {e}"));
                    return;
                }
            };
        let epoch = current.epoch() + 1;
        let Some(snap) = self.store.publish(&mut self.publishing, uri, epoch, &flat) else {
            reject(replies, ErrCode::Internal, "no publisher for the document".into());
            return;
        };
        self.counters.epochs.fetch_add(1, Ordering::Relaxed);
        self.counters.wal_fsyncs.store(self.store.wal_fsyncs(), Ordering::Relaxed);

        // Invalidate the document's query cache *before* the epoch swap:
        // by the time a reader can hold the new epoch, every entry this
        // batch could have stalled is gone.
        let cache = self.caches.as_ref().and_then(|c| read(c).get(uri).cloned());
        if let Some(cache) = cache {
            let dropped = lock(&cache).advance(epoch, &touched);
            self.counters.count_cache_invalidated(dropped);
        }
        write(&self.docs).insert(uri.to_owned(), Arc::clone(&snap));

        // Slice per-mutation results back out to their jobs.
        let mut results = results.into_iter();
        let mut seq = snap.seq() - flat.len() as u64;
        for (i, n) in decoded {
            seq += n as u64;
            let wire: Vec<WireApply> = results
                .by_ref()
                .take(n)
                .map(|r| match r {
                    Ok(report) => {
                        self.counters.applied.fetch_add(1, Ordering::Relaxed);
                        Ok(report.labels_touched() as u64)
                    }
                    Err(e) => {
                        self.counters.failed.fetch_add(1, Ordering::Relaxed);
                        Err(e.to_string())
                    }
                })
                .collect();
            replies[i] = Some(ApplyOutcome::Applied { epoch, seq, results: wire });
        }

        // Checkpoint policy: fold the WAL tail once it is long enough.
        if let Some(limit) = self.policy.checkpoint_after {
            if self.store.wal_tail(uri) >= limit {
                let _ = self.store.checkpoint(uri);
            }
        }
    }
}

/// Decodes one job's wire mutations against `tree`, or says why not.
fn decode_job(mutations: &[Vec<u8>], tree: &XmlTree) -> Result<Vec<Mutation>, String> {
    mutations
        .iter()
        .map(|bytes| {
            let mut input = bytes.as_slice();
            let m = Mutation::decode(&mut input, tree).map_err(|e| e.to_string())?;
            if input.is_empty() {
                Ok(m)
            } else {
                Err("trailing mutation bytes".to_owned())
            }
        })
        .collect()
}
