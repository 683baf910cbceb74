//! `xp-server` — a concurrent label server over the crash-safe store.
//!
//! The paper's labeling scheme is a database technique: labels live in a
//! relational table and queries never walk the tree. This crate supplies
//! the missing server half of that story. A single writer thread owns the
//! durable store — a flat [`xp_store::Store`] of many documents or one
//! sharded [`xp_store::ShardedDocStore`]; clients connect over TCP or
//! Unix-domain sockets with a length-prefixed binary protocol and either
//!
//! * **query** — evaluated against an immutable, epoch-stamped
//!   [`snapshot::Snapshot`] published by the writer, so reads are
//!   wait-free with respect to mutations and can never observe a torn
//!   labeling; or
//! * **apply** — mutation batches queued to the [`epoch::EpochLoop`],
//!   which WALs a whole batch under one `fdatasync` (group commit),
//!   applies it, publishes the next epoch, and acknowledges each client
//!   with the epoch its mutations committed under.
//!
//! Module map:
//!
//! * [`protocol`] — frames, requests/responses, and the client-side
//!   [`protocol::WireMutation`] alias (the labelkit `Mutation` over raw
//!   arena indices, encoded by the WAL's own codec).
//! * [`snapshot`] — the epoch snapshots of both document kinds and the
//!   reclaim-or-clone [`snapshot::Publisher`] of flat documents.
//! * [`kind`] — the two document kinds the loop serves: what commit,
//!   publish and checkpoint mean for flat and for sharded documents.
//! * [`epoch`] — the single-writer apply loop and its group-commit
//!   policy, written once for both kinds.
//! * [`server`] — listeners, connection handlers, shutdown.
//! * [`client`] — a blocking client used by the CLI, tests, and bench.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
// Unit tests may unwrap: a panic there is a test failure, not a crash.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

pub mod client;
pub mod epoch;
pub mod kind;
pub mod protocol;
pub mod server;
pub mod snapshot;

pub use client::{Client, ClientError};
pub use epoch::{BatchPolicy, DocCaches, EpochLoop};
pub use kind::DocKind;
pub use protocol::{Request, Response, ServerStats, WireMutation, WirePos};
pub use server::{serve, serve_with_cache, Handle, ListenConfig};
pub use snapshot::{EpochSnapshot, Publisher, ShardedEpochSnapshot, Snapshot};

// Every critical section over the server's shared maps and caches leaves
// them consistent, so a lock poisoned by a panicking thread is still safe
// to use.

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}
