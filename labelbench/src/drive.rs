//! The untraced load generator: one closed-loop connection per stream,
//! every answer checked or sampled, and the calibration job
//! (see [`crate::calib`]) timed between requests.

use std::path::Path;
use std::time::{Duration, Instant};

use xp_server::{Client, WireMutation};

use crate::calib::Calibrator;
use crate::inputs::{Op, URI};

/// A calibrating stream times the calibration job before a request when
/// the last timing is at least this old.
const CALIBRATE_EVERY: Duration = Duration::from_millis(100);

/// How one request ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Answered, and correct where checked.
    Ok,
    /// A transport error, a typed server error, or a rejected mutation.
    Error(String),
    /// A query answer that differs from the precomputed one.
    Wrong,
}

/// One timed request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// `true` for a query, `false` for a mutation.
    pub query: bool,
    /// The request's class: a query's path index, or the number of paths
    /// for every mutation.
    pub class: usize,
    /// When it was sent.
    pub sent: Instant,
    /// Round trip.
    pub latency: Duration,
    /// How it ended.
    pub outcome: Outcome,
}

/// A query answer kept for checking against the oracle afterwards.
#[derive(Debug, Clone)]
pub struct Spot {
    /// Mutations folded into the answering snapshot.
    pub seq: u64,
    /// Index into the plan's paths.
    pub path: usize,
    /// The answer.
    pub nodes: Vec<u64>,
}

/// What one connection did.
#[derive(Debug, Default)]
pub struct ConnRun {
    /// Every request, in send order.
    pub samples: Vec<Sample>,
    /// Acknowledged mutations with the document sequence they committed at.
    pub acked: Vec<(u64, WireMutation)>,
    /// Sampled query answers.
    pub spots: Vec<Spot>,
    /// Calibration job timings, with when each started.
    pub calib: Vec<(Instant, Duration)>,
}

/// What a stream sends and how it is checked.
pub struct StreamSpec<'a> {
    /// The requests.
    pub ops: &'a [Op],
    /// Query texts.
    pub paths: &'a [String],
    /// Answers every query must return exactly, when known up front.
    pub expected: Option<&'a [Vec<u64>]>,
    /// Keep every `spot_every`-th query answer for the oracle (0: none).
    pub spot_every: usize,
    /// Time the calibration job between requests.
    pub calibrate: bool,
}

/// Runs one stream on a fresh connection.
pub fn run_stream(socket: &Path, spec: &StreamSpec<'_>) -> Result<ConnRun, String> {
    let mut client =
        Client::connect_unix(socket).map_err(|e| format!("load generator connect: {e}"))?;
    let mut run = ConnRun {
        samples: Vec::with_capacity(spec.ops.len()),
        ..ConnRun::default()
    };
    let mut queries = 0usize;
    let mut calib = spec.calibrate.then(Calibrator::new);
    let mut last_calib: Option<Instant> = None;
    for op in spec.ops {
        if let Some(c) = calib.as_mut() {
            if last_calib.is_none_or(|t| t.elapsed() >= CALIBRATE_EVERY) {
                let at = Instant::now();
                run.calib.push((at, c.run()));
                last_calib = Some(at);
            }
        }
        let sent = Instant::now();
        let (query, class, outcome) = match op {
            Op::Query(p) => {
                let outcome = match client.query(URI, &spec.paths[*p]) {
                    Ok(hits) => {
                        let wrong = spec.expected.is_some_and(|e| e[*p] != hits.nodes);
                        if spec.spot_every > 0 && queries.is_multiple_of(spec.spot_every) {
                            run.spots.push(Spot {
                                seq: hits.seq,
                                path: *p,
                                nodes: hits.nodes,
                            });
                        }
                        if wrong {
                            Outcome::Wrong
                        } else {
                            Outcome::Ok
                        }
                    }
                    Err(e) => Outcome::Error(e.to_string()),
                };
                queries += 1;
                (true, *p, outcome)
            }
            Op::Mutate(m) => {
                let outcome = match client.apply(URI, std::slice::from_ref(m)) {
                    Ok(applied) => match applied.results.as_slice() {
                        [Ok(_)] => {
                            run.acked.push((applied.seq, m.clone()));
                            Outcome::Ok
                        }
                        [Err(e)] => Outcome::Error(format!("mutation rejected: {e}")),
                        other => {
                            Outcome::Error(format!("{} results for one mutation", other.len()))
                        }
                    },
                    Err(e) => Outcome::Error(e.to_string()),
                };
                (false, spec.paths.len(), outcome)
            }
        };
        run.samples.push(Sample {
            query,
            class,
            sent,
            latency: sent.elapsed(),
            outcome,
        });
    }
    Ok(run)
}
