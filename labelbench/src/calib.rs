//! A fixed calibration job, timed between requests, and the latency unit
//! it defines.
//!
//! The benchmark's hosts are shared, and their speed drifts by 10-20% over
//! seconds to minutes, which moves every wall-clock and CPU-time figure of
//! a run together. The job here is the benchmark's own code, never the
//! program's: it fills freshly allocated memory and sorts a fixed key set,
//! the two parts whose timings followed the server's own slowdowns most
//! closely on a shared 2-vCPU host. Dividing each request's round trip by
//! the job's median time around that moment takes the host's drift out of
//! the figure; a change to the program moves the quotient, a change of
//! host speed mostly does not.

use std::time::{Duration, Instant};

use crate::stats::median;

/// Keys sorted per job.
const SORT: usize = 1 << 16;
/// Entries written into fresh memory per job: 8 MiB of `u64`s.
const FILL: usize = 1 << 20;
/// A request is divided by the calibrations that started within this much
/// of its send time.
const NEARBY: Duration = Duration::from_secs(1);

/// The calibration job and its scratch memory.
pub struct Calibrator {
    keys: Vec<u64>,
    scratch: Vec<u64>,
    sink: u64,
}

impl Calibrator {
    /// Draws the keys from a fixed seed, so every run sorts the same ones.
    pub fn new() -> Calibrator {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let keys = (0..SORT)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect();
        Calibrator {
            keys,
            scratch: Vec::with_capacity(SORT),
            sink: 0,
        }
    }

    /// Runs the job once and returns how long it took: fill freshly
    /// allocated memory (page faults and write bandwidth), then sort.
    pub fn run(&mut self) -> Duration {
        let t = Instant::now();
        let mut fresh: Vec<u64> = Vec::with_capacity(FILL);
        fresh.extend((0..FILL as u64).map(|i| i ^ self.sink));
        self.sink ^= fresh[FILL / 3];
        drop(fresh);
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.keys);
        self.scratch.sort_unstable();
        self.sink = self.sink.wrapping_add(self.scratch[SORT / 2]);
        std::hint::black_box(self.sink);
        t.elapsed()
    }
}

/// Calibration timings of one run, in start order.
pub struct Timeline {
    at: Vec<Instant>,
    ms: Vec<f64>,
    median_ms: f64,
}

impl Timeline {
    /// Collects the timings of every stream.
    pub fn new<'a>(timings: impl IntoIterator<Item = &'a (Instant, Duration)>) -> Timeline {
        let mut all: Vec<(Instant, f64)> = timings
            .into_iter()
            .map(|(t, d)| (*t, d.as_secs_f64() * 1e3))
            .collect();
        all.sort_by_key(|(t, _)| *t);
        let ms: Vec<f64> = all.iter().map(|(_, m)| *m).collect();
        Timeline {
            median_ms: median(&ms),
            at: all.into_iter().map(|(t, _)| t).collect(),
            ms,
        }
    }

    /// Timings taken.
    pub fn len(&self) -> usize {
        self.ms.len()
    }

    /// The median job time over the whole run, in ms.
    pub fn median_ms(&self) -> f64 {
        self.median_ms
    }

    /// The median job time around `t`, in ms; the run's median when no
    /// timing started within [`NEARBY`] of it.
    pub fn around(&self, t: Instant) -> f64 {
        let lo = self.at.partition_point(|&a| a + NEARBY < t);
        let hi = self.at.partition_point(|&a| a <= t + NEARBY);
        if lo < hi {
            median(&self.ms[lo..hi])
        } else {
            self.median_ms
        }
    }
}
