//! Deterministic fault injection: named fault points compiled into library
//! code, armed per thread.
//!
//! Production code marks failure-prone spots with [`faultpoint!`](crate::faultpoint!):
//!
//! ```ignore
//! xp_testkit::faultpoint!("sc.insert")?;
//! ```
//!
//! A fault point is inert (one thread-local lookup) unless armed. Arming
//! happens two ways:
//!
//! * **Environment**: `XP_FAULT=<site>:<trigger>[,<site>:<trigger>...]`,
//!   parsed lazily the first time a thread passes any fault point. A trigger
//!   is either `<n>` (fire exactly on the n-th hit of that site, once) or
//!   `p=<prob>` (fire each hit with probability `prob`, drawn from a PRNG
//!   seeded by `XP_FAULT_SEED`, default `0xF417`). Example:
//!   `XP_FAULT=sc.insert.record:2` fires the second time the SC table
//!   re-solves a record.
//! * **Programmatic**: [`arm`] installs a spec string for the current
//!   thread (replacing any environment configuration), [`reset`] disarms
//!   everything. Tests use this so parallel test threads never see each
//!   other's faults.
//!
//! Firing returns [`Injected`]; each pipeline crate converts it into its own
//! typed error so the failure surfaces exactly like a real one would.

use crate::rng::{RngExt, SeedableRng, StdRng};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;

/// The error produced when an armed fault point fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injected {
    /// Name of the site that fired.
    pub site: &'static str,
    /// The injected failure mode (see [`FaultMode`]).
    pub mode: FaultMode,
}

impl fmt::Display for Injected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at {} ({})", self.site, self.mode)
    }
}

impl std::error::Error for Injected {}

/// *How* an armed site fails, the third spec component:
/// `<site>:<trigger>[:<mode>]`.
///
/// Plain in-memory sites only ever observe [`FaultMode::Error`]; the I/O
/// sites of the persistence layer interpret the richer modes — a torn write
/// leaves a partial frame on disk before erroring, a short read truncates
/// what recovery sees, and abort kills the process mid-write like a real
/// `kill -9`. Sites that don't understand a mode treat it as `Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultMode {
    /// Return a typed error, leaving no partial effects (the classic mode).
    #[default]
    Error,
    /// I/O write sites: persist a prefix of the intended bytes, then error.
    Torn,
    /// I/O read sites: deliver fewer bytes than were asked for.
    Short,
    /// I/O write sites: persist a prefix of the intended bytes, then
    /// `std::process::abort()` — a hard kill with no unwinding.
    Abort,
}

impl fmt::Display for FaultMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultMode::Error => "error",
            FaultMode::Torn => "torn",
            FaultMode::Short => "short",
            FaultMode::Abort => "abort",
        })
    }
}

impl FaultMode {
    fn parse(s: &str) -> Option<FaultMode> {
        match s {
            "error" => Some(FaultMode::Error),
            "torn" => Some(FaultMode::Torn),
            "short" => Some(FaultMode::Short),
            "abort" => Some(FaultMode::Abort),
            _ => None,
        }
    }
}

/// When an armed site fires.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Trigger {
    /// Fire exactly on the n-th hit (1-based), once.
    Nth(u64),
    /// Fire each hit with this probability.
    Prob(f64),
}

#[derive(Debug)]
struct SiteState {
    trigger: Trigger,
    mode: FaultMode,
    hits: u64,
    fired: bool,
}

#[derive(Debug)]
struct ThreadFaults {
    sites: HashMap<String, SiteState>,
    rng: StdRng,
}

thread_local! {
    /// `None` = environment not yet consulted on this thread.
    static FAULTS: RefCell<Option<ThreadFaults>> = const { RefCell::new(None) };
}

const DEFAULT_SEED: u64 = 0xF417;

fn parse_spec(spec: &str, seed: u64) -> Result<ThreadFaults, String> {
    let mut sites = HashMap::new();
    for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
        let Some((head, tail)) = entry.rsplit_once(':') else {
            return Err(format!("fault spec `{entry}` is missing `:<trigger>`"));
        };
        // `<site>:<trigger>` or `<site>:<trigger>:<mode>` — the mode word
        // never parses as a trigger, so peel it off the tail first.
        let (site, trigger, mode) = if let Some(mode) = FaultMode::parse(tail) {
            let Some((site, trigger)) = head.rsplit_once(':') else {
                return Err(format!("fault spec `{entry}` is missing `:<trigger>` before mode"));
            };
            (site, trigger, mode)
        } else {
            (head, tail, FaultMode::Error)
        };
        let trigger = if let Some(p) = trigger.strip_prefix("p=") {
            match p.parse::<f64>() {
                Ok(p) if (0.0..=1.0).contains(&p) => Trigger::Prob(p),
                _ => return Err(format!("fault spec `{entry}`: bad probability `{p}`")),
            }
        } else {
            match trigger.parse::<u64>() {
                Ok(n) if n >= 1 => Trigger::Nth(n),
                _ => return Err(format!("fault spec `{entry}`: bad hit count `{trigger}`")),
            }
        };
        sites.insert(site.to_string(), SiteState { trigger, mode, hits: 0, fired: false });
    }
    Ok(ThreadFaults { sites, rng: StdRng::seed_from_u64(seed) })
}

fn env_seed() -> u64 {
    std::env::var("XP_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

fn from_env() -> ThreadFaults {
    let empty = ThreadFaults { sites: HashMap::new(), rng: StdRng::seed_from_u64(DEFAULT_SEED) };
    match std::env::var("XP_FAULT") {
        Ok(spec) => match parse_spec(&spec, env_seed()) {
            Ok(f) => f,
            Err(msg) => {
                eprintln!("warning: ignoring XP_FAULT: {msg}");
                empty
            }
        },
        Err(_) => empty,
    }
}

/// Arms the current thread from a spec string (`XP_FAULT` syntax), replacing
/// any previous configuration — including the environment's. Panics on a
/// malformed spec: this is test tooling, and a silently ignored typo would
/// make a fault test vacuously pass.
pub fn arm(spec: &str) {
    match parse_spec(spec, env_seed()) {
        Ok(f) => FAULTS.with(|cell| *cell.borrow_mut() = Some(f)),
        Err(msg) => panic!("fault::arm: {msg}"),
    }
}

/// Disarms every fault point on the current thread. The environment is NOT
/// re-read afterwards: the thread stays clean.
pub fn reset() {
    FAULTS.with(|cell| {
        *cell.borrow_mut() = Some(ThreadFaults {
            sites: HashMap::new(),
            rng: StdRng::seed_from_u64(DEFAULT_SEED),
        });
    });
}

/// `true` iff any fault site is armed on the current thread (consulting the
/// environment on first call, exactly like a fault point would).
///
/// Parallel code paths use this as a sequential-fallback guard: fault state
/// is per-thread (hit counters, PRNG), so an `Nth`-triggered site would lose
/// its deterministic firing order if its hits were spread across pool
/// threads. When faults are armed, parallel regions run sequentially on the
/// calling thread so injection behaves exactly as in the sequential scheme.
pub fn active() -> bool {
    FAULTS.with(|cell| {
        let mut slot = cell.borrow_mut();
        let faults = slot.get_or_insert_with(from_env);
        !faults.sites.is_empty()
    })
}

/// How many times `site` has been passed on this thread since it was armed.
/// Returns 0 for unarmed sites.
pub fn hits(site: &str) -> u64 {
    FAULTS.with(|cell| {
        cell.borrow()
            .as_ref()
            .and_then(|f| f.sites.get(site))
            .map(|s| s.hits)
            .unwrap_or(0)
    })
}

/// The guts of [`faultpoint!`](crate::faultpoint!): count a hit of `site` and decide whether it
/// fires. Inert sites cost one thread-local lookup and a hash miss.
pub fn check(site: &'static str) -> Result<(), Injected> {
    FAULTS.with(|cell| {
        let mut slot = cell.borrow_mut();
        let faults = slot.get_or_insert_with(from_env);
        let Some(state) = faults.sites.get_mut(site) else {
            return Ok(());
        };
        state.hits += 1;
        let fire = match state.trigger {
            Trigger::Nth(n) => {
                if !state.fired && state.hits == n {
                    state.fired = true;
                    true
                } else {
                    false
                }
            }
            Trigger::Prob(p) => faults.rng.random_bool(p),
        };
        if fire {
            Err(Injected { site, mode: state.mode })
        } else {
            Ok(())
        }
    })
}

/// Marks a named fault point. Expands to a `Result<(), Injected>` so the
/// caller chooses how the injected failure enters its own error type —
/// usually just `faultpoint!("site")?` behind a `From<Injected>` impl.
#[macro_export]
macro_rules! faultpoint {
    ($site:expr) => {
        $crate::fault::check($site)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_sites_are_inert() {
        reset();
        for _ in 0..100 {
            assert_eq!(check("never.armed"), Ok(()));
        }
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        arm("t.nth:3");
        assert_eq!(check("t.nth"), Ok(()));
        assert_eq!(check("t.nth"), Ok(()));
        assert_eq!(check("t.nth"), Err(Injected { site: "t.nth", mode: FaultMode::Error }));
        for _ in 0..10 {
            assert_eq!(check("t.nth"), Ok(()), "nth fires once");
        }
        assert_eq!(hits("t.nth"), 13);
        reset();
    }

    #[test]
    fn prob_trigger_fires_deterministically_per_seed() {
        arm("t.p:p=0.5");
        let a: Vec<bool> = (0..64).map(|_| check("t.p").is_err()).collect();
        arm("t.p:p=0.5");
        let b: Vec<bool> = (0..64).map(|_| check("t.p").is_err()).collect();
        assert_eq!(a, b, "same seed, same coin flips");
        assert!(a.iter().any(|&f| f) && a.iter().any(|&f| !f));
        reset();
    }

    #[test]
    fn prob_bounds() {
        arm("t.never:p=0.0,t.always:p=1.0");
        for _ in 0..32 {
            assert_eq!(check("t.never"), Ok(()));
            assert!(check("t.always").is_err());
        }
        reset();
    }

    #[test]
    fn multiple_sites_in_one_spec() {
        arm("a:1, b:2");
        assert!(check("a").is_err());
        assert_eq!(check("b"), Ok(()));
        assert!(check("b").is_err());
        assert_eq!(check("c"), Ok(()));
        reset();
    }

    #[test]
    #[should_panic(expected = "fault::arm")]
    fn malformed_spec_panics() {
        arm("no-trigger");
    }

    #[test]
    fn mode_suffix_parses_and_propagates() {
        arm("io.write:1:torn");
        assert_eq!(
            check("io.write"),
            Err(Injected { site: "io.write", mode: FaultMode::Torn })
        );
        arm("io.read:2:short, io.sync:1:abort, plain:1");
        assert_eq!(check("io.read"), Ok(()));
        assert_eq!(check("io.read"), Err(Injected { site: "io.read", mode: FaultMode::Short }));
        assert_eq!(check("io.sync"), Err(Injected { site: "io.sync", mode: FaultMode::Abort }));
        assert_eq!(check("plain"), Err(Injected { site: "plain", mode: FaultMode::Error }));
        reset();
    }

    #[test]
    #[should_panic(expected = "fault::arm")]
    fn mode_without_trigger_panics() {
        arm("site:torn");
    }

    #[test]
    fn reset_disarms() {
        arm("t.r:1");
        reset();
        assert_eq!(check("t.r"), Ok(()));
    }

    #[test]
    fn active_reflects_armed_state() {
        reset();
        assert!(!active());
        arm("t.active:5");
        assert!(active());
        reset();
        assert!(!active());
    }

    #[test]
    fn macro_expands_to_check() {
        arm("t.m:1");
        let r: Result<(), Injected> = crate::faultpoint!("t.m");
        assert!(r.is_err());
        reset();
    }
}
