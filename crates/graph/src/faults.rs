//! Deterministic, seeded I/O fault injection.
//!
//! Production storage fails in more ways than process death: a transient
//! `EINTR`-class hiccup, a short read, a disk that silently fills, an fsync
//! the kernel refuses. This module gives every disk touchpoint in the stack
//! (segment reads/writes, WAL append/open/trim, snapshot write/rename/read) a
//! shared, *deterministic* fault schedule so tests can drive each site through
//! each failure mode and pin the recovery behaviour — bit-identical values or
//! a typed error, never a panic.
//!
//! Design:
//!
//! - A [`FaultPlan`] is plain data: a list of rules, each naming a
//!   [`FaultSite`], the call index (per site, counted from arming) at which it
//!   fires, and a [`FaultKind`]. Plans are `Clone + PartialEq` and can sit in
//!   server config.
//! - A [`FaultInjector`] is the runtime half: per-site atomic call counters,
//!   an armed flag, and cumulative [`FaultCounters`]. It is `Arc`-shared by
//!   every layer of one server so a single schedule covers the whole stack.
//!   Disarmed injectors cost one relaxed atomic load per I/O call and inject
//!   nothing — the default for production servers.
//! - [`with_retries`] is the bounded exponential-backoff loop every recovery
//!   site uses; [`RetryPolicy`] carries the knobs.
//!
//! Determinism: schedules are indexed by per-site call counts, not clocks, so
//! the same plan against the same workload fires at exactly the same
//! operations on every run.

use crate::rng::SplitMix64;
use slfe_metrics::FaultCounters;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Every distinct disk touchpoint that can have faults injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Reading a segment from a `SegmentedStore` file into the buffer pool.
    SegmentRead,
    /// Appending an encoded segment to a store file (build, patch, rebuild).
    SegmentWrite,
    /// Writing a WAL frame.
    WalAppend,
    /// Fsyncing the WAL after an append.
    WalFsync,
    /// Reading the WAL during `Wal::open` recovery scan.
    WalOpen,
    /// Truncating the WAL after a successful snapshot.
    WalTrim,
    /// Writing + syncing the snapshot temp file.
    SnapshotWrite,
    /// Atomically renaming the snapshot temp file into place.
    SnapshotRename,
    /// Reading the snapshot during recovery.
    SnapshotRead,
}

/// All injection sites, in a stable order (used by the fault sweeps).
pub const ALL_FAULT_SITES: [FaultSite; 9] = [
    FaultSite::SegmentRead,
    FaultSite::SegmentWrite,
    FaultSite::WalAppend,
    FaultSite::WalFsync,
    FaultSite::WalOpen,
    FaultSite::WalTrim,
    FaultSite::SnapshotWrite,
    FaultSite::SnapshotRename,
    FaultSite::SnapshotRead,
];

impl FaultSite {
    /// Stable lowercase name (test labels, error messages).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::SegmentRead => "segment_read",
            FaultSite::SegmentWrite => "segment_write",
            FaultSite::WalAppend => "wal_append",
            FaultSite::WalFsync => "wal_fsync",
            FaultSite::WalOpen => "wal_open",
            FaultSite::WalTrim => "wal_trim",
            FaultSite::SnapshotWrite => "snapshot_write",
            FaultSite::SnapshotRename => "snapshot_rename",
            FaultSite::SnapshotRead => "snapshot_read",
        }
    }

    fn index(self) -> usize {
        ALL_FAULT_SITES.iter().position(|s| *s == self).unwrap_or(0)
    }
}

/// What kind of failure a rule injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The next `failures` calls at the site fail, then the site heals.
    /// Bounded retries must absorb these with no observable effect.
    Transient {
        /// Number of consecutive calls that fail once the rule fires.
        failures: u32,
    },
    /// Every call at the site from `at_call` onward fails. Recovery must
    /// degrade: quarantine + rebuild for segment reads, read-only mode for
    /// write-side sites.
    Permanent,
    /// Exactly one call delivers fewer bytes than requested (reads come back
    /// truncated, writes land partially before erroring).
    ShortIo,
    /// Every call from `at_call` onward fails with ENOSPC. Never retried —
    /// a full disk does not heal by itself — and flips the server read-only.
    DiskFull,
}

/// One scheduled fault: `kind` at `site`, firing at per-site call `at_call`
/// (call indices count from the moment the plan is armed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRule {
    /// Which disk touchpoint this rule applies to.
    pub site: FaultSite,
    /// Per-site call index (counted from arming) at which the rule fires.
    pub at_call: u64,
    /// Failure mode injected once the rule fires.
    pub kind: FaultKind,
}

/// A deterministic fault schedule: plain data, buildable by tests,
/// attachable to a server config.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (injects nothing even when armed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a rule; builder-style.
    pub fn fail(mut self, site: FaultSite, at_call: u64, kind: FaultKind) -> Self {
        self.rules.push(FaultRule {
            site,
            at_call,
            kind,
        });
        self
    }

    /// A seeded chaos schedule: every site gets one transient fault (1–2
    /// consecutive failures) at a small pseudo-random call offset. Because
    /// all faults are transient, a server driven under this plan must finish
    /// bit-identical to a fault-free run.
    pub fn seeded_transient(seed: u64) -> Self {
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0xFA17_F1A5);
        let mut plan = Self::new();
        for site in ALL_FAULT_SITES {
            let at_call = rng.next_u64() % 4;
            let failures = 1 + (rng.next_u64() % 2) as u32;
            plan = plan.fail(site, at_call, FaultKind::Transient { failures });
        }
        plan
    }

    /// The scheduled rules.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// True when no rules are scheduled.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// What a faulted call site must do right now.
#[derive(Debug)]
pub enum FaultAction {
    /// Fail the operation with this error without touching the disk.
    Error(io::Error),
    /// Perform the I/O but deliver/persist fewer bytes than requested, then
    /// report the short transfer as an error.
    ShortIo,
}

#[derive(Debug, Default)]
struct AtomicFaultCounters {
    injected_transient: AtomicU64,
    injected_permanent: AtomicU64,
    injected_short_io: AtomicU64,
    injected_disk_full: AtomicU64,
    io_retries: AtomicU64,
    io_retry_successes: AtomicU64,
    segments_quarantined: AtomicU64,
    poisoned_runs: AtomicU64,
}

/// Runtime fault state shared (via `Arc`) by every disk touchpoint of one
/// server: the armed schedule, per-site call counters, and cumulative
/// recovery counters. Counters accumulate even across re-arming.
#[derive(Debug)]
pub struct FaultInjector {
    armed: AtomicBool,
    rules: Mutex<Vec<FaultRule>>,
    calls: [AtomicU64; ALL_FAULT_SITES.len()],
    counters: AtomicFaultCounters,
}

impl Default for FaultInjector {
    fn default() -> Self {
        Self {
            armed: AtomicBool::new(false),
            rules: Mutex::new(Vec::new()),
            calls: Default::default(),
            counters: AtomicFaultCounters::default(),
        }
    }
}

impl FaultInjector {
    /// A disarmed injector: one relaxed atomic load per I/O call, injects
    /// nothing. The default for every server.
    pub fn disabled() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// An injector armed with `plan` from construction (call counters start
    /// at zero), so faults can fire during open/recovery paths.
    pub fn armed(plan: FaultPlan) -> Arc<Self> {
        let inj = Self::disabled();
        inj.arm(plan);
        inj
    }

    /// Arm (or re-arm) the injector with `plan`. Per-site call counters reset
    /// to zero so `at_call` indices are relative to this arming point;
    /// cumulative fault counters are preserved.
    pub fn arm(&self, plan: FaultPlan) {
        let mut rules = self.rules.lock().expect("fault rule lock poisoned");
        *rules = plan.rules;
        for c in &self.calls {
            c.store(0, Ordering::Relaxed);
        }
        self.armed.store(true, Ordering::Release);
    }

    /// Disarm: subsequent I/O calls inject nothing (counters retained).
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Release);
    }

    /// True when a plan is armed.
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Acquire)
    }

    /// Called by a site immediately before performing real I/O. Advances the
    /// site's call counter and returns the action to take, if any fault is
    /// scheduled for this call.
    pub fn on_io(&self, site: FaultSite) -> Option<FaultAction> {
        if !self.armed.load(Ordering::Acquire) {
            return None;
        }
        let call = self.calls[site.index()].fetch_add(1, Ordering::Relaxed);
        let rules = self.rules.lock().expect("fault rule lock poisoned");
        for rule in rules.iter().filter(|r| r.site == site) {
            let fires = match rule.kind {
                FaultKind::Transient { failures } => {
                    call >= rule.at_call && call < rule.at_call.saturating_add(failures as u64)
                }
                FaultKind::Permanent | FaultKind::DiskFull => call >= rule.at_call,
                FaultKind::ShortIo => call == rule.at_call,
            };
            if !fires {
                continue;
            }
            return Some(match rule.kind {
                FaultKind::Transient { .. } => {
                    self.counters
                        .injected_transient
                        .fetch_add(1, Ordering::Relaxed);
                    FaultAction::Error(io::Error::other(format!(
                        "injected transient fault at {} (call {call})",
                        site.name()
                    )))
                }
                FaultKind::Permanent => {
                    self.counters
                        .injected_permanent
                        .fetch_add(1, Ordering::Relaxed);
                    FaultAction::Error(io::Error::other(format!(
                        "injected permanent fault at {} (call {call})",
                        site.name()
                    )))
                }
                FaultKind::ShortIo => {
                    self.counters
                        .injected_short_io
                        .fetch_add(1, Ordering::Relaxed);
                    FaultAction::ShortIo
                }
                FaultKind::DiskFull => {
                    self.counters
                        .injected_disk_full
                        .fetch_add(1, Ordering::Relaxed);
                    FaultAction::Error(disk_full_error(site))
                }
            });
        }
        None
    }

    /// Record one retry attempt by a backoff loop.
    pub fn note_retry(&self) {
        self.counters.io_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a retried operation that eventually succeeded.
    pub fn note_retry_success(&self) {
        self.counters
            .io_retry_successes
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Record a segment quarantined and rebuilt from the recovery source.
    pub fn note_quarantine(&self) {
        self.counters
            .segments_quarantined
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Record an engine run poisoned by an unrecoverable segment read.
    pub fn note_poisoned_run(&self) {
        self.counters.poisoned_runs.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the cumulative counters.
    pub fn counters(&self) -> FaultCounters {
        FaultCounters {
            injected_transient: self.counters.injected_transient.load(Ordering::Relaxed),
            injected_permanent: self.counters.injected_permanent.load(Ordering::Relaxed),
            injected_short_io: self.counters.injected_short_io.load(Ordering::Relaxed),
            injected_disk_full: self.counters.injected_disk_full.load(Ordering::Relaxed),
            io_retries: self.counters.io_retries.load(Ordering::Relaxed),
            io_retry_successes: self.counters.io_retry_successes.load(Ordering::Relaxed),
            segments_quarantined: self.counters.segments_quarantined.load(Ordering::Relaxed),
            poisoned_runs: self.counters.poisoned_runs.load(Ordering::Relaxed),
        }
    }
}

/// Raw OS code for ENOSPC ("no space left on device").
const ENOSPC: i32 = 28;

fn disk_full_error(site: FaultSite) -> io::Error {
    if cfg!(unix) {
        io::Error::from_raw_os_error(ENOSPC)
    } else {
        io::Error::other(format!("injected ENOSPC at {}", site.name()))
    }
}

/// True when `e` is a disk-full condition. Disk-full errors are never
/// retried: a full disk does not heal on a backoff timer.
pub fn is_disk_full(e: &io::Error) -> bool {
    e.raw_os_error() == Some(ENOSPC) || e.to_string().contains("ENOSPC")
}

/// Bounded exponential-backoff retry knobs for transient I/O failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failure (0 disables retrying).
    pub max_retries: u32,
    /// Backoff before retry `n` is `backoff_base_ms << n`, capped below.
    pub backoff_base_ms: u64,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap_ms: u64,
    /// Seed for deterministic backoff jitter; 0 (the default) disables
    /// jitter and keeps the legacy fixed schedule. When set, each retrier
    /// sleeps `backoff/2 + jitter` with the jitter drawn from a
    /// [`SplitMix64`] stream keyed by `(jitter_seed, retrier, attempt)` —
    /// concurrent retriers that failed at the same instant no longer wake
    /// (and hammer the same device) in lockstep, while a fixed seed keeps
    /// every sleep reproducible. Jitter only moves wake-up *times*; retry
    /// counts and outcomes are unchanged, so fault-sweep bit-identity is
    /// unaffected.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            backoff_base_ms: 1,
            backoff_cap_ms: 16,
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        Self {
            max_retries: 0,
            backoff_base_ms: 0,
            backoff_cap_ms: 0,
            jitter_seed: 0,
        }
    }

    /// Enable deterministic jitter, deriving the stream from `seed`
    /// (typically the fault plan's seed so one knob drives both schedules).
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// Sleep duration before retry attempt `attempt` (0-indexed).
    pub fn backoff(&self, attempt: u32) -> Duration {
        let ms = self
            .backoff_base_ms
            .saturating_shl(attempt.min(16))
            .min(self.backoff_cap_ms);
        Duration::from_millis(ms)
    }

    /// [`RetryPolicy::backoff`] with deterministic de-synchronization:
    /// `retrier` distinguishes concurrent backoff loops (each
    /// [`with_retries`] call gets its own ordinal). With `jitter_seed == 0`
    /// this is exactly `backoff(attempt)`; otherwise the sleep lands in
    /// `[backoff/2, backoff]` — same expected magnitude, but two retriers
    /// with different ordinals draw different offsets, so they stop
    /// retrying in lockstep.
    pub fn backoff_jittered(&self, attempt: u32, retrier: u64) -> Duration {
        let base = self.backoff(attempt);
        if self.jitter_seed == 0 || base.is_zero() {
            return base;
        }
        let half = base / 2;
        let mut rng = SplitMix64::seed_from_u64(
            self.jitter_seed ^ retrier.rotate_left(17) ^ ((attempt as u64) << 56),
        );
        let span = half.as_nanos() as u64;
        let jitter = if span == 0 {
            0
        } else {
            rng.next_u64() % (span + 1)
        };
        half + Duration::from_nanos(jitter)
    }
}

trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> Self {
        self.checked_shl(shift).unwrap_or(u64::MAX)
    }
}

/// Process-wide ordinal handed to each [`with_retries`] invocation so
/// concurrent retry loops draw from distinct jitter streams. Monotonic and
/// relaxed: the value only has to be *distinct*, not ordered.
static RETRIER_ORDINAL: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Run `op` with bounded exponential-backoff retries per `policy`. Disk-full
/// errors are returned immediately (retrying ENOSPC is pointless); other
/// errors are retried up to `policy.max_retries` times. Retry attempts and
/// eventual successes are recorded on `injector` when present. When the
/// policy carries a jitter seed, each retry loop sleeps on its own
/// deterministic jittered schedule (see [`RetryPolicy::backoff_jittered`]).
pub fn with_retries<T>(
    policy: &RetryPolicy,
    injector: Option<&FaultInjector>,
    mut op: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    let retrier = RETRIER_ORDINAL.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(v) => {
                if attempt > 0 {
                    if let Some(inj) = injector {
                        inj.note_retry_success();
                    }
                }
                return Ok(v);
            }
            Err(e) if attempt < policy.max_retries && !is_disk_full(&e) => {
                if let Some(inj) = injector {
                    inj.note_retry();
                }
                std::thread::sleep(policy.backoff_jittered(attempt, retrier));
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_injector_injects_nothing() {
        let inj = FaultInjector::disabled();
        for _ in 0..64 {
            for site in ALL_FAULT_SITES {
                assert!(inj.on_io(site).is_none());
            }
        }
        assert_eq!(inj.counters(), FaultCounters::zero());
        assert!(!inj.is_armed());
    }

    #[test]
    fn transient_rule_fires_for_exactly_its_window() {
        let inj = FaultInjector::armed(FaultPlan::new().fail(
            FaultSite::WalAppend,
            2,
            FaultKind::Transient { failures: 3 },
        ));
        let fired: Vec<bool> = (0..8)
            .map(|_| inj.on_io(FaultSite::WalAppend).is_some())
            .collect();
        assert_eq!(fired, [false, false, true, true, true, false, false, false]);
        // Other sites are untouched.
        assert!(inj.on_io(FaultSite::SegmentRead).is_none());
        assert_eq!(inj.counters().injected_transient, 3);
    }

    #[test]
    fn permanent_and_disk_full_rules_fire_forever() {
        let inj = FaultInjector::armed(
            FaultPlan::new()
                .fail(FaultSite::SegmentRead, 1, FaultKind::Permanent)
                .fail(FaultSite::SnapshotWrite, 0, FaultKind::DiskFull),
        );
        assert!(inj.on_io(FaultSite::SegmentRead).is_none());
        for _ in 0..5 {
            match inj.on_io(FaultSite::SegmentRead) {
                Some(FaultAction::Error(e)) => assert!(!is_disk_full(&e)),
                other => panic!("expected permanent error, got {other:?}"),
            }
            match inj.on_io(FaultSite::SnapshotWrite) {
                Some(FaultAction::Error(e)) => assert!(is_disk_full(&e)),
                other => panic!("expected ENOSPC, got {other:?}"),
            }
        }
        let c = inj.counters();
        assert_eq!(c.injected_permanent, 5);
        assert_eq!(c.injected_disk_full, 5);
    }

    #[test]
    fn short_io_fires_exactly_once() {
        let inj =
            FaultInjector::armed(FaultPlan::new().fail(FaultSite::WalOpen, 0, FaultKind::ShortIo));
        assert!(matches!(
            inj.on_io(FaultSite::WalOpen),
            Some(FaultAction::ShortIo)
        ));
        assert!(inj.on_io(FaultSite::WalOpen).is_none());
        assert_eq!(inj.counters().injected_short_io, 1);
    }

    #[test]
    fn rearming_resets_call_counters_but_keeps_counters() {
        let inj = FaultInjector::armed(FaultPlan::new().fail(
            FaultSite::WalTrim,
            0,
            FaultKind::Transient { failures: 1 },
        ));
        assert!(inj.on_io(FaultSite::WalTrim).is_some());
        assert!(inj.on_io(FaultSite::WalTrim).is_none());
        inj.arm(FaultPlan::new().fail(FaultSite::WalTrim, 0, FaultKind::Transient { failures: 1 }));
        // Call counter reset: call 0 fires again.
        assert!(inj.on_io(FaultSite::WalTrim).is_some());
        assert_eq!(inj.counters().injected_transient, 2);
        inj.disarm();
        assert!(inj.on_io(FaultSite::WalTrim).is_none());
    }

    #[test]
    fn with_retries_recovers_from_transient_failures() {
        let inj = FaultInjector::disabled();
        let policy = RetryPolicy {
            max_retries: 3,
            ..RetryPolicy::none()
        };
        let mut left = 2;
        let out = with_retries(&policy, Some(&inj), || {
            if left > 0 {
                left -= 1;
                Err(io::Error::other("flaky"))
            } else {
                Ok(42)
            }
        });
        assert_eq!(out.unwrap(), 42);
        let c = inj.counters();
        assert_eq!(c.io_retries, 2);
        assert_eq!(c.io_retry_successes, 1);
    }

    #[test]
    fn with_retries_gives_up_after_budget_and_never_retries_enospc() {
        let policy = RetryPolicy {
            max_retries: 2,
            ..RetryPolicy::none()
        };
        let mut calls = 0;
        let out: io::Result<()> = with_retries(&policy, None, || {
            calls += 1;
            Err(io::Error::other("always"))
        });
        assert!(out.is_err());
        assert_eq!(calls, 3); // 1 initial + 2 retries

        let mut enospc_calls = 0;
        let out: io::Result<()> = with_retries(&policy, None, || {
            enospc_calls += 1;
            Err(disk_full_error(FaultSite::WalAppend))
        });
        assert!(is_disk_full(&out.unwrap_err()));
        assert_eq!(enospc_calls, 1);
    }

    #[test]
    fn seeded_transient_plans_are_deterministic_and_cover_every_site() {
        let a = FaultPlan::seeded_transient(7);
        let b = FaultPlan::seeded_transient(7);
        assert_eq!(a, b);
        assert_eq!(a.rules().len(), ALL_FAULT_SITES.len());
        for site in ALL_FAULT_SITES {
            assert!(a.rules().iter().any(|r| r.site == site
                && matches!(r.kind, FaultKind::Transient { failures } if failures >= 1)));
        }
        assert_ne!(a, FaultPlan::seeded_transient(8));
    }

    #[test]
    fn backoff_is_bounded() {
        let p = RetryPolicy::default();
        assert!(p.backoff(0) >= Duration::from_millis(1));
        assert!(p.backoff(40) <= Duration::from_millis(p.backoff_cap_ms));
        assert_eq!(RetryPolicy::none().backoff(5), Duration::ZERO);
    }

    #[test]
    fn jittered_backoff_is_deterministic_bounded_and_stream_dependent() {
        let p = RetryPolicy::default().with_jitter_seed(0xC0FFEE);
        for attempt in 0..6 {
            for retrier in 0..8u64 {
                let base = p.backoff(attempt);
                let j = p.backoff_jittered(attempt, retrier);
                // Same keys, same sleep — reproducible under a fixed seed.
                assert_eq!(j, p.backoff_jittered(attempt, retrier));
                // Bounded by [base/2, base].
                assert!(j >= base / 2, "attempt {attempt} retrier {retrier}");
                assert!(j <= base, "attempt {attempt} retrier {retrier}");
            }
        }
        // Distinct retriers de-synchronize: at least one pair of streams must
        // differ for a non-trivial backoff window.
        let spread: Vec<Duration> = (0..16).map(|r| p.backoff_jittered(3, r)).collect();
        assert!(spread.iter().any(|d| *d != spread[0]));
        // Different seeds give different schedules.
        let q = RetryPolicy::default().with_jitter_seed(0xBEEF);
        assert!((0..16).any(|r| p.backoff_jittered(3, r) != q.backoff_jittered(3, r)));
    }

    #[test]
    fn jitter_disabled_by_default_keeps_legacy_schedule() {
        let p = RetryPolicy::default();
        assert_eq!(p.jitter_seed, 0);
        for attempt in 0..8 {
            assert_eq!(p.backoff_jittered(attempt, 42), p.backoff(attempt));
        }
        // Zero-width backoff never sleeps, jittered or not.
        let z = RetryPolicy::none().with_jitter_seed(9);
        assert_eq!(z.backoff_jittered(0, 1), Duration::ZERO);
    }

    #[test]
    fn with_retries_recovers_under_jitter() {
        let policy = RetryPolicy {
            max_retries: 3,
            backoff_base_ms: 1,
            backoff_cap_ms: 1,
            jitter_seed: 7,
        };
        let mut left = 2;
        let out = with_retries(&policy, None, || {
            if left > 0 {
                left -= 1;
                Err(io::Error::other("flaky"))
            } else {
                Ok(7)
            }
        });
        assert_eq!(out.unwrap(), 7);
    }
}
