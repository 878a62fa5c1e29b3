//! Hot artifact swap: an epoch-tagged atomic slot (a hand-rolled
//! `ArcSwap` on std primitives) plus the failure-aware artifact watcher
//! behind `rdd serve --watch-artifact`.
//!
//! [`SwapCell`] holds the pool's current artifact generation behind a
//! `Mutex<Arc<T>>` plus an `AtomicU64` epoch. Readers (serve workers) keep
//! a cached `Arc` clone and the epoch they cloned it at; once per batch
//! they check the epoch with a single atomic load — the lock is taken only
//! when a swap actually happened, so the steady-state read path is
//! lock-free. Because a worker pins its `Arc` for the whole batch,
//! in-flight requests always finish on the generation they started on,
//! and the old generation is freed exactly when its last pinned batch
//! drops the `Arc`.
//!
//! [`ArtifactWatcher`] owns the swap *rollback* policy: it polls the
//! watched path by mtime, fully loads and validates any replacement via
//! [`checked_load`] before the caller may install it, and on a failed load
//! keeps the current generation live while backing the poll off
//! exponentially (capped) instead of retrying hot against a file that is
//! still broken or mid-copy.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

use crate::artifact::AnyArtifact;
use crate::error::ServeError;

/// An atomically swappable `Arc<T>` with a monotonically increasing epoch.
/// Epoch 0 is the value the cell was built with; every [`SwapCell::swap`]
/// increments it.
pub struct SwapCell<T> {
    slot: Mutex<Arc<T>>,
    epoch: AtomicU64,
}

impl<T> SwapCell<T> {
    /// A cell holding `value` at epoch 0.
    pub fn new(value: Arc<T>) -> Self {
        Self {
            slot: Mutex::new(value),
            epoch: AtomicU64::new(0),
        }
    }

    /// The current epoch (generation number). Acquire-ordered so a reader
    /// that observes epoch `e` also observes the slot contents published
    /// for `e`.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Clone the current value and its epoch (takes the lock).
    pub fn load(&self) -> (Arc<T>, u64) {
        let guard = self.slot.lock().unwrap();
        // Read the epoch under the lock: it cannot move while we hold it,
        // so the pair is consistent.
        (Arc::clone(&guard), self.epoch.load(Ordering::Acquire))
    }

    /// The lock-free fast path: if the epoch still equals `seen`, return
    /// `None` without touching the lock; otherwise clone the new value.
    pub fn load_if_newer(&self, seen: u64) -> Option<(Arc<T>, u64)> {
        if self.epoch.load(Ordering::Acquire) == seen {
            return None;
        }
        Some(self.load())
    }

    /// Publish `value` as the next generation and return its epoch. The
    /// epoch store is Release-ordered *after* the slot update, so any
    /// reader observing the new epoch will read the new value.
    pub fn swap(&self, value: Arc<T>) -> u64 {
        let mut guard = self.slot.lock().unwrap();
        *guard = value;
        // fetch_add while still holding the lock: concurrent swaps cannot
        // interleave slot and epoch updates.
        self.epoch.fetch_add(1, Ordering::Release) + 1
    }
}

/// Load + validate a replacement artifact for a hot swap. Identical to
/// [`AnyArtifact::load`] plus the `io_fail@swap_load` chaos site, so swap
/// rollback can be exercised without a genuinely broken file.
pub fn checked_load(path: &Path) -> Result<AnyArtifact, ServeError> {
    if rdd_obs::fault::fire("swap_load") == Some(rdd_obs::FaultKind::IoFail) {
        return Err(ServeError::Io(std::io::Error::other(
            "injected I/O failure (RDD_FAULT io_fail@swap_load)",
        )));
    }
    AnyArtifact::load(path)
}

/// What one [`ArtifactWatcher::poll`] produced.
#[derive(Debug)]
pub enum WatchOutcome {
    /// Not due yet (still inside the poll interval or failure backoff).
    Pending,
    /// Polled; nothing new (mtime unchanged, or same checksum reloaded).
    Unchanged,
    /// A fully loaded, validated replacement with a new checksum. The
    /// caller decides whether to install it (`ServePool::try_swap`).
    Loaded(Box<AnyArtifact>),
    /// The replacement failed to load or validate; the caller must keep
    /// the current generation and emit `swap_failed`.
    Failed {
        /// Why the load failed.
        error: ServeError,
        /// Consecutive failures on this path so far.
        failures: u32,
        /// Backoff now in effect before the next attempt, ms.
        backoff_ms: u64,
    },
}

/// Polls one artifact path for replacements, with exponential capped
/// backoff after failed loads. Time is injected (`poll(now)`) so tests can
/// drive the schedule without sleeping; the first poll is always due and
/// always re-reads the file, closing the load-then-watch race where the
/// artifact changes between the serve loop's initial load and its first
/// mtime sample.
pub struct ArtifactWatcher {
    path: PathBuf,
    /// Healthy poll interval (and the backoff floor).
    poll_every: Duration,
    /// Backoff ceiling after repeated failures.
    max_backoff: Duration,
    /// Current delay until the next poll (== `poll_every` while healthy).
    backoff: Duration,
    next_poll: Option<Instant>,
    last_mtime: Option<SystemTime>,
    /// Checksum of the artifact currently live; replacements that hash the
    /// same are reported [`WatchOutcome::Unchanged`] (no-op swap guard).
    last_checksum: u64,
    failures: u32,
}

impl ArtifactWatcher {
    /// Default healthy poll interval.
    pub const DEFAULT_POLL: Duration = Duration::from_millis(200);
    /// Default failure-backoff ceiling.
    pub const DEFAULT_MAX_BACKOFF: Duration = Duration::from_secs(5);

    /// Watch `path`, treating `current_checksum` as the live generation.
    pub fn new(path: impl Into<PathBuf>, current_checksum: u64) -> Self {
        Self::with_intervals(
            path,
            current_checksum,
            Self::DEFAULT_POLL,
            Self::DEFAULT_MAX_BACKOFF,
        )
    }

    /// [`ArtifactWatcher::new`] with explicit poll/backoff intervals.
    pub fn with_intervals(
        path: impl Into<PathBuf>,
        current_checksum: u64,
        poll_every: Duration,
        max_backoff: Duration,
    ) -> Self {
        let poll_every = poll_every.max(Duration::from_millis(1));
        Self {
            path: path.into(),
            poll_every,
            max_backoff: max_backoff.max(poll_every),
            backoff: poll_every,
            next_poll: None,
            last_mtime: None,
            last_checksum: current_checksum,
            failures: 0,
        }
    }

    /// When the next poll is due (`now` on a fresh watcher).
    pub fn next_poll(&self) -> Option<Instant> {
        self.next_poll
    }

    /// Consecutive failures on the watched path.
    pub fn failures(&self) -> u32 {
        self.failures
    }

    /// Tell the watcher `checksum` is now live (after a successful
    /// `try_swap`), so reverting the file to the previous content is seen
    /// as a change again.
    pub fn installed(&mut self, checksum: u64) {
        self.last_checksum = checksum;
    }

    /// Poll once at `now`. Cheap (one `metadata` call) unless the mtime
    /// moved, in which case the artifact is fully loaded and validated.
    pub fn poll(&mut self, now: Instant) -> WatchOutcome {
        if let Some(due) = self.next_poll {
            if now < due {
                return WatchOutcome::Pending;
            }
        }
        let mtime = std::fs::metadata(&self.path)
            .and_then(|m| m.modified())
            .ok();
        // An unchanged mtime after a *failed* load still retries: the
        // failure path never records the mtime it failed on.
        if mtime.is_some() && mtime == self.last_mtime {
            self.next_poll = Some(now + self.poll_every);
            return WatchOutcome::Unchanged;
        }
        match checked_load(&self.path) {
            Ok(artifact) => {
                self.last_mtime = mtime;
                self.failures = 0;
                self.backoff = self.poll_every;
                self.next_poll = Some(now + self.poll_every);
                if artifact.checksum() == self.last_checksum {
                    WatchOutcome::Unchanged
                } else {
                    WatchOutcome::Loaded(Box::new(artifact))
                }
            }
            Err(error) => {
                self.failures += 1;
                self.backoff = (self.backoff * 2).min(self.max_backoff);
                self.next_poll = Some(now + self.backoff);
                WatchOutcome::Failed {
                    error,
                    failures: self.failures,
                    backoff_ms: self.backoff.as_millis() as u64,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{write_artifact_as, ArtifactFormat, ArtifactMeta};
    use crate::testutil::FAULT_LOCK;
    use rdd_tensor::Matrix;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rdd_swap_unit_{}_{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Write a tiny valid artifact; `tag` perturbs the rows so different
    /// tags produce different checksums.
    fn write_tiny(path: &Path, tag: u32) -> u64 {
        let meta = ArtifactMeta {
            dataset_name: "unit".into(),
            dataset_n: 2,
            num_classes: 2,
            source: "unit-test".into(),
            members: 1,
            alphas: vec![1.0],
            alpha_total: 1.0,
        };
        let t = tag as f32 * 0.05;
        let proba = Matrix::from_vec(2, 2, vec![0.6 + t, 0.4 - t, 0.3, 0.7]);
        write_artifact_as(path, &meta, &proba, ArtifactFormat::V1).unwrap()
    }

    #[test]
    fn watcher_loads_replacements_and_dedups_by_checksum() {
        let dir = tmpdir("watch_ok");
        let path = dir.join("m.artifact");
        let c1 = write_tiny(&path, 0);
        let mut w = ArtifactWatcher::with_intervals(
            &path,
            c1,
            Duration::from_millis(5),
            Duration::from_millis(40),
        );
        let t0 = Instant::now();
        // The first poll is always due and always re-reads; same bytes =
        // no-op swap.
        assert!(matches!(w.poll(t0), WatchOutcome::Unchanged));
        assert!(matches!(w.poll(t0), WatchOutcome::Pending));
        std::thread::sleep(Duration::from_millis(10)); // distinct mtime
        let c2 = write_tiny(&path, 3);
        assert_ne!(c1, c2);
        match w.poll(t0 + Duration::from_millis(6)) {
            WatchOutcome::Loaded(a) => assert_eq!(a.checksum(), c2),
            _ => panic!("replacement content must load"),
        }
        w.installed(c2);
        // mtime unchanged after install: cheap no-op polls.
        assert!(matches!(
            w.poll(t0 + Duration::from_millis(12)),
            WatchOutcome::Unchanged
        ));
        assert_eq!(w.failures(), 0);
    }

    #[test]
    fn failed_loads_back_off_exponentially_and_recover() {
        let dir = tmpdir("watch_fail");
        let path = dir.join("missing.artifact");
        let mut w = ArtifactWatcher::with_intervals(
            &path,
            0,
            Duration::from_millis(10),
            Duration::from_millis(40),
        );
        let t0 = Instant::now();
        match w.poll(t0) {
            WatchOutcome::Failed {
                failures,
                backoff_ms,
                ..
            } => assert_eq!((failures, backoff_ms), (1, 20)),
            _ => panic!("missing file must fail the first poll"),
        }
        // The backoff gates the next attempt.
        assert!(matches!(
            w.poll(t0 + Duration::from_millis(19)),
            WatchOutcome::Pending
        ));
        match w.poll(t0 + Duration::from_millis(20)) {
            WatchOutcome::Failed {
                failures,
                backoff_ms,
                ..
            } => assert_eq!((failures, backoff_ms), (2, 40), "backoff doubles"),
            _ => panic!("still missing"),
        }
        match w.poll(t0 + Duration::from_millis(60)) {
            WatchOutcome::Failed {
                failures,
                backoff_ms,
                ..
            } => assert_eq!((failures, backoff_ms), (3, 40), "backoff is capped"),
            _ => panic!("still missing"),
        }
        // Recovery: the failure path never records an mtime, so the next
        // due poll re-reads and loads the now-present file.
        let c = write_tiny(&path, 1);
        match w.poll(t0 + Duration::from_millis(100)) {
            WatchOutcome::Loaded(a) => assert_eq!(a.checksum(), c),
            _ => panic!("appearing file must load"),
        }
        assert_eq!(w.failures(), 0, "success resets the failure streak");
    }

    #[test]
    fn injected_io_fail_fails_one_load_then_recovers() {
        let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = tmpdir("watch_inject");
        let path = dir.join("m.artifact");
        let c1 = write_tiny(&path, 0);
        rdd_obs::fault::arm("io_fail@swap_load:0").unwrap();
        let err = checked_load(&path).unwrap_err();
        assert!(
            err.to_string().contains("injected I/O failure"),
            "unexpected error: {err}"
        );
        // The spec fired its single pass; the next load succeeds.
        let ok = checked_load(&path).unwrap();
        assert_eq!(ok.checksum(), c1);
        rdd_obs::fault::disarm();
    }

    #[test]
    fn starts_at_epoch_zero_and_increments_per_swap() {
        let cell = SwapCell::new(Arc::new(10u32));
        assert_eq!(cell.epoch(), 0);
        let (v, e) = cell.load();
        assert_eq!((*v, e), (10, 0));
        assert_eq!(cell.swap(Arc::new(20)), 1);
        assert_eq!(cell.swap(Arc::new(30)), 2);
        let (v, e) = cell.load();
        assert_eq!((*v, e), (30, 2));
    }

    #[test]
    fn load_if_newer_is_none_until_a_swap() {
        let cell = SwapCell::new(Arc::new("a"));
        let (_, seen) = cell.load();
        assert!(cell.load_if_newer(seen).is_none());
        cell.swap(Arc::new("b"));
        let (v, e) = cell.load_if_newer(seen).expect("swap must be visible");
        assert_eq!((*v, e), ("b", 1));
        assert!(cell.load_if_newer(e).is_none());
    }

    #[test]
    fn pinned_arc_outlives_a_swap() {
        let cell = SwapCell::new(Arc::new(vec![1, 2, 3]));
        let (pinned, gen0) = cell.load();
        cell.swap(Arc::new(vec![9]));
        // The old generation stays alive and unchanged for its holder.
        assert_eq!(*pinned, vec![1, 2, 3]);
        assert_eq!(gen0, 0);
        drop(pinned); // last reference to generation 0 frees it here
    }

    #[test]
    fn concurrent_swappers_and_readers_see_consistent_pairs() {
        // Each generation's value equals its epoch, so any (value, epoch)
        // pair a reader observes must match — a torn read would not.
        let cell = Arc::new(SwapCell::new(Arc::new(0u64)));
        let swapper = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                for i in 1..=500u64 {
                    let e = cell.swap(Arc::new(i));
                    assert_eq!(e, i);
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    let mut seen = u64::MAX; // force a first load
                    let mut last = 0u64;
                    for _ in 0..2000 {
                        if let Some((v, e)) = cell.load_if_newer(seen) {
                            assert_eq!(*v, e, "value and epoch published together");
                            assert!(e >= last, "epochs are monotonic");
                            last = e;
                            seen = e;
                        }
                    }
                })
            })
            .collect();
        swapper.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(cell.epoch(), 500);
    }
}
