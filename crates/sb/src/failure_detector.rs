//! Failure detection policy for sequenced-broadcast instances.
//!
//! The paper integrates a failure-detection module (view-change mechanism)
//! into the SB protocol (§V-B): replicas suspect a leader that stops making
//! progress, that censors transactions, or that proposes blocks referencing
//! an invalid state, and then vote to replace it.
//!
//! [`ProgressTracker`] implements the *timing* half of that policy on the
//! hosting replica: it remembers, per instance, when progress was last
//! observed and when a suspicion timer should next fire. The protocol half
//! (what counts as progress, censorship detection) lives with the hosting
//! replica, which calls [`ProgressTracker::record_progress`] whenever an
//! instance delivers a block or completes a view change, and
//! [`ProgressTracker::record_expectation`] whenever it knows the instance
//! *should* make progress (e.g. its bucket is non-empty).

use orthrus_types::{Duration, FxHashMap, InstanceId, SimTime};

/// Per-instance progress bookkeeping used to drive view-change timeouts.
#[derive(Debug, Clone)]
pub struct ProgressTracker {
    timeout: Duration,
    entries: FxHashMap<InstanceId, Entry>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    /// Last time the instance delivered a block or finished a view change.
    last_progress: SimTime,
    /// Whether the hosting replica currently expects the instance to make
    /// progress (it has pending transactions or in-flight proposals).
    expecting: bool,
    /// Time at which the expectation started (suspicion is measured from the
    /// later of this and `last_progress`).
    expecting_since: SimTime,
}

impl ProgressTracker {
    /// Create a tracker with the given suspicion timeout (the paper's
    /// evaluation uses a 10 s PBFT view-change timeout).
    pub fn new(timeout: Duration) -> Self {
        Self {
            timeout,
            entries: FxHashMap::default(),
        }
    }

    /// The configured suspicion timeout.
    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    /// Record that `instance` made progress at `now` (delivered a block or
    /// completed a view change). Clears any running suspicion.
    pub fn record_progress(&mut self, instance: InstanceId, now: SimTime) {
        let entry = self.entries.entry(instance).or_default();
        entry.last_progress = now;
        entry.expecting_since = now;
    }

    /// Record that the hosting replica expects `instance` to make progress
    /// (its bucket holds transactions, or a proposal is in flight).
    pub fn record_expectation(&mut self, instance: InstanceId, now: SimTime) {
        let entry = self.entries.entry(instance).or_default();
        if !entry.expecting {
            entry.expecting = true;
            entry.expecting_since = now;
        }
    }

    /// Clear the expectation for `instance` (its bucket drained).
    pub fn clear_expectation(&mut self, instance: InstanceId) {
        if let Some(entry) = self.entries.get_mut(&instance) {
            entry.expecting = false;
        }
    }

    /// Should the hosting replica suspect the leader of `instance` at `now`?
    ///
    /// True when progress has been expected for longer than the timeout with
    /// nothing delivered in the meantime.
    pub fn should_suspect(&self, instance: InstanceId, now: SimTime) -> bool {
        let Some(entry) = self.entries.get(&instance) else {
            return false;
        };
        if !entry.expecting {
            return false;
        }
        let reference = entry.last_progress.max(entry.expecting_since);
        now.saturating_since(reference) >= self.timeout
    }

    /// Earliest future time at which [`Self::should_suspect`] could become
    /// true for `instance`, or `None` when no suspicion is pending. The host
    /// uses this to arm its timer.
    pub fn next_deadline(&self, instance: InstanceId) -> Option<SimTime> {
        let entry = self.entries.get(&instance)?;
        if !entry.expecting {
            return None;
        }
        let reference = entry.last_progress.max(entry.expecting_since);
        Some(reference + self.timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn no_expectation_means_no_suspicion() {
        let tracker = ProgressTracker::new(Duration::from_secs(10));
        assert!(!tracker.should_suspect(InstanceId::new(0), at(100)));
        assert_eq!(tracker.next_deadline(InstanceId::new(0)), None);
    }

    #[test]
    fn suspicion_fires_after_timeout() {
        let mut tracker = ProgressTracker::new(Duration::from_secs(10));
        let i = InstanceId::new(0);
        tracker.record_expectation(i, at(5));
        assert!(!tracker.should_suspect(i, at(14)));
        assert!(tracker.should_suspect(i, at(15)));
        assert_eq!(tracker.next_deadline(i), Some(at(15)));
    }

    #[test]
    fn progress_resets_the_clock() {
        let mut tracker = ProgressTracker::new(Duration::from_secs(10));
        let i = InstanceId::new(0);
        tracker.record_expectation(i, at(0));
        tracker.record_progress(i, at(9));
        assert!(!tracker.should_suspect(i, at(15)));
        assert!(tracker.should_suspect(i, at(19)));
    }

    #[test]
    fn clearing_the_expectation_stops_suspicion() {
        let mut tracker = ProgressTracker::new(Duration::from_secs(10));
        let i = InstanceId::new(0);
        tracker.record_expectation(i, at(0));
        tracker.clear_expectation(i);
        assert!(!tracker.should_suspect(i, at(100)));
        assert_eq!(tracker.next_deadline(i), None);
    }

    #[test]
    fn repeated_expectations_do_not_extend_the_deadline() {
        let mut tracker = ProgressTracker::new(Duration::from_secs(10));
        let i = InstanceId::new(0);
        tracker.record_expectation(i, at(0));
        tracker.record_expectation(i, at(8));
        // The deadline is still measured from the first expectation.
        assert!(tracker.should_suspect(i, at(10)));
    }

    #[test]
    fn instances_are_independent() {
        let mut tracker = ProgressTracker::new(Duration::from_secs(10));
        tracker.record_expectation(InstanceId::new(0), at(0));
        tracker.record_expectation(InstanceId::new(1), at(9));
        assert!(tracker.should_suspect(InstanceId::new(0), at(12)));
        assert!(!tracker.should_suspect(InstanceId::new(1), at(12)));
    }
}
