//! The one sanctioned wall-clock doorway for profiling instrumentation.
//!
//! The simulator runs on logical time; real (wall) time must never influence
//! behavior, only *observability* — phase timings reported alongside a
//! run's statistics. Every such site goes through
//! [`ProfTimer`] so the static analyzer's `wall-clock` rule has exactly one
//! suppression in the whole deterministic workspace (this file), and a
//! grep for `Instant::now` outside `crates/bench` lands here.
//!
//! A disabled timer ([`ProfTimer::maybe`] with `false`, or
//! [`ProfTimer::off`]) never reads the clock at all, so profiling is
//! genuinely zero-cost when off.

/// An optional wall-clock stopwatch for profiling-only measurements.
///
/// The reading is reported in statistics, never fed back into scheduling or
/// state: nothing deterministic may depend on it.
#[derive(Debug, Clone, Copy)]
pub struct ProfTimer(Option<std::time::Instant>);

impl ProfTimer {
    /// A running timer, started now.
    #[must_use]
    pub fn started() -> Self {
        // orthrus: allow(wall-clock): the single sanctioned profiling doorway — readings feed stats/reporting only, never control flow or state.
        ProfTimer(Some(std::time::Instant::now()))
    }

    /// A disabled timer: never reads the clock, reports zero.
    #[must_use]
    pub fn off() -> Self {
        ProfTimer(None)
    }

    /// Started when `enabled`, disabled otherwise — the `profile`-flag
    /// pattern.
    #[must_use]
    pub fn maybe(enabled: bool) -> Self {
        if enabled {
            Self::started()
        } else {
            Self::off()
        }
    }

    /// Whether this timer is actually counting.
    #[must_use]
    pub fn active(&self) -> bool {
        self.0.is_some()
    }

    /// Nanoseconds since start, or 0 for a disabled timer (saturating at
    /// `u64::MAX`, ~584 years).
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        self.0
            .map(|t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_timer_reports_zero_and_inactive() {
        let t = ProfTimer::off();
        assert!(!t.active());
        assert_eq!(t.elapsed_ns(), 0);
        assert!(!ProfTimer::maybe(false).active());
    }

    #[test]
    fn started_timer_is_active_and_monotone() {
        let t = ProfTimer::started();
        assert!(t.active());
        assert!(ProfTimer::maybe(true).active());
        let a = t.elapsed_ns();
        let b = t.elapsed_ns();
        assert!(b >= a);
    }
}
