//! Fault plans: crashes, stragglers and message suppression.
//!
//! The paper evaluates three fault scenarios:
//!
//! * **Stragglers** (§VII-B): one instance runs 10× slower than the others.
//!   We model this by slowing down the replica that leads the straggling
//!   instance — its message processing, serialization and propagation are all
//!   multiplied by the slowdown factor.
//! * **Detectable faults** (§VII-E): replicas crash at a given time; the view
//!   change mechanism detects them and replaces them as leaders.
//! * **Undetectable faults** (§VII-E): Byzantine replicas keep proposing in
//!   the instance they lead (so no timeout fires) but stop participating in
//!   other instances. The *behavioural* part lives in `orthrus-core`; the
//!   fault plan records which replicas are flagged so that test assertions
//!   and the harness can find them.

use orthrus_types::{OrthrusError, ReplicaId, SimTime};

/// A straggler: a replica whose processing and links are `factor`× slower.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerSpec {
    /// The slow replica.
    pub replica: ReplicaId,
    /// Slowdown factor (the paper uses 10.0).
    pub factor: f64,
}

/// A crash fault: the replica stops sending and receiving at `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSpec {
    /// The crashing replica.
    pub replica: ReplicaId,
    /// Virtual time of the crash.
    pub at: SimTime,
}

/// A crash-recover fault: the replica is silent during `[crash_at,
/// recover_at)` and restarts at `recover_at` with empty volatile state. The
/// engine fires the actor's `on_recover` hook at the restart instant; a
/// replica then rejoins by fetching a state transfer from its peers (the
/// checkpoint subsystem's recovery path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashRecoverSpec {
    /// The replica that crashes and later restarts.
    pub replica: ReplicaId,
    /// Virtual time of the crash.
    pub crash_at: SimTime,
    /// Virtual time of the restart (exclusive end of the silent window).
    pub recover_at: SimTime,
}

/// The complete fault plan for one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Replicas that crash permanently (detectable faults).
    pub crashes: Vec<CrashSpec>,
    /// Replicas that crash and later restart (crash-recovery with state
    /// transfer).
    pub crash_recoveries: Vec<CrashRecoverSpec>,
    /// Straggler replicas and their slowdown factors.
    pub stragglers: Vec<StragglerSpec>,
    /// Replicas flagged as "selfish" Byzantine nodes: they keep leading their
    /// own instance but ignore every other instance (undetectable faults).
    pub selfish: Vec<ReplicaId>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan with a single 10× straggler, as in the paper's straggler
    /// experiments (the straggler is the leader of instance 0, i.e. replica
    /// 0, unless stated otherwise).
    pub fn one_straggler(replica: ReplicaId) -> Self {
        Self {
            stragglers: vec![StragglerSpec {
                replica,
                factor: 10.0,
            }],
            ..Self::default()
        }
    }

    /// Add a crash fault.
    pub fn with_crash(mut self, replica: ReplicaId, at: SimTime) -> Self {
        self.crashes.push(CrashSpec { replica, at });
        self
    }

    /// Add a crash-recover fault: `replica` is silent during `[crash_at,
    /// recover_at)` and restarts afterwards.
    pub fn with_crash_recover(
        mut self,
        replica: ReplicaId,
        crash_at: SimTime,
        recover_at: SimTime,
    ) -> Self {
        self.crash_recoveries.push(CrashRecoverSpec {
            replica,
            crash_at,
            recover_at,
        });
        self
    }

    /// Add a straggler.
    pub fn with_straggler(mut self, replica: ReplicaId, factor: f64) -> Self {
        self.stragglers.push(StragglerSpec { replica, factor });
        self
    }

    /// Flag a replica as a selfish (undetectable) Byzantine node.
    pub fn with_selfish(mut self, replica: ReplicaId) -> Self {
        self.selfish.push(replica);
        self
    }

    /// Is `replica` crashed at time `now`? Permanent crashes hold from their
    /// crash time onwards; crash-recover faults hold only inside their
    /// `[crash_at, recover_at)` window.
    pub fn is_crashed(&self, replica: ReplicaId, now: SimTime) -> bool {
        self.crashes
            .iter()
            .any(|c| c.replica == replica && now >= c.at)
            || self
                .crash_recoveries
                .iter()
                .any(|c| c.replica == replica && now >= c.crash_at && now < c.recover_at)
    }

    /// The crash-recover spec of `replica`, if it has one.
    pub fn recovery_of(&self, replica: ReplicaId) -> Option<&CrashRecoverSpec> {
        self.crash_recoveries.iter().find(|c| c.replica == replica)
    }

    /// The slowdown factor of `replica` (1.0 if it is not a straggler).
    pub fn slowdown(&self, replica: ReplicaId) -> f64 {
        self.stragglers
            .iter()
            .filter(|s| s.replica == replica)
            .map(|s| s.factor)
            .fold(1.0, f64::max)
    }

    /// Is `replica` flagged as a selfish Byzantine node?
    pub fn is_selfish(&self, replica: ReplicaId) -> bool {
        self.selfish.contains(&replica)
    }

    /// Check the plan against a deployment of `num_replicas` replicas: every
    /// named replica must exist and every straggler factor must be a positive
    /// finite slowdown. The scenario driver calls this before building a
    /// simulation, so a bad plan surfaces as a descriptive
    /// [`OrthrusError::Config`] instead of silently misbehaving mid-run.
    pub fn validate(&self, num_replicas: u32) -> Result<(), OrthrusError> {
        let check_replica = |replica: ReplicaId, role: &str| {
            if replica.value() >= num_replicas {
                return Err(OrthrusError::Config(format!(
                    "fault plan names {role} replica {replica} but the deployment has only \
                     {num_replicas} replicas (valid ids: 0..{num_replicas})"
                )));
            }
            Ok(())
        };
        for crash in &self.crashes {
            check_replica(crash.replica, "crashed")?;
        }
        let mut seen_recoveries: Vec<ReplicaId> = Vec::new();
        for recovery in &self.crash_recoveries {
            check_replica(recovery.replica, "crash-recovering")?;
            if recovery.recover_at <= recovery.crash_at {
                return Err(OrthrusError::Config(format!(
                    "crash-recover fault for replica {} must recover strictly after it \
                     crashes (crash at {}, recover at {})",
                    recovery.replica, recovery.crash_at, recovery.recover_at
                )));
            }
            if self.crashes.iter().any(|c| c.replica == recovery.replica) {
                return Err(OrthrusError::Config(format!(
                    "replica {} is named both as a permanent crash and a crash-recover \
                     fault; pick one",
                    recovery.replica
                )));
            }
            if seen_recoveries.contains(&recovery.replica) {
                return Err(OrthrusError::Config(format!(
                    "replica {} has more than one crash-recover window; only one is \
                     supported per run",
                    recovery.replica
                )));
            }
            seen_recoveries.push(recovery.replica);
        }
        for straggler in &self.stragglers {
            check_replica(straggler.replica, "straggler")?;
            if !straggler.factor.is_finite() || straggler.factor <= 0.0 {
                return Err(OrthrusError::Config(format!(
                    "straggler factor for replica {} must be a positive finite slowdown, got {}",
                    straggler.replica, straggler.factor
                )));
            }
        }
        for &selfish in &self.selfish {
            check_replica(selfish, "selfish")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(id: u32) -> ReplicaId {
        ReplicaId::new(id)
    }

    #[test]
    fn empty_plan_has_no_effects() {
        let plan = FaultPlan::none();
        assert!(!plan.is_crashed(r(0), SimTime::from_secs(100)));
        assert_eq!(plan.slowdown(r(0)), 1.0);
        assert!(!plan.is_selfish(r(0)));
    }

    #[test]
    fn crash_takes_effect_at_its_time() {
        let plan = FaultPlan::none().with_crash(r(2), SimTime::from_secs(9));
        assert!(!plan.is_crashed(r(2), SimTime::from_secs(8)));
        assert!(plan.is_crashed(r(2), SimTime::from_secs(9)));
        assert!(plan.is_crashed(r(2), SimTime::from_secs(30)));
        assert!(!plan.is_crashed(r(3), SimTime::from_secs(30)));
    }

    #[test]
    fn straggler_slowdown_defaults_to_paper_factor() {
        let plan = FaultPlan::one_straggler(r(0));
        assert_eq!(plan.slowdown(r(0)), 10.0);
        assert_eq!(plan.slowdown(r(1)), 1.0);
    }

    #[test]
    fn multiple_straggler_entries_take_the_worst() {
        let plan = FaultPlan::none()
            .with_straggler(r(1), 2.0)
            .with_straggler(r(1), 5.0);
        assert_eq!(plan.slowdown(r(1)), 5.0);
    }

    #[test]
    fn selfish_flags() {
        let plan = FaultPlan::none().with_selfish(r(4)).with_selfish(r(5));
        assert!(plan.is_selfish(r(4)));
        assert!(!plan.is_selfish(r(0)));
    }

    #[test]
    fn validate_accepts_in_range_plans() {
        let plan = FaultPlan::none()
            .with_crash(r(1), SimTime::from_secs(9))
            .with_straggler(r(0), 10.0)
            .with_selfish(r(3));
        assert!(plan.validate(4).is_ok());
    }

    #[test]
    fn validate_rejects_out_of_range_replicas() {
        for plan in [
            FaultPlan::none().with_crash(r(4), SimTime::ZERO),
            FaultPlan::none().with_straggler(r(7), 10.0),
            FaultPlan::none().with_selfish(r(4)),
        ] {
            let err = plan.validate(4).unwrap_err();
            assert!(err.to_string().contains("replica"), "{err}");
        }
    }

    #[test]
    fn validate_rejects_non_positive_straggler_factors() {
        for factor in [0.0, -2.0, f64::NAN, f64::INFINITY] {
            let plan = FaultPlan::none().with_straggler(r(0), factor);
            assert!(plan.validate(4).is_err(), "factor {factor} accepted");
        }
    }

    #[test]
    fn crash_recover_window_is_half_open() {
        let plan = FaultPlan::none().with_crash_recover(
            r(2),
            SimTime::from_secs(5),
            SimTime::from_secs(9),
        );
        assert!(!plan.is_crashed(r(2), SimTime::from_secs(4)));
        assert!(plan.is_crashed(r(2), SimTime::from_secs(5)));
        assert!(plan.is_crashed(r(2), SimTime::from_millis(8_999)));
        assert!(!plan.is_crashed(r(2), SimTime::from_secs(9)));
        assert!(!plan.is_crashed(r(2), SimTime::from_secs(100)));
        assert_eq!(
            plan.recovery_of(r(2)).unwrap().recover_at,
            SimTime::from_secs(9)
        );
        assert!(plan.recovery_of(r(1)).is_none());
        assert!(plan.validate(4).is_ok());
    }

    #[test]
    fn crash_recover_validation_rejects_bad_windows() {
        // Recovery must come after the crash.
        let backwards = FaultPlan::none().with_crash_recover(
            r(1),
            SimTime::from_secs(9),
            SimTime::from_secs(9),
        );
        assert!(backwards.validate(4).is_err());
        // Out-of-range replica.
        let ghost = FaultPlan::none().with_crash_recover(
            r(7),
            SimTime::from_secs(1),
            SimTime::from_secs(2),
        );
        assert!(ghost.validate(4).is_err());
        // A replica cannot be both a permanent crash and a recovering one.
        let both = FaultPlan::none()
            .with_crash(r(1), SimTime::from_secs(1))
            .with_crash_recover(r(1), SimTime::from_secs(2), SimTime::from_secs(3));
        assert!(both.validate(4).is_err());
        // One recovery window per replica.
        let twice = FaultPlan::none()
            .with_crash_recover(r(1), SimTime::from_secs(1), SimTime::from_secs(2))
            .with_crash_recover(r(1), SimTime::from_secs(4), SimTime::from_secs(5));
        assert!(twice.validate(4).is_err());
    }
}
