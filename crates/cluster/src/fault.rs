//! Correlated fault scenarios: the cluster-level fault vocabulary.
//!
//! A [`FaultScript`] is a small declarative DSL — a list of
//! ([`FaultKind`], onset, duration) windows — that the experiment engine
//! schedules onto its event queue as one inject and one repair event per
//! window, in script order. The event kernel is FIFO at equal instants, so
//! transitions due at the same time fire in script order too: a repair
//! listed before a coinciding onset releases its hosts first, one listed
//! after does not. Victim selection inside a window (which host in a
//! region crashes, which hosts a drain storm targets) is drawn from the
//! experiment's dedicated fault stream (`Stream::Fault`), so the same script
//! under the same seed replays bit-identically and never perturbs the
//! population or workload streams.
//!
//! The kinds cover the correlated failures §II-B says a placement layer
//! must survive: single-host crashes, whole-rack and whole-region outages
//! (many hosts lost in one shot), inter-region network partitions (the
//! proxy's region-failover path, §IV-D), drain storms (many concurrent
//! maintenance requests hitting the §IV-G safety checks at once) and
//! coordination-replica crashes that leave application hosts up.

use scalewall_sim::{SimDuration, SimTime};

/// One correlated fault, parameterised by failure domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A single host in `region` crashes (victim picked from the fault
    /// stream at injection time) and is restored at repair.
    HostCrash { region: u32 },
    /// Every live host in one rack of `region` crashes at once.
    RackOutage { region: u32, rack: u32 },
    /// The whole region is marked unavailable: the proxy stops routing to
    /// it (§IV-D failover), queries fail over to surviving regions.
    RegionOutage { region: u32 },
    /// The link between regions `a` and `b` is cut both ways; clients in
    /// either side must fail over around the partition.
    RegionPartition { a: u32, b: u32 },
    /// `drains` concurrent single-host maintenance requests land on the
    /// automation engine at once, stressing the drain safety checks.
    DrainStorm { region: u32, drains: u32 },
    /// Every coordination-plane replica homed in `region` crashes (the
    /// coordinator's rack dies) and is restored at repair. Application
    /// hosts are untouched: this isolates coordination loss from
    /// capacity loss. No-op without replication
    /// (`SmConfig::replication`): that plane's one replica has no home.
    ZkNodeCrash { region: u32 },
}

/// One fault window: `kind` is active during `[onset, onset + duration)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultWindow {
    pub kind: FaultKind,
    pub onset: SimTime,
    pub duration: SimDuration,
}

impl FaultWindow {
    /// The instant the fault is repaired.
    pub fn repair_at(&self) -> SimTime {
        self.onset + self.duration
    }
}

/// A replayable fault scenario: an ordered list of fault windows.
///
/// Built with the fluent [`FaultScript::with`] so scenario tests read as a
/// script:
///
/// ```
/// use scalewall_cluster::fault::{FaultKind, FaultScript};
/// use scalewall_sim::{SimDuration, SimTime};
///
/// let script = FaultScript::new()
///     .with(
///         FaultKind::RackOutage { region: 0, rack: 1 },
///         SimTime::from_secs(3_600),
///         SimDuration::from_hours(2),
///     )
///     .with(
///         FaultKind::RegionPartition { a: 0, b: 1 },
///         SimTime::from_secs(7_200),
///         SimDuration::from_mins(30),
///     );
/// assert_eq!(script.windows().len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultScript {
    windows: Vec<FaultWindow>,
}

impl FaultScript {
    /// The empty script: a healthy run.
    pub fn new() -> Self {
        FaultScript::default()
    }

    /// Append a fault window; returns `self` for chaining.
    pub fn with(mut self, kind: FaultKind, onset: SimTime, duration: SimDuration) -> Self {
        self.windows.push(FaultWindow {
            kind,
            onset,
            duration,
        });
        self
    }

    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// Fraction of `[0, horizon)` covered by at least one fault window
    /// (interval union, windows clipped to the horizon).
    ///
    /// Scenario tests use this for an analytic success-ratio floor: even
    /// if *every* query issued while any fault is active failed, the
    /// success ratio could not drop below `1 - disrupted_fraction`.
    pub fn disrupted_fraction(&self, horizon: SimDuration) -> f64 {
        let end = (SimTime::ZERO + horizon).as_nanos();
        if end == 0 || self.windows.is_empty() {
            return 0.0;
        }
        let mut spans: Vec<(u64, u64)> = self
            .windows
            .iter()
            .map(|w| (w.onset.as_nanos(), w.repair_at().as_nanos().min(end)))
            .filter(|(lo, hi)| lo < hi)
            .collect();
        spans.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = 0u64;
        for (lo, hi) in spans {
            let lo = lo.max(cursor);
            if hi > lo {
                covered += hi - lo;
                cursor = hi;
            }
        }
        covered as f64 / end as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn builder_preserves_script_order() {
        let script = FaultScript::new()
            .with(
                FaultKind::RegionOutage { region: 1 },
                t(200),
                SimDuration::from_secs(50),
            )
            .with(
                FaultKind::HostCrash { region: 0 },
                t(100),
                SimDuration::from_secs(10),
            );
        // Windows keep insertion order (indices are stable identities).
        assert_eq!(
            script.windows()[0].kind,
            FaultKind::RegionOutage { region: 1 }
        );
        assert_eq!(script.windows()[0].repair_at(), t(250));
        assert_eq!(script.windows()[1].repair_at(), t(110));
    }

    #[test]
    fn disrupted_fraction_unions_overlaps() {
        let horizon = SimDuration::from_secs(1_000);
        // Two overlapping windows [100, 400) and [300, 600) → 500s union.
        let script = FaultScript::new()
            .with(
                FaultKind::RackOutage { region: 0, rack: 0 },
                t(100),
                SimDuration::from_secs(300),
            )
            .with(
                FaultKind::RegionPartition { a: 0, b: 2 },
                t(300),
                SimDuration::from_secs(300),
            );
        let f = script.disrupted_fraction(horizon);
        assert!((f - 0.5).abs() < 1e-12, "union is 500/1000, got {f}");
    }

    #[test]
    fn disrupted_fraction_clips_to_horizon() {
        let script = FaultScript::new().with(
            FaultKind::RegionOutage { region: 0 },
            t(900),
            SimDuration::from_secs(10_000),
        );
        let f = script.disrupted_fraction(SimDuration::from_secs(1_000));
        assert!((f - 0.1).abs() < 1e-12, "clipped to [900, 1000), got {f}");
        assert_eq!(
            FaultScript::new().disrupted_fraction(SimDuration::from_secs(10)),
            0.0
        );
    }
}
