//! Query-coordinator logic (§IV-C).
//!
//! "A query coordinator is required to run on a host that stores one
//! partition of the target table"; it parses and distributes the query
//! and merges partial results. The distribution itself (network, fan-out)
//! is driven by the cluster layer; this module holds the pure pieces: the
//! fan-out plan, and the two checks in front of the one merge — flat
//! partials in, one k-way pass in plan order, rows made once at the end.

use crate::error::{CubrickError, CubrickResult};
use crate::query::result::{Coverage, PartialResult, QueryOutput};

/// The set of partitions a query must visit: all of them — partial
/// sharding bounds this by the *table's* partition count, not the
/// cluster size, which is the entire point of the paper. A count, since
/// "all of them" is `0..count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FanoutPlan {
    partition_count: u32,
}

impl FanoutPlan {
    /// The plan does not depend on which table it is for; the name stays
    /// in the signature for the callers that pass it.
    pub fn for_table(_table: &str, partition_count: u32) -> Self {
        FanoutPlan { partition_count }
    }

    /// The partitions to visit, in plan order.
    pub fn partitions(&self) -> std::ops::Range<u32> {
        0..self.partition_count
    }

    pub fn fan_out(&self) -> usize {
        self.partition_count as usize
    }
}

/// Merge per-partition partials into the final output.
///
/// Every partition must be represented: Cubrick refuses partial answers
/// rather than trading accuracy for availability ("there are many BI and
/// data analytics workloads where this assumption cannot be made",
/// §II-C). `partials` must therefore have exactly `plan.fan_out()`
/// entries.
pub fn merge_partials(
    plan: &FanoutPlan,
    partials: Vec<PartialResult>,
) -> CubrickResult<QueryOutput> {
    if partials.len() != plan.fan_out() {
        return Err(CubrickError::Internal {
            detail: format!(
                "coordinator received {} partials for fan-out {}",
                partials.len(),
                plan.fan_out()
            ),
        });
    }
    match PartialResult::merge_all(partials)? {
        Some(merged) => Ok(merged.finalize()),
        None => Err(CubrickError::Internal {
            detail: "zero-partition table".into(),
        }),
    }
}

/// Degraded-mode merge (the typed opposite of [`merge_partials`]):
/// combine whatever answered, but *declare* what is missing through the
/// accompanying [`Coverage`] instead of silently returning a smaller
/// number. Invariants checked (typed errors, never panics — clippy's
/// panic family and lint D7 cover this file): `coverage` describes exactly the
/// plan's partitions, `partials.len()` equals `coverage.answered()`, and
/// (the merge's own) every partial carries the same agg list and key kinds.
///
/// Returns `Ok(None)` when nothing answered (zero coverage still lets
/// the caller report a typed outcome rather than fabricate zeros).
pub fn merge_degraded(
    plan: &FanoutPlan,
    partials: Vec<PartialResult>,
    coverage: &Coverage,
) -> CubrickResult<Option<QueryOutput>> {
    if coverage.total() != plan.fan_out() {
        return Err(CubrickError::Internal {
            detail: format!(
                "coverage describes {} shards for fan-out {}",
                coverage.total(),
                plan.fan_out()
            ),
        });
    }
    if partials.len() != coverage.answered() {
        return Err(CubrickError::Internal {
            detail: format!(
                "coordinator received {} partials but coverage says {} answered",
                partials.len(),
                coverage.answered()
            ),
        });
    }
    Ok(PartialResult::merge_all(partials)?.map(PartialResult::finalize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::agg::{AggSpec, AggState};
    use crate::query::result::{GroupVal, ShardState};

    fn partial(count: u64) -> PartialResult {
        let group = (vec![GroupVal::Int(1)], vec![AggState::Count(count)]);
        let mut p =
            PartialResult::from_groups(vec![AggSpec::count_star()], 4, vec![group]).unwrap();
        p.rows_scanned = count;
        p
    }

    #[test]
    fn plan_covers_all_partitions() {
        let plan = FanoutPlan::for_table("t", 8);
        assert_eq!(plan.fan_out(), 8);
        assert_eq!(plan.partitions(), 0..8);
    }

    #[test]
    fn merge_requires_every_partition() {
        let plan = FanoutPlan::for_table("t", 3);
        let out = merge_partials(&plan, vec![partial(1), partial(2), partial(3)]).unwrap();
        assert_eq!(out.rows[0].aggs[0], 6.0);
        assert_eq!(out.rows_scanned, 6);
        // Missing one partial is an error — no silent partial answers.
        let err = merge_partials(&plan, vec![partial(1), partial(2)]).unwrap_err();
        assert!(matches!(err, CubrickError::Internal { .. }));
    }

    #[test]
    fn degraded_merge_declares_missing_shards() {
        let plan = FanoutPlan::for_table("t", 3);
        let mut cov = Coverage::default();
        cov.push(0, ShardState::Answered);
        cov.push(1, ShardState::TimedOut);
        cov.push(2, ShardState::Answered);
        let out = merge_degraded(&plan, vec![partial(1), partial(3)], &cov)
            .unwrap()
            .unwrap();
        assert_eq!(out.rows[0].aggs[0], 4.0, "only the answered partials merge");
        assert_eq!(cov.fraction(), 2.0 / 3.0);
    }

    #[test]
    fn degraded_merge_zero_coverage_is_none_not_zeros() {
        let plan = FanoutPlan::for_table("t", 2);
        let mut cov = Coverage::default();
        cov.push(0, ShardState::Unavailable);
        cov.push(1, ShardState::Blacklisted);
        assert_eq!(merge_degraded(&plan, vec![], &cov).unwrap(), None);
    }

    #[test]
    fn degraded_merge_rejects_inconsistent_coverage() {
        let plan = FanoutPlan::for_table("t", 2);
        // Coverage shorter than the plan.
        let mut short = Coverage::default();
        short.push(0, ShardState::Answered);
        assert!(matches!(
            merge_degraded(&plan, vec![partial(1)], &short),
            Err(CubrickError::Internal { .. })
        ));
        // Partial count disagreeing with coverage.
        let mut cov = Coverage::default();
        cov.push(0, ShardState::Answered);
        cov.push(1, ShardState::Answered);
        assert!(matches!(
            merge_degraded(&plan, vec![partial(1)], &cov),
            Err(CubrickError::Internal { .. })
        ));
    }
}
