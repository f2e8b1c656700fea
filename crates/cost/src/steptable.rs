//! Per-step cost tables: `θ(G, Mᵢ)`, `ℓᵢ` and `mᵢ` for a whole schedule.
//!
//! This is the precomputation shared by every policy: the optimizer, the
//! static baseline and the per-step-BvN baseline all read the same table,
//! and `aps-core` prices each of its steps with eq. (3),
//! [`crate::dct::dct`]. θ values are memoized per matching via
//! [`aps_flow::solver::ThetaCache`] — collectives reuse the same few
//! matchings across steps, message sizes and sweep cells.

use aps_collectives::Schedule;
use aps_flow::solver::ThetaCache;
use aps_flow::FlowError;
use aps_matrix::Matching;
use aps_topology::Topology;

/// Everything the scheduler needs to know about one step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepCosts {
    /// The step's communication pattern (kept for per-port reconfiguration
    /// accounting and for the simulator): a clone of the schedule step's
    /// matching, sharing its buffer rather than copying its ports.
    pub matching: Matching,
    /// Bytes per communicating pair (`mᵢ`).
    pub bytes: f64,
    /// Concurrent flow of the pattern on the *base* topology.
    pub theta_base: f64,
    /// Propagation hop count on the *base* topology (`ℓᵢ`).
    pub ell_base: usize,
}

/// Evaluates `θ` and `ℓ` for every step of `schedule` on `topo`.
///
/// # Errors
///
/// Fails if any step is unroutable on the topology or the cache was built
/// for a different topology.
pub fn step_cost_table(
    topo: &Topology,
    schedule: &Schedule,
    cache: &mut ThetaCache,
) -> Result<Vec<StepCosts>, FlowError> {
    schedule
        .steps()
        .iter()
        .map(|s| {
            let t = cache.get(topo, &s.matching)?;
            Ok(StepCosts {
                matching: s.matching.clone(),
                bytes: s.bytes_per_pair,
                theta_base: t.theta,
                ell_base: t.max_hops,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aps_collectives::allreduce;
    use aps_flow::solver::ThroughputSolver;
    use aps_topology::builders;

    #[test]
    fn ring_allreduce_on_uni_ring_is_congestion_free() {
        let n = 8;
        let topo = builders::ring_unidirectional(n).unwrap();
        let c = allreduce::ring::build(n, 1e6).unwrap();
        let mut cache = ThetaCache::new(&topo, ThroughputSolver::ForcedPath);
        let table = step_cost_table(&topo, &c.schedule, &mut cache).unwrap();
        assert_eq!(table.len(), 2 * (n - 1));
        for s in &table {
            assert_eq!(s.theta_base, 1.0);
            assert_eq!(s.ell_base, 1);
        }
        // All steps share one matching: the cache holds a single entry.
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn halving_doubling_on_uni_ring_suffers_congestion() {
        let n = 8;
        let topo = builders::ring_unidirectional(n).unwrap();
        let c = allreduce::halving_doubling::build(n, 8e6).unwrap();
        let mut cache = ThetaCache::new(&topo, ThroughputSolver::ForcedPath);
        let table = step_cost_table(&topo, &c.schedule, &mut cache).unwrap();
        // First RS step: xor(n/2) exchanges; on a uni ring both directions
        // wrap n/2 hops, load n/2 → θ = 2/n.
        assert!((table[0].theta_base - 2.0 / n as f64).abs() < 1e-12);
        assert_eq!(table[0].ell_base, n / 2);
        // xor masks repeat between the RS and AG phases: 3 distinct
        // matchings for log2(8) = 3 masks.
        assert_eq!(cache.len(), 3);
    }
}
