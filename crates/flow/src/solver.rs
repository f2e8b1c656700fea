//! Unified throughput-solver API and memoization.
//!
//! `aps-cost` and `aps-core` consume `θ(G, Mᵢ)` and `ℓᵢ` through this
//! interface. The same matching frequently recurs across steps, message
//! sizes and sweep cells (e.g. the shift-by-1 of a ring reduce-scatter
//! appears `n-1` times per collective and in every sweep cell), so a
//! [`ThetaCache`] keyed by the matching makes sweeps cheap.
//!
//! A matching hashes as one word, the digest its shared port buffer
//! computes the first time any of its clones is hashed, so a hit costs
//! O(1), not a pass over `4n` bytes of ports; and when the key and the
//! query share that buffer (a schedule's steps, their cost-table rows and
//! the cache's keys are all clones of one matching) the equality check is
//! a pointer comparison. The cache folds that word with a private,
//! deterministic FxHash-style hasher (one multiply-rotate, no random
//! state).

use crate::error::FlowError;
use crate::forced::{circuit_path_throughput, forced_path_throughput};
use crate::gk::{matching_commodities, max_concurrent_flow};
use crate::proxy::degree_proxy_throughput;
use aps_matrix::Matching;
use aps_topology::{Circuits, Topology};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Which algorithm computes `θ(G, M)`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ThroughputSolver {
    /// Deterministic shortest-path routing; exact on forced-routing
    /// topologies (unidirectional rings, matched configurations) and exactly
    /// what the flow-level simulator achieves elsewhere. The default.
    #[default]
    ForcedPath,
    /// Garg–Könemann FPTAS with splittable routing; `θ` is the certified
    /// achievable lower bound.
    GargKonemann {
        /// Accuracy parameter `ε ∈ (0, 0.5)`; the result is within
        /// `(1 − 3ε)` of optimal.
        epsilon: f64,
    },
    /// The cheap degree/path-length upper bound of the paper's research
    /// agenda (§4). Optimistic: `θ̂ ≥ θ`.
    DegreeProxy,
}

/// Throughput figures for one step on one topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepThroughput {
    /// Concurrent flow `θ(G, M)` (solver-dependent semantics: achievable
    /// value for `ForcedPath`/`GargKonemann`, upper bound for `DegreeProxy`).
    pub theta: f64,
    /// Certified upper bound on the optimum (equals `theta` for solvers that
    /// are exact).
    pub theta_upper: f64,
    /// Propagation hop count `ℓ` of the step (eq. (3)).
    pub max_hops: usize,
}

impl StepThroughput {
    /// The figures of a solver that reports `(θ, ℓ)` and no separate upper
    /// bound.
    fn tight((theta, max_hops): (f64, usize)) -> Self {
        Self {
            theta,
            theta_upper: theta,
            max_hops,
        }
    }
}

/// Computes the throughput of one step (matching) on a topology.
///
/// # Errors
///
/// Propagates routing and parameterization errors from the chosen solver.
pub fn step_throughput(
    topo: &Topology,
    matching: &Matching,
    solver: ThroughputSolver,
) -> Result<StepThroughput, FlowError> {
    match solver {
        ThroughputSolver::ForcedPath => {
            forced_path_throughput(topo, matching).map(StepThroughput::tight)
        }
        ThroughputSolver::GargKonemann { epsilon } => {
            let r = max_concurrent_flow(topo, &matching_commodities(matching), epsilon)?;
            Ok(StepThroughput {
                theta: r.lower_bound.min(r.upper_bound),
                theta_upper: r.upper_bound,
                max_hops: if matching.is_empty() { 0 } else { r.max_hops },
            })
        }
        ThroughputSolver::DegreeProxy => {
            degree_proxy_throughput(topo, matching).map(StepThroughput::tight)
        }
    }
}

/// [`step_throughput`] of `matching` on `topo`, priced on `circuits` (the
/// layout of `topo`) when given.
fn price(
    topo: &Topology,
    circuits: Option<&Circuits>,
    matching: &Matching,
    solver: ThroughputSolver,
) -> Result<StepThroughput, FlowError> {
    match circuits {
        Some(circuits) => {
            circuit_path_throughput(topo, circuits, matching).map(StepThroughput::tight)
        }
        None => step_throughput(topo, matching, solver),
    }
}

/// FxHash (the rustc hasher): fold each 8-byte word into the state with a
/// rotate, an xor and one multiply. Deterministic, and one multiply for
/// the digest word a matching hashes as; collisions only cost an equality
/// check, never a wrong answer.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The deterministic hasher of every matching-keyed table in this module.
type FxBuild = BuildHasherDefault<FxHasher>;

/// Hit/miss counters of a [`ThetaCache`] — mergeable across the per-worker
/// caches of a parallel sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the memo table.
    pub hits: u64,
    /// Lookups that had to run the solver.
    pub misses: u64,
    /// Matchings currently memoized (equals `misses` for a cache that was
    /// never queried across topologies; summed over workers it counts each
    /// worker's copy separately).
    pub entries: usize,
}

impl CacheStats {
    /// Accumulates another cache's counters (e.g. a parallel worker's).
    pub fn merge(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.entries += other.entries;
    }

    /// Total lookups served.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Memoizes [`step_throughput`] per `(topology, solver)` over matchings.
///
/// Keys hash as their matching's digest, computed once per port buffer, and
/// fold it with a deterministic FxHash-style hasher: no random state, so a
/// lookup costs one multiply plus the equality check, which is a pointer
/// comparison when the query shares the key's buffer and a port-by-port
/// comparison otherwise. Without random state nothing stops keys crafted
/// to collide: the keys are step matchings of the program's own schedules,
/// not input from outside it.
///
/// A forced-path cache on a circuit topology lays the topology out once,
/// at its first miss ([`Circuits`]), and prices every miss on that layout,
/// as [`forced_path_throughput`] would after laying it out again.
///
/// Cloning a cache clones its memo table, whose keys share their port
/// buffers with the original's: a reference-count bump per entry, not a
/// copy of its ports. That is the cheap way to hand each worker of a
/// parallel sweep a private, pre-warmed copy (see [`ThetaCache::warm`]).
#[derive(Debug, Clone)]
pub struct ThetaCache {
    topology_name: String,
    topology_n: usize,
    topology_digest: u64,
    solver: ThroughputSolver,
    /// The base's layout once a forced-path miss found the base to be a
    /// circuit topology.
    circuits: Option<Circuits>,
    map: HashMap<Matching, StepThroughput, FxBuild>,
    hits: u64,
    misses: u64,
}

impl ThetaCache {
    /// Creates an empty cache bound to `topo` and `solver`.
    pub fn new(topo: &Topology, solver: ThroughputSolver) -> Self {
        Self {
            topology_name: topo.name().to_string(),
            topology_n: topo.n(),
            topology_digest: topo.digest(),
            solver,
            circuits: None,
            map: HashMap::default(),
            hits: 0,
            misses: 0,
        }
    }

    /// The layout of the cache's base `topo` for a forced-path solver,
    /// built at the first call; `None` for other solvers and for a base
    /// that is not a circuit topology (checked again on each call, as
    /// [`forced_path_throughput`] checks on each call).
    fn layout(&mut self, topo: &Topology) -> Option<&Circuits> {
        if self.circuits.is_none() && self.solver == ThroughputSolver::ForcedPath {
            self.circuits = Circuits::of_topology(topo);
        }
        self.circuits.as_ref()
    }

    /// Computes (or recalls) the throughput of `matching` on `topo`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::CacheTopologyMismatch`] when queried with a
    /// topology other than the one the cache was built for — another node
    /// count or other links ([`Topology::digest`]), whatever the names say —
    /// and propagates solver errors.
    pub fn get(
        &mut self,
        topo: &Topology,
        matching: &Matching,
    ) -> Result<StepThroughput, FlowError> {
        if topo.n() != self.topology_n || topo.digest() != self.topology_digest {
            return Err(FlowError::CacheTopologyMismatch {
                expected: self.topology_name.clone(),
                expected_n: self.topology_n,
                got: topo.name().to_string(),
                got_n: topo.n(),
            });
        }
        if let Some(hit) = self.map.get(matching) {
            self.hits += 1;
            return Ok(*hit);
        }
        let solver = self.solver;
        let v = price(topo, self.layout(topo), matching, solver)?;
        self.map.insert(matching.clone(), v);
        self.misses += 1;
        Ok(v)
    }

    /// Prices a set of matchings **in parallel** and returns a cache with
    /// every one memoized. This is the hot phase of a sweep: θ solves are
    /// embarrassingly parallel across matchings, whereas parallelizing the
    /// sweep rows would re-price the same matchings once per worker.
    /// Duplicate matchings are deduplicated (first occurrence wins — the
    /// result is identical either way, since solving is pure). The workers
    /// share one layout of a circuit base (see [`ThetaCache`]).
    ///
    /// The returned cache counts one miss per unique matching priced and no
    /// hits. Results are bit-identical at any `pool` width.
    ///
    /// # Errors
    ///
    /// Propagates solver errors; across failing matchings, the error of the
    /// first (in iteration order) is returned.
    pub fn warm<'a>(
        pool: &aps_par::Pool,
        topo: &Topology,
        solver: ThroughputSolver,
        matchings: impl IntoIterator<Item = &'a Matching>,
    ) -> Result<Self, FlowError> {
        let mut unique: Vec<&Matching> = Vec::new();
        // A matching's one interior-mutable field is the digest its buffer
        // memoizes, a pure function of ports that nothing writes while the
        // buffer is shared: a key's hash and equality never change.
        #[allow(clippy::mutable_key_type)]
        let mut seen: HashSet<&Matching, FxBuild> = HashSet::default();
        for m in matchings {
            if seen.insert(m) {
                unique.push(m);
            }
        }
        let mut cache = Self::new(topo, solver);
        let circuits = cache.layout(topo);
        let priced = pool.try_map(&unique, |_, m| price(topo, circuits, m, solver))?;
        cache.misses = unique.len() as u64;
        cache.map = unique.into_iter().cloned().zip(priced).collect();
        Ok(cache)
    }

    /// Zeroes the hit/miss counters, keeping the memo table. Used after
    /// cloning a warmed cache into a worker so per-worker counters measure
    /// only that worker's lookups.
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Hit/miss/entry counters since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.map.len(),
        }
    }

    /// Number of memoized matchings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aps_topology::builders;

    #[test]
    fn solvers_agree_on_uni_ring_shifts() {
        let t = builders::ring_unidirectional(8).unwrap();
        let m = Matching::shift(8, 3).unwrap();
        let forced = step_throughput(&t, &m, ThroughputSolver::ForcedPath).unwrap();
        let gk = step_throughput(&t, &m, ThroughputSolver::GargKonemann { epsilon: 0.1 }).unwrap();
        let proxy = step_throughput(&t, &m, ThroughputSolver::DegreeProxy).unwrap();
        assert!((forced.theta - 1.0 / 3.0).abs() < 1e-12);
        assert!(gk.theta <= forced.theta + 1e-9);
        assert!(gk.theta_upper >= forced.theta - 1e-9);
        assert!(proxy.theta >= forced.theta - 1e-12);
        assert_eq!(forced.max_hops, 3);
    }

    #[test]
    fn cache_hits_and_guards() {
        let t = builders::ring_unidirectional(8).unwrap();
        let mut cache = ThetaCache::new(&t, ThroughputSolver::ForcedPath);
        assert!(cache.is_empty());
        let m = Matching::shift(8, 2).unwrap();
        let a = cache.get(&t, &m).unwrap();
        let b = cache.get(&t, &m).unwrap();
        assert_eq!(a, b);
        assert_eq!(cache.len(), 1);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.lookups(), 2);
        let mut merged = CacheStats::default();
        merged.merge(stats);
        merged.merge(stats);
        assert_eq!(merged.hits, 2);
        assert_eq!(merged.entries, 2);
        let other = builders::ring_bidirectional(8).unwrap();
        let same_n = cache.get(&other, &m).unwrap_err();
        assert_eq!(
            same_n.to_string(),
            format!(
                "theta cache built for '{}' (8 nodes) queried with '{}' (8 nodes): \
                 same node count, other links",
                t.name(),
                other.name()
            )
        );
        let bigger = builders::ring_unidirectional(16).unwrap();
        let other_n = cache.get(&bigger, &m).unwrap_err();
        assert_eq!(
            other_n,
            FlowError::CacheTopologyMismatch {
                expected: t.name().into(),
                expected_n: 8,
                got: bigger.name().into(),
                got_n: 16,
            }
        );
        assert_eq!(
            other_n.to_string(),
            format!(
                "theta cache built for '{}' (8 nodes) queried with '{}' (16 nodes)",
                t.name(),
                bigger.name()
            )
        );
        // Refused lookups count neither as hits nor as misses.
        assert_eq!(cache.stats(), stats);
    }

    #[test]
    fn cache_guards_on_the_links_not_the_name() {
        // Every matched topology is named `matched(n)`.
        let built_on = builders::from_matching(&Matching::shift(8, 1).unwrap());
        let m = Matching::shift(8, 2).unwrap();
        let mut cache = ThetaCache::new(&built_on, ThroughputSolver::ForcedPath);
        assert_eq!(cache.get(&built_on, &m).unwrap().theta, 0.5);
        let other = builders::from_matching(&m);
        assert_eq!(other.name(), built_on.name());
        let err = cache.get(&other, &m).unwrap_err();
        assert_eq!(
            err,
            FlowError::CacheTopologyMismatch {
                expected: "matched(8)".into(),
                expected_n: 8,
                got: "matched(8)".into(),
                got_n: 8,
            }
        );
        assert_eq!(
            err.to_string(),
            "theta cache built for 'matched(8)' (8 nodes) queried with 'matched(8)' (8 nodes): \
             same node count, other links"
        );
        let smaller = builders::from_matching(&Matching::shift(4, 1).unwrap());
        assert_eq!(
            cache.get(&smaller, &m).unwrap_err().to_string(),
            "theta cache built for 'matched(8)' (8 nodes) queried with 'matched(4)' (4 nodes)"
        );
        let direct = step_throughput(&other, &m, ThroughputSolver::ForcedPath).unwrap();
        assert_eq!(direct.theta, 1.0);
        // The same links under another name price the same θ.
        let mut renamed = Topology::new(8, "renamed");
        for l in built_on.links() {
            renamed.add_link(l.src, l.dst, l.capacity).unwrap();
        }
        assert_eq!(cache.get(&renamed, &m).unwrap().theta, 0.5);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn warm_prices_unique_matchings_in_parallel_and_identically() {
        let t = builders::ring_unidirectional(8).unwrap();
        let shifts: Vec<Matching> = [1, 2, 3, 2, 1, 5]
            .iter()
            .map(|&k| Matching::shift(8, k).unwrap())
            .collect();
        let mut serial = ThetaCache::warm(
            &aps_par::Pool::serial(),
            &t,
            ThroughputSolver::ForcedPath,
            &shifts,
        )
        .unwrap();
        let warm4 = ThetaCache::warm(
            &aps_par::Pool::new(4),
            &t,
            ThroughputSolver::ForcedPath,
            &shifts,
        )
        .unwrap();
        // Duplicates deduplicated: 4 unique shifts, all counted as misses.
        for c in [&serial, &warm4] {
            assert_eq!(c.len(), 4);
            assert_eq!(c.stats().misses, 4);
            assert_eq!(c.stats().hits, 0);
        }
        // Every lookup on a warmed cache is a hit, and values match the
        // direct solver at any pool width.
        let mut warm4 = warm4;
        for m in &shifts {
            let direct = step_throughput(&t, m, ThroughputSolver::ForcedPath).unwrap();
            assert_eq!(serial.get(&t, m).unwrap(), direct);
            assert_eq!(warm4.get(&t, m).unwrap(), direct);
        }
        assert_eq!(warm4.stats().hits, 6);
        // Clone + reset gives a fresh counter over the same memo table.
        let mut clone = warm4.clone();
        clone.reset_stats();
        assert_eq!(clone.len(), 4);
        assert_eq!(
            clone.stats(),
            CacheStats {
                hits: 0,
                misses: 0,
                entries: 4
            }
        );
        // Reset or not, the underlying values are still all hits.
        serial.reset_stats();
        serial.get(&t, &shifts[0]).unwrap();
        assert_eq!(serial.stats().hits, 1);
    }

    #[test]
    fn default_solver_is_forced_path() {
        assert_eq!(ThroughputSolver::default(), ThroughputSolver::ForcedPath);
    }
}
