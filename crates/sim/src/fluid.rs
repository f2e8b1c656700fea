//! Event-driven max-min fair fluid flow engine.
//!
//! Flows are fluids: each flow has a path and a remaining volume, link
//! capacity is shared by progressive filling (the classic max-min fair
//! allocation), and rates change only at flow completions — a textbook
//! flow-level network model. For a set of equal-volume flows whose worst
//! link has normalized load `L`, every flow crossing that link drains at
//! `cap/L` for the whole step, so the step's transfer time equals the
//! analytic `β·m·L` — the simulator-side face of the paper's
//! concurrent-flow congestion factor.
//!
//! ## The event engine
//!
//! The seed engine re-ran the full progressive-filling solver over *all*
//! links and *all* active flows after every completion. This engine is
//! event-driven and solves one sharing component at a time:
//!
//! * **completion events** drive the clock: each round advances time to
//!   the earliest candidate drain, and every flow within ε of zero then
//!   completes in the same round. The active list is kept ascending, so
//!   results are identical on every run and at any `APS_THREADS` setting.
//!   (A *persistent* event queue would buy nothing: bit-identity with the
//!   seed arithmetic requires re-materializing every flow's remaining
//!   volume — and hence every candidate event — each round.)
//! * a **component walk** decides what to solve. Flows and the links they
//!   cross form a sharing graph; one breadth-first walk of the link→flows
//!   index collects each connected component that contains a seed link.
//!   At the start of a simulation every link is a seed; after a completion
//!   round the departed flows' links are. Each component then runs
//!   progressive filling alone: the bottleneck scan covers only its links,
//!   in ascending link id, and a bottleneck freezes its flows by walking
//!   its bucket of the index instead of testing every path. Flows in
//!   untouched components keep their cached rates.
//!
//! A matched step — n disjoint one-hop circuits — is n one-link
//! components, so its solve costs O(n). One giant component (a ring shift
//! by n/2) still costs a bottleneck scan of its links per bottleneck.
//!
//! ## Invariants
//!
//! The per-component solve is exact, not approximate:
//!
//! 1. **Isolation** — a link's residual capacity is only ever reduced by
//!    flows crossing it, and those flows are by definition in the link's
//!    component. Solving a component alone therefore performs *bitwise*
//!    the same arithmetic the global solver would perform on it.
//! 2. **Restriction** — the global progressive-filling bottleneck sequence,
//!    restricted to one component, equals the component-local bottleneck
//!    sequence: picking a bottleneck in another component touches neither
//!    this component's residual capacities nor its user counts. Both scan
//!    links in ascending id, so ties break identically.
//! 3. **Equal-`fair` freezes commute** — one bottleneck round freezes every
//!    unfrozen flow crossing the bottleneck at the same `fair`, and each
//!    freeze applies `cap_left = max(cap_left − fair, 0)` once per hop. A
//!    link's residual therefore sees the same sequence of identical
//!    operations in any freeze order, so freezing in bucket order (which
//!    `swap_remove` scrambles) gives the bits the oracle's ascending-id
//!    order gives. Nothing in the code shows this; keep every freeze of a
//!    round at one `fair`.
//!
//! Together these make the event engine **bit-identical** to the seed
//! from-scratch engine (kept as [`mod@reference`]): per round the engine
//! advances `t += dt` with `dt` drawn from the earliest completion event
//! (equal to the fold-min the seed computed, since `min` over finite
//! floats is order-independent) and materializes every active flow's
//! remaining volume with the same `remaining -= rate·dt` update — only
//! the *solver* work is skipped for untouched components, and skipped
//! work is exactly the work whose results are unchanged.

use crate::arena::FluidScratch;

/// One flow to simulate.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// Volume in bytes.
    pub bytes: f64,
    /// Link ids along the path (must be non-empty for a real transfer).
    pub path: Vec<usize>,
}

/// Max-min fair rates for the given flows over links with `link_caps`
/// capacity, by progressive filling: repeatedly find the tightest link
/// (smallest fair share among links still carrying unfrozen flows, ties to
/// the lowest link id) and freeze every flow crossing it at that fair
/// share. Returns bytes-per-second per flow, in input order.
///
/// The allocation is the unique max-min fair point: no link is
/// oversubscribed, and no flow's rate can be raised without lowering the
/// rate of a flow that is no faster (see `crates/sim/tests/maxmin.rs`).
pub fn max_min_rates(link_caps: &[f64], paths: &[&[usize]]) -> Vec<f64> {
    let f = paths.len();
    let mut rates = vec![0.0f64; f];
    let mut frozen = vec![false; f];
    let mut cap_left = link_caps.to_vec();
    let mut link_users: Vec<usize> = vec![0; link_caps.len()];
    for p in paths {
        for &l in *p {
            link_users[l] += 1;
        }
    }
    loop {
        // Find the tightest link among those still carrying unfrozen flows.
        let mut best: Option<(usize, f64)> = None;
        for (l, &users) in link_users.iter().enumerate() {
            if users > 0 {
                let fair = cap_left[l] / users as f64;
                if best.is_none_or(|(_, b)| fair < b) {
                    best = Some((l, fair));
                }
            }
        }
        let Some((bottleneck, fair)) = best else {
            break;
        };
        // Freeze every unfrozen flow crossing the bottleneck at `fair`.
        for (i, p) in paths.iter().enumerate() {
            if !frozen[i] && p.contains(&bottleneck) {
                frozen[i] = true;
                rates[i] = fair;
                for &l in *p {
                    cap_left[l] = (cap_left[l] - fair).max(0.0);
                    link_users[l] -= 1;
                }
            }
        }
    }
    rates
}

/// Walks the sharing component that contains link `seed` and re-solves it
/// by progressive filling into `s.rates`; a no-op when `seed` carries no
/// active flow or was walked earlier in this pass. The breadth-first walk
/// queues links in `s.links` itself, marks them in `s.link_seen` (cleared
/// by [`end_pass`]) and thaws each flow it reaches. The filling ends with
/// every flow frozen again: a flow's links keep a user until it freezes.
fn solve_component(s: &mut FluidScratch, caps: &[f64], seed: usize) {
    if s.link_seen[seed] || s.flows_of_link[seed].is_empty() {
        return;
    }
    let start = s.links.len();
    s.link_seen[seed] = true;
    s.links.push(seed);
    let mut head = start;
    while head < s.links.len() {
        let l = s.links[head];
        head += 1;
        s.cap_left[l] = caps[l];
        s.users[l] = s.flows_of_link[l].len();
        for &i in &s.flows_of_link[l] {
            if s.frozen[i] {
                s.frozen[i] = false;
                for &l2 in &s.path_data[s.path_off[i]..s.path_off[i + 1]] {
                    if !s.link_seen[l2] {
                        s.link_seen[l2] = true;
                        s.links.push(l2);
                    }
                }
            }
        }
    }
    s.links[start..].sort_unstable();
    loop {
        let mut best: Option<(usize, f64)> = None;
        for &l in &s.links[start..] {
            if s.users[l] > 0 {
                let fair = s.cap_left[l] / s.users[l] as f64;
                if best.is_none_or(|(_, b)| fair < b) {
                    best = Some((l, fair));
                }
            }
        }
        let Some((bottleneck, fair)) = best else {
            break;
        };
        for &i in &s.flows_of_link[bottleneck] {
            if !s.frozen[i] {
                s.frozen[i] = true;
                s.rates[i] = fair;
                for &l in &s.path_data[s.path_off[i]..s.path_off[i + 1]] {
                    s.cap_left[l] = (s.cap_left[l] - fair).max(0.0);
                    s.users[l] -= 1;
                }
            }
        }
    }
}

/// Ends a pass of [`solve_component`] calls: unmarks the walked links, so
/// the next pass starts with `s.link_seen` all false and `s.links` empty.
fn end_pass(s: &mut FluidScratch) {
    for &l in &s.links {
        s.link_seen[l] = false;
    }
    s.links.clear();
}

/// Builds the link→flows sharing index from the current active set —
/// called exactly once per simulation; afterwards the index is maintained
/// incrementally as flows complete. (The pre-arena engine rebuilt it on
/// *every completion event*; [`FluidScratch::index_builds`] pins the fix.)
fn build_link_index(s: &mut FluidScratch, num_links: usize) {
    if s.flows_of_link.len() < num_links {
        s.flows_of_link.resize_with(num_links, Vec::new);
    }
    for bucket in &mut s.flows_of_link[..num_links] {
        bucket.clear();
    }
    for idx in 0..s.active.len() {
        let i = s.active[idx];
        for h in s.path_off[i]..s.path_off[i + 1] {
            let l = s.path_data[h];
            s.flows_of_link[l].push(i);
        }
    }
    s.note_index_build();
}

/// The input checks both engines run up front. An infinite rate or volume
/// would make `remaining` NaN, and a NaN flow never completes.
fn check_flow(caps: &[f64], i: usize, bytes: f64, path: &[usize]) {
    assert!(bytes.is_finite(), "flow {i} has non-finite volume");
    for &l in path {
        assert!(l < caps.len(), "path references unknown link {l}");
        assert!(caps[l] > 0.0, "link {l} has no capacity");
        assert!(caps[l].is_finite(), "link {l} has non-finite capacity");
    }
}

/// Simulates the flows loaded in `s` (via [`FluidScratch::start`] /
/// [`FluidScratch::push_link`] / [`FluidScratch::seal_flow`] or
/// [`FluidScratch::load_specs`]) to completion, writing per-flow finish
/// times in seconds into `s.finish` (transmission only — the caller adds
/// propagation). The zero-allocation core of [`simulate_flows`]: after
/// warm-up, a call touches no heap.
///
/// Zero-byte flows and empty-path flows finish at `t = 0`. Flows only
/// depart — the per-step model releases all of a step's flows together —
/// so every rate change is triggered by a completion event. (Departures do
/// *not* make individual rates monotone: a departure elsewhere in a
/// component can speed up a neighbor that then claims more of a shared
/// link. Only the minimum rate is non-decreasing, which is why the engine
/// re-solves whole sharing components rather than patching rates locally.)
///
/// # Panics
///
/// Panics if a path references an out-of-range link, a link capacity is
/// non-positive or infinite while used, or a volume is not finite.
pub fn simulate_flows_scratch(link_caps_bytes_per_s: &[f64], s: &mut FluidScratch) {
    let caps = link_caps_bytes_per_s;
    let num_flows = s.bytes.len();
    for i in 0..num_flows {
        let path = &s.path_data[s.path_off[i]..s.path_off[i + 1]];
        check_flow(caps, i, s.bytes[i], path);
    }
    s.finish.clear();
    s.finish.resize(num_flows, 0.0);
    s.rates.clear();
    s.rates.resize(num_flows, 0.0);
    s.remaining.clear();
    s.remaining.extend_from_slice(&s.bytes);
    s.active.clear();
    for i in 0..num_flows {
        if s.bytes[i] > 0.0 && s.path_off[i + 1] > s.path_off[i] {
            s.active.push(i);
        }
    }
    // The sharing index: built once here, maintained incrementally below.
    build_link_index(s, caps.len());
    // Walk state: every flow settled, no link walked. The per-link solver
    // values are written by the walk before they are read.
    s.frozen.clear();
    s.frozen.resize(num_flows, true);
    s.link_seen.clear();
    s.link_seen.resize(caps.len(), false);
    s.cap_left.resize(caps.len(), 0.0);
    s.users.resize(caps.len(), 0);
    // Initial allocation: every link seeds the walk.
    for l in 0..caps.len() {
        solve_component(s, caps, l);
    }
    end_pass(s);

    let mut t = 0.0f64;
    // Each round retires at least one flow: ≤ F rounds.
    while !s.active.is_empty() {
        debug_assert!(
            s.active.iter().all(|&i| s.rates[i] > 0.0),
            "active flow starved"
        );
        // Time of the earliest candidate completion. (Every candidate
        // changes every round — a by-product of the seed-identical
        // materialization below — so a persistent event queue has nothing
        // to cache; the plain minimum is the whole event selection. Which
        // flow attains it is irrelevant: all flows within ε of zero at
        // `t + dt` complete together, in ascending flow id, below.)
        let mut dt = f64::INFINITY;
        for idx in 0..s.active.len() {
            let i = s.active[idx];
            dt = dt.min(s.remaining[i] / s.rates[i]);
        }
        t += dt;
        // Materialize every active flow at the event time; flows at (or
        // numerically within ε of) zero remaining complete together. The
        // survivors fill the `still` generation, which then ping-pongs
        // with `active` — no per-round Vec is ever constructed.
        s.still.clear();
        s.completed.clear();
        for idx in 0..s.active.len() {
            let i = s.active[idx];
            s.remaining[i] -= s.rates[i] * dt;
            if s.remaining[i] <= 1e-9 * s.bytes[i].max(1.0) {
                s.finish[i] = t;
                s.completed.push(i);
            } else {
                s.still.push(i);
            }
        }
        std::mem::swap(&mut s.active, &mut s.still);
        if s.active.is_empty() {
            break;
        }
        // Retire the departures from the index: the walk sees survivors only.
        for idx in 0..s.completed.len() {
            let i = s.completed[idx];
            for h in s.path_off[i]..s.path_off[i + 1] {
                let l = s.path_data[h];
                let bucket = &mut s.flows_of_link[l];
                if let Some(pos) = bucket.iter().position(|&f| f == i) {
                    bucket.swap_remove(pos);
                }
            }
        }
        // Incremental re-solve: the departed flows' links seed the walk, so
        // only the components they touched are solved again; everyone else
        // keeps their cached bottleneck rate.
        for idx in 0..s.completed.len() {
            let i = s.completed[idx];
            for h in s.path_off[i]..s.path_off[i + 1] {
                solve_component(s, caps, s.path_data[h]);
            }
        }
        end_pass(s);
    }
}

/// Simulates the flows to completion; returns per-flow finish times in
/// seconds (transmission only — the caller adds propagation). The
/// materialized-spec face of [`simulate_flows_scratch`] — it builds a
/// fresh scratch per call, so hot paths that care about allocation load a
/// long-lived [`FluidScratch`] instead.
///
/// # Panics
///
/// Panics if a path references an out-of-range link, a link capacity is
/// non-positive or infinite while used, or a volume is not finite.
pub fn simulate_flows(link_caps_bytes_per_s: &[f64], specs: &[FlowSpec]) -> Vec<f64> {
    let mut scratch = FluidScratch::new();
    scratch.load_specs(specs);
    simulate_flows_scratch(link_caps_bytes_per_s, &mut scratch);
    scratch.finish
}

pub mod reference {
    //! The seed from-scratch engine, kept verbatim as the differential
    //! oracle: it re-runs the full progressive-filling solver over all
    //! links and all active flows after every completion. The event engine
    //! in the parent module must match it bit-for-bit (see
    //! `tests/fluid_differential.rs` at the workspace root).

    use super::{max_min_rates, FlowSpec};

    /// Seed implementation of [`super::simulate_flows`]: full max-min
    /// recompute at every completion.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range links, non-positive or infinite used
    /// capacities and non-finite volumes, exactly like the event engine.
    pub fn simulate_flows_reference(link_caps_bytes_per_s: &[f64], specs: &[FlowSpec]) -> Vec<f64> {
        for (i, s) in specs.iter().enumerate() {
            super::check_flow(link_caps_bytes_per_s, i, s.bytes, &s.path);
        }
        let mut finish = vec![0.0f64; specs.len()];
        let mut remaining: Vec<f64> = specs.iter().map(|s| s.bytes).collect();
        let mut active: Vec<usize> = (0..specs.len())
            .filter(|&i| specs[i].bytes > 0.0 && !specs[i].path.is_empty())
            .collect();
        let mut t = 0.0f64;
        while !active.is_empty() {
            let paths: Vec<&[usize]> = active.iter().map(|&i| specs[i].path.as_slice()).collect();
            let rates = max_min_rates(link_caps_bytes_per_s, &paths);
            debug_assert!(rates.iter().all(|&r| r > 0.0), "active flow starved");
            let dt = active
                .iter()
                .zip(&rates)
                .map(|(&i, &r)| remaining[i] / r)
                .fold(f64::INFINITY, f64::min);
            t += dt;
            let mut still = Vec::with_capacity(active.len());
            for (k, &i) in active.iter().enumerate() {
                remaining[i] -= rates[k] * dt;
                if remaining[i] <= 1e-9 * specs[i].bytes.max(1.0) {
                    finish[i] = t;
                } else {
                    still.push(i);
                }
            }
            active = still;
        }
        finish
    }
}

#[cfg(test)]
mod tests {
    use super::reference::simulate_flows_reference;
    use super::*;

    #[test]
    fn single_flow_drains_at_line_rate() {
        let finish = simulate_flows(
            &[100.0],
            &[FlowSpec {
                bytes: 50.0,
                path: vec![0],
            }],
        );
        assert!((finish[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn two_flows_share_then_speed_up() {
        // Both flows share link 0 (cap 100); flow 1 is twice as large.
        // Phase 1: both at 50 B/s until flow 0 finishes at t=1 (50 B).
        // Phase 2: flow 1 alone at 100 B/s for remaining 50 B: t=1.5.
        let finish = simulate_flows(
            &[100.0],
            &[
                FlowSpec {
                    bytes: 50.0,
                    path: vec![0],
                },
                FlowSpec {
                    bytes: 100.0,
                    path: vec![0],
                },
            ],
        );
        assert!((finish[0] - 1.0).abs() < 1e-9);
        assert!((finish[1] - 1.5).abs() < 1e-9);
    }

    #[test]
    fn bottleneck_flow_constrained_elsewhere() {
        // Flow A uses links 0,1; flow B uses link 1 only. Link 0 cap 10,
        // link 1 cap 100. Max-min: A is frozen by link 0 at 10; B then gets
        // the rest of link 1: 90.
        let finish = simulate_flows(
            &[10.0, 100.0],
            &[
                FlowSpec {
                    bytes: 10.0,
                    path: vec![0, 1],
                },
                FlowSpec {
                    bytes: 90.0,
                    path: vec![1],
                },
            ],
        );
        assert!((finish[0] - 1.0).abs() < 1e-9);
        assert!((finish[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn uniform_ring_load_matches_analytic_theta() {
        // 4 equal flows, each crossing 2 of 4 ring links (shift-by-2-ish):
        // every link load 2, cap c → rate c/2 each, finish = m·2/c. This is
        // exactly β·m/θ with θ = c/2 normalized.
        let c = 100.0;
        let m = 200.0;
        let specs = vec![
            FlowSpec {
                bytes: m,
                path: vec![0, 1],
            },
            FlowSpec {
                bytes: m,
                path: vec![1, 2],
            },
            FlowSpec {
                bytes: m,
                path: vec![2, 3],
            },
            FlowSpec {
                bytes: m,
                path: vec![3, 0],
            },
        ];
        let finish = simulate_flows(&[c; 4], &specs);
        for f in finish {
            assert!((f - m * 2.0 / c).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_byte_and_empty_path_flows() {
        let finish = simulate_flows(
            &[10.0],
            &[
                FlowSpec {
                    bytes: 0.0,
                    path: vec![0],
                },
                FlowSpec {
                    bytes: 5.0,
                    path: vec![],
                },
                FlowSpec {
                    bytes: 10.0,
                    path: vec![0],
                },
            ],
        );
        assert_eq!(finish[0], 0.0);
        assert_eq!(finish[1], 0.0);
        assert!((finish[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn max_min_empty_active_set_yields_no_rates() {
        assert!(max_min_rates(&[10.0, 20.0], &[]).is_empty());
        // Links with no users are simply never bottlenecks.
        let rates = max_min_rates(&[10.0, 20.0], &[&[1][..]]);
        assert_eq!(rates, vec![20.0]);
    }

    #[test]
    fn max_min_zero_capacity_link_starves_its_flows_only() {
        // Flow 0 crosses the dead link and is frozen at rate 0; flow 1
        // still gets all of link 1. Termination is the real property under
        // test: the dead link must not spin the progressive-filling loop.
        let rates = max_min_rates(&[0.0, 100.0], &[&[0, 1][..], &[1][..]]);
        assert_eq!(rates[0], 0.0);
        assert!((rates[1] - 100.0).abs() < 1e-12);
    }

    #[test]
    fn max_min_flow_sharing_every_link_gets_the_global_bottleneck() {
        // Flow 0 crosses all three links; flows 1 and 2 each cross one.
        // Link 1 (cap 30) is the first bottleneck: both its users freeze at
        // 15. Flow 2 then takes what flow 0 left free on link 2.
        let rates = max_min_rates(&[100.0, 30.0, 40.0], &[&[0, 1, 2][..], &[1][..], &[2][..]]);
        assert!((rates[0] - 15.0).abs() < 1e-12);
        assert!((rates[1] - 15.0).abs() < 1e-12);
        assert!((rates[2] - 25.0).abs() < 1e-12);
    }

    #[test]
    fn max_min_equal_flows_on_one_link_split_evenly() {
        let paths: Vec<&[usize]> = vec![&[0]; 4];
        let rates = max_min_rates(&[100.0], &paths);
        assert!(rates.iter().all(|&r| (r - 25.0).abs() < 1e-12));
    }

    #[test]
    #[should_panic(expected = "unknown link")]
    fn bad_path_panics() {
        simulate_flows(
            &[10.0],
            &[FlowSpec {
                bytes: 1.0,
                path: vec![3],
            }],
        );
    }

    /// One flow of `bytes` over link 0. Infinite inputs must panic, not
    /// hang: see `check_flow`.
    fn one_flow(bytes: f64) -> [FlowSpec; 1] {
        [FlowSpec {
            bytes,
            path: vec![0],
        }]
    }

    #[test]
    #[should_panic(expected = "non-finite capacity")]
    fn infinite_capacity_panics() {
        simulate_flows(&[f64::INFINITY], &one_flow(1.0));
    }

    #[test]
    #[should_panic(expected = "non-finite volume")]
    fn infinite_volume_panics() {
        simulate_flows(&[10.0], &one_flow(f64::INFINITY));
    }

    #[test]
    #[should_panic(expected = "non-finite capacity")]
    fn reference_rejects_infinite_capacity() {
        simulate_flows_reference(&[f64::INFINITY], &one_flow(1.0));
    }

    #[test]
    #[should_panic(expected = "non-finite volume")]
    fn reference_rejects_infinite_volume() {
        simulate_flows_reference(&[10.0], &one_flow(f64::INFINITY));
    }

    #[test]
    fn simultaneous_completions_finish_in_one_round() {
        // Two disjoint flows with identical drain times complete in the
        // same round at the same instant — the ascending-id scan makes
        // tie handling deterministic without any per-event ordering.
        let finish = simulate_flows(
            &[10.0, 10.0],
            &[
                FlowSpec {
                    bytes: 20.0,
                    path: vec![1],
                },
                FlowSpec {
                    bytes: 20.0,
                    path: vec![0],
                },
            ],
        );
        assert_eq!(finish[0].to_bits(), finish[1].to_bits());
        assert!((finish[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_components_keep_cached_rates() {
        // Flows 0,1 share link 0; flow 2 is alone on link 1. When flow 2
        // completes first nothing in component {0,1} changes; when flow 0
        // completes, flow 1 speeds up. The finish times pin all of it.
        let finish = simulate_flows(
            &[100.0, 100.0],
            &[
                FlowSpec {
                    bytes: 100.0,
                    path: vec![0],
                },
                FlowSpec {
                    bytes: 200.0,
                    path: vec![0],
                },
                FlowSpec {
                    bytes: 50.0,
                    path: vec![1],
                },
            ],
        );
        assert!((finish[2] - 0.5).abs() < 1e-9); // alone at 100 B/s
        assert!((finish[0] - 2.0).abs() < 1e-9); // 50 B/s until done
        assert!((finish[1] - 3.0).abs() < 1e-9); // 100 B left at full rate
    }

    #[test]
    fn transitive_sharing_is_one_component() {
        // 0 shares link0 with 1; 1 shares link1 with 2 — completing 0 must
        // re-solve 2 as well (its rate rises transitively).
        let finish = simulate_flows(
            &[90.0, 90.0],
            &[
                FlowSpec {
                    bytes: 45.0,
                    path: vec![0],
                },
                FlowSpec {
                    bytes: 100.0,
                    path: vec![0, 1],
                },
                FlowSpec {
                    bytes: 100.0,
                    path: vec![1],
                },
            ],
        );
        let oracle = simulate_flows_reference(
            &[90.0, 90.0],
            &[
                FlowSpec {
                    bytes: 45.0,
                    path: vec![0],
                },
                FlowSpec {
                    bytes: 100.0,
                    path: vec![0, 1],
                },
                FlowSpec {
                    bytes: 100.0,
                    path: vec![1],
                },
            ],
        );
        for (a, b) in finish.iter().zip(&oracle) {
            assert_eq!(a.to_bits(), b.to_bits(), "event {a} vs reference {b}");
        }
    }

    #[test]
    fn event_engine_matches_reference_bitwise_on_mixed_volumes() {
        // Heterogeneous volumes and overlapping ring arcs: several rounds,
        // several components merging and splitting.
        let caps = vec![100.0; 6];
        let specs: Vec<FlowSpec> = (0..9)
            .map(|i| FlowSpec {
                bytes: 10.0 + 37.0 * i as f64,
                path: (0..=(i % 4)).map(|h| (i + h) % 6).collect(),
            })
            .collect();
        let a = simulate_flows(&caps, &specs);
        let b = simulate_flows_reference(&caps, &specs);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits(), "event {x} vs reference {y}");
        }
    }

    #[test]
    fn link_index_is_built_exactly_once_per_simulation() {
        // The regression hook for the old per-completion rebuild: this
        // flow set completes in several distinct rounds (staggered
        // volumes on one shared link), yet the link→flows index must be
        // constructed once per call — completions maintain it
        // incrementally.
        let caps = vec![100.0; 3];
        let specs: Vec<FlowSpec> = (0..5)
            .map(|i| FlowSpec {
                bytes: 50.0 * (i + 1) as f64,
                path: vec![i % 3, (i + 1) % 3],
            })
            .collect();
        let mut s = FluidScratch::new();
        assert_eq!(s.index_builds(), 0);
        for round in 1..=4u64 {
            s.load_specs(&specs);
            simulate_flows_scratch(&caps, &mut s);
            assert_eq!(
                s.index_builds(),
                round,
                "one index build per simulation, even with multiple \
                 completion rounds"
            );
        }
    }

    #[test]
    fn recycled_scratch_is_bit_identical_to_fresh_scratch() {
        // Arena reuse must be invisible: running flow set B in a scratch
        // warmed by flow set A gives bitwise the same finish times as a
        // fresh scratch — stale capacity, slot maps, and index buckets
        // from A must not leak into B.
        let caps_a = vec![100.0; 6];
        let specs_a: Vec<FlowSpec> = (0..9)
            .map(|i| FlowSpec {
                bytes: 10.0 + 37.0 * i as f64,
                path: (0..=(i % 4)).map(|h| (i + h) % 6).collect(),
            })
            .collect();
        // B is smaller in every dimension (fewer links, fewer flows,
        // shorter paths) so every buffer must correctly shrink its live
        // region while keeping capacity.
        let caps_b = vec![40.0, 70.0];
        let specs_b = vec![
            FlowSpec {
                bytes: 30.0,
                path: vec![0, 1],
            },
            FlowSpec {
                bytes: 80.0,
                path: vec![1],
            },
        ];
        let mut warmed = FluidScratch::new();
        warmed.load_specs(&specs_a);
        simulate_flows_scratch(&caps_a, &mut warmed);
        warmed.load_specs(&specs_b);
        simulate_flows_scratch(&caps_b, &mut warmed);
        let fresh = simulate_flows(&caps_b, &specs_b);
        for (i, fresh_finish) in fresh.iter().enumerate() {
            assert_eq!(
                warmed.finish_of(i).to_bits(),
                fresh_finish.to_bits(),
                "recycled scratch diverged on flow {i}"
            );
        }
    }
}
