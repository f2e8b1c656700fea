//! Max-min fair fluid flow model: one solve and its oracle.
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
//! One solve runs this model, and it is bit-identical to the seed engine
//! kept as [`mod@reference`], the differential oracle. The arc solve
//! ([`simulate_circuit_step`]) takes one step on a circuit configuration,
//! and the step engine (`exec.rs`) runs every step through it. The
//! explicit-path API ([`simulate_flows_scratch`], [`simulate_flows`]) takes
//! any flows over any links: it hands flows shaped like a circuit step to
//! the arc solve (see [Explicit flows on arcs](#explicit-flows-on-arcs))
//! and every other flow set to the seed engine, so replaying a step's
//! explicit paths times the solve the step engine runs.
//!
//! ## The circuit solve
//!
//! A simulated step runs on a circuit configuration: every port has at most
//! one outgoing and one incoming circuit, so the circuits form chains and
//! cycles, and every flow's path is an **arc** — a run of consecutive links
//! along one chain or cycle. [`simulate_circuit_step`] lays the
//! configuration out as [`aps_topology::Circuits`] does (chains from their
//! heads, then cycles) and never writes a per-hop path:
//!
//! * **direct circuits** — when every pair `(s, d)` is itself a circuit,
//!   as on every matched step, each flow crosses one link alone. Its rate
//!   is `cap / 1` and the step ends in one completion round at
//!   `0 + m / cap`, so such a step needs no layout and costs O(pairs).
//! * **routing** — otherwise each pair becomes an arc (first slot, hop
//!   count), checked in pair order. A sender with no circuit, or a
//!   receiver on another chain or cycle or upstream on a chain, is the
//!   first unroutable pair, the one the hop-by-hop walk names.
//! * **sharing components** — a difference array over the arcs gives each
//!   link's user count, and a second one over adjacent slot pairs counts
//!   the flows crossing each boundary. Two adjacent links share a
//!   component exactly when some flow crosses both, so each component is a
//!   run of slots, wrapping on a cycle that no free boundary cuts.
//! * **progressive filling** per component scans its links in slot order
//!   and takes the smallest `cap_left / users`, ties to the lowest link id.
//!   Links keep the ids the oracle gives them (ascending sender port), so
//!   this is the link the oracle's ascending-id scan picks. It freezes
//!   every unfrozen flow whose arc covers that link, sums the frozen arcs
//!   in a third difference array, and gives a link crossed by `k` of them
//!   `k` identical `max(x − fair, 0)` updates (invariant 3 below). They
//!   run as `k` subtractions clamped once, which is exact because the
//!   unclamped chain never rises, four links side by side so the chains
//!   overlap. They are not folded into one `x − k·fair`: that rounds
//!   differently. A link left with no unfrozen user is never read again
//!   in the solve, so it skips its updates.
//! * **completion rounds** are the oracle's: the same `dt` minimum, the
//!   same `remaining -= rate·dt` update and the same ε test. After a round
//!   only the components that lost a flow are split again from their
//!   survivors and re-solved.
//!
//! ## Explicit flows on arcs
//!
//! [`simulate_flows_scratch`] first checks whether its flows are shaped
//! like one circuit step: every link has one capacity, every active flow
//! carries one volume, and the link pairs its paths cross in succession
//! give each link at most one successor and one predecessor. Then the links
//! form chains and cycles of their own: link `l` leaves node `l` of a
//! layout and reaches the node of the link that follows it, so each slot's
//! link is the flow's own link id and ties break as in the oracle. Every
//! path is an arc there, and one that rounds its cycle more than once
//! (crossing a link twice) spoils the shape. The circuit solve then runs on
//! those arcs, direct circuits included, and writes each flow's finish.
//!
//! The check records each link's successor once, at the first path that
//! crosses it and goes on, and compares a later path reaching that link
//! with that path's rest in one slice comparison: a pass over the hops at
//! memory speed, not a lookup per hop. Any other flow set — mixed volumes
//! or capacities, a link with two successors or two predecessors — goes to
//! the seed engine, [`reference::simulate_flows_reference`], which
//! allocates. The check runs the seed engine's input checks flow by flow,
//! so a bad input panics at the same flow, with the same message,
//! whichever solver runs.
//!
//! ## Invariants
//!
//! Each run of slots the arc solve fills is exactly one sharing component
//! of the explicit-path model, and the per-component solve is exact, not
//! approximate:
//!
//! 1. **Isolation** — a link's residual capacity is only ever reduced by
//!    flows crossing it, and those flows are by definition in the link's
//!    component. Solving a component alone therefore performs *bitwise*
//!    the same arithmetic the oracle's global solver performs on it.
//! 2. **Restriction** — the global progressive-filling bottleneck sequence,
//!    restricted to one component, equals the component-local bottleneck
//!    sequence: picking a bottleneck in another component touches neither
//!    this component's residual capacities nor its user counts. Both take
//!    the lowest link id among tied links, so ties break identically.
//! 3. **Equal-`fair` freezes commute** — one bottleneck round freezes every
//!    unfrozen flow crossing the bottleneck at the same `fair`, and each
//!    freeze applies `cap_left = max(cap_left − fair, 0)` once per hop. A
//!    link's residual therefore sees the same sequence of identical
//!    operations in any freeze order, so the `k` updates a link gets from
//!    the `k` frozen arcs crossing it give the bits the oracle's
//!    ascending-id order gives. Nothing in the code shows this; keep every
//!    freeze of a round at one `fair`.
//!
//! Together these make the arc solve **bit-identical** to the seed
//! from-scratch engine: per round the solve advances `t += dt` with `dt`
//! the minimum over the active flows (equal to the fold-min the seed
//! computes, since `min` over finite floats is order-independent) and
//! materializes every active flow's remaining volume with the same
//! `remaining -= rate·dt` update — only the *solver* work is skipped for
//! untouched components, and skipped work is exactly the work whose
//! results are unchanged.

use crate::arena::{CircuitScratch, FluidScratch, Run};
use aps_matrix::Matching;

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

/// The input checks the seed engine runs up front, flow by flow, and
/// [`trace_arcs`] runs in the same order. An infinite rate or volume would
/// make `remaining` NaN, and a NaN flow never completes.
fn check_flow(caps: &[f64], i: usize, bytes: f64, path: &[usize]) {
    assert!(bytes.is_finite(), "flow {i} has non-finite volume");
    for &l in path {
        check_link(caps.len(), l);
        assert!(caps[l] > 0.0, "link {l} has no capacity");
        assert!(caps[l].is_finite(), "link {l} has non-finite capacity");
    }
}

/// Simulates the flows loaded in `s` (via [`FluidScratch::start`] /
/// [`FluidScratch::push_link`] / [`FluidScratch::seal_flow`] or
/// [`FluidScratch::load_specs`]) to completion, writing per-flow finish
/// times in seconds into `s.finish` (transmission only — the caller adds
/// propagation): bit for bit what [`reference::simulate_flows_reference`]
/// gives for the same flows.
///
/// Flows shaped like one step on a circuit configuration run through the
/// arc solve, and after warm-up such a call touches no heap. Every other
/// flow set runs through the seed engine, which allocates, and counts in
/// [`FluidScratch::reference_runs`]. See the
/// [module docs](self#explicit-flows-on-arcs).
///
/// Zero-byte flows and empty-path flows finish at `t = 0`. Flows only
/// depart — the per-step model releases all of a step's flows together —
/// so every rate change is triggered by a completion event. (Departures do
/// *not* make individual rates monotone: a departure elsewhere in a
/// component can speed up a neighbor that then claims more of a shared
/// link. Only the minimum rate is non-decreasing, which is why the arc
/// solve re-solves whole sharing components rather than patching rates
/// locally.)
///
/// # Panics
///
/// Panics if a path references an out-of-range link, a link capacity is
/// non-positive or infinite while used, or a volume is not finite.
pub fn simulate_flows_scratch(link_caps_bytes_per_s: &[f64], s: &mut FluidScratch) {
    let caps = link_caps_bytes_per_s;
    s.finish.clear();
    s.finish.resize(s.bytes.len(), 0.0);
    if simulate_as_arcs(caps, s) {
        return;
    }
    let specs: Vec<FlowSpec> = s
        .path_off
        .windows(2)
        .zip(&s.bytes)
        .map(|(bounds, &bytes)| FlowSpec {
            bytes,
            path: s.path_data[bounds[0]..bounds[1]].to_vec(),
        })
        .collect();
    s.finish = reference::simulate_flows_reference(caps, &specs);
    s.reference_runs += 1;
}

/// Marks a link no path has been seen to continue.
const NO_LINK: usize = usize::MAX;

/// Runs the flows of `s` through the arc solve when they are shaped like
/// one step on a circuit configuration, and returns `true` having written
/// their finish times. The shape: every link has one capacity, every active
/// flow carries one volume, and the link pairs the paths cross in
/// succession give each link at most one successor and one predecessor, so
/// the links form chains and cycles and every path is an arc that crosses
/// no link twice. On any other input returns `false`, having written no
/// finish time, for the seed engine to take over.
///
/// # Panics
///
/// As [`simulate_flows_scratch`], on the first bad flow in flow order.
fn simulate_as_arcs(caps: &[f64], s: &mut FluidScratch) -> bool {
    let Some(&cap) = caps.first() else {
        return false;
    };
    if !(cap > 0.0 && cap.is_finite()) || caps.iter().any(|&c| c != cap) {
        return false;
    }
    let Some((bytes, longest)) = trace_arcs(caps, s) else {
        return false;
    };
    if longest <= 1 && single_users(s) {
        // Direct circuits: each flow crosses its own link alone, as in
        // `simulate_circuit_step`.
        let done = bytes / cap;
        for idx in 0..s.active.len() {
            s.finish[s.active[idx]] = done;
        }
        return true;
    }
    // Link `l` runs from node `l` to the node of the link that follows it,
    // or, when no path continues it, to a node of its own numbered past the
    // links. Node ids are link ids, so each slot's link is its node.
    let num_links = caps.len();
    let tails = s.seen_at.iter().filter(|&&(at, _)| at == NO_LINK).count();
    let mut end = num_links;
    let (seen_at, path_data) = (&s.seen_at, &s.path_data);
    s.arcs.layout.refill(
        num_links + tails,
        seen_at.iter().enumerate().map(|(l, &(at, _))| {
            if at != NO_LINK {
                (l, path_data[at + 1])
            } else {
                end += 1;
                (l, end - 1)
            }
        }),
    );
    let arcs = &mut s.arcs;
    arcs.first.clear();
    arcs.hops.clear();
    arcs.comp_of.clear();
    arcs.finish.clear();
    for idx in 0..s.active.len() {
        let (lo, hi) = (s.path_off[s.active[idx]], s.path_off[s.active[idx] + 1]);
        let (a, hops) = (s.path_data[lo], hi - lo);
        let c = arcs.layout.component_index(a);
        let chain = arcs.layout.components()[c];
        if chain.cycle && hops > chain.len {
            // Rounds its cycle more than once: it crosses a link twice.
            return false;
        }
        arcs.first.push(arcs.layout.slot(a));
        arcs.hops.push(hops);
        arcs.comp_of.push(c);
    }
    arcs.finish.resize(arcs.hops.len(), 0.0);
    drain(arcs, bytes, cap);
    for (idx, &i) in s.active.iter().enumerate() {
        s.finish[i] = s.arcs.finish[idx];
    }
    true
}

/// Checks the flows of `s` in order, as [`check_flow`] does on links of
/// the valid capacity `caps[0]`, lists the active ones in `s.active`, and
/// traces which link follows which on their paths into `s.seen_at` and
/// `s.fed_link`. Returns the volume of every active flow and the longest
/// active path, or `None` as soon as two active flows differ in volume or a
/// link is seen with two successors or two predecessors.
///
/// Each link's successor is recorded once, at the first path that crosses
/// it and goes on. A later path reaching that link is compared with the
/// recording path's rest in one slice comparison, so paths that run along
/// each other cost about one comparison per path they overlap, not one
/// lookup per hop.
fn trace_arcs(caps: &[f64], s: &mut FluidScratch) -> Option<(f64, usize)> {
    let num_links = caps.len();
    let FluidScratch {
        path_off,
        path_data,
        bytes: volumes,
        active,
        seen_at,
        fed_link,
        ..
    } = s;
    seen_at.clear();
    seen_at.resize(num_links, (NO_LINK, NO_LINK));
    fed_link.clear();
    fed_link.resize(num_links, false);
    active.clear();
    let (path_data, seen_at, fed_link) = (&path_data[..], &mut seen_at[..], &mut fed_link[..]);
    let (mut bytes, mut longest) = (0.0, 0);
    for (i, (&volume, bounds)) in volumes.iter().zip(path_off.windows(2)).enumerate() {
        let (lo, hi) = (bounds[0], bounds[1]);
        if !(volume > 0.0 && hi > lo) {
            check_flow(caps, i, volume, &path_data[lo..hi]);
            continue;
        }
        assert!(volume.is_finite(), "flow {i} has non-finite volume");
        if active.is_empty() {
            bytes = volume;
        } else if volume != bytes {
            return None;
        }
        active.push(i);
        longest = longest.max(hi - lo);
        check_link(num_links, path_data[lo]);
        let mut g = lo;
        while g + 1 < hi {
            let (at, end) = seen_at[path_data[g]];
            if at == NO_LINK {
                let next = path_data[g + 1];
                check_link(num_links, next);
                if fed_link[next] {
                    return None;
                }
                fed_link[next] = true;
                seen_at[path_data[g]] = (g, hi);
                g += 1;
            } else {
                // Both stretches start at the same link and hold at least
                // two, so this checks at least one successor.
                let k = (hi - g).min(end - at);
                if path_data[g..g + k] != path_data[at..at + k] {
                    return None;
                }
                g += k - 1;
            }
        }
    }
    Some((bytes, longest))
}

/// The link check of [`check_flow`].
fn check_link(num_links: usize, l: usize) {
    assert!(l < num_links, "path references unknown link {l}");
}

/// Whether no two active flows of `s`, each on a one-link path, share
/// their link. Marks the links in `s.fed_link`, which no path of one link
/// has written.
fn single_users(s: &mut FluidScratch) -> bool {
    for idx in 0..s.active.len() {
        let l = s.path_data[s.path_off[s.active[idx]]];
        if s.fed_link[l] {
            return false;
        }
        s.fed_link[l] = true;
    }
    true
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

/// Simulates one step on the circuit configuration `config`: each pair of
/// `pairs` sends `bytes` along its arc of the configuration, every link
/// carries `cap` bytes per second, and the flows share the links by max-min
/// fairness until the last one drains. Afterwards `s` holds each flow's
/// finish time in seconds (transmission only) and hop count, in `pairs`
/// order: bit for bit what [`reference::simulate_flows_reference`] gives
/// for the pairs' successor paths, with links numbered by ascending sender
/// port. See the [module docs](self) for how.
///
/// `pairs` must have distinct senders, as the pairs of a matching do.
/// After warm-up a call touches no heap.
///
/// # Errors
///
/// The first pair, in `pairs` order, that `config` cannot route: its
/// sender has no circuit, or its receiver is not downstream of the sender
/// on the sender's chain or cycle.
///
/// # Panics
///
/// When `pairs` is not empty, panics if `bytes` is not finite or `cap` is
/// not positive and finite, as [`simulate_flows`] does.
pub fn simulate_circuit_step(
    config: &Matching,
    pairs: &[(usize, usize)],
    bytes: f64,
    cap: f64,
    s: &mut CircuitScratch,
) -> Result<(), (usize, usize)> {
    s.first.clear();
    s.hops.clear();
    s.finish.clear();
    s.comp_of.clear();
    if pairs
        .iter()
        .all(|&(src, dst)| config.dst_of(src) == Some(dst))
    {
        // Direct circuits: each flow crosses its own link alone at
        // `cap / 1`, so every flow drains in the first completion round,
        // at `0 + bytes / cap`.
        if !pairs.is_empty() {
            check_step(bytes, cap);
        }
        let done = if bytes > 0.0 { bytes / cap } else { 0.0 };
        s.hops.resize(pairs.len(), 1);
        s.finish.resize(pairs.len(), done);
        return Ok(());
    }
    s.layout.refill(config.n(), config.pairs());
    for &(src, dst) in pairs {
        let (first, hops) = s.layout.route(src, dst).ok_or((src, dst))?;
        s.first.push(first);
        s.hops.push(hops);
        s.comp_of.push(s.layout.component_index(src));
    }
    check_step(bytes, cap);
    s.finish.resize(pairs.len(), 0.0);
    if bytes > 0.0 {
        drain(s, bytes, cap);
    }
    Ok(())
}

/// The input checks of [`check_flow`], for a step whose flows all carry
/// `bytes` over links of capacity `cap`.
fn check_step(bytes: f64, cap: f64) {
    assert!(bytes.is_finite(), "flow 0 has non-finite volume");
    assert!(cap > 0.0, "links have no capacity");
    assert!(cap.is_finite(), "links have non-finite capacity");
}

/// Runs the routed flows of `s`, each of `bytes > 0`, to completion:
/// solves every sharing component, then retires flows round by round as
/// the seed engine does, re-solving only the components a departure
/// touched.
fn drain(s: &mut CircuitScratch, bytes: f64, cap: f64) {
    let f = s.hops.len();
    s.rates.clear();
    s.rates.resize(f, 0.0);
    s.remaining.clear();
    s.remaining.resize(f, bytes);
    s.comps.clear();
    s.dirty.clear();
    // Group the flows by chain or cycle (`comp_of` holds each flow's from
    // routing), then split every group into sharing components.
    let chains = s.layout.components().len();
    s.counts.clear();
    s.counts.resize(chains + 1, 0);
    for &c in &s.comp_of {
        s.counts[c + 1] += 1;
    }
    for c in 0..chains {
        s.counts[c + 1] += s.counts[c];
    }
    s.members.clear();
    s.members.resize(f, 0);
    for i in 0..f {
        let c = s.comp_of[i];
        s.members[s.counts[c]] = i;
        s.counts[c] += 1;
    }
    // `split` reuses `counts` and rewrites the `comp_of` of the group it
    // splits, so each group ends where the next chain's flows begin.
    let mut lo = 0;
    while lo < f {
        let chain = s.comp_of[s.members[lo]];
        let mut hi = lo + 1;
        while hi < f && s.comp_of[s.members[hi]] == chain {
            hi += 1;
        }
        let c = s.layout.components()[chain];
        let run = Run {
            base: c.start,
            size: c.len,
            from: 0,
            len: c.len,
            closed: c.cycle,
            lo,
            hi,
            dirty: false,
        };
        split(s, run, cap);
        lo = hi;
    }

    let done = 1e-9 * bytes.max(1.0);
    s.active.clear();
    s.active.extend(0..f);
    let mut t = 0.0f64;
    while !s.active.is_empty() {
        let mut dt = f64::INFINITY;
        for &i in &s.active {
            dt = dt.min(s.remaining[i] / s.rates[i]);
        }
        t += dt;
        s.still.clear();
        for idx in 0..s.active.len() {
            let i = s.active[idx];
            s.remaining[i] -= s.rates[i] * dt;
            if s.remaining[i] <= done {
                s.finish[i] = t;
                let c = s.comp_of[i];
                if !s.comps[c].dirty {
                    s.comps[c].dirty = true;
                    s.dirty.push(c);
                }
            } else {
                s.still.push(i);
            }
        }
        std::mem::swap(&mut s.active, &mut s.still);
        if s.active.is_empty() {
            break;
        }
        // Re-solve the components that lost a flow, from their survivors;
        // the old entry empties and the pieces it splits into are new.
        for d in 0..s.dirty.len() {
            let c = s.dirty[d];
            let mut run = s.comps[c];
            s.comps[c].hi = run.lo;
            let mut hi = run.lo;
            for j in run.lo..run.hi {
                let i = s.members[j];
                if s.remaining[i] > done {
                    s.members[hi] = i;
                    hi += 1;
                }
            }
            if hi > run.lo {
                run.hi = hi;
                run.dirty = false;
                split(s, run, cap);
            }
        }
        s.dirty.clear();
    }
}

/// Where in `run` (slots counted from its first) an arc that starts at
/// layout slot `first` starts.
fn offset(run: &Run, first: usize) -> usize {
    (first - run.base + run.size - run.from) % run.size
}

/// Adds the arc of `hops` slots from slot `o` to the difference array
/// `diff` over a run of `len` slots, wrapping past the last slot to the
/// first.
fn add_arc(diff: &mut [isize], len: usize, o: usize, hops: usize) {
    diff[o] += 1;
    if o + hops <= len {
        diff[o + hops] -= 1;
    } else {
        diff[len] -= 1;
        diff[0] += 1;
        diff[o + hops - len] -= 1;
    }
}

/// Replaces the difference array `diff[..=len]` by its prefix sums.
fn prefix_sums(diff: &mut [isize], len: usize) {
    let mut running = 0;
    for d in &mut diff[..len] {
        running += *d;
        *d = running;
    }
}

/// Splits `run` into sharing components — maximal runs of loaded slots
/// whose every boundary some flow crosses — records each in `s.comps`,
/// points its flows at it and solves it.
fn split(s: &mut CircuitScratch, run: Run, cap: f64) {
    let len = run.len;
    s.users.clear();
    s.users.resize(len + 1, 0);
    s.joins.clear();
    s.joins.resize(len + 1, 0);
    for j in run.lo..run.hi {
        let i = s.members[j];
        let (o, h) = (offset(&run, s.first[i]), s.hops[i]);
        add_arc(&mut s.users, len, o, h);
        // Boundaries `o ..= o + h − 2`, the ones between two of its links.
        if h > 1 {
            add_arc(&mut s.joins, len, o, h - 1);
        }
    }
    prefix_sums(&mut s.users, len);
    prefix_sums(&mut s.joins, len);
    // A closed run is cut after a boundary no flow crosses; with none, the
    // whole cycle is one component.
    let rot = if run.closed {
        match s.joins[..len].iter().position(|&j| j == 0) {
            Some(b) => (b + 1) % len,
            None => {
                let c = s.comps.len();
                s.comps.push(run);
                for j in run.lo..run.hi {
                    s.comp_of[s.members[j]] = c;
                }
                solve(s, c, cap);
                return;
            }
        }
    } else {
        0
    };
    let first_new = s.comps.len();
    s.owner.clear();
    s.owner.resize(len, 0);
    let mut open = false;
    for p in 0..len {
        let k = if rot + p < len {
            rot + p
        } else {
            rot + p - len
        };
        if s.users[k] == 0 {
            continue;
        }
        if !open {
            s.comps.push(Run {
                from: (run.from + k) % run.size,
                len: 0,
                closed: false,
                ..run
            });
        }
        s.comps.last_mut().expect("a component was just opened").len += 1;
        s.owner[k] = s.comps.len() - 1 - first_new;
        open = s.joins[k] > 0;
    }
    // A stable counting sort of the flows by component, in place.
    let parts = s.comps.len() - first_new;
    s.counts.clear();
    s.counts.resize(parts + 1, 0);
    for j in run.lo..run.hi {
        let q = s.owner[offset(&run, s.first[s.members[j]])];
        s.counts[q + 1] += 1;
    }
    for q in 0..parts {
        s.counts[q + 1] += s.counts[q];
    }
    s.sorted.clear();
    s.sorted.resize(run.hi - run.lo, 0);
    for j in run.lo..run.hi {
        let i = s.members[j];
        let q = s.owner[offset(&run, s.first[i])];
        s.sorted[s.counts[q]] = i;
        s.counts[q] += 1;
        s.comp_of[i] = first_new + q;
    }
    s.members[run.lo..run.hi].copy_from_slice(&s.sorted);
    let mut lo = run.lo;
    for q in 0..parts {
        let c = &mut s.comps[first_new + q];
        c.lo = lo;
        c.hi = run.lo + s.counts[q];
        lo = c.hi;
    }
    for c in first_new..s.comps.len() {
        solve(s, c, cap);
    }
}

/// Progressive filling on the sharing component `s.comps[c]`: the
/// bottleneck is the slot with the smallest `cap_left / users`, ties to
/// the lowest link id; it freezes every unfrozen flow whose arc covers it,
/// and a slot those flows cross `k` times takes `k` identical updates.
fn solve(s: &mut CircuitScratch, c: usize, cap: f64) {
    let run = s.comps[c];
    let len = run.len;
    s.users.clear();
    s.users.resize(len + 1, 0);
    s.joins.clear();
    s.joins.resize(len + 1, 0);
    s.unfrozen.clear();
    for j in run.lo..run.hi {
        let i = s.members[j];
        let (o, h) = (offset(&run, s.first[i]), s.hops[i]);
        add_arc(&mut s.users, len, o, h);
        s.unfrozen.push((i, o, h));
    }
    prefix_sums(&mut s.users, len);
    s.cap_left.clear();
    s.cap_left.resize(len, cap);
    s.fair.clear();
    s.link_id.clear();
    for k in 0..len {
        let users = s.users[k] as usize;
        s.fair.push(if users > 0 {
            cap / users as f64
        } else {
            f64::INFINITY
        });
        let slot = run.base + (run.from + k) % run.size;
        s.link_id
            .push(s.layout.link_at(slot).expect("a loaded slot has a link"));
    }
    while !s.unfrozen.is_empty() {
        let (best, share) = bottleneck(&s.fair, &s.link_id);
        let (rates, freeze) = (&mut s.rates, &mut s.joins);
        s.unfrozen.retain(|&(i, o, h)| {
            let d = best + len - o;
            if (if d >= len { d - len } else { d }) >= h {
                return true;
            }
            rates[i] = share;
            add_arc(freeze, len, o, h);
            false
        });
        s.pending.clear();
        let mut crossing = 0;
        for k in 0..len {
            crossing += s.joins[k];
            s.joins[k] = 0;
            if crossing > 0 {
                s.users[k] -= crossing;
                if s.users[k] == 0 {
                    // Never read again in this solve.
                    s.fair[k] = f64::INFINITY;
                } else {
                    s.pending.push((k, crossing as usize));
                }
            }
        }
        s.joins[len] = 0;
        replay(&mut s.cap_left, &s.pending, share);
        for &(k, _) in &s.pending {
            s.fair[k] = s.cap_left[k] / s.users[k] as f64;
        }
    }
}

/// Slots [`bottleneck`] and [`replay`] work on side by side.
const LANES: usize = 4;

/// The slot with the smallest fair share, ties to the lowest link id, and
/// that share: a minimum over [`LANES`] interleaved lanes, then one pass for
/// the lowest link id among the slots that attain it.
fn bottleneck(fair: &[f64], link_id: &[usize]) -> (usize, f64) {
    let mut lanes = [f64::INFINITY; LANES];
    let mut groups = fair.chunks_exact(LANES);
    for g in &mut groups {
        for l in 0..LANES {
            if g[l] < lanes[l] {
                lanes[l] = g[l];
            }
        }
    }
    let share = lanes
        .into_iter()
        .chain(groups.remainder().iter().copied())
        .fold(f64::INFINITY, |m, f| if f < m { f } else { m });
    let (mut best, mut id) = (0, usize::MAX);
    for (k, (&f, &l)) in fair.iter().zip(link_id).enumerate() {
        if f == share && l < id {
            (best, id) = (k, l);
        }
    }
    (best, share)
}

/// Gives each `(slot, k)` of `pending` its `k` updates
/// `cap_left = max(cap_left − share, 0)`, [`LANES`] slots side by side so
/// the chains of dependent subtractions overlap.
///
/// With `share ≥ 0` the unclamped chain `x, x − share, …` never rises (a
/// rounded difference is monotone), so once it goes negative it stays
/// negative, while the clamped chain stays 0: `k` clamped updates equal
/// `k` unclamped subtractions clamped once. The subtractions themselves
/// are never folded into one `x − k·share`, which rounds differently.
fn replay(cap_left: &mut [f64], pending: &[(usize, usize)], share: f64) {
    let mut groups = pending.chunks_exact(LANES);
    for g in &mut groups {
        let mut x: [f64; LANES] = std::array::from_fn(|l| cap_left[g[l].0]);
        let k: [usize; LANES] = std::array::from_fn(|l| g[l].1);
        let rounds = k.iter().copied().max().unwrap_or(0);
        for r in 0..rounds {
            for l in 0..LANES {
                x[l] -= if r < k[l] { share } else { 0.0 };
            }
        }
        for l in 0..LANES {
            cap_left[g[l].0] = x[l].max(0.0);
        }
    }
    for &(slot, k) in groups.remainder() {
        let mut x = cap_left[slot];
        for _ in 0..k {
            x -= share;
        }
        cap_left[slot] = x.max(0.0);
    }
}

pub mod reference {
    //! The seed from-scratch engine, kept verbatim as the differential
    //! oracle: it re-runs the full progressive-filling solver over all
    //! links and all active flows after every completion. The arc solve
    //! in the parent module must match it bit for bit (see
    //! `tests/fluid_differential.rs` at the workspace root), and
    //! [`super::simulate_flows_scratch`] runs it on every flow set not
    //! shaped like a circuit step.

    use super::{max_min_rates, FlowSpec};

    /// Seed implementation of [`super::simulate_flows`]: full max-min
    /// recompute at every completion.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range links, non-positive or infinite used
    /// capacities and non-finite volumes, at the first bad flow in order.
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
            assert_eq!(a.to_bits(), b.to_bits(), "solve {a} vs reference {b}");
        }
    }

    #[test]
    fn simulate_flows_matches_reference_bitwise_on_mixed_volumes() {
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
            assert_eq!(x.to_bits(), y.to_bits(), "solve {x} vs reference {y}");
        }
    }

    #[test]
    fn one_seed_engine_run_per_non_circuit_simulation() {
        // Staggered volumes on shared links complete in several rounds and
        // are not shaped like a circuit step, so each simulation runs the
        // seed engine once. Equal volumes on the arcs of a 3-link cycle
        // are, and the arc solve takes them.
        let caps = vec![100.0; 3];
        let staggered: Vec<FlowSpec> = (0..5)
            .map(|i| FlowSpec {
                bytes: 50.0 * (i + 1) as f64,
                path: vec![i % 3, (i + 1) % 3],
            })
            .collect();
        let cycle: Vec<FlowSpec> = (0..3)
            .map(|i| FlowSpec {
                bytes: 50.0,
                path: vec![i, (i + 1) % 3],
            })
            .collect();
        let mut s = FluidScratch::new();
        assert_eq!(s.reference_runs(), 0);
        for round in 1..=4u64 {
            s.load_specs(&staggered);
            simulate_flows_scratch(&caps, &mut s);
            assert_eq!(s.reference_runs(), round, "one seed-engine run");
            s.load_specs(&cycle);
            simulate_flows_scratch(&caps, &mut s);
            assert_eq!(s.reference_runs(), round, "the arc solve took the cycle");
        }
    }

    #[test]
    fn recycled_scratch_is_bit_identical_to_fresh_scratch() {
        // Arena reuse must be invisible: running flow set B in a scratch
        // warmed by flow set A gives bitwise the same finish times as a
        // fresh scratch — no flow, path or finish time of A may leak into
        // B.
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
