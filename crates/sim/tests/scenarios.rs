//! Determinism and shape invariants of the named scenario generators.
//!
//! The bench harness gates on scenario reports byte-for-byte, so the
//! generators themselves must be pure functions of their arguments: two
//! calls with the same volume must produce structurally identical
//! scenarios, and every scenario must satisfy the partition invariants the
//! tenant executor validates at run time.

use aps_cost::units::MIB;
use aps_cost::ReconfigModel;
use aps_par::Pool;
use aps_sim::{scenarios, RunConfig, Scenario, TenantSpec};

fn assert_tenants_identical(a: &TenantSpec, b: &TenantSpec) {
    assert_eq!(a.name, b.name);
    assert_eq!(a.ports, b.ports);
    assert_eq!(a.base_config, b.base_config);
    assert_eq!(a.schedule, b.schedule);
    assert_eq!(a.switch_schedule, b.switch_schedule);
    assert_eq!(a.arrival_s, b.arrival_s);
}

#[test]
fn generators_are_deterministic_across_invocations() {
    for bytes in [8.0 * 1024.0, MIB, 64.0 * MIB] {
        for (a, b) in scenarios::all(bytes).iter().zip(&scenarios::all(bytes)) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.n, b.n);
            assert_eq!(a.tenants.len(), b.tenants.len());
            for (ta, tb) in a.tenants.iter().zip(&b.tenants) {
                assert_tenants_identical(ta, tb);
            }
            assert_eq!(a.initial_config().unwrap(), b.initial_config().unwrap());
        }
    }
}

#[test]
fn identical_trial_sets_produce_identical_outcomes() {
    // The full path the bench takes: same volume → same scenario set, each
    // run on a fresh fabric across the pool → byte-identical tenant
    // reports, at several thread counts.
    let run = |_: usize, scenario: &Scenario| {
        let mut fabric = scenario.fabric(ReconfigModel::constant(5e-6).unwrap())?;
        scenario.run_on(&mut fabric, &RunConfig::paper_defaults())
    };
    let first = Pool::serial().try_map(&scenarios::all(MIB), run).unwrap();
    for pool in [Pool::serial(), Pool::new(2), Pool::new(4)] {
        let again = pool.try_map(&scenarios::all(MIB), run).unwrap();
        assert_eq!(first.len(), again.len());
        for (a, b) in first.iter().zip(&again) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.as_ref().unwrap(), y.as_ref().unwrap());
            }
        }
    }
}

fn check_shape(s: &Scenario) {
    assert!(!s.tenants.is_empty(), "{}: no tenants", s.name);
    let mut owner = vec![false; s.n];
    for t in &s.tenants {
        assert!(
            !t.ports.is_empty(),
            "{}/{}: empty partition",
            s.name,
            t.name
        );
        for &p in &t.ports {
            assert!(p < s.n, "{}/{}: port {p} out of range", s.name, t.name);
            assert!(
                !owner[p],
                "{}/{}: port {p} owned by two tenants",
                s.name, t.name
            );
            owner[p] = true;
        }
        // Local shapes agree: base config, collective and switch schedule
        // all cover the partition.
        assert_eq!(t.base_config.n(), t.ports.len(), "{}/{}", s.name, t.name);
        assert_eq!(t.schedule.n(), t.ports.len(), "{}/{}", s.name, t.name);
        assert!(
            t.schedule.num_steps() > 0,
            "{}/{}: empty schedule",
            s.name,
            t.name
        );
        assert_eq!(
            t.switch_schedule.len(),
            t.schedule.num_steps(),
            "{}/{}",
            s.name,
            t.name
        );
        assert!(t.arrival_s >= 0.0, "{}/{}", s.name, t.name);
    }
    // The initial configuration respects the partition: every circuit
    // stays inside one tenant's ports.
    let config = config_owner_check(s);
    assert_eq!(config.n(), s.n, "{}", s.name);
}

fn config_owner_check(s: &Scenario) -> aps_matrix::Matching {
    let mut owner: Vec<Option<usize>> = vec![None; s.n];
    for (i, t) in s.tenants.iter().enumerate() {
        for &p in &t.ports {
            owner[p] = Some(i);
        }
    }
    let config = s.initial_config().unwrap();
    for (src, dst) in config.pairs() {
        assert_eq!(
            owner[src], owner[dst],
            "{}: circuit {src}→{dst} crosses partitions",
            s.name
        );
        assert!(
            owner[src].is_some(),
            "{}: circuit on idle port {src}",
            s.name
        );
    }
    config
}

#[test]
fn every_named_scenario_is_well_shaped() {
    for bytes in [64.0 * 1024.0, 4.0 * MIB] {
        let all = scenarios::all(bytes);
        assert_eq!(all.len(), 3);
        let names: Vec<&str> = all.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["mixed-collectives", "skewed-tenants", "staggered-arrivals"]
        );
        for s in &all {
            check_shape(s);
        }
    }
}

#[test]
fn shapes_survive_controller_planning() {
    // Planning replaces switch schedules; the structural invariants must
    // hold afterwards for every shipped controller.
    use aps_core::controller::shipped;
    use aps_cost::CostParams;
    let reconfig = ReconfigModel::constant(10e-6).unwrap();
    for ctl in shipped() {
        for mut s in scenarios::all(MIB) {
            s.plan(&Pool::serial(), ctl, CostParams::paper_defaults(), reconfig)
                .unwrap();
            check_shape(&s);
        }
    }
}
