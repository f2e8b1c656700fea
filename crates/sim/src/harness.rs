//! Multi-trial simulation harness.
//!
//! Ablations and validation studies run the simulator many times — per
//! workload, per policy, per fault scenario, per compute model. Every trial
//! is independent (each owns its fabric), so the batch is evaluated on an
//! [`aps_par::Pool`] with deterministic result ordering: `reports[i]`
//! always belongs to `trials[i]`, at any `APS_THREADS` setting, and the
//! simulator itself is deterministic, so a batch's output is bit-identical
//! across thread counts.

use crate::error::SimError;
use crate::exec::{run_scheduled, RunConfig};
use crate::report::SimReport;
use aps_collectives::Schedule;
use aps_core::SwitchSchedule;
use aps_cost::ReconfigModel;
use aps_fabric::CircuitSwitch;
use aps_matrix::Matching;
use aps_par::Pool;

/// One self-contained simulator run: the harness builds a fresh
/// [`CircuitSwitch`] starting at `base_config` with `reconfig` pricing, and
/// executes `schedule` under `switch_schedule`.
#[derive(Debug, Clone)]
pub struct Trial {
    /// Circuit configuration realizing the base topology (also the
    /// fabric's initial state).
    pub base_config: Matching,
    /// Reconfiguration pricing of the fabric.
    pub reconfig: ReconfigModel,
    /// The collective to execute.
    pub schedule: Schedule,
    /// Per-step base/matched choices.
    pub switch_schedule: SwitchSchedule,
    /// Simulation parameters.
    pub config: RunConfig,
}

impl Trial {
    /// Runs this trial alone on a fresh fabric.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn run(&self) -> Result<SimReport, SimError> {
        let mut fabric = CircuitSwitch::new(self.base_config.clone(), self.reconfig);
        run_scheduled(
            &mut fabric,
            &self.base_config,
            &self.schedule,
            &self.switch_schedule,
            &self.config,
        )
    }
}

/// Runs every trial on `pool`; `reports[i]` corresponds to `trials[i]`.
///
/// # Errors
///
/// All trials are evaluated; when several fail, the error of the lowest
/// trial index is returned.
pub fn run_trial_batch(pool: &Pool, trials: &[Trial]) -> Result<Vec<SimReport>, SimError> {
    pool.try_map(trials, |_, trial| trial.run())
}

/// One multi-tenant simulator run: a [`crate::Scenario`] on a fresh fabric with
/// `reconfig` pricing (see [`crate::scenarios`]).
#[derive(Debug, Clone)]
pub struct ScenarioTrial {
    /// The workload mix.
    pub scenario: crate::scenarios::Scenario,
    /// Reconfiguration pricing of the shared fabric.
    pub reconfig: ReconfigModel,
    /// Simulation parameters.
    pub config: RunConfig,
}

impl ScenarioTrial {
    /// Runs this scenario alone on a fresh fabric.
    ///
    /// # Errors
    ///
    /// Propagates structural errors; per-tenant failures land in the inner
    /// results.
    pub fn run(&self) -> Result<Vec<Result<crate::TenantReport, SimError>>, SimError> {
        self.scenario.run(self.reconfig, &self.config)
    }
}

/// Runs every scenario trial on `pool`; `outcomes[i]` corresponds to
/// `trials[i]`, bit-identically at any thread count (each multi-tenant run
/// is a pure, deterministic function of its trial).
///
/// # Errors
///
/// All trials are evaluated; when several fail *structurally*, the error
/// of the lowest trial index is returned. Per-tenant failures do not fail
/// the batch.
pub fn run_scenario_trials(
    pool: &Pool,
    trials: &[ScenarioTrial],
) -> Result<Vec<Vec<Result<crate::TenantReport, SimError>>>, SimError> {
    pool.try_map(trials, |_, trial| trial.run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aps_collectives::allreduce;
    use aps_core::ConfigChoice;

    fn trials(n: usize) -> Vec<Trial> {
        let base_config = Matching::shift(n, 1).unwrap();
        let reconfig = ReconfigModel::constant(5e-6).unwrap();
        [1e3, 1e6, 1e8]
            .into_iter()
            .flat_map(|bytes| {
                let base_config = base_config.clone();
                let schedule = allreduce::halving_doubling::build(n, bytes)
                    .unwrap()
                    .schedule;
                let steps = schedule.num_steps();
                [
                    SwitchSchedule::all_base(steps),
                    SwitchSchedule::all_matched(steps),
                ]
                .into_iter()
                .map(move |switch_schedule| Trial {
                    base_config: base_config.clone(),
                    reconfig,
                    schedule: schedule.clone(),
                    switch_schedule,
                    config: RunConfig::paper_defaults(),
                })
            })
            .collect()
    }

    #[test]
    fn batch_matches_individual_runs_in_order() {
        let ts = trials(8);
        let batch = run_trial_batch(&Pool::new(4), &ts).unwrap();
        assert_eq!(batch.len(), ts.len());
        for (t, r) in ts.iter().zip(&batch) {
            assert_eq!(r, &t.run().unwrap());
        }
        // Matched runs reconfigure, base runs never do — order preserved.
        assert_eq!(batch[0].reconfig_events(), 0);
        assert!(batch[1].reconfig_events() > 0);
    }

    #[test]
    fn batch_is_deterministic_across_thread_counts() {
        let ts = trials(8);
        let serial = run_trial_batch(&Pool::serial(), &ts).unwrap();
        for threads in [2, 3, 8] {
            assert_eq!(serial, run_trial_batch(&Pool::new(threads), &ts).unwrap());
        }
    }

    #[test]
    fn scenario_batch_is_deterministic_and_ordered() {
        let trials: Vec<ScenarioTrial> = [1e6, 4e6]
            .into_iter()
            .flat_map(|bytes| {
                crate::scenarios::all(bytes)
                    .into_iter()
                    .map(|scenario| ScenarioTrial {
                        scenario,
                        reconfig: ReconfigModel::constant(5e-6).unwrap(),
                        config: RunConfig::paper_defaults(),
                    })
            })
            .collect();
        let serial = run_scenario_trials(&Pool::serial(), &trials).unwrap();
        assert_eq!(serial.len(), trials.len());
        for (t, outcome) in trials.iter().zip(&serial) {
            assert_eq!(outcome.len(), t.scenario.tenants.len());
            let solo = t.run().unwrap();
            for (a, b) in outcome.iter().zip(&solo) {
                assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
            }
        }
        for threads in [2, 4] {
            let parallel = run_scenario_trials(&Pool::new(threads), &trials).unwrap();
            for (a, b) in serial.iter().zip(&parallel) {
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.as_ref().unwrap(), y.as_ref().unwrap());
                }
            }
        }
    }

    #[test]
    fn first_failing_trial_by_index_is_reported() {
        let mut ts = trials(8);
        // Make trials 1 and 3 fail with a length mismatch; index 1 wins.
        ts[3].switch_schedule = SwitchSchedule::new(vec![ConfigChoice::Base]);
        ts[1].switch_schedule = SwitchSchedule::new(vec![ConfigChoice::Base; 2]);
        let err = run_trial_batch(&Pool::new(4), &ts).unwrap_err();
        assert!(
            matches!(err, SimError::ScheduleLengthMismatch { got: 2, .. }),
            "{err}"
        );
    }
}
