//! PHOLD must be exactly reversible before any number measured on it means
//! anything: under the runtime auditor and a fault storm, the optimistic
//! kernel has to commit what the sequential kernel commits.

use benchmark::phold::Phold;
use pdes::{
    run_parallel_mapped, run_sequential, EngineConfig, FaultPlan, LinearMapping, ObsConfig,
    VirtualTime,
};

fn config(pes: usize) -> EngineConfig {
    EngineConfig::new(VirtualTime::from_steps(40))
        .with_seed(99)
        .with_pes(pes)
        .with_kps(16)
        .with_obs(ObsConfig::disabled())
        .with_audit(true)
        .with_audit_probe(true)
        .without_checkpoints()
}

#[test]
fn parallel_equals_sequential_under_audit_and_a_fault_storm() {
    let model = Phold {
        n_lps: 256,
        tokens_per_lp: 8,
        remote_frac: 0.1,
    };
    let seq = run_sequential(&model, &config(1)).expect("sequential PHOLD");
    assert!(seq.output.handled > 256 * 8 * 20, "PHOLD barely ran");
    for pes in [1, 2] {
        let storm = FaultPlan::new(5)
            .with_delay(0.3)
            .with_duplicate(0.2)
            .with_reorder(0.5);
        let cfg = config(pes).with_faults(storm);
        let mapping = LinearMapping::new(256, 16, pes);
        let par = run_parallel_mapped(&model, &cfg, &mapping).expect("audited parallel PHOLD");
        assert_eq!(par.output, seq.output, "{pes} PE(s)");
        assert_eq!(par.stats.events_committed, seq.stats.events_committed);
        if pes == 2 {
            assert!(
                par.stats.total_rollbacks() > 0,
                "the storm caused no rollback"
            );
            assert!(par.stats.total_injected_faults() > 0);
        }
    }
}

#[test]
fn remote_hops_reach_other_lps() {
    let model = Phold {
        n_lps: 64,
        tokens_per_lp: 4,
        remote_frac: 0.5,
    };
    let cfg = config(2).with_audit(false);
    let mapping = LinearMapping::new(64, 16, 2);
    let par = run_parallel_mapped(&model, &cfg, &mapping).expect("parallel PHOLD");
    assert!(par.stats.remote_events > 0, "no token ever crossed PEs");
}
