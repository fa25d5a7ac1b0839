//! The deploy gate does not listen to the process environment.
//!
//! `POGO_SCRIPT_ENGINE=treewalk` used to select the tree-walk engine
//! process-wide, and as a side effect turned the collector's compiled-form
//! gate (verifier + P301 cost rejection) into a no-op. The switch is gone;
//! this test keeps it gone. It is alone in its test binary so the
//! variable is set before any code could have read it.

use pogo_core::proto::{ExperimentSpec, ScriptSpec};
use pogo_core::{DeviceSetup, Testbed};
use pogo_sim::{Sim, SimDuration};

#[test]
fn p301_is_rejected_with_the_old_engine_switch_in_the_environment() {
    std::env::set_var("POGO_SCRIPT_ENGINE", "treewalk");

    let sim = Sim::new();
    let mut testbed = Testbed::new(&sim);
    let (device, _phone) = testbed.add(DeviceSetup::named("device-1"));
    // Every invocation provably burns past the watchdog budget on its
    // cheapest path, so no phone could ever complete it.
    let err = testbed
        .collector()
        .deployment(&ExperimentSpec {
            id: "exp".into(),
            scripts: vec![ScriptSpec {
                name: "hot.js".into(),
                source: "subscribe('accelerometer', function (m) {\n\
                         \x20 var s = 0;\n\
                         \x20 for (var i = 0; i < 20000000; i++) { s = s + i; }\n\
                         \x20 publish(s, 'out');\n\
                         });"
                .into(),
            }],
        })
        .to(&[device.jid()])
        .send()
        .expect_err("statically over-budget callback must reject the deployment");
    assert_eq!(err.errors.len(), 1);
    assert_eq!(err.errors[0].1.rule.code(), "P301");
    sim.run_for(SimDuration::from_mins(5));
    assert!(
        device.context("exp").is_none(),
        "the device never hears about it"
    );
}
