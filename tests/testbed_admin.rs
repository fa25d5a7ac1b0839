//! §3.1's organization in one integration test: multiple researchers
//! sharing one device pool through the administrator's matchmaking
//! (the §6 future-work automation), with experiments staying sandboxed
//! and each researcher only ever talking to their granted devices.

use std::cell::RefCell;
use std::rc::Rc;

use pogo::core::proto::ScriptSpec;
use pogo::core::sensor::{SensorSources, WifiReading};
use pogo::core::{
    Admin, CollectorNode, DeviceConfig, DeviceNode, DeviceProfile, DeviceRequest, ExperimentSpec,
};
use pogo::net::{FlushPolicy, Jid, Switchboard};
use pogo::platform::{Phone, PhoneConfig};
use pogo::sim::{Sim, SimDuration};

fn sources() -> SensorSources {
    SensorSources {
        wifi_scan: Some(Box::new(|_t| {
            Some(vec![WifiReading {
                bssid: "00:10:00:00:00:01".into(),
                rssi_dbm: -60.0,
            }])
        })),
        ..SensorSources::default()
    }
}

fn spawn_device(sim: &Sim, server: &Switchboard, jid: &Jid) -> DeviceNode {
    let phone = Phone::new(sim, PhoneConfig::default());
    let mut cfg = DeviceConfig::new(jid.clone());
    cfg.flush_policy = FlushPolicy::Immediate;
    let node = DeviceNode::new(&phone, server, cfg, sources());
    node.boot();
    node
}

#[test]
fn two_researchers_share_a_pool_without_crosstalk() {
    let sim = Sim::new();
    let server = Switchboard::new(&sim);
    let admin = Admin::new(&server);

    // Six volunteers join the pool; half also share location.
    let mut devices = Vec::new();
    for i in 0..6 {
        let jid = Jid::new(&format!("d{i}@pogo")).unwrap();
        let mut profile = DeviceProfile::new(jid.clone(), ["battery", "wifi-scan"]);
        if i % 2 == 0 {
            profile.sensors.insert("location".to_owned());
        }
        admin.register_device(profile);
        devices.push(spawn_device(&sim, &server, &jid));
    }

    // Two researchers request devices through the admin.
    let alice_jid = Jid::new("alice@tudelft").unwrap();
    let bob_jid = Jid::new("bob@tudelft").unwrap();
    let alice_devices = admin
        .assign(
            &alice_jid,
            &DeviceRequest {
                count: 3,
                required_sensors: vec!["location".into()],
                region: None,
            },
        )
        .expect("three location-capable devices exist");
    let bob_devices = admin
        .assign(
            &bob_jid,
            &DeviceRequest {
                count: 6,
                required_sensors: vec!["wifi-scan".into()],
                region: None,
            },
        )
        .expect("every device scans Wi-Fi; sharing is allowed");

    let alice = CollectorNode::new(&sim, &server, &alice_jid);
    let bob = CollectorNode::new(&sim, &server, &bob_jid);

    // Each runs their own experiment on their own grant.
    let alice_seen: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
    let a = alice_seen.clone();
    alice.attach_listener(
        pogo::core::ChannelFilter::exp("alice-exp").channel("pings"),
        move |event| {
            a.borrow_mut().push(event.device.to_owned());
        },
    );
    alice
        .deployment(&ExperimentSpec {
            id: "alice-exp".into(),
            scripts: vec![ScriptSpec {
                name: "ping.js".into(),
                source: "publish('pings', { who: 'alice' });".into(),
            }],
        })
        .to(&alice_devices)
        .send()
        .expect("scripts pass pre-deployment analysis");

    let bob_seen: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
    let b = bob_seen.clone();
    bob.attach_listener(
        pogo::core::ChannelFilter::exp("bob-exp").channel("pings"),
        move |event| {
            b.borrow_mut().push(event.device.to_owned());
        },
    );
    bob.deployment(&ExperimentSpec {
        id: "bob-exp".into(),
        scripts: vec![ScriptSpec {
            name: "ping.js".into(),
            source: "publish('pings', { who: 'bob' });".into(),
        }],
    })
    .to(&bob_devices)
    .send()
    .expect("scripts pass pre-deployment analysis");

    sim.run_for(SimDuration::from_mins(5));

    // Alice hears exactly her three; Bob hears all six; the shared
    // devices run both experiments concurrently in separate contexts.
    assert_eq!(alice_seen.borrow().len(), 3, "{:?}", alice_seen.borrow());
    assert_eq!(bob_seen.borrow().len(), 6, "{:?}", bob_seen.borrow());
    let shared = &devices[0];
    assert!(shared.context("alice-exp").is_some());
    assert!(shared.context("bob-exp").is_some());

    // Device-to-device communication is impossible: devices are never
    // each other's roster buddies.
    assert!(!server.roster(&devices[0].jid()).contains(&devices[1].jid()));
}

#[test]
fn released_devices_stop_accepting_researcher_traffic() {
    let sim = Sim::new();
    let server = Switchboard::new(&sim);
    let admin = Admin::new(&server);
    let jid = Jid::new("d0@pogo").unwrap();
    admin.register_device(DeviceProfile::new(jid.clone(), ["battery"]));
    let _device = spawn_device(&sim, &server, &jid);

    let researcher = Jid::new("eve@lab").unwrap();
    let granted = admin
        .assign(
            &researcher,
            &DeviceRequest {
                count: 1,
                ..Default::default()
            },
        )
        .unwrap();
    let collector = CollectorNode::new(&sim, &server, &researcher);
    collector
        .deployment(&ExperimentSpec {
            id: "exp".into(),
            scripts: vec![],
        })
        .to(&granted)
        .send()
        .expect("scripts pass pre-deployment analysis");
    sim.run_for(SimDuration::from_mins(1));

    // The assignment ends; the roster association is revoked.
    admin.release(&researcher, &granted);
    // Further deployments are refused by the switchboard's authorization
    // (the control messages queue but never authorize through).
    collector
        .deployment(&ExperimentSpec {
            id: "exp2".into(),
            scripts: vec![ScriptSpec {
                name: "late.js".into(),
                source: "publish('x', 1);".into(),
            }],
        })
        .to(&granted)
        .send()
        .expect("scripts pass pre-deployment analysis");
    sim.run_for(SimDuration::from_mins(2));
    let device = _device;
    assert!(
        device.context("exp2").is_none(),
        "post-release deployment never reaches the device"
    );
}
