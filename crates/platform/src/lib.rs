//! # pogo-platform — the simulated Android phone
//!
//! The Pogo paper runs on real hardware: a Samsung Galaxy Nexus with a 3G
//! modem, a Wi-Fi chipset, an application CPU that deep-sleeps, and a
//! battery instrumented with a shunt resistor and a National Instruments
//! ADC. This crate rebuilds exactly the behaviours the paper's mechanisms
//! and measurements depend on:
//!
//! * an [`energy::EnergyMeter`] that integrates per-rail power draw over
//!   simulated time (the ADC substitute — see Table 3 and Figure 3),
//! * a [`cpu::Cpu`] with wake locks, alarms, a post-activity awake linger,
//!   and *sleep-frozen timers* — the `Thread.sleep` side effect Pogo's tail
//!   detection exploits (§4.7),
//! * a [`radio::CellularModem`] implementing the IDLE → ramp-up → DCH →
//!   FACH → IDLE RRC state machine with per-carrier tail timers
//!   ([`radio::CarrierProfile`]; KPN / T-Mobile / Vodafone from §5.2),
//! * a [`wifi::WifiRadio`] with scan and transfer energy costs,
//! * [`connectivity::Connectivity`] for interface handover events, and
//! * [`apps::PeriodicNetApp`], the background e-mail checker whose radio
//!   tails Pogo piggybacks on.
//!
//! Everything is assembled by [`phone::Phone`].

pub mod apps;
pub mod battery;
pub mod connectivity;
pub mod cpu;
pub mod energy;
pub mod phone;
pub mod radio;
pub mod wifi;

pub use apps::{NetAppConfig, PeriodicNetApp};
pub use battery::Battery;
pub use connectivity::{Bearer, Connectivity};
pub use cpu::{AlarmId, Cpu, CpuConfig, FrozenTimer, RepeatingAlarm, WakeLock};
pub use energy::{EnergyMeter, PowerTrace, RailId};
pub use phone::{Phone, PhoneConfig};
pub use radio::{CarrierProfile, CellularModem, RadioState};
pub use wifi::{WifiConfig, WifiRadio};
