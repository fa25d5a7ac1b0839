//! # pogo-sim — deterministic discrete-event simulation kernel
//!
//! The foundation of the Pogo-rs reproduction. The original Pogo middleware
//! ran on real Android phones; this crate provides the simulated clock and
//! event queue on which the reproduction's phone hardware model
//! (`pogo-platform`), network switchboard (`pogo-net`), and the middleware
//! itself (`pogo-core`) are built.
//!
//! The kernel is deliberately single-threaded and deterministic: events that
//! are scheduled for the same instant fire in scheduling order, and every
//! source of randomness flows through a seeded [`SimRng`]. Two runs with the
//! same seed produce byte-identical results, which the integration test
//! suite relies on.
//!
//! ## Example
//!
//! ```
//! use pogo_sim::{Sim, SimDuration};
//!
//! let sim = Sim::new();
//! let hits = std::rc::Rc::new(std::cell::Cell::new(0));
//! let h = hits.clone();
//! sim.schedule_in(SimDuration::from_secs(5), move || h.set(h.get() + 1));
//! sim.run_for(SimDuration::from_secs(10));
//! assert_eq!(hits.get(), 1);
//! ```

mod arena;
mod clock;
pub mod queue;
mod rng;
mod sim;
mod time;

pub use arena::DeviceId;
pub use clock::DeviceClock;
pub use queue::EventId;
pub use rng::SimRng;
pub use sim::Sim;
pub use time::{SimDuration, SimTime};
