//! # pogo-net — the messaging substrate (the XMPP/Openfire substitute)
//!
//! Pogo "relies on the XMPP protocol … `[and]` an off-the-shelf open source
//! instant messaging server to manage communication between device- and
//! collector nodes" (§4.2, §4.6). This crate rebuilds the pieces of that
//! stack the middleware's behaviour depends on:
//!
//! * [`Switchboard`] — the Openfire equivalent: accounts,
//!   admin-managed rosters (the device↔researcher associations), and
//!   routing between connected sessions only;
//! * [`Session`] — a client connection. Like a real TCP/XMPP
//!   session over a mobile bearer, **in-flight messages are lost when the
//!   session drops** (interface handover), which is exactly why Pogo
//!   implements its own end-to-end acknowledgements;
//! * [`MessageStore`] — the embedded-SQL-database substitute:
//!   a persistent outgoing buffer that survives reboots, purges
//!   messages older than a configurable age (the fateful 24-hour expiry
//!   of §5.3) and knows which messages are in flight, so that a sender
//!   resends only those whose ack is overdue;
//! * [`SeenSet`] — the sequence numbers seen from one sender, which
//!   drops duplicates: the receiving half of Pogo's "own end-to-end
//!   acknowledgements on top of XMPP" (the sender side is
//!   [`MessageStore::ack_run`]), whose floor a purging sender's
//!   low-water mark raises;
//! * [`FlushPolicy`] — when to push buffered data: on a detected
//!   3G tail (Pogo's mechanism), at fixed intervals, when charging, or
//!   immediately (the ablation baselines).

mod batch;
pub mod jid;
mod reliable;
mod server;
mod store;
mod wire;

pub use batch::FlushPolicy;
pub use jid::{Jid, ParseJidError};
pub use reliable::SeenSet;
pub use server::{ChaosHook, LinkFate, LinkShape, NetError, Session, Switchboard};
pub use store::{MessageStore, StoredMessage};
pub use wire::{Envelope, Payload, ENVELOPE_OVERHEAD_BYTES};
