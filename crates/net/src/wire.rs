//! Wire format: the envelopes exchanged between nodes.

use crate::jid::Jid;

/// Fixed per-envelope overhead in bytes (XMPP stanza framing, addressing,
/// ids). Counted toward radio transfer sizes so the energy model sees
/// realistic volumes.
pub const ENVELOPE_OVERHEAD_BYTES: u64 = 64;

/// What an envelope carries.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Application data (a serialized JSON message from the middleware).
    Data(String),
    /// End-to-end acknowledgement of the given sender sequence numbers
    /// (Pogo's own ack layer on top of XMPP, §4.6).
    Ack(Vec<u64>),
}

impl Payload {
    /// Payload size in bytes as transferred.
    pub(crate) fn size_bytes(&self) -> u64 {
        match self {
            Payload::Data(s) => s.len() as u64,
            Payload::Ack(ids) => 8 * ids.len() as u64,
        }
    }
}

/// One routed message.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Sender.
    pub from: Jid,
    /// Recipient.
    pub to: Jid,
    /// Sender-assigned sequence number (unique per sender; used by the
    /// e2e ack/dedup layer).
    pub seq: u64,
    /// The contents.
    pub payload: Payload,
    /// Send time in simulation milliseconds (diagnostics/latency stats).
    pub sent_at_ms: u64,
}

impl Envelope {
    /// Total bytes this envelope occupies on the wire.
    pub fn wire_size(&self) -> u64 {
        ENVELOPE_OVERHEAD_BYTES + self.payload.size_bytes()
    }

    /// The data string, if this is a data envelope.
    pub fn data(&self) -> Option<&str> {
        match &self.payload {
            Payload::Data(s) => Some(s),
            Payload::Ack(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jid(s: &str) -> Jid {
        Jid::new(s).unwrap()
    }

    #[test]
    fn wire_size_includes_overhead() {
        let e = Envelope {
            from: jid("a@x"),
            to: jid("b@x"),
            seq: 1,
            payload: Payload::Data("0123456789".to_owned()),
            sent_at_ms: 0,
        };
        assert_eq!(e.wire_size(), ENVELOPE_OVERHEAD_BYTES + 10);
        assert_eq!(e.data(), Some("0123456789"));
    }

    #[test]
    fn ack_size_scales_with_ids() {
        let e = Envelope {
            from: jid("a@x"),
            to: jid("b@x"),
            seq: 2,
            payload: Payload::Ack(vec![1, 2, 3]),
            sent_at_ms: 5,
        };
        assert_eq!(e.wire_size(), ENVELOPE_OVERHEAD_BYTES + 24);
        assert_eq!(e.data(), None);
    }
}
