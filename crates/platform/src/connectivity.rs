//! Active-interface tracking and handover notification.
//!
//! §4.6: "Mobile phones frequently switch between wireless interfaces as
//! the user moves in- or out of range of access points and cell towers.
//! Unfortunately there is no transparent TCP handover between these
//! interfaces, causing stale TCP sessions and even dropped messages.
//! *Pogo* detects, using the Android API, when the active network
//! interface changes and automatically reconnects on the new interface."
//!
//! This module is that Android API: it holds the currently active bearer
//! and notifies listeners (the middleware's connection manager) when it
//! changes. The message loss itself happens in `pogo-net`, whose sessions
//! drop in-flight envelopes on disconnect.

use std::cell::RefCell;
use std::rc::Rc;

/// A network bearer the phone can route traffic over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bearer {
    /// The 2G/3G modem (tail energy applies).
    Cellular,
    /// A Wi-Fi association (no tail).
    Wifi,
}

impl std::fmt::Display for Bearer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Bearer::Cellular => f.write_str("cellular"),
            Bearer::Wifi => f.write_str("wifi"),
        }
    }
}

/// Everything one handset's connectivity handle shares between clones.
struct ConnState {
    active: Option<Bearer>,
    changes: u64,
    listeners: Vec<Rc<dyn Fn(Option<Bearer>)>>,
}

/// Connectivity state of a phone. Cheap to clone; clones share state.
#[derive(Clone)]
pub struct Connectivity {
    state: Rc<RefCell<ConnState>>,
}

impl std::fmt::Debug for Connectivity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connectivity")
            .field("active", &self.active())
            .field("changes", &self.change_count())
            .finish()
    }
}

impl Default for Connectivity {
    fn default() -> Self {
        Self::new(Some(Bearer::Cellular))
    }
}

impl Connectivity {
    /// Creates connectivity state with the given initial bearer
    /// (`None` = no connectivity, e.g. airplane mode or roaming data-off).
    pub fn new(initial: Option<Bearer>) -> Self {
        Connectivity {
            state: Rc::new(RefCell::new(ConnState {
                active: initial,
                changes: 0,
                listeners: Vec::new(),
            })),
        }
    }

    /// The currently active bearer, if any.
    pub fn active(&self) -> Option<Bearer> {
        self.state.borrow().active
    }

    /// True if any bearer is up.
    pub fn is_online(&self) -> bool {
        self.active().is_some()
    }

    /// Number of interface changes so far.
    pub fn change_count(&self) -> u64 {
        self.state.borrow().changes
    }

    /// Switches the active bearer, notifying listeners if it changed.
    pub fn set_active(&self, bearer: Option<Bearer>) {
        // Listeners run with the state unborrowed: they read `active()`
        // and may register further listeners.
        let listeners = {
            let mut state = self.state.borrow_mut();
            if state.active == bearer {
                return;
            }
            state.active = bearer;
            state.changes += 1;
            state.listeners.clone()
        };
        for l in listeners {
            l(bearer);
        }
    }

    /// Registers a handover listener, called with the new bearer.
    pub fn on_change(&self, f: impl Fn(Option<Bearer>) + 'static) {
        self.state.borrow_mut().listeners.push(Rc::new(f));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn change_notifies_listeners() {
        let conn = Connectivity::new(Some(Bearer::Cellular));
        let seen: Rc<RefCell<Vec<Option<Bearer>>>> = Rc::new(RefCell::new(Vec::new()));
        let s = seen.clone();
        conn.on_change(move |b| s.borrow_mut().push(b));
        conn.set_active(Some(Bearer::Wifi));
        conn.set_active(None);
        conn.set_active(Some(Bearer::Cellular));
        assert_eq!(
            *seen.borrow(),
            vec![Some(Bearer::Wifi), None, Some(Bearer::Cellular)]
        );
        assert_eq!(conn.change_count(), 3);
    }

    #[test]
    fn redundant_set_is_not_a_change() {
        let conn = Connectivity::new(Some(Bearer::Cellular));
        let count = Rc::new(RefCell::new(0));
        let c = count.clone();
        conn.on_change(move |_| *c.borrow_mut() += 1);
        conn.set_active(Some(Bearer::Cellular));
        assert_eq!(*count.borrow(), 0);
        assert_eq!(conn.change_count(), 0);
    }

    #[test]
    fn online_tracks_bearer_presence() {
        let conn = Connectivity::new(None);
        assert!(!conn.is_online());
        conn.set_active(Some(Bearer::Wifi));
        assert!(conn.is_online());
        assert_eq!(conn.active(), Some(Bearer::Wifi));
    }

    // The name predates the removal of the arenas (PR 14) and is pinned by
    // the test floor; it checks that two handles share nothing.
    #[test]
    fn arena_slots_are_independent() {
        let a = Connectivity::new(Some(Bearer::Cellular));
        let b = Connectivity::new(None);
        a.clone().set_active(Some(Bearer::Wifi));
        assert_eq!(a.active(), Some(Bearer::Wifi));
        assert_eq!(a.change_count(), 1);
        assert_eq!(b.active(), None, "sibling handle unaffected");
        assert_eq!(b.change_count(), 0);
    }
}
