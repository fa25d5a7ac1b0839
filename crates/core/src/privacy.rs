//! User privacy controls (§3.3).
//!
//! "We guarantee complete anonymity and give the user full control over
//! what information he wishes to share, and these settings can be
//! changed at any time from the application interface." And §3.2: "we
//! allow users to select the types of information their `[sic]` wish to
//! share, so that they retain full control over their own privacy."
//!
//! A [`PrivacyPolicy`] is the device owner's standing instruction set:
//! which sensor channels may be observed by experiments at all. The
//! device node consults it when mirroring collector subscriptions — a
//! blocked channel's mirror is *refused*, so the corresponding sensor
//! never even turns on (the §4.3 power machinery gives privacy-off =
//! power-off for free). Policy changes apply immediately to existing
//! subscriptions, exactly like toggling a setting in the UI.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Sensor channels the user can veto. Non-sensor (script-to-script)
/// channels are never blocked: they carry data the experiment computed
/// itself, inside its sandbox.
pub const SENSOR_CHANNELS: [&str; 5] = [
    "wifi-scan",
    "battery",
    "location",
    "accelerometer",
    "cell-id",
];

type ChangeListener = Rc<dyn Fn(&str, bool)>;

#[derive(Default)]
struct Inner {
    /// Channel → allowed. Channels not present default to allowed.
    rules: BTreeMap<String, bool>,
    listeners: Vec<ChangeListener>,
    denied_deliveries: u64,
}

/// A device owner's sharing preferences. Cheap to clone; clones share
/// state (the settings UI and the middleware see the same object).
#[derive(Clone, Default)]
pub struct PrivacyPolicy {
    inner: Rc<RefCell<Inner>>,
}

impl std::fmt::Debug for PrivacyPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("PrivacyPolicy")
            .field("rules", &inner.rules)
            .field("denied_deliveries", &inner.denied_deliveries)
            .finish()
    }
}

impl PrivacyPolicy {
    /// The default policy: everything shared (the §3.3 opportunistic
    /// opt-out model — installing Pogo is consent, the settings page is
    /// the veto).
    pub fn allow_all() -> Self {
        PrivacyPolicy::default()
    }

    /// True if experiments may observe `channel` on this device.
    pub fn is_allowed(&self, channel: &str) -> bool {
        *self.inner.borrow().rules.get(channel).unwrap_or(&true)
    }

    /// Changes a channel's sharing setting — "settings can be changed at
    /// any time". Listeners (the device node) apply the change to live
    /// subscriptions immediately.
    pub fn set_allowed(&self, channel: &str, allowed: bool) {
        let listeners = {
            let mut inner = self.inner.borrow_mut();
            let previous = inner.rules.insert(channel.to_owned(), allowed);
            if previous == Some(allowed) || (previous.is_none() && allowed) {
                return; // no change
            }
            inner.listeners.clone()
        };
        for l in listeners {
            l(channel, allowed);
        }
    }

    /// Registers a change listener (the device node).
    pub fn on_change(&self, f: impl Fn(&str, bool) + 'static) {
        self.inner.borrow_mut().listeners.push(Rc::new(f));
    }

    /// Counts a delivery suppressed by this policy (diagnostics shown in
    /// the user's settings UI: "what did I veto lately?").
    pub fn record_denied(&self) {
        self.inner.borrow_mut().denied_deliveries += 1;
    }

    /// Number of sensor deliveries suppressed so far.
    pub fn denied_deliveries(&self) -> u64 {
        self.inner.borrow().denied_deliveries
    }

    /// Snapshot of explicit rules (for the settings UI).
    pub fn rules(&self) -> Vec<(String, bool)> {
        self.inner
            .borrow()
            .rules
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_share_everything() {
        let p = PrivacyPolicy::allow_all();
        for ch in SENSOR_CHANNELS {
            assert!(p.is_allowed(ch));
        }
        assert!(p.is_allowed("some-future-sensor"));
    }

    #[test]
    fn listeners_fire_only_on_real_changes() {
        let p = PrivacyPolicy::allow_all();
        let events = Rc::new(RefCell::new(Vec::new()));
        let e = events.clone();
        p.on_change(move |ch, allowed| e.borrow_mut().push((ch.to_owned(), allowed)));
        p.set_allowed("location", true); // already the default
        p.set_allowed("location", false);
        p.set_allowed("location", false); // redundant
        p.set_allowed("location", true);
        assert_eq!(
            *events.borrow(),
            vec![
                ("location".to_owned(), false),
                ("location".to_owned(), true)
            ]
        );
    }

    #[test]
    fn denied_counter_accumulates() {
        let p = PrivacyPolicy::allow_all();
        p.record_denied();
        p.record_denied();
        assert_eq!(p.denied_deliveries(), 2);
    }
}
