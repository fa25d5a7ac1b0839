//! Dense device identities.
//!
//! [`DeviceId`] is the stable way to *name* a device across subsystems:
//! a testbed hands ids out in creation order, `Fleet` indexes its
//! members by them, and chaos fault plans target them, so a seeded plan
//! stays valid for any run that builds the same fleet.

/// Dense per-device index, assigned in creation order by the testbed
/// that owns the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(u32);

impl DeviceId {
    /// Wraps a raw creation-order index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX` devices.
    pub fn new(index: usize) -> Self {
        DeviceId(u32::try_from(index).expect("more than u32::MAX devices"))
    }

    /// The creation-order index, usable to subscript per-device tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for DeviceId {
    fn from(index: usize) -> Self {
        DeviceId::new(index)
    }
}

impl From<u32> for DeviceId {
    fn from(index: u32) -> Self {
        DeviceId(index)
    }
}

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_id_round_trips_and_orders() {
        let a = DeviceId::new(3);
        let b = DeviceId::from(7usize);
        assert_eq!(a.index(), 3);
        assert_eq!(b.index(), 7);
        assert!(a < b);
        assert_eq!(format!("{a}"), "#3");
        assert_eq!(DeviceId::from(3u32), a);
    }
}
