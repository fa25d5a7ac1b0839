//! Node addresses, in XMPP parlance *JIDs* (`node@domain`), interned
//! end-to-end.
//!
//! Every distinct JID text is parsed and allocated exactly once per
//! thread; all later [`Jid::new`] calls for the same text return a
//! handle to the same interned record. At fleet scale this matters
//! twice over: the switchboard, store, and roster paths stop re-hashing
//! 20-byte strings on every envelope (the record caches its FNV-1a
//! salt, and equality is a pointer compare), and 100k devices' worth of
//! JID copies collapse into one allocation each.
//!
//! Interned records live for the life of the thread — a fleet's address
//! book, not a cache. Ordering stays *lexicographic by text* so
//! `BTreeMap<Jid, _>` iteration (which feeds deterministic traces) is
//! unchanged from the pre-interning representation.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::str::FromStr;

/// The interned record behind a [`Jid`]: the text plus derived fields
/// computed once at intern time.
#[derive(Debug)]
struct JidRecord {
    text: Box<str>,
    /// Byte offset of the `@` separator.
    at: u32,
    /// FNV-1a hash of the text; stable across runs and processes.
    salt: u64,
    /// Dense intern-table index, in first-intern order for this thread.
    uid: u32,
}

thread_local! {
    static INTERN: RefCell<HashMap<Box<str>, Rc<JidRecord>>> =
        RefCell::new(HashMap::new());
}

/// A node address like `device-3@pogo` or `researcher@tudelft`.
///
/// Cheap to clone (shared interned record); equality is a pointer
/// compare, hashing uses the precomputed salt, ordering is by text.
#[derive(Clone)]
pub struct Jid(Rc<JidRecord>);

/// Error parsing a [`Jid`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseJidError(String);

impl fmt::Display for ParseJidError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JID (want node@domain): {:?}", self.0)
    }
}

impl std::error::Error for ParseJidError {}

/// FNV-1a over the JID text: deterministic across runs and processes —
/// the basis for per-link RNG seeds.
fn fnv1a(text: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl Jid {
    /// Creates (or looks up) the interned JID for `s`, validating the
    /// `node@domain` shape.
    ///
    /// # Errors
    ///
    /// Returns [`ParseJidError`] if there is not exactly one `@` with
    /// non-empty node and domain parts.
    pub fn new(s: &str) -> Result<Self, ParseJidError> {
        INTERN.with(|table| {
            let mut table = table.borrow_mut();
            if let Some(record) = table.get(s) {
                return Ok(Jid(record.clone()));
            }
            let at = match s.find('@') {
                Some(at) if at > 0 && at + 1 < s.len() && !s[at + 1..].contains('@') => at as u32,
                _ => return Err(ParseJidError(s.to_owned())),
            };
            let record = Rc::new(JidRecord {
                text: Box::from(s),
                at,
                salt: fnv1a(s),
                uid: u32::try_from(table.len()).expect("intern table overflow"),
            });
            table.insert(Box::from(s), record.clone());
            Ok(Jid(record))
        })
    }

    /// The node part (before the `@`).
    pub fn node(&self) -> &str {
        &self.0.text[..self.0.at as usize]
    }

    /// The domain part (after the `@`).
    pub fn domain(&self) -> &str {
        &self.0.text[self.0.at as usize + 1..]
    }

    /// The full `node@domain` string.
    pub fn as_str(&self) -> &str {
        &self.0.text
    }

    /// The precomputed FNV-1a hash of the text. Deterministic across
    /// runs; used for per-link RNG seeding.
    pub fn salt(&self) -> u64 {
        self.0.salt
    }

    /// The dense intern-table index for this thread, assigned in
    /// first-intern order. Stable between two identical runs in one
    /// process, but *not* across processes — persist the text, not this.
    pub fn uid(&self) -> u32 {
        self.0.uid
    }
}

impl PartialEq for Jid {
    fn eq(&self, other: &Self) -> bool {
        // Interning makes pointer equality complete within a thread; the
        // text compare covers records from different thread tables.
        Rc::ptr_eq(&self.0, &other.0) || self.0.text == other.0.text
    }
}

impl Eq for Jid {}

impl std::hash::Hash for Jid {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.salt);
    }
}

impl PartialOrd for Jid {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Jid {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if Rc::ptr_eq(&self.0, &other.0) {
            std::cmp::Ordering::Equal
        } else {
            self.0.text.cmp(&other.0.text)
        }
    }
}

impl fmt::Debug for Jid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Jid({:?})", &*self.0.text)
    }
}

impl fmt::Display for Jid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0.text)
    }
}

impl FromStr for Jid {
    type Err = ParseJidError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Jid::new(s)
    }
}

impl AsRef<str> for Jid {
    fn as_ref(&self) -> &str {
        &self.0.text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_jids_parse() {
        let j = Jid::new("device-1@pogo").unwrap();
        assert_eq!(j.node(), "device-1");
        assert_eq!(j.domain(), "pogo");
        assert_eq!(j.to_string(), "device-1@pogo");
    }

    #[test]
    fn invalid_jids_rejected() {
        assert!(Jid::new("nodomain").is_err());
        assert!(Jid::new("@pogo").is_err());
        assert!(Jid::new("node@").is_err());
        assert!(Jid::new("a@b@c").is_err());
        assert!(Jid::new("").is_err());
    }

    #[test]
    fn from_str_works() {
        let j: Jid = "a@b".parse().unwrap();
        assert_eq!(j.as_str(), "a@b");
    }

    #[test]
    fn equality_and_hash_by_value() {
        use std::collections::HashSet;
        let a = Jid::new("x@y").unwrap();
        let b = Jid::new("x@y").unwrap();
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn interning_shares_one_record() {
        let a = Jid::new("intern-me@pogo").unwrap();
        let b = Jid::new("intern-me@pogo").unwrap();
        assert!(Rc::ptr_eq(&a.0, &b.0), "same text, same record");
        assert_eq!(a.uid(), b.uid());
        assert_eq!(a.salt(), b.salt());
        let c = Jid::new("someone-else@pogo").unwrap();
        assert_ne!(a.uid(), c.uid());
    }

    #[test]
    fn salt_is_stable_fnv1a() {
        // Pinned: per-link RNG seeds depend on this exact function. If
        // the hash ever changes, every lossy-link trace changes with it.
        let j = Jid::new("device-0@pogo").unwrap();
        assert_eq!(j.salt(), fnv1a("device-0@pogo"));
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn ordering_is_lexicographic_by_text() {
        let mut jids = [
            Jid::new("c@pogo").unwrap(),
            Jid::new("a@pogo").unwrap(),
            Jid::new("b@pogo").unwrap(),
        ];
        jids.sort();
        let texts: Vec<&str> = jids.iter().map(Jid::as_str).collect();
        assert_eq!(texts, vec!["a@pogo", "b@pogo", "c@pogo"]);
    }
}
