//! The byte codec of a sealed log segment ([`crate::host::LogStore`]):
//! LEB128 varints, and a greedy LZ77 whose window is the segment itself.
//!
//! A packed stream is a run of sequences, each a token byte (literal
//! count in the high nibble, match length − [`MIN_MATCH`] in the low one,
//! 15 meaning "plus a varint"), the literals, then the match's distance
//! back as a varint. The last sequence is literals alone: a stream ends
//! where its literals do. Log lines of one kind repeat their keys and
//! most of their values, which is what a 4-byte match finds.

/// The shortest repeat worth a token: a shorter one costs as much as its
/// literals.
const MIN_MATCH: usize = 4;
/// Positions hashed by their first [`MIN_MATCH`] bytes, last one wins.
const HASH_BITS: u32 = 12;

/// Appends `n` as a LEB128 varint: seven bits a byte, low first.
pub(crate) fn put_varint(out: &mut Vec<u8>, mut n: usize) {
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

/// Reads the varint at `*at` and moves `*at` past it.
pub(crate) fn varint(src: &[u8], at: &mut usize) -> usize {
    let mut n = 0;
    let mut shift = 0;
    loop {
        let byte = src[*at];
        *at += 1;
        n |= usize::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            return n;
        }
        shift += 7;
    }
}

fn hash(src: &[u8], at: usize) -> usize {
    let word = u32::from_le_bytes([src[at], src[at + 1], src[at + 2], src[at + 3]]);
    (word.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
}

/// Appends `src` packed. Greedy: at each position the last earlier one
/// with the same hash is taken if its first four bytes agree, and the
/// match runs as far as the bytes do.
pub(crate) fn pack(src: &[u8], out: &mut Vec<u8>) {
    // Positions are kept as `u32`, so one past 4 GiB wraps to an earlier
    // one; every candidate is compared byte for byte before it is used,
    // so a wrapped or stale entry costs a match, never the text.
    let mut table = [0u32; 1 << HASH_BITS];
    let mut literals = 0;
    let mut at = 0;
    while at + MIN_MATCH <= src.len() {
        let slot = hash(src, at);
        let from = table[slot] as usize;
        table[slot] = at as u32;
        if from >= at || src[from..from + MIN_MATCH] != src[at..at + MIN_MATCH] {
            at += 1;
            continue;
        }
        let len = MIN_MATCH
            + src[at + MIN_MATCH..]
                .iter()
                .zip(&src[from + MIN_MATCH..])
                .take_while(|(a, b)| a == b)
                .count();
        sequence(out, &src[literals..at], Some((at - from, len)));
        for inside in at + 1..(at + len).min(src.len() + 1 - MIN_MATCH) {
            table[hash(src, inside)] = inside as u32;
        }
        at += len;
        literals = at;
    }
    if literals < src.len() {
        sequence(out, &src[literals..], None);
    }
}

fn sequence(out: &mut Vec<u8>, literals: &[u8], copy: Option<(usize, usize)>) {
    let extra = copy.map_or(0, |(_, len)| len - MIN_MATCH);
    out.push((literals.len().min(15) << 4 | extra.min(15)) as u8);
    if literals.len() >= 15 {
        put_varint(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    if let Some((distance, _)) = copy {
        put_varint(out, distance);
        if extra >= 15 {
            put_varint(out, extra - 15);
        }
    }
}

/// Appends what [`pack`] packed into `src`.
pub(crate) fn unpack(src: &[u8], out: &mut Vec<u8>) {
    let mut at = 0;
    while at < src.len() {
        let token = src[at];
        at += 1;
        let mut literals = usize::from(token >> 4);
        if literals == 15 {
            literals += varint(src, &mut at);
        }
        out.extend_from_slice(&src[at..at + literals]);
        at += literals;
        if at == src.len() {
            break;
        }
        let distance = varint(src, &mut at);
        let mut len = usize::from(token & 15) + MIN_MATCH;
        if token & 15 == 15 {
            len += varint(src, &mut at);
        }
        // A match may overlap the bytes it produces (a run): it is copied
        // in pieces no longer than its distance, each already written.
        let from = out.len() - distance;
        for start in (from..from + len).step_by(distance) {
            out.extend_from_within(start..(start + distance).min(from + len));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(src: &[u8]) -> Vec<u8> {
        let mut packed = Vec::new();
        pack(src, &mut packed);
        let mut back = Vec::new();
        unpack(&packed, &mut back);
        assert_eq!(back, src);
        packed
    }

    #[test]
    fn varints_round_trip_at_every_width() {
        let mut out = Vec::new();
        let values = [0, 1, 127, 128, 16_383, 16_384, usize::MAX];
        for n in values {
            put_varint(&mut out, n);
        }
        let mut at = 0;
        for n in values {
            assert_eq!(varint(&out, &mut at), n);
        }
        assert_eq!(at, out.len());
    }

    #[test]
    fn repeats_shrink_and_every_edge_comes_back() {
        assert!(round_trip(b"").is_empty());
        round_trip(b"abc");
        round_trip(b"abcd");
        // A run: the match overlaps its own output.
        assert!(round_trip(&[b'x'; 1000]).len() < 20);
        // Literal and match lengths past the nibble.
        let line = br#"{"t":1700000000,"aps":[{"b":"00:11:22:33:44:55","l":-61}]}"#;
        let text: Vec<u8> = line.iter().chain(line).chain(line).copied().collect();
        assert!(round_trip(&text).len() < line.len() + 16);
    }
}
