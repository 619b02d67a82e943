//! Sealed KV-entry codec (paper §V, Figure 8).
//!
//! An entry occupies one untrusted heap block with this layout:
//!
//! ```text
//! +--------+---------+--------+------+------+----------------+---------+
//! | next 8 | RedPtr 8| hint 4 |klen 2|vlen 2| enc(key‖value) | MAC 16  |
//! +--------+---------+--------+------+------+----------------+---------+
//! ```
//!
//! * `next` is index **connection** data (a successor pointer for the hash
//!   chain); it is *not* covered by the entry MAC — connections are
//!   protected by the *additional field* (AdField) scheme instead: each
//!   entry's MAC covers the identity of the pointer cell that points at
//!   it, so swapping two pointers breaks both victims' MACs (§V-C).
//! * `RedPtr` is the redirection pointer: the id of the entry's
//!   encryption counter in the counter area.
//! * `hint` is a hash of the plaintext key, used to skip non-matching
//!   chain entries without decrypting them (§V-C).
//! * key and value are concatenated and CTR-encrypted under the entry's
//!   counter.
//! * the MAC covers `RedPtr ‖ hint ‖ klen ‖ vlen ‖ ciphertext ‖ counter ‖
//!   AdField`.

use aria_crypto::CipherSuite;
use aria_mem::UPtr;

/// Fixed header length preceding the ciphertext.
pub const HEADER_LEN: usize = 24;

/// Trailing MAC length.
pub const MAC_LEN: usize = 16;

/// Maximum key length (lengths are encoded in 16 bits; the evaluation
/// uses 16-byte keys throughout).
pub const MAX_KEY_LEN: usize = 1024;

/// Maximum value length.
pub const MAX_VALUE_LEN: usize = 32 * 1024;

/// Parsed entry header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryHeader {
    /// Successor pointer (hash chain) or child/meta pointer (tree).
    pub next: UPtr,
    /// Counter id in the redirection layer.
    pub redptr: u64,
    /// Plaintext-key hint.
    pub hint: u32,
    /// Key length in bytes.
    pub klen: usize,
    /// Value length in bytes.
    pub vlen: usize,
}

impl EntryHeader {
    /// Total sealed-entry length for this header.
    pub fn total_len(&self) -> usize {
        HEADER_LEN + self.klen + self.vlen + MAC_LEN
    }
}

/// Total sealed length for a key/value pair.
pub fn sealed_len(klen: usize, vlen: usize) -> usize {
    HEADER_LEN + klen + vlen + MAC_LEN
}

/// 4-byte hint of a plaintext key (FNV-1a folded).
pub fn key_hint(key: &[u8]) -> u32 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash ^ (hash >> 32)) as u32
}

fn mac_input<'a>(body: &'a [u8], counter: &'a [u8; 16], ad_field: &'a [u8; 8]) -> [&'a [u8]; 3] {
    // `body` is the MAC'd prefix of the sealed bytes: redptr..ciphertext.
    [body, counter, ad_field]
}

/// Build the sealed bytes for an entry.
pub fn seal_entry(
    suite: &dyn CipherSuite,
    next: UPtr,
    redptr: u64,
    key: &[u8],
    value: &[u8],
    counter: &[u8; 16],
    ad_field: u64,
) -> Vec<u8> {
    debug_assert!(key.len() <= MAX_KEY_LEN && value.len() <= MAX_VALUE_LEN);
    let mut out = Vec::with_capacity(sealed_len(key.len(), value.len()));
    out.extend_from_slice(&next.to_bytes());
    out.extend_from_slice(&redptr.to_le_bytes());
    out.extend_from_slice(&key_hint(key).to_le_bytes());
    out.extend_from_slice(&(key.len() as u16).to_le_bytes());
    out.extend_from_slice(&(value.len() as u16).to_le_bytes());
    let payload_start = out.len();
    out.extend_from_slice(key);
    out.extend_from_slice(value);
    suite.crypt(counter, &mut out[payload_start..]);
    let ad = ad_field.to_le_bytes();
    let mac = suite.mac_parts(&mac_input(&out[8..], counter, &ad));
    out.extend_from_slice(&mac);
    out
}

/// Parse the fixed header from sealed bytes.
pub fn parse_header(bytes: &[u8]) -> Option<EntryHeader> {
    if bytes.len() < HEADER_LEN {
        return None;
    }
    let next = UPtr::from_bytes(&bytes[0..8].try_into().unwrap());
    let redptr = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let hint = u32::from_le_bytes(bytes[16..20].try_into().unwrap());
    let klen = u16::from_le_bytes(bytes[20..22].try_into().unwrap()) as usize;
    let vlen = u16::from_le_bytes(bytes[22..24].try_into().unwrap()) as usize;
    Some(EntryHeader { next, redptr, hint, klen, vlen })
}

/// Overwrite the `next` pointer in place (connection update; the MAC does
/// not cover `next` by design).
pub fn write_next(bytes: &mut [u8], next: UPtr) {
    bytes[0..8].copy_from_slice(&next.to_bytes());
}

/// Verify the MAC of sealed bytes under the given counter and AdField.
pub fn verify_entry(
    suite: &dyn CipherSuite,
    bytes: &[u8],
    counter: &[u8; 16],
    ad_field: u64,
) -> bool {
    let Some(header) = parse_header(bytes) else { return false };
    let total = header.total_len();
    if bytes.len() < total {
        return false;
    }
    let mac_off = total - MAC_LEN;
    let ad = ad_field.to_le_bytes();
    let expect = suite.mac_parts(&mac_input(&bytes[8..mac_off], counter, &ad));
    expect == bytes[mac_off..total]
}

/// Verify and decrypt an entry, returning `(key, value)`.
pub fn open_entry(
    suite: &dyn CipherSuite,
    bytes: &[u8],
    counter: &[u8; 16],
    ad_field: u64,
) -> Option<(Vec<u8>, Vec<u8>)> {
    if !verify_entry(suite, bytes, counter, ad_field) {
        return None;
    }
    let header = parse_header(bytes)?;
    let mut payload = bytes[HEADER_LEN..HEADER_LEN + header.klen + header.vlen].to_vec();
    suite.crypt(counter, &mut payload);
    // The key gets the new, right-sized allocation and the value keeps
    // the decrypt buffer: a caller that keeps keys holds no value-sized
    // capacity.
    let key = payload[..header.klen].to_vec();
    payload.drain(..header.klen);
    Some((key, payload))
}

/// Recompute the MAC in place for a new AdField (used when an entry's
/// incoming pointer cell changes, e.g. after deleting its predecessor).
/// The ciphertext and counter are unchanged.
pub fn reseal_ad_field(
    suite: &dyn CipherSuite,
    bytes: &mut [u8],
    counter: &[u8; 16],
    new_ad_field: u64,
) {
    let header = parse_header(bytes).expect("valid entry");
    let mac_off = header.total_len() - MAC_LEN;
    let ad = new_ad_field.to_le_bytes();
    let mac = suite.mac_parts(&mac_input(&bytes[8..mac_off], counter, &ad));
    bytes[mac_off..mac_off + MAC_LEN].copy_from_slice(&mac);
}

// --- routing keys (B+-tree extension, paper §VII "future work") --------

/// Sealed routing-key layout (B+-tree inner-node separators):
///
/// ```text
/// +---------+--------+-------+------------+--------+
/// | RedPtr 8| klen 2 | pad 6 | enc(key)   | MAC 16 |
/// +---------+--------+-------+------------+--------+
/// ```
///
/// A routing key owns its counter (so it survives updates/deletions of
/// the KV entry it was copied from) and its MAC binds it to the pointer
/// of the node that contains it, like any entry.
pub const ROUTING_HEADER_LEN: usize = 16;

/// Total sealed length of a routing key.
pub fn routing_len(klen: usize) -> usize {
    ROUTING_HEADER_LEN + klen + MAC_LEN
}

/// Seal a routing key.
pub fn seal_routing(
    suite: &dyn CipherSuite,
    redptr: u64,
    key: &[u8],
    counter: &[u8; 16],
    ad_field: u64,
) -> Vec<u8> {
    debug_assert!(key.len() <= MAX_KEY_LEN);
    let mut out = Vec::with_capacity(routing_len(key.len()));
    out.extend_from_slice(&redptr.to_le_bytes());
    out.extend_from_slice(&(key.len() as u16).to_le_bytes());
    out.extend_from_slice(&[0u8; 6]);
    let start = out.len();
    out.extend_from_slice(key);
    suite.crypt(counter, &mut out[start..]);
    let ad = ad_field.to_le_bytes();
    let mac = suite.mac_parts(&[&out[..], counter, &ad]);
    out.extend_from_slice(&mac);
    out
}

/// Parsed routing-key header.
#[derive(Debug, Clone, Copy)]
pub struct RoutingHeader {
    /// Counter id owned by this routing key.
    pub redptr: u64,
    /// Plaintext key length.
    pub klen: usize,
}

impl RoutingHeader {
    /// Total sealed length.
    pub fn total_len(&self) -> usize {
        routing_len(self.klen)
    }
}

/// Parse a routing-key header.
pub fn parse_routing_header(bytes: &[u8]) -> Option<RoutingHeader> {
    if bytes.len() < ROUTING_HEADER_LEN {
        return None;
    }
    Some(RoutingHeader {
        redptr: u64::from_le_bytes(bytes[0..8].try_into().unwrap()),
        klen: u16::from_le_bytes(bytes[8..10].try_into().unwrap()) as usize,
    })
}

/// Verify + decrypt a routing key.
pub fn open_routing(
    suite: &dyn CipherSuite,
    bytes: &[u8],
    counter: &[u8; 16],
    ad_field: u64,
) -> Option<Vec<u8>> {
    let header = parse_routing_header(bytes)?;
    let total = header.total_len();
    if bytes.len() < total {
        return None;
    }
    let mac_off = total - MAC_LEN;
    let ad = ad_field.to_le_bytes();
    let expect = suite.mac_parts(&[&bytes[..mac_off], counter, &ad]);
    if expect != bytes[mac_off..total] {
        return None;
    }
    let mut key = bytes[ROUTING_HEADER_LEN..ROUTING_HEADER_LEN + header.klen].to_vec();
    suite.crypt(counter, &mut key);
    Some(key)
}

/// Recompute a routing key's MAC for a new AdField in place.
pub fn reseal_routing_ad_field(
    suite: &dyn CipherSuite,
    bytes: &mut [u8],
    counter: &[u8; 16],
    new_ad_field: u64,
) {
    let header = parse_routing_header(bytes).expect("valid routing key");
    let mac_off = header.total_len() - MAC_LEN;
    let ad = new_ad_field.to_le_bytes();
    let mac = suite.mac_parts(&[&bytes[..mac_off], counter, &ad]);
    bytes[mac_off..mac_off + MAC_LEN].copy_from_slice(&mac);
}

#[cfg(test)]
mod tests {
    use super::*;
    use aria_crypto::RealSuite;

    fn suite() -> RealSuite {
        RealSuite::from_master(&[1u8; 16])
    }

    #[test]
    fn seal_open_roundtrip() {
        let s = suite();
        let ctr = [5u8; 16];
        let sealed = seal_entry(&s, UPtr::NULL, 42, b"key-0123456789ab", b"hello", &ctr, 7);
        assert_eq!(sealed.len(), sealed_len(16, 5));
        let (k, v) = open_entry(&s, &sealed, &ctr, 7).expect("verifies");
        assert_eq!(k, b"key-0123456789ab");
        assert_eq!(v, b"hello");
    }

    #[test]
    fn opened_key_owns_only_its_bytes() {
        let s = suite();
        let ctr = [6u8; 16];
        let value = vec![0xA5u8; 4096];
        let sealed = seal_entry(&s, UPtr::NULL, 1, b"small-key", &value, &ctr, 3);
        let (k, v) = open_entry(&s, &sealed, &ctr, 3).expect("verifies");
        assert_eq!(k, b"small-key");
        assert_eq!(k.capacity(), b"small-key".len());
        assert_eq!(v, value);
    }

    #[test]
    fn header_fields_roundtrip() {
        let s = suite();
        let ctr = [9u8; 16];
        let sealed = seal_entry(&s, UPtr::NULL, 1234, b"kk", b"vvv", &ctr, 0);
        let h = parse_header(&sealed).unwrap();
        assert_eq!(h.redptr, 1234);
        assert_eq!(h.klen, 2);
        assert_eq!(h.vlen, 3);
        assert_eq!(h.hint, key_hint(b"kk"));
        assert!(h.next.is_null());
    }

    #[test]
    fn payload_is_actually_encrypted() {
        let s = suite();
        let sealed =
            seal_entry(&s, UPtr::NULL, 0, b"plaintextkey!!!!", b"secretvalue", &[3u8; 16], 0);
        let hay = &sealed[HEADER_LEN..];
        assert!(!hay.windows(11).any(|w| w == b"secretvalue"), "value leaked in plaintext");
        assert!(!hay.windows(12).any(|w| w == b"plaintextkey"), "key leaked in plaintext");
    }

    #[test]
    fn wrong_counter_rejected() {
        let s = suite();
        let sealed = seal_entry(&s, UPtr::NULL, 0, b"k", b"v", &[1u8; 16], 0);
        assert!(open_entry(&s, &sealed, &[2u8; 16], 0).is_none());
    }

    #[test]
    fn wrong_ad_field_rejected() {
        // This is exactly the pointer-swap detection: an entry reached via
        // a different pointer cell fails its MAC.
        let s = suite();
        let sealed = seal_entry(&s, UPtr::NULL, 0, b"k", b"v", &[1u8; 16], 1000);
        assert!(open_entry(&s, &sealed, &[1u8; 16], 1000).is_some());
        assert!(open_entry(&s, &sealed, &[1u8; 16], 1001).is_none());
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let s = suite();
        let ctr = [1u8; 16];
        let mut sealed = seal_entry(&s, UPtr::NULL, 0, b"key", b"value", &ctr, 0);
        sealed[HEADER_LEN + 1] ^= 0x01;
        assert!(open_entry(&s, &sealed, &ctr, 0).is_none());
    }

    #[test]
    fn tampered_lengths_rejected() {
        let s = suite();
        let ctr = [1u8; 16];
        let mut sealed = seal_entry(&s, UPtr::NULL, 0, b"key", b"value", &ctr, 0);
        sealed[20] = 2; // shrink klen
        assert!(!verify_entry(&s, &sealed, &ctr, 0));
    }

    #[test]
    fn next_pointer_update_does_not_break_mac() {
        let s = suite();
        let ctr = [1u8; 16];
        let mut sealed = seal_entry(&s, UPtr::NULL, 0, b"key", b"value", &ctr, 0);
        write_next(&mut sealed, UPtr::NULL);
        assert!(verify_entry(&s, &sealed, &ctr, 0));
    }

    #[test]
    fn reseal_ad_field_moves_entry() {
        let s = suite();
        let ctr = [1u8; 16];
        let mut sealed = seal_entry(&s, UPtr::NULL, 0, b"key", b"value", &ctr, 10);
        reseal_ad_field(&s, &mut sealed, &ctr, 20);
        assert!(!verify_entry(&s, &sealed, &ctr, 10));
        let (k, v) = open_entry(&s, &sealed, &ctr, 20).unwrap();
        assert_eq!((k.as_slice(), v.as_slice()), (b"key".as_slice(), b"value".as_slice()));
    }

    #[test]
    fn routing_key_roundtrip_and_tamper() {
        let s = suite();
        let ctr = [4u8; 16];
        let mut sealed = seal_routing(&s, 77, b"separator-key-01", &ctr, 9);
        assert_eq!(open_routing(&s, &sealed, &ctr, 9).unwrap(), b"separator-key-01");
        // Wrong AdField (pointer swap) rejected.
        assert!(open_routing(&s, &sealed, &ctr, 10).is_none());
        // Tamper rejected.
        sealed[ROUTING_HEADER_LEN] ^= 1;
        assert!(open_routing(&s, &sealed, &ctr, 9).is_none());
    }

    #[test]
    fn routing_key_reseal_moves_binding() {
        let s = suite();
        let ctr = [4u8; 16];
        let mut sealed = seal_routing(&s, 0, b"kk", &ctr, 1);
        reseal_routing_ad_field(&s, &mut sealed, &ctr, 2);
        assert!(open_routing(&s, &sealed, &ctr, 1).is_none());
        assert_eq!(open_routing(&s, &sealed, &ctr, 2).unwrap(), b"kk");
    }

    #[test]
    fn routing_key_is_encrypted() {
        let s = suite();
        let sealed = seal_routing(&s, 0, b"plaintext-needle", &[7u8; 16], 0);
        assert!(!sealed.windows(16).any(|w| w == b"plaintext-needle"));
    }

    #[test]
    fn replayed_old_entry_with_new_counter_rejected() {
        // Counter bump on re-encryption invalidates old (entry, MAC) pairs.
        let s = suite();
        let mut ctr = [0u8; 16];
        let old = seal_entry(&s, UPtr::NULL, 0, b"key", b"old-value", &ctr, 0);
        aria_crypto::increment_counter(&mut ctr);
        let _new = seal_entry(&s, UPtr::NULL, 0, b"key", b"new-value", &ctr, 0);
        // Attacker replays the old sealed bytes; verification uses the
        // trusted (bumped) counter.
        assert!(open_entry(&s, &old, &ctr, 0).is_none());
    }
}
