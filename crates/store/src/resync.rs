//! Content roots for anti-entropy re-sync.
//!
//! Two replicas of the same logical shard hold the same *plaintext*
//! pairs but entirely different untrusted bytes: each replica seals its
//! entries under its own encryption-counter history, so ciphertexts,
//! entry MACs and counter-area Merkle roots are incomparable across
//! replicas by design. The quantity the replicas *can* agree on is a
//! digest over the verified plaintext contents, computed by each
//! enclave from its **own** MAC-verified reads — never from bytes the
//! untrusted host handed it directly.
//!
//! A [`ContentRoot`] is built as follows:
//!
//! 1. For every `(key, value)` pair, compute a CMAC under a fixed,
//!    public convention key over the length-prefixed pair (the length
//!    prefixes make the encoding injective — `("ab","c")` and
//!    `("a","bc")` digest differently).
//! 2. Sort the per-pair digests (the root must not depend on bucket
//!    layout or insertion order, which legitimately differ between
//!    replicas).
//! 3. CMAC the concatenation of the sorted digests, prefixed with the
//!    pair count.
//!
//! The fixed key means the root is *not* a secret or an authenticator
//! against the network — it is a collision-resistant-in-practice
//! fingerprint exchanged between two mutually-trusting enclaves. Why a
//! matching root is sound against a malicious host is argued once, for
//! the transfer that uses it, in DESIGN.md §19. A production build
//! would swap the CMAC for SHA-256 and carry the root over an attested
//! enclave-to-enclave channel; the structure is identical.

use std::sync::OnceLock;

use aria_crypto::CmacKey;

use crate::transfer::CHUNK_PAIRS;
use crate::{KvStore, StoreError};

/// Fixed public convention key for content digests. Shared by every
/// replica; see the module docs for why this is not a secret.
const CONTENT_DIGEST_KEY: [u8; 16] = *b"aria-resync-root";

/// The convention key expanded once per process (AES key schedule plus
/// CMAC subkeys): every digest and root below is MAC'd under it.
fn content_mac() -> &'static CmacKey {
    static MAC: OnceLock<CmacKey> = OnceLock::new();
    MAC.get_or_init(|| CmacKey::new(&CONTENT_DIGEST_KEY))
}

/// An order-independent digest of a store's verified contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentRoot {
    /// Number of pairs the root covers.
    pub pairs: u64,
    /// The combined digest.
    pub digest: [u8; 16],
}

impl std::fmt::Display for ContentRoot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} pairs, root ", self.pairs)?;
        for b in self.digest {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// Digest one verified pair under the fixed convention key
/// (length-prefixed, so the encoding is injective). Exposed so callers
/// that hold pairs in different places — e.g. the tiered store's hot
/// region and cold log — can digest incrementally and combine with
/// [`content_root_from_digests`] instead of materializing every pair
/// at once.
pub fn pair_digest_keyed(key: &[u8], value: &[u8]) -> [u8; 16] {
    let klen = (key.len() as u64).to_le_bytes();
    let vlen = (value.len() as u64).to_le_bytes();
    content_mac().mac_parts(&[&klen, key, &vlen, value])
}

/// Combine per-pair digests (from [`pair_digest_keyed`]) into a
/// [`ContentRoot`]. Order-independent — the digests are sorted before
/// the final MAC, exactly as [`content_root`] does.
pub fn content_root_from_digests(mut digests: Vec<[u8; 16]>) -> ContentRoot {
    digests.sort_unstable();
    let count = (digests.len() as u64).to_le_bytes();
    let digest = content_mac().mac_parts(&[&count, digests.as_flattened()]);
    ContentRoot { pairs: digests.len() as u64, digest }
}

/// Combine verified pairs into a [`ContentRoot`]. Order-independent:
/// any permutation of the same pairs yields the same root.
pub fn content_root(pairs: &[(Vec<u8>, Vec<u8>)]) -> ContentRoot {
    content_root_from_digests(pairs.iter().map(|(k, v)| pair_digest_keyed(k, v)).collect())
}

/// Stream a store's entire verified contents
/// ([`KvStore::export_chunk`]) and return both the pairs and their
/// [`ContentRoot`]. The store must not be mutated meanwhile. Enclave MAC
/// costs for the digest are charged per pair.
#[allow(clippy::type_complexity)]
pub fn content_root_of<S: KvStore>(
    store: &mut S,
) -> Result<(Vec<(Vec<u8>, Vec<u8>)>, ContentRoot), StoreError> {
    let mut all: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    let mut cursor = 0u64;
    loop {
        let (mut pairs, next) = store.export_chunk(cursor, CHUNK_PAIRS)?;
        all.append(&mut pairs);
        match next {
            Some(c) => cursor = c,
            None => break,
        }
    }
    for (k, v) in &all {
        store.enclave().charge_mac(16 + k.len() + v.len());
    }
    let root = content_root(&all);
    Ok((all, root))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(k: &str, v: &str) -> (Vec<u8>, Vec<u8>) {
        (k.as_bytes().to_vec(), v.as_bytes().to_vec())
    }

    #[test]
    fn root_is_order_independent() {
        let a = content_root(&[p("k1", "v1"), p("k2", "v2"), p("k3", "v3")]);
        let b = content_root(&[p("k3", "v3"), p("k1", "v1"), p("k2", "v2")]);
        assert_eq!(a, b);
        assert_eq!(a.pairs, 3);
    }

    #[test]
    fn root_detects_any_difference() {
        let base = content_root(&[p("k1", "v1"), p("k2", "v2")]);
        assert_ne!(base, content_root(&[p("k1", "v1")]), "missing pair");
        assert_ne!(base, content_root(&[p("k1", "v1"), p("k2", "vX")]), "changed value");
        assert_ne!(base, content_root(&[p("k1", "v1"), p("kX", "v2")]), "changed key");
        assert_ne!(
            base,
            content_root(&[p("k1", "v1"), p("k2", "v2"), p("k3", "v3")]),
            "extra pair"
        );
    }

    #[test]
    fn length_prefixing_is_injective() {
        // Same concatenated bytes, different key/value split.
        assert_ne!(content_root(&[p("ab", "c")]), content_root(&[p("a", "bc")]));
    }

    #[test]
    fn empty_root_is_stable() {
        assert_eq!(content_root(&[]), content_root(&[]));
        assert_eq!(content_root(&[]).pairs, 0);
    }
}
