//! The load generator: seeded op streams and the value oracle.
//!
//! The system under test only ever sees the generated requests; the
//! seed stays in the generator. Every key's value is the pure function
//! `value_bytes(id, len)`, so any GET reply can be checked without a
//! shadow model.

use aria_store::sharded::splitmix64;
use aria_workload::{value_bytes, KeyDistribution, YcsbConfig, YcsbWorkload};

/// The data and traffic shape of one workload.
#[derive(Debug, Clone)]
pub struct Mix {
    pub keys: u64,
    pub value_len: usize,
    pub read_ratio: f64,
    pub dist: KeyDistribution,
}

impl Mix {
    /// The op stream of connection `conn` under `seed`. Streams of
    /// different connections are decorrelated by `seed ^ splitmix64(conn)`.
    pub fn stream(&self, seed: u64, conn: u64) -> YcsbWorkload {
        YcsbWorkload::new(YcsbConfig {
            keyspace: self.keys,
            read_ratio: self.read_ratio,
            value_len: self.value_len,
            distribution: self.dist.clone(),
            seed: seed ^ splitmix64(conn),
        })
    }

    /// Σ(key + value) bytes of the loaded data set.
    pub fn user_bytes(&self) -> u64 {
        self.keys * (aria_workload::KEY_LEN + self.value_len) as u64
    }
}

#[cfg(test)]
/// Chained FNV-1a over the first `n` ops (kind and key id) of a stream:
/// the fingerprint the reproducibility test compares.
pub fn stream_digest(mix: &Mix, seed: u64, conn: u64, n: usize) -> u64 {
    mix.stream(seed, conn)
        .take(n)
        .fold(0, |h, req| aria_workload::fnv1a64(h ^ (req.id() << 1 | u64::from(req.is_get()))))
}

/// Attempts, failures and the first wrong reply of a run. A failed or
/// refused op is counted; a wrong value is fatal and names the key.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: Option<String>,
}

impl Tally {
    /// Check a GET reply for key `id` against the oracle.
    pub fn check_get<E: std::fmt::Debug>(
        &mut self,
        id: u64,
        len: usize,
        reply: Result<Option<Vec<u8>>, E>,
    ) {
        self.attempted += 1;
        match reply {
            Ok(Some(v)) if v == value_bytes(id, len) => {}
            Ok(other) => {
                self.wrong.get_or_insert_with(|| {
                    format!("GET key id {id}: wrong value ({} bytes)", other.map_or(0, |v| v.len()))
                });
            }
            Err(_) => self.failed += 1,
        }
    }

    /// Count a PUT acknowledgement or refusal.
    pub fn check_put<E: std::fmt::Debug>(&mut self, reply: Result<(), E>) {
        self.attempted += 1;
        if reply.is_err() {
            self.failed += 1;
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.wrong.is_none() {
            self.wrong = other.wrong;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> Mix {
        Mix {
            keys: 10_000,
            value_len: 64,
            read_ratio: 0.95,
            dist: KeyDistribution::Zipfian { theta: 0.99 },
        }
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a = stream_digest(&mix(), 42, 0, 5_000);
        assert_eq!(a, stream_digest(&mix(), 42, 0, 5_000));
        assert_ne!(a, stream_digest(&mix(), 43, 0, 5_000));
        // Connections of one seed draw different streams too.
        assert_ne!(a, stream_digest(&mix(), 42, 1, 5_000));
    }

    #[test]
    fn oracle_accepts_the_right_value_and_names_a_wrong_one() {
        let mut tally = Tally::default();
        tally.check_get::<()>(7, 64, Ok(Some(value_bytes(7, 64))));
        assert!(tally.wrong.is_none());
        tally.check_get::<()>(9, 64, Ok(Some(value_bytes(8, 64))));
        assert!(tally.wrong.as_deref().unwrap().contains("key id 9"));
        tally.check_get(9, 64, Err("refused"));
        tally.check_put::<()>(Ok(()));
        assert_eq!((tally.attempted, tally.failed), (4, 1));
    }
}
