//! Bloom filter over row keys, one per SSTable.
//!
//! Double hashing (Kirsch–Mitzenmacher): `k` probe positions derived from
//! two independent 64-bit hashes of the key. Sized for a configurable
//! bits-per-key budget (10 bits/key ≈ 1% false-positive rate).

use spinnaker_common::codec::{self, Decode, Encode, Source};
use spinnaker_common::{Error, Result};

/// A serializable Bloom filter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bloom {
    bits: Vec<u64>,
    num_bits: u64,
    k: u32,
}

/// FNV-1a 64-bit, seeded — cheap, decent dispersion for double hashing.
fn fnv1a(seed: u64, data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Kirsch–Mitzenmacher probe positions: bit `i` is `h1 + i * h2`.
fn probes(k: u32, num_bits: u64, (h1, h2): KeyHash) -> impl Iterator<Item = u64> {
    (0..u64::from(k)).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) % num_bits)
}

/// The filter word holding probe position `bit`.
fn word(bit: u64) -> usize {
    // spinlint: allow(C2) -- bit < num_bits <= 64 * bits.len(), so bit / 64 indexes a Vec
    (bit / 64) as usize
}

/// The two hashes a key contributes to the filter. A table builder
/// keeps these instead of the keys it has seen.
pub type KeyHash = (u64, u64);

impl Bloom {
    /// The probe hashes of `key`.
    pub fn hash(key: &[u8]) -> KeyHash {
        (fnv1a(0x51ed_270b, key), fnv1a(0xb492_b66f, key) | 1)
    }

    /// Build a filter for `keys` with the given bits-per-key budget.
    pub fn build<'a>(keys: impl Iterator<Item = &'a [u8]>, n: usize, bits_per_key: usize) -> Bloom {
        Bloom::from_hashes(keys.map(Bloom::hash), n, bits_per_key)
    }

    /// Build a filter for `n` keys given by their [`Bloom::hash`]es.
    pub fn from_hashes(
        hashes: impl Iterator<Item = KeyHash>,
        n: usize,
        bits_per_key: usize,
    ) -> Bloom {
        let num_bits = (n.max(1) * bits_per_key).max(64);
        // spinlint: allow(C2) -- a float cast saturates, and the clamp bounds it to 1..=30
        let k = ((bits_per_key as f64 * 0.69) as u32).clamp(1, 30);
        let mut bloom =
            Bloom { bits: vec![0; num_bits.div_ceil(64)], num_bits: num_bits as u64, k };
        for hash in hashes {
            for bit in probes(k, bloom.num_bits, hash) {
                bloom.bits[word(bit)] |= 1 << (bit % 64);
            }
        }
        bloom
    }

    /// Whether `key` may be present (false positives possible, false
    /// negatives impossible).
    pub fn may_contain(&self, key: &[u8]) -> bool {
        probes(self.k, self.num_bits, Bloom::hash(key))
            .all(|bit| self.bits[word(bit)] & (1 << (bit % 64)) != 0)
    }

    /// Serialized size in bytes (approximate).
    pub fn approx_bytes(&self) -> usize {
        self.bits.len() * 8 + 16
    }
}

impl Encode for Bloom {
    fn encode(&self, buf: &mut Vec<u8>) {
        codec::put_u64(buf, self.num_bits);
        codec::put_u32(buf, self.k);
        codec::put_varint(buf, self.bits.len() as u64);
        for w in &self.bits {
            codec::put_u64(buf, *w);
        }
    }
}

impl Decode for Bloom {
    fn decode_from(buf: &mut Source<'_>) -> Result<Bloom> {
        let num_bits = codec::get_u64(buf)?;
        let k = codec::get_u32(buf)?;
        // Each filter word is 8 bytes; bounding the count by the input
        // keeps a corrupt header from driving a huge allocation.
        let n = codec::get_varint_len(buf, "bloom filter words", 8)?;
        if k == 0 || k > 64 || num_bits == 0 || n as u64 != num_bits.div_ceil(64) {
            return Err(Error::Corruption("implausible bloom header".into()));
        }
        let mut bits = Vec::with_capacity(n);
        for _ in 0..n {
            bits.push(codec::get_u64(buf)?);
        }
        Ok(Bloom { bits, num_bits, k })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("user{i:06}").into_bytes()).collect()
    }

    #[test]
    fn no_false_negatives() {
        let ks = keys(10_000);
        let bloom = Bloom::build(ks.iter().map(|k| k.as_slice()), ks.len(), 10);
        for k in &ks {
            assert!(bloom.may_contain(k));
        }
    }

    #[test]
    fn false_positive_rate_is_reasonable() {
        let ks = keys(10_000);
        let bloom = Bloom::build(ks.iter().map(|k| k.as_slice()), ks.len(), 10);
        let mut fp = 0;
        let probes = 10_000;
        for i in 0..probes {
            if bloom.may_contain(format!("absent{i:06}").as_bytes()) {
                fp += 1;
            }
        }
        let rate = fp as f64 / probes as f64;
        assert!(rate < 0.03, "false positive rate {rate} too high for 10 bits/key");
    }

    #[test]
    fn roundtrip() {
        let ks = keys(100);
        let bloom = Bloom::build(ks.iter().map(|k| k.as_slice()), ks.len(), 10);
        let enc = bloom.encode_to_vec();
        let decoded = Bloom::decode(&mut enc.as_slice()).unwrap();
        assert_eq!(decoded, bloom);
    }

    #[test]
    fn empty_filter_rejects_everything_cheaply() {
        let bloom = Bloom::build(std::iter::empty(), 0, 10);
        // Not required to reject, but must not panic and must roundtrip.
        let enc = bloom.encode_to_vec();
        assert_eq!(Bloom::decode(&mut enc.as_slice()).unwrap(), bloom);
    }

    #[test]
    fn corrupt_header_rejected() {
        let ks = keys(10);
        let bloom = Bloom::build(ks.iter().map(|k| k.as_slice()), ks.len(), 10);
        let mut enc = bloom.encode_to_vec();
        enc[8] = 0xff; // k becomes absurd
        assert!(Bloom::decode(&mut enc.as_slice()).is_err());
    }
}
