//! CRC-32C (Castagnoli) — the checksum guarding every WAL record and
//! SSTable block, implemented here so the storage formats carry no external
//! dependencies.
//!
//! Polynomial `0x1EDC6F41` (reflected `0x82F63B78`), slicing-by-8: eight
//! 256-entry tables built in a `const` context fold eight input bytes per
//! step, so the loop-carried dependency is one XOR tree per 8 bytes instead
//! of one table load per byte. Safe, portable code — the same kernel on
//! every platform, no `std::arch`, no feature detection.

/// Reflected CRC-32C polynomial.
const POLY: u32 = 0x82F6_3B78;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// register after byte `b` is followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Compute the CRC-32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    !extend(!0, data)
}

/// Advance the raw CRC register `state` over `data` and return the new
/// register. The register is the *un-finalised* value: it starts at `!0`
/// and the checksum is its complement, so `extend(extend(!0, a), b)` is the
/// register of `a ‖ b` — which is what lets [`crc32c`] and
/// [`Hasher::update`] share this one kernel.
fn extend(mut state: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ state;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        state = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        state = TABLES[0][((state ^ b as u32) & 0xff) as usize] ^ (state >> 8);
    }
    state
}

/// Incremental CRC-32C hasher.
#[derive(Clone, Debug)]
pub struct Hasher {
    state: u32,
}

impl Default for Hasher {
    fn default() -> Hasher {
        Hasher::new()
    }
}

impl Hasher {
    /// Fresh hasher.
    pub fn new() -> Hasher {
        Hasher { state: !0u32 }
    }

    /// Feed more bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.state = extend(self.state, data);
    }

    /// Finish and return the checksum.
    pub fn finalize(self) -> u32 {
        !self.state
    }
}

/// A masked CRC (RocksDB/LevelDB-style): rotate and add a constant so that
/// checksums of data that itself embeds checksums do not collide trivially.
pub fn masked(crc: u32) -> u32 {
    crc.rotate_right(15).wrapping_add(0xa282_ead8)
}

/// Invert [`masked`].
pub fn unmasked(m: u32) -> u32 {
    m.wrapping_sub(0xa282_ead8).rotate_left(15)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop the sliced kernel replaced, kept as the
    /// reference it must equal.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = TABLES[0][((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
        }
        !crc
    }

    /// xorshift64 bytes: no structure a table mix-up could hide behind.
    fn pseudo_random(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn sliced_kernel_equals_the_bytewise_reference() {
        let buf = pseudo_random(1024 + 8);
        for start in 0..8 {
            for len in 0..=1024 {
                let data = &buf[start..start + len];
                assert_eq!(crc32c(data), bytewise(data), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn hasher_is_split_equivalent_at_every_split() {
        let buf = pseudo_random(4096);
        let whole = bytewise(&buf);
        assert_eq!(crc32c(&buf), whole);
        for split in 0..=buf.len() {
            let mut h = Hasher::default();
            h.update(&buf[..split]);
            h.update(&buf[split..]);
            assert_eq!(h.finalize(), whole, "split at {split}");
        }
    }

    #[test]
    fn known_vectors() {
        // RFC 3720 / common test vectors for CRC-32C.
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xffu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
    }

    #[test]
    fn mask_roundtrip() {
        for v in [0u32, 1, 0xdead_beef, u32::MAX, crc32c(b"xyz")] {
            assert_eq!(unmasked(masked(v)), v);
            assert_ne!(masked(v), v, "masking must change the value");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = b"some record payload".to_vec();
        let orig = crc32c(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32c(&data), orig, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }
}
