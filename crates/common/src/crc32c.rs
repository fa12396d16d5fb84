//! CRC-32C (Castagnoli) — the checksum guarding every WAL record and
//! SSTable block, implemented here so the storage formats carry no external
//! dependencies.
//!
//! Polynomial `0x1EDC6F41` (reflected `0x82F63B78`). One entry point,
//! `extend`, picks a kernel at run time; both give the same register for
//! every input, so no byte on disk or on the wire depends on the CPU:
//!
//! * **x86_64 with SSE4.2** (`is_x86_feature_detected!`, checked per call
//!   against std's cached answer): the `crc32` instruction, 8 bytes per
//!   step. One lane would wait out the instruction's 3-cycle latency on
//!   every step, so each round runs **three lanes** over adjacent `LANE`-byte
//!   stripes at once — three independent dependency chains — and then joins
//!   them. A lane's CRC is linear in its start register, so the register of
//!   `a ‖ b` is `b`'s register (started at 0) XOR `a`'s register moved on
//!   by `LANE` zero bytes; that move is one fixed linear map, tabulated at
//!   compile time as `SHIFT` (four byte-slices, like `TABLES`), which
//!   makes the join 8 table loads per round instead of `LANE` more steps.
//!   What is left after the last whole round (under `3 * LANE` bytes) goes
//!   through a single lane.
//! * **Anything else** (no SSE4.2, or another architecture — aarch64's CRC
//!   instructions are not used): slicing-by-8, eight 256-entry tables built
//!   in a `const` context folding eight bytes per step, so the loop-carried
//!   dependency is one XOR tree per 8 bytes instead of one table load per
//!   byte.
//!
//! There is no switch besides the CPU: no option, feature or variable.
//!
//! **`unsafe`.** The hardware kernel is a `#[target_feature(enable =
//! "sse4.2")] unsafe fn` — calling it on a CPU without the instruction is
//! undefined behaviour, and a safe `#[target_feature]` fn needs Rust 1.86
//! while this workspace supports 1.85. It is declared *inside* `extend`,
//! so the one call site, right after the feature check, is the only place
//! that can reach it; that call is the workspace's one `unsafe` block, and
//! every library root denies `unsafe_code` everywhere else.

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

/// Bytes per lane of the three-lane hardware kernel: long enough that the
/// join ([`shift`]) is a small share of a round, short enough that a 4 KB
/// block runs five whole rounds.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
const LANE: usize = 256;

/// `SHIFT[k][b]` is the register `b << 8k` becomes after `LANE` zero
/// bytes: the map that moves a lane's register past the next lane, split
/// into byte slices. Built from `TABLES[0]` — the image of each of the 32
/// register bits, `LANE` zero bytes on, then every byte value as the XOR of
/// its bits' images (the map is linear over GF(2)).
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
const SHIFT: [[u32; 256]; 4] = {
    let mut image = [0u32; 32];
    let mut bit = 0;
    while bit < 32 {
        let mut crc = 1u32 << bit;
        let mut n = 0;
        while n < LANE {
            crc = (crc >> 8) ^ TABLES[0][(crc & 0xff) as usize];
            n += 1;
        }
        image[bit] = crc;
        bit += 1;
    }
    let mut shift = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            let mut acc = 0;
            let mut bit = 0;
            while bit < 8 {
                if (b >> bit) & 1 != 0 {
                    acc ^= image[8 * k + bit];
                }
                bit += 1;
            }
            shift[k][b] = acc;
            b += 1;
        }
        k += 1;
    }
    shift
};

/// The register `crc` becomes after `LANE` zero bytes.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
fn shift(crc: u32) -> u32 {
    SHIFT[0][(crc & 0xff) as usize]
        ^ SHIFT[1][((crc >> 8) & 0xff) as usize]
        ^ SHIFT[2][((crc >> 16) & 0xff) as usize]
        ^ SHIFT[3][(crc >> 24) as usize]
}

/// Compute the CRC-32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    !extend(!0, data)
}

/// Advance the raw CRC register `state` over `data` and return the new
/// register — the one kernel entry point. The register is the
/// *un-finalised* value: it starts at `!0` and the checksum is its
/// complement, so `extend(extend(!0, a), b)` is the register of `a ‖ b`.
///
/// Runs the three-lane SSE4.2 kernel when the CPU has the instruction and
/// [`extend_sliced`] otherwise (see the module doc).
#[allow(unsafe_code)]
fn extend(state: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        /// Three lanes of `crc32` per round, joined by [`shift`]; the
        /// tail under one round in a single lane.
        ///
        /// # Safety
        ///
        /// The CPU must support SSE4.2.
        #[target_feature(enable = "sse4.2")]
        unsafe fn extend_sse42(state: u32, data: &[u8]) -> u32 {
            use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
            let mut rounds = data.chunks_exact(3 * LANE);
            let mut crc = state;
            for round in &mut rounds {
                let (a, rest) = round.split_at(LANE);
                let (b, c) = rest.split_at(LANE);
                let (mut ca, mut cb, mut cc) = (u64::from(crc), 0u64, 0u64);
                let words = a.chunks_exact(8).zip(b.chunks_exact(8)).zip(c.chunks_exact(8));
                for ((wa, wb), wc) in words {
                    ca = _mm_crc32_u64(ca, word(wa));
                    cb = _mm_crc32_u64(cb, word(wb));
                    cc = _mm_crc32_u64(cc, word(wc));
                }
                // `crc32` leaves the upper half of its 64-bit result zero.
                crc = shift(shift(ca as u32) ^ cb as u32) ^ cc as u32;
            }
            let mut words = rounds.remainder().chunks_exact(8);
            let mut single = u64::from(crc);
            for w in &mut words {
                single = _mm_crc32_u64(single, word(w));
            }
            let mut crc = single as u32;
            for &byte in words.remainder() {
                crc = _mm_crc32_u8(crc, byte);
            }
            crc
        }

        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: `extend_sse42`'s only precondition is that the CPU
            // executes SSE4.2 instructions, which the check above just
            // confirmed; it touches memory only through the `data` slice.
            return unsafe { extend_sse42(state, data) };
        }
    }
    extend_sliced(state, data)
}

/// Eight bytes of a `chunks_exact(8)` chunk, little-endian.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
#[inline(always)]
fn word(w: &[u8]) -> u64 {
    u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]])
}

/// The portable kernel: slicing-by-8 over `data` from register `state`.
fn extend_sliced(mut state: u32, data: &[u8]) -> u32 {
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
    use proptest::prelude::*;

    use super::*;

    /// The byte-at-a-time loop both kernels replaced, on the raw register
    /// like [`extend`]: the reference they must equal.
    fn bytewise(mut state: u32, data: &[u8]) -> u32 {
        for &b in data {
            state = TABLES[0][((state ^ b as u32) & 0xff) as usize] ^ (state >> 8);
        }
        state
    }

    /// xorshift64 bytes: no structure a table mix-up could hide behind.
    fn pseudo_random(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    /// Two whole three-lane rounds and a ragged tail: every length covers
    /// no round, one, two, each split of the tail between words and bytes.
    const COVERED: usize = 2 * 3 * LANE + 17;

    /// `extend` on this CPU — the SSE4.2 kernel where it runs — and the
    /// portable kernel, each against the reference.
    fn assert_kernels_agree(state: u32, data: &[u8], what: &str) {
        let want = bytewise(state, data);
        assert_eq!(extend_sliced(state, data), want, "sliced, {what}");
        assert_eq!(extend(state, data), want, "dispatched, {what}");
    }

    #[test]
    fn every_kernel_equals_the_bytewise_reference() {
        let buf = pseudo_random(0x9E37_79B9_7F4A_7C15, COVERED + 8);
        for start in 0..8 {
            for len in 0..=COVERED {
                let data = &buf[start..start + len];
                for state in [!0, 0x1EDC_6F41] {
                    assert_kernels_agree(state, data, &format!("start {start}, len {len}"));
                }
            }
        }
    }

    /// Fed in two calls, split anywhere, the register is the one-call
    /// register — a lane-join error that a fresh `!0` start happened to
    /// mask shows here, where the second call starts mid-stream.
    #[test]
    fn every_kernel_chains_at_every_split() {
        let buf = pseudo_random(7, COVERED);
        let whole = bytewise(!0, &buf);
        for split in 0..=buf.len() {
            let (a, b) = buf.split_at(split);
            assert_eq!(extend(extend(!0, a), b), whole, "dispatched, split at {split}");
            assert_eq!(extend_sliced(extend_sliced(!0, a), b), whole, "sliced, split at {split}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn every_kernel_equals_the_reference_on_random_buffers_up_to_64_kib(
            len in 0usize..=64 << 10,
            start in 0usize..8,
            seed in any::<u64>(),
            state in any::<u32>(),
        ) {
            let buf = pseudo_random(seed, start + len);
            assert_kernels_agree(state, &buf[start..], &format!("start {start}, len {len}"));
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
