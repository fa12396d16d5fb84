//! The decode-equivalence check, shared by path (`#[path =
//! ".../decode_equiv.rs"] mod decode_equiv;`) between the crates' property
//! tests: a decoder run over a shared [`Source`] must accept, reject and
//! consume exactly what it does over a plain slice, and build an equal
//! value — sharing changes where the bytes live, never what is checked.

use std::fmt::Debug;

use bytes::Bytes;
use spinnaker_common::codec::{Decode, Source};

/// Decode `buf` as a `T` both ways and compare verdict, value and bytes
/// consumed. The shared source is a view into the middle of a larger
/// buffer, so a decoder that cut its byte strings relative to the wrong
/// base would build a different value (or trip `slice_ref`).
pub fn assert_decodes_alike<T: Decode + PartialEq + Debug>(buf: &[u8]) {
    let mut plain = buf;
    let copied = T::decode(&mut plain);

    let mut padded = vec![0xa5u8; 3];
    padded.extend_from_slice(buf);
    padded.extend_from_slice(&[0x5a; 2]);
    let owner = Bytes::from(padded).slice(3..3 + buf.len());
    let mut src = Source::shared(&owner, &owner);
    let shared = T::decode_from(&mut src);

    match (copied, shared) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a, b, "decoded values differ");
            assert_eq!(plain.len(), src.len(), "bytes consumed differ");
        }
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "errors differ"),
        (a, b) => panic!("verdicts differ: copying {a:?}, shared {b:?}"),
    }
}

/// The damaged forms of `enc` the checks here run over: `enc` cut short
/// at every length (the whole of it last), and `enc` with the bit `flip`
/// selects inverted.
pub fn damaged(enc: &[u8], flip: usize) -> Vec<Vec<u8>> {
    let mut forms: Vec<Vec<u8>> = (0..=enc.len()).map(|cut| enc[..cut].to_vec()).collect();
    if !enc.is_empty() {
        let mut flipped = enc.to_vec();
        flipped[flip / 8 % enc.len()] ^= 1 << (flip % 8);
        forms.push(flipped);
    }
    forms
}

/// [`assert_decodes_alike`] over every [`damaged`] form of `enc`.
pub fn assert_decodes_alike_when_damaged<T: Decode + PartialEq + Debug>(enc: &[u8], flip: usize) {
    for form in damaged(enc, flip) {
        assert_decodes_alike::<T>(&form);
    }
}
