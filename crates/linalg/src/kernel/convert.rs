//! Bulk little-endian ↔ `f64` conversion kernels.
//!
//! `enkf-pfs` stores every state region as packed little-endian `f64`
//! bytes. On little-endian targets (every platform this repo ships on)
//! that encoding *is* the in-memory representation, so the data plane
//! never converts: reads land in an `f64` buffer through its byte view
//! ([`fill_le_f64`]) and writes hand the kernel the values' byte view
//! ([`f64_le_bytes`]). Big-endian targets byte-swap, in place after a
//! fill and into an owned copy before a write.
//!
//! Every function is bit-identical to the per-element
//! `f64::from_le_bytes` / `f64::to_le_bytes` walk it stands for (pinned by
//! the unit tests below and by proptests in `enkf-pfs`): the bytes moved
//! are the same bytes, only the move is bulk — or absent.

use std::borrow::Cow;

/// Let `fill` write packed little-endian `f64` bytes straight into `dst`
/// (viewed as `8 · dst.len()` bytes), then fix the byte order so `dst`
/// holds the decoded values — a no-op on little-endian targets. Returns
/// what `fill` returned; bytes `fill` left untouched decode to whatever
/// `dst` held before, byte-swapped on big-endian targets.
///
/// This is how a file read becomes single-pass: `read_exact` fills the
/// destination slab itself instead of a staging buffer.
pub fn fill_le_f64<R>(dst: &mut [f64], fill: impl FnOnce(&mut [u8]) -> R) -> R {
    // SAFETY: the pointer and byte length come from a live, exclusively
    // borrowed `[f64]`, so the range is valid, initialised and unaliased
    // for the borrow; `u8` has alignment 1; every bit pattern `fill` can
    // leave behind is a valid `f64`.
    let bytes = unsafe {
        std::slice::from_raw_parts_mut(dst.as_mut_ptr().cast::<u8>(), std::mem::size_of_val(dst))
    };
    let result = fill(bytes);
    if cfg!(target_endian = "big") {
        for v in dst.iter_mut() {
            *v = f64::from_bits(u64::from_le(v.to_bits()));
        }
    }
    result
}

/// The packed little-endian encoding of `values`: borrowed straight from
/// their memory on little-endian targets (no copy), a byte-swapped copy on
/// big-endian ones.
pub fn f64_le_bytes(values: &[f64]) -> Cow<'_, [u8]> {
    if cfg!(target_endian = "little") {
        // SAFETY: the pointer and byte length come from a live `[f64]`
        // borrowed for the returned lifetime; `u8` has alignment 1 and
        // `f64` has no padding, so every byte is initialised.
        Cow::Borrowed(unsafe {
            std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), std::mem::size_of_val(values))
        })
    } else {
        Cow::Owned(values.iter().flat_map(|v| v.to_le_bytes()).collect())
    }
}

/// Decode packed little-endian `f64` bytes into `dst` (resized to fit;
/// allocation-free once `dst` has steady-state capacity).
///
/// # Panics
/// When `src.len()` is not a multiple of 8.
pub fn le_bytes_to_f64_into(src: &[u8], dst: &mut Vec<f64>) {
    assert!(
        src.len().is_multiple_of(8),
        "le_bytes_to_f64_into: byte length {} not a multiple of 8",
        src.len()
    );
    dst.resize(src.len() / 8, 0.0);
    fill_le_f64(dst, |bytes| bytes.copy_from_slice(src));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// NaN payloads, infinities, subnormals, signed zeros.
    fn patterns() -> Vec<u64> {
        let mut bits = vec![
            0,
            1 << 63,
            0x7FF0_0000_0000_0000,
            0xFFF0_0000_0000_0000,
            0x7FF8_0000_0000_0001,
            0xFFF4_DEAD_BEEF_0001,
            1,
            0x000F_FFFF_FFFF_FFFF,
            u64::MAX,
        ];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            bits.push(x);
        }
        bits
    }

    #[test]
    fn byte_views_round_trip_every_bit_pattern() {
        let bits = patterns();
        let values: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        let legacy: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let encoded = f64_le_bytes(&values);
        assert_eq!(&*encoded, &legacy[..]);

        let mut filled = vec![0.0f64; values.len()];
        let n = fill_le_f64(&mut filled, |bytes| {
            bytes.copy_from_slice(&encoded);
            bytes.len()
        });
        assert_eq!(n, 8 * values.len());
        let mut decoded = vec![1.0; 3]; // stale contents, wrong length
        le_bytes_to_f64_into(&encoded, &mut decoded);
        for ((b, f), d) in bits.iter().zip(&filled).zip(&decoded) {
            assert_eq!(f.to_bits(), *b);
            assert_eq!(d.to_bits(), *b);
        }
        assert_eq!(decoded.len(), bits.len());
    }

    #[test]
    fn empty_slices_have_empty_views() {
        assert!(f64_le_bytes(&[]).is_empty());
        fill_le_f64(&mut [], |bytes| assert!(bytes.is_empty()));
    }
}
