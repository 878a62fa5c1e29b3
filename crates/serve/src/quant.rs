//! Int8 row quantization for the v2q artifact format.
//!
//! Each matrix row is stored affinely: `v ≈ zero + scale · q` with
//! `q ∈ [0, 255]`, `zero = min(row)` and `scale = (max(row) − min(row)) / 255`.
//! A constant row gets `scale = 0` and round-trips exactly. The three
//! values per row are packed binary — `[scale f32 LE][zero f32 LE][k × u8]`
//! — and base64-encoded onto one artifact line, which is what buys the
//! v2q size win over v1's shortest-roundtrip decimal text.
//!
//! Dequantization routes through the SIMD tier
//! ([`rdd_tensor::simd::dequant_u8`]), so a v2q load vectorizes under
//! `RDD_SIMD=auto` and stays scalar-exact under `RDD_SIMD=off`. Its AVX2
//! body is one of the few hand-written ones the tier keeps, because its
//! bits differ from scalar: one FMA per code (≤1 ULP from scalar).
//!
//! Drift is reported in ULPs ([`ulp_distance`]): the monotone bit-space
//! distance between the dequantized value and the original. Quantization
//! is lossy by design, so these distances are large near zero (a quant
//! step of ~1e-3 spans millions of ULPs at 1e-7) — the artifact records
//! the *measured* bound so `rdd artifact-info` and ci can check against
//! it rather than against a guess.

use rdd_tensor::{simd, Matrix, SimdTier};

/// One quantized row: the affine parameters plus the u8 codes.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantRow {
    /// Step size `(max − min) / 255`; `0` for a constant row.
    pub scale: f32,
    /// Affine offset, the row minimum.
    pub zero: f32,
    /// One code per column.
    pub q: Vec<u8>,
}

/// Quantize one row. `row` must be non-empty and finite (artifact rows
/// already are — the v1 writer rejects non-finite values upstream).
pub fn quantize_row(row: &[f32]) -> QuantRow {
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &v in row {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let scale = if hi > lo { (hi - lo) / 255.0 } else { 0.0 };
    let q = row
        .iter()
        .map(|&v| {
            if scale == 0.0 {
                0u8
            } else {
                // Round-to-nearest code; clamp guards the hi endpoint
                // where fp division can land a hair above 255.
                ((v - lo) / scale).round().clamp(0.0, 255.0) as u8
            }
        })
        .collect();
    QuantRow { scale, zero: lo, q }
}

/// Dequantize into `out` (`out.len() == q.len()`) through the SIMD tier.
pub fn dequantize_row(tier: SimdTier, row: &QuantRow, out: &mut [f32]) {
    simd::dequant_u8(tier, &row.q, row.scale, row.zero, out);
}

/// Quantize then dequantize a full matrix — the loader's view of what a
/// v2q round trip preserves. Used by drift measurement and tests.
pub fn quantize_dequantize(m: &Matrix) -> Matrix {
    let tier = simd::active();
    let (r, c) = m.shape();
    let mut out = Matrix::zeros(r, c);
    for i in 0..r {
        let qr = quantize_row(m.row(i));
        dequantize_row(tier, &qr, out.row_mut(i));
    }
    out
}

/// Monotone bit-space distance between two finite floats: 0 iff equal
/// (−0 and +0 coincide), 1 for adjacent representable values, and
/// strictly increasing with real distance. Signed values map through the
/// standard sign-magnitude-to-lexicographic trick so the metric is
/// continuous across zero.
pub fn ulp_distance(a: f32, b: f32) -> u64 {
    fn key(x: f32) -> i64 {
        let bits = x.to_bits() as i32;
        (if bits < 0 { i32::MIN - bits } else { bits }) as i64
    }
    (key(a) - key(b)).unsigned_abs()
}

/// Largest [`ulp_distance`] over two same-shape matrices.
pub fn max_ulp_diff(a: &Matrix, b: &Matrix) -> u64 {
    assert_eq!(a.shape(), b.shape(), "ulp diff over mismatched shapes");
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| ulp_distance(x, y))
        .max()
        .unwrap_or(0)
}

const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Standard-alphabet base64 without padding (the decoder derives the
/// byte count from the string length, so padding is dead weight on an
/// artifact line).
pub fn b64_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b = [
            chunk[0],
            chunk.get(1).copied().unwrap_or(0),
            chunk.get(2).copied().unwrap_or(0),
        ];
        let v = ((b[0] as u32) << 16) | ((b[1] as u32) << 8) | b[2] as u32;
        out.push(B64[(v >> 18) as usize & 63] as char);
        out.push(B64[(v >> 12) as usize & 63] as char);
        if chunk.len() > 1 {
            out.push(B64[(v >> 6) as usize & 63] as char);
        }
        if chunk.len() > 2 {
            out.push(B64[v as usize & 63] as char);
        }
    }
    out
}

fn b64_val(c: u8) -> Result<u32, String> {
    match c {
        b'A'..=b'Z' => Ok((c - b'A') as u32),
        b'a'..=b'z' => Ok((c - b'a' + 26) as u32),
        b'0'..=b'9' => Ok((c - b'0' + 52) as u32),
        b'+' => Ok(62),
        b'/' => Ok(63),
        _ => Err(format!("invalid base64 byte {:?}", c as char)),
    }
}

/// Decode unpadded base64; rejects bad characters and impossible lengths.
pub fn b64_decode(s: &str) -> Result<Vec<u8>, String> {
    let src = s.as_bytes();
    if src.len() % 4 == 1 {
        return Err(format!("invalid base64 length {}", src.len()));
    }
    let mut out = Vec::with_capacity(src.len() / 4 * 3 + 2);
    for chunk in src.chunks(4) {
        let mut v = 0u32;
        for &c in chunk {
            v = (v << 6) | b64_val(c)?;
        }
        // Left-align the partial group so byte extraction is uniform.
        v <<= 6 * (4 - chunk.len());
        out.push((v >> 16) as u8);
        if chunk.len() > 2 {
            out.push((v >> 8) as u8);
        }
        if chunk.len() > 3 {
            out.push(v as u8);
        }
    }
    Ok(out)
}

/// Pack one quantized row for an artifact line:
/// `base64([scale f32 LE][zero f32 LE][q …])`.
pub fn encode_qrow(row: &QuantRow) -> String {
    let mut bytes = Vec::with_capacity(8 + row.q.len());
    bytes.extend_from_slice(&row.scale.to_le_bytes());
    bytes.extend_from_slice(&row.zero.to_le_bytes());
    bytes.extend_from_slice(&row.q);
    b64_encode(&bytes)
}

/// Inverse of [`encode_qrow`] for a row of `k` columns. Validates length
/// only — scale/zero sanity is the loader's job (it owns the typed
/// `ServeError` variants).
pub fn decode_qrow(line: &str, k: usize) -> Result<QuantRow, String> {
    let bytes = b64_decode(line)?;
    if bytes.len() != 8 + k {
        return Err(format!(
            "quantized row holds {} bytes, expected {} (8 + {k} codes)",
            bytes.len(),
            8 + k
        ));
    }
    let scale = f32::from_le_bytes(bytes[0..4].try_into().unwrap());
    let zero = f32::from_le_bytes(bytes[4..8].try_into().unwrap());
    Ok(QuantRow {
        scale,
        zero,
        q: bytes[8..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base64_roundtrips_all_lengths() {
        for len in 0..40usize {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let enc = b64_encode(&bytes);
            assert_eq!(b64_decode(&enc).unwrap(), bytes, "len {len}");
        }
        // Known vector (RFC 4648 minus padding).
        assert_eq!(b64_encode(b"foobar"), "Zm9vYmFy");
        assert_eq!(b64_encode(b"foob"), "Zm9vYg");
    }

    #[test]
    fn base64_rejects_garbage() {
        assert!(b64_decode("ab!d").is_err());
        assert!(b64_decode("abcde").is_err()); // length ≡ 1 mod 4
    }

    #[test]
    fn constant_row_roundtrips_exactly() {
        let row = [0.25f32; 7];
        let qr = quantize_row(&row);
        assert_eq!(qr.scale, 0.0);
        assert_eq!(qr.zero, 0.25);
        let mut out = [0f32; 7];
        dequantize_row(SimdTier::Scalar, &qr, &mut out);
        assert_eq!(out, row);
    }

    #[test]
    fn quantization_error_is_within_half_a_step() {
        let row: Vec<f32> = (0..97).map(|i| (i as f32 * 0.37).sin()).collect();
        let qr = quantize_row(&row);
        let mut out = vec![0f32; row.len()];
        dequantize_row(SimdTier::Scalar, &qr, &mut out);
        for (a, b) in row.iter().zip(&out) {
            assert!(
                (a - b).abs() <= qr.scale * 0.5 + 1e-6,
                "{a} vs {b} (scale {})",
                qr.scale
            );
        }
        // Endpoints are representable codes, so they survive (to ~1 ulp of
        // the affine arithmetic).
        let lo = row.iter().cloned().fold(f32::INFINITY, f32::min);
        assert_eq!(qr.zero, lo);
    }

    #[test]
    fn qrow_line_roundtrips() {
        let qr = QuantRow {
            scale: 0.0125,
            zero: -3.5,
            q: (0..=255u8).collect(),
        };
        let line = encode_qrow(&qr);
        assert!(!line.contains(' ') && !line.contains('\n'));
        assert_eq!(decode_qrow(&line, 256).unwrap(), qr);
        assert!(decode_qrow(&line, 255).unwrap_err().contains("expected"));
    }

    #[test]
    fn ulp_distance_is_a_metric_near_zero() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(1.0, f32::from_bits(1.0f32.to_bits() + 1)), 1);
        // Continuous across the sign change: -0.0 and +0.0 share a key.
        assert_eq!(ulp_distance(0.0, -0.0), 0);
        assert_eq!(
            ulp_distance(-f32::MIN_POSITIVE, f32::MIN_POSITIVE),
            0x1000000
        );
        assert!(ulp_distance(-1e-30, 1e-30) < ulp_distance(-1e-3, 1e-3));
        // Symmetry.
        assert_eq!(ulp_distance(2.5, -1.75), ulp_distance(-1.75, 2.5));
    }

    #[test]
    fn max_ulp_diff_over_matrices() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![1.0, 2.0, f32::from_bits(3.0f32.to_bits() + 4)]);
        assert_eq!(max_ulp_diff(&a, &a), 0);
        assert_eq!(max_ulp_diff(&a, &b), 4);
    }
}
