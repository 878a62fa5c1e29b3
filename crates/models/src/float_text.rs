//! The exact `f32` text codec under every `matrix R C` block.
//!
//! **Writing.** [`push_f32`] appends exactly the bytes `format!("{v}")`
//! writes: the shortest decimal that reads back to the same `f32` (the
//! closest such one; an exact tie between two rounds up, as `core`'s
//! shortest mode does), in positional notation (no exponent: `100`,
//! `0.000001`), `-0` for negative zero. The shortest digits come from
//! Ryū's fixed-width arithmetic (Adams, *Ryū: fast float-to-string
//! conversion*, PLDI 2018) instead of `core`'s Grisu-with-Dragon-fallback;
//! the 5^k tables below are derived at compile time with `u128`
//! arithmetic. NaN and ±inf, which no matrix block holds, go through
//! `Display` itself.
//!
//! **Reading.** [`scan_row`] reads a row of `-?digits(.digits)?` tokens
//! separated by single spaces, the only shape the writer produces. A
//! token's digits collect into a `u64` `w`; with `w < 2^53` (at most 16
//! significant digits) and at most 22 fraction digits `k`, both `w` and
//! `10^k` are exact `f64`s, so `w / 10^k` is one correctly rounded
//! division. Narrowing that `f64` to `f32` rounds once more, which is
//! still the correctly rounded `f32` of the decimal (what `str::parse`
//! returns) unless the `f64` sits exactly on a midpoint between two
//! `f32`s: every midpoint of the normal range is an `f64`, and rounding
//! to `f64` is monotonic, so the decimal and its `f64` lie on the same
//! side of every other midpoint. Midpoints, nonzero values below
//! `f32::MIN_POSITIVE` and values above `f32::MAX` are refused, and so is
//! any other byte; the caller then re-reads the whole row with
//! `split_whitespace` and `str::parse`, so every accepted value, every
//! rejection and every error message is the one that path gives.

/// Ryū's precision for the `5^-q` multipliers (`e2 >= 0`).
const POW5_INV_BITCOUNT: i32 = 59;
/// Ryū's precision for the `5^i` multipliers (`e2 < 0`).
const POW5_BITCOUNT: i32 = 61;

/// `⌈log2(5^e)⌉` for `e > 0`, and 1 for `e == 0`: the bit length of `5^e`.
const fn pow5bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log10(2^e)⌋`.
const fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `⌊log10(5^e)⌋`.
const fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// `5^i` exactly (`i <= 55` fits in a `u128`).
const fn pow5(i: usize) -> u128 {
    let mut p = 1u128;
    let mut k = 0;
    while k < i {
        p *= 5;
        k += 1;
    }
    p
}

/// `⌊2^(pow5bits(i) - 1 + 59) / 5^i⌋ + 1`: the 59-bit reciprocal of `5^i`,
/// rounded up. The largest numerator is `2^128`, one past `u128::MAX`,
/// which no odd `5^i > 1` divides, so `u128::MAX / 5^i` floors it alike.
const POW5_INV_SPLIT: [u64; 31] = {
    let mut t = [0u64; 31];
    let mut i = 0;
    while i < t.len() {
        let j = pow5bits(i as i32) - 1 + POW5_INV_BITCOUNT;
        let p = pow5(i);
        let q = if j == 128 {
            u128::MAX / p
        } else {
            (1u128 << j) / p
        };
        t[i] = (q + 1) as u64;
        i += 1;
    }
    t
};

/// `5^i` shifted to exactly 61 bits (truncated when longer).
const POW5_SPLIT: [u64; 48] = {
    let mut t = [0u64; 48];
    let mut i = 0;
    while i < t.len() {
        let shift = pow5bits(i as i32) - POW5_BITCOUNT;
        let p = pow5(i);
        t[i] = if shift >= 0 {
            (p >> shift) as u64
        } else {
            (p << -shift) as u64
        };
        i += 1;
    }
    t
};

/// `⌊m · factor / 2^shift⌋` (`shift > 32`, so the result fits in 32 bits).
#[inline]
fn mul_shift(m: u32, factor: u64, shift: i32) -> u32 {
    ((u128::from(m) * u128::from(factor)) >> shift) as u32
}

/// Whether `5^p` divides `v` (`v > 0`).
#[inline]
fn multiple_of_pow5(mut v: u32, p: u32) -> bool {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// The shortest decimal `digits · 10^exp` that reads back to the finite,
/// nonzero `f32` with biased exponent `ieee_exp` and stored mantissa
/// `ieee_mant` (Ryū's `f2d`, step for step).
fn shortest(ieee_mant: u32, ieee_exp: u32) -> (u32, i32) {
    let (e2, m2) = if ieee_exp == 0 {
        // Two extra bits so the interval bounds below are integers.
        (1 - 127 - 23 - 2, ieee_mant)
    } else {
        (ieee_exp as i32 - 127 - 23 - 2, (1u32 << 23) | ieee_mant)
    };
    // Round-half-even reading: an even mantissa owns its interval's ends.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    let mp = 4 * m2 + 2;
    let mm_shift = u32::from(ieee_mant != 0 || ieee_exp <= 1);
    let mm = 4 * m2 - 1 - mm_shift;

    let (mut vr, mut vp, mut vm);
    let e10;
    let mut vm_trailing_zeros = false;
    let mut last_removed = 0u32;
    if e2 >= 0 {
        let q = log10_pow2(e2);
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5bits(q as i32) - 1;
        let i = -e2 + q as i32 + k;
        let f = POW5_INV_SPLIT[q as usize];
        vr = mul_shift(mv, f, i);
        vp = mul_shift(mp, f, i);
        vm = mul_shift(mm, f, i);
        if q != 0 && (vp - 1) / 10 <= vm / 10 {
            // The loop below may remove no digit, but rounding needs the
            // first one dropped.
            let l = POW5_INV_BITCOUNT + pow5bits(q as i32 - 1) - 1;
            let f = POW5_INV_SPLIT[q as usize - 1];
            last_removed = mul_shift(mv, f, -e2 + q as i32 - 1 + l) % 10;
        }
        // At most one of mp, mv, mm is a multiple of 5.
        if q <= 9 && mv % 5 != 0 {
            if accept_bounds {
                vm_trailing_zeros = multiple_of_pow5(mm, q);
            } else {
                vp -= u32::from(multiple_of_pow5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5bits(i) - POW5_BITCOUNT;
        let j = q as i32 - k;
        let f = POW5_SPLIT[i as usize];
        vr = mul_shift(mv, f, j);
        vp = mul_shift(mp, f, j);
        vm = mul_shift(mm, f, j);
        if q != 0 && (vp - 1) / 10 <= vm / 10 {
            let j = q as i32 - 1 - (pow5bits(i + 1) - POW5_BITCOUNT);
            last_removed = mul_shift(mv, POW5_SPLIT[i as usize + 1], j) % 10;
        }
        if q <= 1 {
            // mm = mv - 1 - mm_shift has a trailing zero bit iff mm_shift
            // is 1; mp = mv + 2 always has one.
            if accept_bounds {
                vm_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    let mut removed = 0i32;
    while vp / 10 > vm / 10 {
        vm_trailing_zeros &= vm % 10 == 0;
        last_removed = vr % 10;
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed += 1;
    }
    if vm_trailing_zeros {
        // The lower end is exactly representable with fewer digits (rare):
        // keep shortening while it stays inside the interval.
        while vm % 10 == 0 {
            last_removed = vr % 10;
            vr /= 10;
            vm /= 10;
            removed += 1;
        }
    }
    // Round the dropped digits half *up*, as `core`'s shortest mode does
    // (Ryū's own rule is half to even), and step up when vr itself lies
    // outside the interval.
    let output =
        vr + u32::from((vr == vm && (!accept_bounds || !vm_trailing_zeros)) || last_removed >= 5);
    (output, e10 + removed)
}

/// Append `v` exactly as `write!(out, "{v}")` would.
pub fn push_f32(out: &mut String, v: f32) {
    if !v.is_finite() {
        use std::fmt::Write as _;
        let _ = write!(out, "{v}");
        return;
    }
    let bits = v.to_bits();
    if bits >> 31 != 0 {
        out.push('-');
    }
    let (ieee_mant, ieee_exp) = (bits & 0x7f_ffff, (bits >> 23) & 0xff);
    if ieee_mant == 0 && ieee_exp == 0 {
        out.push('0');
        return;
    }
    let (digits, exp) = shortest(ieee_mant, ieee_exp);
    let nd = decimal_len(digits);
    let point = nd as i32 + exp;
    // At most 9 digits, then up to 31 zeros (f32::MAX) or, below one, a
    // "0." and up to 44 zeros (the smallest subnormal). Every byte not
    // written below is one of those zeros.
    let mut buf = [b'0'; 56];
    let (first, len) = if point <= 0 {
        buf[1] = b'.';
        let first = 2 + (-point) as usize;
        (first, first + nd)
    } else if exp >= 0 {
        (0, nd + exp as usize)
    } else {
        (0, nd + 1)
    };
    write_digits(&mut buf[first..first + nd], digits);
    if point > 0 && exp < 0 {
        // Open the decimal point inside the digits.
        let point = point as usize;
        buf.copy_within(point..nd, point + 1);
        buf[point] = b'.';
    }
    // SAFETY: `buf` holds only ASCII digits and '.', so it is UTF-8.
    // (`str::from_utf8` here cost a fifth of the whole call.)
    out.push_str(unsafe { std::str::from_utf8_unchecked(&buf[..len]) });
}

/// The number of decimal digits of `v` (`v < 10^9`, as every `f32`'s
/// shortest digits are).
#[inline]
fn decimal_len(v: u32) -> usize {
    match v {
        0..=9 => 1,
        10..=99 => 2,
        100..=999 => 3,
        1_000..=9_999 => 4,
        10_000..=99_999 => 5,
        100_000..=999_999 => 6,
        1_000_000..=9_999_999 => 7,
        10_000_000..=99_999_999 => 8,
        _ => 9,
    }
}

/// "00" "01" … "99": two digits per division.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Write `v`'s decimal digits right-aligned into `out` (exactly as many
/// bytes as `v` has digits).
#[inline]
fn write_digits(out: &mut [u8], mut v: u32) {
    let mut end = out.len();
    while v >= 100 {
        let pair = 2 * (v % 100) as usize;
        v /= 100;
        end -= 2;
        out[end..end + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = 2 * v as usize;
        out[end - 2..end].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        out[end - 1] = b'0' + v as u8;
    }
}

/// Append one matrix row: the values' [`push_f32`] text joined by single
/// spaces, then `\n`.
pub fn push_row(out: &mut String, row: &[f32]) {
    for (j, &v) in row.iter().enumerate() {
        if j > 0 {
            out.push(' ');
        }
        push_f32(out, v);
    }
    out.push('\n');
}

/// `10^k` for `k <= 22`: every one an exact `f64`.
const POW10: [f64; 23] = {
    let mut t = [1.0f64; 23];
    let mut k = 1;
    while k < t.len() {
        t[k] = t[k - 1] * 10.0;
        k += 1;
    }
    t
};

/// Fold the ASCII digits of `b` from `*i` on into `w` (`w = 10·w + d`),
/// stopping at the first other byte. `None` once `w` reaches 2^53: it
/// only grows, and the fast path refuses such a `w` anyway (so at most 16
/// significant digits are read, and nothing overflows).
#[inline]
fn digit_run(b: &[u8], i: &mut usize, w: &mut u64) -> Option<()> {
    while let Some(&c) = b.get(*i) {
        let d = c.wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        if *w >= 1 << 53 {
            return None;
        }
        *w = *w * 10 + u64::from(d);
        *i += 1;
    }
    Some(())
}

/// `tok`, which must be all of `-?digits(.digits)?`, read exactly (see
/// the module docs); `None` when it is anything else or misses the fast
/// path's bounds.
#[inline]
fn token_value(tok: &[u8]) -> Option<f32> {
    let (neg, b) = match tok {
        [b'-', rest @ ..] => (true, rest),
        _ => (false, tok),
    };
    // Leading zeros leave `w` at 0, so only significant digits count
    // towards its 2^53 bound.
    let mut w = 0u64;
    let mut i = 0;
    digit_run(b, &mut i, &mut w)?;
    if i == 0 {
        return None;
    }
    let mut frac = 0;
    if i < b.len() {
        if b[i] != b'.' {
            return None;
        }
        i += 1;
        let frac_start = i;
        digit_run(b, &mut i, &mut w)?;
        frac = i - frac_start;
        if frac == 0 || frac > 22 || i != b.len() {
            return None;
        }
    }
    if w >= 1 << 53 {
        return None;
    }
    let x = w as f64 / POW10[frac];
    if x != 0.0 {
        let midpoint = x.to_bits() & ((1 << 29) - 1) == 1 << 28;
        if midpoint || x < f64::from(f32::MIN_POSITIVE) || x > f64::from(f32::MAX) {
            return None;
        }
    }
    Some(f32::from_bits((x as f32).to_bits() | u32::from(neg) << 31))
}

/// The index of the first space in `b` at or after `i`, or `b.len()`.
#[inline]
fn next_space(b: &[u8], mut i: usize) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    while let Some(chunk) = b.get(i..i + 8) {
        let x =
            u64::from_le_bytes(chunk.try_into().expect("eight bytes")) ^ (ONES * u64::from(b' '));
        // The lowest zero byte of `x` is the lowest set 0x80 here (bits
        // above it may be false hits, and are not read).
        let zero = x.wrapping_sub(ONES) & !x & (ONES << 7);
        if zero != 0 {
            return i + zero.trailing_zeros() as usize / 8;
        }
        i += 8;
    }
    b[i..]
        .iter()
        .position(|&c| c == b' ')
        .map_or(b.len(), |p| i + p)
}

/// Append the values of one row of single-space-separated fast-path
/// tokens to `data` and return `true`; on any other row leave `data` as it
/// was and return `false`, so the caller re-reads the row with the
/// general path. An empty row holds no values.
///
/// Each token's end is found by a word-at-a-time search for the next
/// space, not by its parse, so neighbouring tokens' parses do not wait on
/// each other.
pub fn scan_row(row: &str, data: &mut Vec<f32>) -> bool {
    let b = row.as_bytes();
    if b.is_empty() {
        return true;
    }
    let before = data.len();
    let mut start = 0;
    loop {
        let end = next_space(b, start);
        match token_value(&b[start..end]) {
            Some(v) => data.push(v),
            None => break,
        }
        if end == b.len() {
            return true;
        }
        start = end + 1;
    }
    data.truncate(before);
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn display(v: f32) -> String {
        format!("{v}")
    }

    /// `tok` read as a one-value row by the fast path, if it takes it.
    fn parse_f32(tok: &str) -> Option<f32> {
        let mut v = Vec::new();
        (scan_row(tok, &mut v) && v.len() == 1).then(|| v[0])
    }

    fn written(v: f32) -> String {
        let mut s = String::new();
        push_f32(&mut s, v);
        s
    }

    #[test]
    fn tables_match_their_definitions() {
        for (i, &t) in POW5_SPLIT.iter().enumerate() {
            let p = pow5(i);
            assert_eq!(pow5bits(i as i32), 128 - p.leading_zeros() as i32, "5^{i}");
            assert_eq!(64 - t.leading_zeros(), 61, "POW5_SPLIT[{i}] width");
        }
        assert_eq!(POW5_INV_SPLIT[0], (1 << 59) + 1);
        assert_eq!(POW5_INV_SPLIT[1], 461_168_601_842_738_791);
        assert_eq!(POW5_SPLIT[1], 1_441_151_880_758_558_720);
    }

    #[test]
    fn writer_matches_display_on_edge_values() {
        let mut vals = vec![
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            100.0,
            0.1,
            0.3,
            1.5,
            1e-7,
            123_456_790.0,
            16_777_216.0,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            f32::EPSILON,
            f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        for e in 0..=254u32 {
            for m in [0u32, 1, 2, 0x40_0000, 0x7f_fffe, 0x7f_ffff] {
                vals.push(f32::from_bits(e << 23 | m));
                vals.push(-f32::from_bits(e << 23 | m));
            }
        }
        for v in vals {
            assert_eq!(written(v), display(v), "bits {:#010x}", v.to_bits());
        }
    }

    #[test]
    fn reader_matches_str_parse_or_defers() {
        for tok in [
            "0",
            "-0",
            "0.0",
            "1",
            "-1",
            "100",
            "0.1",
            "-0.3",
            "1.5",
            "00012.50",
            "0.000000000000000000001",
            "123456789012345",
            "9007199254740991",
        ] {
            let want = tok.parse::<f32>().unwrap();
            assert_eq!(
                parse_f32(tok).map(f32::to_bits),
                Some(want.to_bits()),
                "{tok}"
            );
        }
        // Outside the fast path: not the grammar, too many digits, too
        // small, too large, or exactly on an f32 midpoint.
        for tok in [
            "",
            "-",
            ".5",
            "1.",
            "+1",
            "1e5",
            "NaN",
            "inf",
            " 1",
            "1 ",
            "1.2.3",
            "12345678901234567890",
            "0.00000000000000000000001",
            "1e-39",
            "0.00000000000000000000000000000000000000001",
            "340282356779733661637539395458142568448",
            "9007199254740993",
            "16777217",
            "16777217.0",
        ] {
            assert_eq!(parse_f32(tok), None, "{tok}");
        }
    }

    #[test]
    fn rows_scan_whole_or_not_at_all() {
        let mut data = vec![9.0];
        assert!(scan_row("1 -2.5 0.125", &mut data));
        assert_eq!(data, [9.0, 1.0, -2.5, 0.125]);
        for row in ["1  2", " 1", "1 ", "1\t2", "1 x", "1 NaN", "1 1e3"] {
            assert!(!scan_row(row, &mut data), "{row:?}");
            assert_eq!(data.len(), 4, "{row:?} left values behind");
        }
        assert!(scan_row("", &mut data));
        assert_eq!(data.len(), 4);
    }

    #[test]
    fn row_writer_joins_with_single_spaces() {
        let mut s = String::new();
        push_row(&mut s, &[1.0, -0.0, 0.25]);
        push_row(&mut s, &[]);
        assert_eq!(s, "1 -0 0.25\n\n");
    }
}
