//! The exact `f32` text codec against `std`.
//!
//! * A differential fuzz loop: seeded mutations of valid `matrix R C`
//!   blocks (flipped bytes, truncation, spliced rows, extreme tokens) go
//!   through [`TextCursor::read_matrix`] and through the reader it had
//!   before the exact scanner, kept below verbatim as the oracle. Every
//!   case must give `Ok` or a [`TextError`], never a panic, and the two
//!   must agree: values bitwise, errors by message.
//! * A large sample (ignored; `ci.sh` runs it in release): the writer
//!   against `Display` and the reader against `str::parse`, over 2^26
//!   random bit patterns, every exponent's boundary patterns, the
//!   neighbours of every power of ten, and 2^24 random decimal strings.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use rdd_models::float_text::{push_f32, scan_row};
use rdd_models::{push_matrix, TextCursor, TextError};
use rdd_tensor::{mutate::mutate, seeded_rng, Matrix, Rng};

/// `TextCursor::read_matrix` before the exact scanner, verbatim but for
/// the cursor's public accessors: every row through `split_whitespace`
/// and `str::parse`.
fn oracle_read_matrix(cur: &mut TextCursor<'_>, index: usize) -> Result<Matrix, TextError> {
    let header = cur.next_line()?;
    let at = cur.line_no();
    let bad = |what: &str| TextError(format!("line {at}: {what}, found {header:?}"));
    let mut toks = header.split_whitespace();
    let (rows, cols) = match (toks.next(), toks.next(), toks.next(), toks.next()) {
        (Some("matrix"), Some(r), Some(c), None) => (
            r.parse::<usize>().map_err(|_| bad("bad matrix rows"))?,
            c.parse::<usize>().map_err(|_| bad("bad matrix cols"))?,
        ),
        _ => return Err(bad("expected 'matrix R C'")),
    };
    let mut data = Vec::with_capacity(cur.claimed(rows.checked_mul(cols), header)?);
    for r in 0..rows {
        let row = cur.next_line()?;
        let at = || format!("line {} (matrix {index} row {r})", cur.line_no());
        let before = data.len();
        for tok in row.split_whitespace() {
            let v: f32 = tok
                .parse()
                .map_err(|_| TextError(format!("{}: bad float {tok:?}", at())))?;
            if !v.is_finite() {
                return Err(TextError(format!("{}: non-finite value {tok:?}", at())));
            }
            data.push(v);
        }
        if data.len() - before != cols {
            return Err(TextError(format!(
                "{}: expected {cols} values, found {}",
                at(),
                data.len() - before
            )));
        }
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

/// A random finite `f32` of the kinds the codec meets: weight-sized
/// values, probabilities, small integers, signed zeros, and any finite
/// bit pattern (subnormals and huge magnitudes included).
fn value(rng: &mut Rng) -> f32 {
    match rng.range(0..6) {
        0 => rng.range_f32(-1.0..1.0) * 0.1,
        1 => rng.f32(),
        2 => rng.range(0..200) as f32 - 100.0,
        3 => [0.0, -0.0][rng.range(0..2)],
        _ => loop {
            let v = f32::from_bits(random_bits(rng));
            if v.is_finite() {
                break v;
            }
        },
    }
}

fn random_bits(rng: &mut Rng) -> u32 {
    (rng.range(0..1 << 16) as u32) << 16 | rng.range(0..1 << 16) as u32
}

/// A valid block of up to 5 x 6 random values.
fn block(rng: &mut Rng) -> String {
    let (r, c) = (rng.range(0..6), rng.range(0..7));
    let m = Matrix::from_vec(r, c, (0..r * c).map(|_| value(rng)).collect());
    let mut text = String::new();
    push_matrix(&mut text, &m);
    text
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn valid_blocks_read_back_bitwise() {
    for seed in 0..300 {
        let mut rng = seeded_rng(seed);
        let text = block(&mut rng);
        let got = TextCursor::new(&text).read_matrix(0).expect("valid block");
        let want = oracle_read_matrix(&mut TextCursor::new(&text), 0).expect("oracle");
        assert_eq!(got.shape(), want.shape(), "seed {seed}");
        assert_eq!(bits(&got), bits(&want), "seed {seed}");
    }
}

#[test]
fn mutated_blocks_match_the_old_reader() {
    let (mut ok, mut err) = (0, 0);
    for seed in 0..20_000u64 {
        let mut rng = seeded_rng(seed);
        let valid = block(&mut rng);
        let donor = block(&mut rng);
        let bytes = mutate(&mut rng, valid.as_bytes(), donor.as_bytes());
        let text = String::from_utf8_lossy(&bytes);
        let mut new_cur = TextCursor::new(&text);
        let got = catch_unwind(AssertUnwindSafe(|| new_cur.read_matrix(0)))
            .unwrap_or_else(|_| panic!("seed {seed}: read_matrix panicked on {text:?}"));
        let mut old_cur = TextCursor::new(&text);
        let want = oracle_read_matrix(&mut old_cur, 0);
        match (&got, &want) {
            (Ok(g), Ok(w)) => {
                assert_eq!(g.shape(), w.shape(), "seed {seed}: {text:?}");
                assert_eq!(bits(g), bits(w), "seed {seed}: {text:?}");
                ok += 1;
            }
            (Err(g), Err(w)) => {
                assert_eq!(g, w, "seed {seed}: {text:?}");
                err += 1;
            }
            _ => panic!("seed {seed}: {got:?} but the old reader gave {want:?} on {text:?}"),
        }
        assert_eq!(new_cur.line_no(), old_cur.line_no(), "seed {seed}: cursor");
    }
    // Both outcomes must be well represented, or the loop tests little.
    assert!(ok > 2000 && err > 2000, "{ok} accepted, {err} rejected");
}

/// Writer == `Display`, and the reader either defers or equals
/// `str::parse`, for the bits `b`; `buf`s are reused across calls.
fn check_bits(b: u32, want: &mut String, got: &mut String, deferred: &mut u64) {
    let v = f32::from_bits(b);
    want.clear();
    got.clear();
    let _ = write!(want, "{v}");
    push_f32(got, v);
    assert_eq!(got, want, "writer, bits {b:#010x}");
    if v.is_finite() {
        check_token(want, deferred);
    }
}

/// `tok` read as a one-value row by the fast path, if it takes it.
fn parse_f32(tok: &str) -> Option<f32> {
    let mut v = Vec::new();
    (scan_row(tok, &mut v) && v.len() == 1).then(|| v[0])
}

fn check_token(tok: &str, deferred: &mut u64) {
    match parse_f32(tok) {
        Some(x) => {
            let p: f32 = tok.parse().expect("fast-path tokens parse");
            assert_eq!(x.to_bits(), p.to_bits(), "reader, {tok:?}");
        }
        None => *deferred += 1,
    }
}

#[test]
#[ignore = "large sample, for release builds; ci.sh runs it"]
fn codec_matches_std_on_a_large_sample() {
    let (mut want, mut got, mut deferred) = (String::new(), String::new(), 0u64);
    let mut rng = seeded_rng(2018);
    for _ in 0..1u64 << 26 {
        check_bits(random_bits(&mut rng), &mut want, &mut got, &mut deferred);
    }
    // Every exponent's ends and middle, both signs.
    for sign in [0u32, 1 << 31] {
        for exp in 0..=255u32 {
            for mant in [
                0, 1, 2, 3, 0x3f_ffff, 0x40_0000, 0x40_0001, 0x7f_fffd, 0x7f_fffe, 0x7f_ffff,
            ] {
                check_bits(sign | exp << 23 | mant, &mut want, &mut got, &mut deferred);
            }
        }
    }
    // The neighbours of every power of ten: where shortest digits change
    // length.
    for k in -45..=38 {
        let p = format!("1e{k}").parse::<f32>().unwrap().to_bits();
        for d in 0..=8 {
            for b in [p.wrapping_add(d), p.wrapping_sub(d)] {
                check_bits(b, &mut want, &mut got, &mut deferred);
            }
        }
    }
    // Decimal strings `Display` never writes: up to 30 digits, any point.
    let mut tok = String::new();
    for _ in 0..1u64 << 24 {
        tok.clear();
        if rng.range(0..2) == 0 {
            tok.push('-');
        }
        let int_digits = rng.range(1..13);
        let frac_digits = rng.range(0..19);
        for i in 0..int_digits + frac_digits {
            if i == int_digits {
                tok.push('.');
            }
            // Skew towards zeros so long leading/trailing zero runs occur.
            let d = if rng.range(0..3) == 0 {
                0
            } else {
                rng.range(0..10)
            };
            tok.push(char::from(b'0' + d as u8));
        }
        check_token(&tok, &mut deferred);
    }
    eprintln!("reader deferred {deferred} tokens to str::parse");
}
