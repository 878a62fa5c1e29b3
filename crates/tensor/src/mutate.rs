//! A seeded input mutator for the loader and parser robustness tests.
//!
//! [`mutate`] applies one to three random edits to a valid input: flip a
//! byte, truncate, splice in a line of a second valid input (or drop or
//! repeat one of its own), or substitute one whitespace-separated token
//! with an extreme number from [`EXTREME_TOKENS`]. Everything is drawn
//! from one [`Rng`], so a failing case reproduces from its seed alone.

use crate::Rng;

/// Numbers a parser must refuse or read exactly: non-finite spellings,
/// signed zero, values past `f32::MAX`, subnormals, more digits than a
/// `u64` holds, and integer extremes.
pub const EXTREME_TOKENS: &[&str] = &[
    "NaN",
    "nan",
    "inf",
    "-inf",
    "infinity",
    "-0",
    "-0.0",
    "1e39",
    "-1e39",
    "340282356779733661637539395458142568448",
    "0.00000000000000000000000000000000000001",
    "0.000000000000000000000000000000000000000000001",
    "1e-45",
    "1e-50",
    "1234567890123456789012345",
    "0.1234567890123456789012345",
    "16777217",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "1.",
    ".5",
    "+1",
    "0x10",
    "",
];

/// One to three random edits of `input`; `donor` (another valid input
/// of the same format) supplies spliced lines.
pub fn mutate(rng: &mut Rng, input: &[u8], donor: &[u8]) -> Vec<u8> {
    let mut out = input.to_vec();
    for _ in 0..rng.range(1..4) {
        match rng.range(0..5) {
            0 => flip_byte(rng, &mut out),
            1 => {
                let at = rng.range(0..out.len() + 1);
                out.truncate(at);
            }
            2 => splice_line(rng, &mut out, donor),
            _ => substitute_token(rng, &mut out),
        }
    }
    out
}

/// Replace one byte with a random one, or with a space, newline, digit,
/// `-` or `.`: the bytes a number grammar reacts to.
fn flip_byte(rng: &mut Rng, out: &mut [u8]) {
    if out.is_empty() {
        return;
    }
    let at = rng.range(0..out.len());
    const NEAR: &[u8] = b" \n\t\r-.0159e";
    out[at] = if rng.range(0..2) == 0 {
        NEAR[rng.range(0..NEAR.len())]
    } else {
        rng.range(0..256) as u8
    };
}

/// `(start, end)` of every line of `text`, newline excluded.
fn line_spans(text: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = 0;
    for (i, &b) in text.iter().enumerate() {
        if b == b'\n' {
            spans.push((start, i));
            start = i + 1;
        }
    }
    if start < text.len() {
        spans.push((start, text.len()));
    }
    spans
}

/// Replace one line with a line of `donor`, or drop one, or repeat one.
fn splice_line(rng: &mut Rng, out: &mut Vec<u8>, donor: &[u8]) {
    let spans = line_spans(out);
    if spans.is_empty() {
        out.extend_from_slice(donor);
        return;
    }
    let (s, e) = spans[rng.range(0..spans.len())];
    let replacement: Vec<u8> = match rng.range(0..3) {
        0 => {
            let donor_spans = line_spans(donor);
            match donor_spans.get(rng.range(0..donor_spans.len().max(1))) {
                Some(&(ds, de)) => donor[ds..de].to_vec(),
                None => Vec::new(),
            }
        }
        1 => {
            // Drop the line and its newline.
            let end = (e + 1).min(out.len());
            out.drain(s..end);
            return;
        }
        _ => {
            let mut twice = out[s..e].to_vec();
            twice.push(b'\n');
            twice.extend_from_slice(&out[s..e]);
            twice
        }
    };
    out.splice(s..e, replacement);
}

/// Replace one whitespace-separated token with an extreme number.
fn substitute_token(rng: &mut Rng, out: &mut Vec<u8>) {
    let mut tokens = Vec::new();
    let mut start = None;
    for (i, &b) in out.iter().enumerate() {
        let space = b.is_ascii_whitespace();
        match (start, space) {
            (None, false) => start = Some(i),
            (Some(s), true) => {
                tokens.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        tokens.push((s, out.len()));
    }
    if tokens.is_empty() {
        return;
    }
    let (s, e) = tokens[rng.range(0..tokens.len())];
    let token = EXTREME_TOKENS[rng.range(0..EXTREME_TOKENS.len())];
    out.splice(s..e, token.bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;

    #[test]
    fn mutations_are_seeded_and_change_the_input() {
        let input = b"matrix 2 2\n1 2\n3 4\n";
        let donor = b"matrix 1 3\n0.5 -0.25 7\n";
        let mut changed = 0;
        for seed in 0..200 {
            let a = mutate(&mut seeded_rng(seed), input, donor);
            let b = mutate(&mut seeded_rng(seed), input, donor);
            assert_eq!(a, b, "seed {seed}: not reproducible");
            changed += usize::from(a != input);
        }
        assert!(changed > 150, "only {changed} of 200 cases changed");
    }

    #[test]
    fn edits_handle_empty_inputs() {
        for seed in 0..100 {
            mutate(&mut seeded_rng(seed), b"", b"");
            mutate(&mut seeded_rng(seed), b"\n", b"x");
        }
    }
}
