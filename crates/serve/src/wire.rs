//! The `rdd serve` line-JSON wire format: request lines in, reply lines out.
//!
//! [`parse_line`] turns one stdin line into a request. The hot shape, a
//! feature request `{"id":N,"features":[x, ...]}` (keys in either order,
//! JSON whitespace allowed), is scanned straight into one row of f32s
//! without building a [`Json`] tree. Every other line goes through the
//! general tree parser [`parse_request`], which owns every error message,
//! so the scanner changes no reply: it takes a line only when the general
//! path would accept it, and produces bit-identical values.
//!
//! A feature value must be finite *as an f32*: `1e39` is a finite f64 but
//! rounds to +inf, so it is refused with a typed error like NaN or inf.

use std::time::Instant;

use rdd_models::PredictRequest;
use rdd_obs::Json;
use rdd_tensor::Matrix;

use crate::engine::ServeReply;

/// Time to parse one request line, in nanoseconds. Recorded only while
/// tracing is on; snapshots appear as `hist` events at every flush.
static HIST_PARSE_NS: rdd_obs::HistCell = rdd_obs::HistCell::new("serve.parse_ns");

/// A parsed serve-loop request: `(id, request, deadline_ms)`.
pub type ParsedRequest = (u64, PredictRequest, Option<f64>);

/// One stdin line of the serve loop: its text, or the offset of its first
/// byte that is not UTF-8.
pub type InputLine = Result<String, usize>;

/// The largest request id a JSON number (an f64) carries exactly, 2^53 - 1.
/// Above it neighbouring integers share one f64, so a reply could come back
/// under another request's id.
pub const MAX_REQUEST_ID: u64 = (1 << 53) - 1;

/// Parse one feature row: a flat array of numbers, each finite as an f32.
pub fn parse_feature_row(a: &[Json], out: &mut Vec<f32>) -> Result<usize, String> {
    let start = out.len();
    for v in a {
        let x = v.as_f64().ok_or("'features' holds a non-number")?;
        let f = x as f32;
        if !f.is_finite() {
            return Err(format!(
                "feature values must be finite f32s (magnitude at most {:e}), got {x:e}",
                f32::MAX
            ));
        }
        out.push(f);
    }
    Ok(out.len() - start)
}

/// Parse one serve-loop request line:
/// `{"id":N,"nodes":[...],"deadline_ms":F}` or
/// `{"id":N,"features":[...],"deadline_ms":F}`. Every key is optional — a
/// missing `id` gets `fallback_id`, missing `nodes`/`features` means the
/// whole graph, and `deadline_ms` (milliseconds from arrival;
/// `--deadline-ms` sets the default) marks the request sheddable as
/// `Expired` if it is still queued when the deadline passes. `features` is
/// either one flat row (`[0.1, 0.2, ...]`) or a batch of rows
/// (`[[...], [...]]`), and is mutually exclusive with `nodes`: a node
/// request names rows of the frozen training graph, a feature request
/// carries the rows themselves. An `id` above [`MAX_REQUEST_ID`] is
/// rejected rather than answered under a rounded id.
pub fn parse_request(line: &str, fallback_id: u64) -> Result<ParsedRequest, String> {
    let json = rdd_obs::parse(line)?;
    let id = match json.get("id") {
        None if fallback_id > MAX_REQUEST_ID => {
            return Err(format!(
                "no 'id' given and the next free id is above {MAX_REQUEST_ID} (2^53-1); \
                 send an explicit 'id'"
            ))
        }
        None => fallback_id,
        Some(v) => {
            let x = v.as_f64().ok_or("'id' must be a number")?;
            if x < 0.0 || x.fract() != 0.0 {
                return Err(format!("'id' must be a non-negative integer, got {x}"));
            }
            if x > MAX_REQUEST_ID as f64 {
                return Err(format!(
                    "'id' must be at most {MAX_REQUEST_ID} (2^53-1): larger JSON numbers \
                     do not hold an integer exactly"
                ));
            }
            x as u64
        }
    };
    if !matches!(json.get("nodes"), None | Some(Json::Null))
        && !matches!(json.get("features"), None | Some(Json::Null))
    {
        return Err(
            "'nodes' and 'features' are mutually exclusive: send node ids of the training \
             graph, or raw feature rows, not both"
                .into(),
        );
    }
    let req = match json.get("features") {
        None | Some(Json::Null) => match json.get("nodes") {
            None | Some(Json::Null) => PredictRequest::all(),
            Some(Json::Arr(a)) => {
                let mut ids = Vec::with_capacity(a.len());
                for v in a {
                    let x = v.as_f64().ok_or("'nodes' holds a non-number")?;
                    if x < 0.0 || x.fract() != 0.0 {
                        return Err(format!("node ids must be non-negative integers, got {x}"));
                    }
                    ids.push(x as usize);
                }
                PredictRequest::nodes(ids)
            }
            Some(_) => return Err("'nodes' must be an array of node ids".into()),
        },
        Some(Json::Arr(a)) if !a.is_empty() => {
            let mut data = Vec::new();
            let cols = match &a[0] {
                // `[[...], [...]]`: a batch of rows, all the same width.
                Json::Arr(_) => {
                    let mut cols = 0;
                    for (i, row) in a.iter().enumerate() {
                        let Json::Arr(row) = row else {
                            return Err("'features' mixes rows and scalars".into());
                        };
                        let width = parse_feature_row(row, &mut data)?;
                        if i == 0 {
                            cols = width;
                        } else if width != cols {
                            return Err(format!(
                                "'features' rows disagree on width: row 0 has {cols}, row {i} \
                                 has {width}"
                            ));
                        }
                    }
                    cols
                }
                // `[...]`: one flat row.
                _ => parse_feature_row(a, &mut data)?,
            };
            if cols == 0 {
                return Err("'features' rows must hold at least one value".into());
            }
            PredictRequest::features(Matrix::from_vec(data.len() / cols, cols, data))
        }
        Some(_) => return Err("'features' must be a non-empty array of numbers or rows".into()),
    };
    let deadline_ms = match json.get("deadline_ms") {
        None | Some(Json::Null) => None,
        Some(v) => {
            let x = v.as_f64().ok_or("'deadline_ms' must be a number")?;
            if !x.is_finite() || x < 0.0 {
                return Err(format!(
                    "'deadline_ms' must be a non-negative number, got {x}"
                ));
            }
            Some(x)
        }
    };
    Ok((id, req, deadline_ms))
}

/// Parse one stdin line of the serve loop; `None` for a blank line, which
/// gets no reply. A feature request of the hot shape is scanned directly
/// (`scan_feature_request`); anything else goes to [`parse_request`].
/// The parse is timed into `serve.parse_ns` while tracing is on.
pub fn parse_line(line: &InputLine, fallback_id: u64) -> Option<Result<ParsedRequest, String>> {
    // No clock read when tracing is off: the disabled path stays free.
    let started = rdd_obs::enabled().then(Instant::now);
    let parsed = match line {
        Err(at) => Some(Err(format!("byte {at} of the line is not UTF-8"))),
        Ok(text) if text.trim().is_empty() => None,
        Ok(text) => Some(match scan_feature_request(text) {
            Some((id, row)) => Ok((id, PredictRequest::features(row), None)),
            None => parse_request(text, fallback_id),
        }),
    };
    if let Some(t) = started {
        HIST_PARSE_NS.record_duration(t.elapsed());
    }
    parsed
}

/// The id an id-less request gets after a request with `id`: one past the
/// largest id seen, saturating instead of wrapping. Past [`MAX_REQUEST_ID`]
/// it is not handed out: [`parse_request`] rejects the id-less request.
pub fn next_request_id(next_id: u64, id: u64) -> u64 {
    next_id.max(id).saturating_add(1)
}

/// Scan the hot request shape: one object with exactly the keys `"id"`
/// (1–15 ASCII digits, so always at most [`MAX_REQUEST_ID`]) and
/// `"features"` (a flat, non-empty array of numbers, each finite as an
/// f32), in either order, JSON whitespace allowed. Returns the id and the
/// row as a 1×n matrix, or `None` for any other line — including every
/// line the general path would refuse, so refusals keep its messages.
///
/// Number tokens are delimited exactly as `rdd_obs::parse` delimits them
/// and converted with `str::parse::<f64>` then `as f32`, so each value is
/// bit-identical to [`parse_request`]'s. A plain-digit token of at most 15
/// digits converts through an exact integer instead (below 2^53, so the
/// f64 is the same; `-0` keeps its sign).
fn scan_feature_request(line: &str) -> Option<(u64, Matrix)> {
    let b = line.as_bytes();
    let mut pos = 0;
    let mut id = None;
    let mut row = None;
    skip_ws(b, &mut pos);
    eat(b, &mut pos, b'{')?;
    for close in [b',', b'}'] {
        skip_ws(b, &mut pos);
        if id.is_none() && eat_key(b, &mut pos, b"\"id\"")? {
            let Token::Int { neg: false, n } = num_token(b, &mut pos) else {
                return None;
            };
            id = Some(n);
        } else if row.is_none() && eat_key(b, &mut pos, b"\"features\"")? {
            row = Some(scan_row(line, &mut pos)?);
        } else {
            return None;
        }
        skip_ws(b, &mut pos);
        eat(b, &mut pos, close)?;
    }
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return None;
    }
    let row = row?;
    Some((id?, Matrix::from_vec(1, row.len(), row)))
}

/// JSON whitespace, as `rdd_obs::parse` skips it.
fn skip_ws(b: &[u8], pos: &mut usize) {
    while matches!(b.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

fn eat(b: &[u8], pos: &mut usize, byte: u8) -> Option<()> {
    (b.get(*pos) == Some(&byte)).then(|| *pos += 1)
}

/// Consume `key` (quoted) and the `:` after it. `Some(false)` when the
/// line does not continue with `key`; `None` when it does but no `:`
/// follows.
fn eat_key(b: &[u8], pos: &mut usize, key: &[u8]) -> Option<bool> {
    if !b[*pos..].starts_with(key) {
        return Some(false);
    }
    *pos += key.len();
    skip_ws(b, pos);
    eat(b, pos, b':')?;
    skip_ws(b, pos);
    Some(true)
}

/// A number token, consumed by [`num_token`].
enum Token {
    /// An optional `-` and 1–15 ASCII digits: exact, as `n < 10^15 < 2^53`.
    Int { neg: bool, n: u64 },
    /// Any other token, as its byte range on the line.
    Other(std::ops::Range<usize>),
}

/// Consume the number token at `pos`, delimited exactly as
/// `rdd_obs::json::parse_num` delimits it: an optional `-`, then every
/// following byte in `[0-9.eE+-]`.
fn num_token(b: &[u8], pos: &mut usize) -> Token {
    let start = *pos;
    let neg = b.get(*pos) == Some(&b'-');
    *pos += usize::from(neg);
    let digits = *pos;
    let mut n = 0u64;
    while let Some(&d @ b'0'..=b'9') = b.get(*pos) {
        n = n.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
        *pos += 1;
    }
    let more = matches!(b.get(*pos), Some(b'.' | b'e' | b'E' | b'+' | b'-'));
    if !more && (1..=15).contains(&(*pos - digits)) {
        return Token::Int { neg, n };
    }
    while matches!(
        b.get(*pos),
        Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    ) {
        *pos += 1;
    }
    Token::Other(start..*pos)
}

/// One number of the features array, bit-identical to the general path's
/// `parse::<f64>() as f32`; `None` if it does not parse or its f32 is not
/// finite (the general path then reports it).
fn scan_value(line: &str, pos: &mut usize) -> Option<f32> {
    let x = match num_token(line.as_bytes(), pos) {
        Token::Int { neg: true, n } => -(n as f64),
        Token::Int { neg: false, n } => n as f64,
        Token::Other(tok) => line.get(tok)?.parse::<f64>().ok()?,
    };
    let f = x as f32;
    f.is_finite().then_some(f)
}

/// A flat, non-empty array of numbers, written into a buffer sized once:
/// its capacity is one more than the commas left on the line, which
/// bounds the number of values.
fn scan_row(line: &str, pos: &mut usize) -> Option<Vec<f32>> {
    let b = line.as_bytes();
    eat(b, pos, b'[')?;
    let mut row = Vec::with_capacity(b[*pos..].iter().filter(|&&c| c == b',').count() + 1);
    loop {
        skip_ws(b, pos);
        row.push(scan_value(line, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Some(row);
            }
            _ => return None,
        }
    }
}

/// Render one reply line for the serve loop's stdout.
pub fn reply_json(reply: &ServeReply) -> Json {
    match &reply.result {
        Ok(p) => Json::Obj(vec![
            ("id".into(), Json::from(reply.id)),
            // "node" replies index the training graph; "features" replies
            // index the request's own rows.
            ("kind".into(), Json::from(p.kind.name())),
            ("nodes".into(), Json::from(p.nodes.clone())),
            ("pred".into(), Json::from(p.pred.clone())),
            (
                "proba".into(),
                Json::Arr(
                    (0..p.proba.rows())
                        .map(|i| Json::from(p.proba.row(i).to_vec()))
                        .collect(),
                ),
            ),
            ("latency_ms".into(), Json::from(reply.latency_ms)),
            ("cache_hits".into(), Json::from(reply.cache_hits)),
            ("generation".into(), Json::from(reply.generation)),
        ]),
        Err(e) => Json::Obj(vec![
            ("id".into(), Json::from(reply.id)),
            ("error".into(), Json::from(e.to_string())),
            ("generation".into(), Json::from(reply.generation)),
        ]),
    }
}

/// Render one error line for requests that never reached the engine
/// (parse failures, queue-full sheds).
pub fn error_line(id: Option<u64>, msg: String) -> String {
    let mut line = String::new();
    Json::Obj(vec![
        ("id".into(), id.map(Json::from).unwrap_or(Json::Null)),
        ("error".into(), Json::from(msg)),
    ])
    .write(&mut line);
    line.push('\n');
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdd_tensor::{seeded_rng, Rng};

    #[test]
    fn request_ids_up_to_2_pow_53_minus_1_round_trip_exactly() {
        let (id, _, _) = parse_request(r#"{"id":9007199254740991,"nodes":[1]}"#, 0).unwrap();
        assert_eq!(id, MAX_REQUEST_ID);
        let mut line = String::new();
        Json::from(id).write(&mut line);
        assert_eq!(line, "9007199254740991");
    }

    #[test]
    fn request_ids_an_f64_cannot_hold_are_rejected() {
        for id in ["9007199254740992", "9007199254740993", "1e300"] {
            let err = parse_request(&format!(r#"{{"id":{id},"nodes":[1]}}"#), 0).unwrap_err();
            assert!(err.contains("2^53-1"), "id {id}: {err}");
        }
        assert!(parse_request(r#"{"id":-1}"#, 0).is_err());
        assert!(parse_request(r#"{"id":1.5}"#, 0).is_err());
    }

    #[test]
    fn lines_that_are_not_utf8_or_blank_are_told_apart() {
        let err = parse_line(&Err(9), 0).unwrap().unwrap_err();
        assert_eq!(err, "byte 9 of the line is not UTF-8");
        assert!(parse_line(&Ok("  ".into()), 0).is_none());
        let (id, _, _) = parse_line(&Ok(r#"{"id":3}"#.into()), 0).unwrap().unwrap();
        assert_eq!(id, 3);
    }

    #[test]
    fn feature_values_outside_f32_range_get_a_typed_error() {
        // 1e39 is a finite f64 but rounds to +inf as an f32; before the
        // f32 check it was served as an all-inf row.
        for v in ["1e39", "-1e39", "3.5e38", "1e400", "-1e309"] {
            for line in [
                format!(r#"{{"id":1,"features":[0.5,{v}]}}"#),
                format!(r#"{{"features":[[{v}],[1]],"id":1}}"#),
            ] {
                assert!(scan_feature_request(&line).is_none(), "{line}");
                let err = parse_line(&Ok(line.clone()), 0).unwrap().unwrap_err();
                assert!(err.contains("must be finite f32s"), "{line}: {err}");
            }
        }
        // The largest finite f32 (and a value that rounds down to it) is a
        // value, not an error.
        for v in ["3.4028235e38", "3.40282356e38"] {
            let line = format!(r#"{{"id":1,"features":[{v}]}}"#);
            let (_, req, _) = parse_line(&Ok(line), 0).unwrap().unwrap();
            assert_eq!(
                req,
                PredictRequest::features(Matrix::from_vec(1, 1, vec![f32::MAX]))
            );
        }
    }

    #[test]
    fn the_scanner_takes_the_hot_shape_in_either_key_order() {
        let want = |id, row: Vec<f32>| Some((id, Matrix::from_vec(1, row.len(), row)));
        let bits = |r: Option<(u64, Matrix)>| r.map(|(id, m)| (id, row_bits(&m)));
        for (line, id, row) in [
            (r#"{"id":7,"features":[0,1,0.5]}"#, 7, vec![0.0, 1.0, 0.5]),
            (
                " {\t\"features\" :\r[ -0 , 2e1 ]\n, \"id\":012 } ",
                12,
                vec![-0.0, 20.0],
            ),
            (
                r#"{"id":999999999999999,"features":[-0.0]}"#,
                999_999_999_999_999,
                vec![-0.0],
            ),
        ] {
            assert_eq!(
                bits(scan_feature_request(line)),
                bits(want(id, row)),
                "{line}"
            );
        }
        // Anything else is left to the general parser.
        for line in [
            r#"{"id":1,"features":[[1,2]]}"#,
            r#"{"id":1,"nodes":[1]}"#,
            r#"{"id":1,"features":[1],"deadline_ms":5}"#,
            r#"{"id":1,"id":2,"features":[1]}"#,
            r#"{"id":1,"features":[1]} x"#,
            r#"{"features":[1]}"#,
            r#"{"id":1,"features":[]}"#,
            r#"{"id":1.0,"features":[1]}"#,
            r#"{"id":1234567890123456,"features":[1]}"#,
            r#"{"id":1,"features":[1,]}"#,
            r#"{"id":1,"features":[1e]}"#,
        ] {
            assert!(scan_feature_request(line).is_none(), "{line}");
        }
    }

    fn row_bits(m: &Matrix) -> (usize, usize, Vec<u32>) {
        (
            m.rows(),
            m.cols(),
            m.as_slice().iter().map(|x| x.to_bits()).collect(),
        )
    }

    /// A parse result with every f32 as its bits, so `-0.0` and `0.0`
    /// differ and the comparison is exact.
    #[derive(Debug, PartialEq)]
    enum Exact {
        Features(u64, (usize, usize, Vec<u32>), Option<u64>),
        Other(u64, PredictRequest, Option<u64>),
        Err(String),
    }

    fn exact(r: Result<ParsedRequest, String>) -> Exact {
        match r {
            Ok((id, PredictRequest::ByFeatures(m), d)) => {
                Exact::Features(id, row_bits(&m), d.map(f64::to_bits))
            }
            Ok((id, req, d)) => Exact::Other(id, req, d.map(f64::to_bits)),
            Err(e) => Exact::Err(e),
        }
    }

    /// A run of ASCII digits, its length drawn from `len`.
    fn digits(rng: &mut Rng, len: std::ops::Range<usize>) -> String {
        let n = rng.range(len);
        (0..n)
            .map(|_| char::from(b'0' + rng.range(0..10) as u8))
            .collect()
    }

    /// One number token: plain digits, signed zeros, exponents, f32 and
    /// f64 subnormals, 16–25 digit mantissas, leading zeros and shortest
    /// f32 renderings, all finite as f32s; when `wild`, also values beyond
    /// f32 and f64 range and tokens no parser accepts.
    fn token(rng: &mut Rng, wild: bool) -> String {
        let sign = if rng.range(0..4) == 0 { "-" } else { "" };
        match rng.range(0..if wild { 11 } else { 8 }) {
            0 => format!("{sign}{}", digits(rng, 1..16)),
            1 => ["-0", "-0.0", "0.0", "0", "-0e0", "1", "01"][rng.range(0..7)].into(),
            2 => {
                let e = ["e", "E"][rng.range(0..2)];
                let s = ["", "+", "-"][rng.range(0..3)];
                let frac = match rng.range(0..2) {
                    0 => String::new(),
                    _ => format!(".{}", digits(rng, 1..5)),
                };
                let (m, x) = (1 + rng.range(0..9), rng.range(0..38));
                format!("{sign}{m}{frac}{e}{s}{x}")
            }
            3 => {
                let bits = 1 + rng.range(0..0x007f_ffff) as u32;
                format!("{sign}{:e}", f32::from_bits(bits))
            }
            4 => {
                let bits = 1 + rng.range(0..1 << 52) as u64;
                format!("{sign}{:e}", f64::from_bits(bits))
            }
            5 => {
                let mut m = digits(rng, 16..26);
                if rng.range(0..2) == 0 {
                    m.insert(1 + rng.range(0..m.len() - 1), '.');
                }
                format!("{sign}{m}")
            }
            6 => format!("{sign}0{}", digits(rng, 1..4)),
            7 => {
                let x = rng.f32() * 10f32.powi(rng.range(0..20) as i32 - 10);
                format!("{sign}{x}")
            }
            8 => {
                let edge = [
                    "1e39",
                    "3.4028236e38",
                    "3.4028235e38",
                    "3.40282357e38",
                    "7e-46",
                ];
                format!("{sign}{}", edge[rng.range(0..edge.len())])
            }
            9 => {
                let edge = ["1e309", "1e400", "2e-400", "4.9e-324"];
                format!("{sign}{}", edge[rng.range(0..edge.len())])
            }
            _ => {
                let bad = [
                    "1e", "--1", "+1", ".5", "5.", "1.2.3", "1e5e5", "-", "x", "null",
                ];
                bad[rng.range(0..bad.len())].into()
            }
        }
    }

    /// JSON whitespace, usually none.
    fn ws(rng: &mut Rng, loose: bool) -> &'static str {
        if !loose {
            return "";
        }
        ["", "", " ", "\t", "\r\n ", "  "][rng.range(0..6)]
    }

    const CASES: u64 = 1000;

    /// For every generated line, `parse_line` equals the general tree path
    /// exactly (id, shape, the bits of every f32, or the same error). On
    /// the hot shape with a 1–15 digit id the scanner must take exactly
    /// the lines the general path accepts.
    #[test]
    fn scanner_matches_the_general_parser_bit_for_bit() {
        let mut scanned = 0;
        for seed in 0..CASES {
            let mut rng = seeded_rng(seed);
            let loose = rng.range(0..2) == 0;
            let wild = rng.range(0..2) == 0;
            let id = match rng.range(0..8) {
                0 => ["-0", "1.0", "1e2", "0012"][rng.range(0..4)].to_string(),
                1 => digits(&mut rng, 16..18),
                _ => digits(&mut rng, 1..16),
            };
            let small_id = id.len() <= 15 && id.bytes().all(|c| c.is_ascii_digit());
            let n = 1 + rng.range(0..48);
            let mut values = String::new();
            for i in 0..n {
                if i > 0 {
                    values.push_str(ws(&mut rng, loose));
                    values.push(',');
                }
                values.push_str(ws(&mut rng, loose));
                values.push_str(&token(&mut rng, wild));
            }
            let arr = format!("[{values}{}]", ws(&mut rng, loose));
            let id_kv = format!("\"id\"{}:{}{id}", ws(&mut rng, loose), ws(&mut rng, loose));
            let feat_kv = format!(
                "\"features\"{}:{}{arr}",
                ws(&mut rng, loose),
                ws(&mut rng, loose)
            );
            let (a, b) = if rng.range(0..2) == 0 {
                (&id_kv, &feat_kv)
            } else {
                (&feat_kv, &id_kv)
            };
            let sep = format!("{},{}", ws(&mut rng, loose), ws(&mut rng, loose));
            // Shape 0–5: the hot shape; the rest must fall back.
            let shape = rng.range(0..14);
            let body = match shape {
                0..=5 => format!("{a}{sep}{b}"),
                6 => format!("{id_kv}{sep}\"features\":[{arr},{arr}]"),
                7 => format!("{a}{sep}{b}{sep}\"nodes\":[1]"),
                8 => format!("{a}{sep}{b}{sep}\"deadline_ms\":{}", rng.range(0..100)),
                9 => format!("{a}{sep}{b}{sep}{a}"),
                10 => format!("{a}{sep}{b}}} x{{"),
                11 => feat_kv.clone(),
                12 => format!("{id_kv}{sep}\"features\":[]"),
                _ => format!("{id_kv}{sep}\"features\":null"),
            };
            let line = format!("{}{{{body}}}{}", ws(&mut rng, loose), ws(&mut rng, loose));
            let fallback_id = rng.range(0..1000) as u64;

            let general = exact(parse_request(&line, fallback_id));
            let served = exact(parse_line(&Ok(line.clone()), fallback_id).expect("not blank"));
            assert_eq!(served, general, "seed {seed}: {line}");
            let took = scan_feature_request(&line).is_some();
            if shape <= 5 && small_id {
                let ok = !matches!(general, Exact::Err(_));
                assert_eq!(
                    took, ok,
                    "seed {seed}: scanner took {took}, general ok {ok}: {line}"
                );
            } else {
                assert!(
                    !took,
                    "seed {seed}: scanner took a line it must leave: {line}"
                );
            }
            scanned += usize::from(took);
        }
        // The loop must exercise the scanner, not only the fallback.
        assert!(
            scanned >= CASES as usize / 10,
            "only {scanned} of {CASES} lines scanned"
        );
    }

    /// Value by value: the scanner's conversion equals
    /// `parse::<f64>() as f32` on every token it accepts, and refuses
    /// exactly the tokens that do not parse or leave f32 range.
    #[test]
    fn scanned_values_equal_f64_parse_then_cast() {
        for seed in 0..CASES {
            let mut rng = seeded_rng(seed);
            for _ in 0..50 {
                let tok = token(&mut rng, true);
                let mut pos = 0;
                let scanned = scan_value(&tok, &mut pos).map(f32::to_bits);
                let whole = pos == tok.len();
                let want = tok
                    .parse::<f64>()
                    .ok()
                    .map(|x| x as f32)
                    .filter(|f| f.is_finite())
                    .map(f32::to_bits);
                if whole {
                    assert_eq!(scanned, want, "seed {seed}: token {tok:?}");
                } else {
                    // "x" or "null" is no number token at all: the
                    // scanner must refuse it, as the general path does.
                    assert_eq!(scanned, None, "seed {seed}: token {tok:?}");
                }
            }
        }
    }
}
