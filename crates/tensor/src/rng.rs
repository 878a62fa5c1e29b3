//! The one seeded pseudo-random generator every crate above `rdd-obs` draws
//! from: splitmix64, std-only.
//!
//! Every seeded result in the repository (datasets, splits, weight init,
//! dropout masks, the benchmark's accuracy figures) is a function of this
//! exact stream, so the formulas below are frozen: `tests::pinned_outputs`
//! fails if any draw changes.

use std::ops::Range;

/// A deterministic splitmix64 generator. Build one with [`seeded_rng`].
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

/// A deterministic generator from a `u64` seed (all experiments are seeded).
pub fn seeded_rng(seed: u64) -> Rng {
    let mut rng = Rng {
        state: seed ^ 0xA0761D6478BD642F,
    };
    // Warm up so small seeds diverge immediately.
    rng.next_u64();
    rng
}

/// splitmix64's state increment.
pub(crate) const GAMMA: u64 = 0x9E3779B97F4A7C15;

/// splitmix64's output function of one state.
#[inline(always)]
pub(crate) fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl Rng {
    /// The next raw 64-bit output (one splitmix64 step).
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix(self.state)
    }

    /// Uniform in `[0, 1)` from the top 24 bits.
    pub fn f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Dropout's coins: `mask[i] = on * ((draw_i < keep) as u32 as f32)`,
    /// where `draw_i` is the `i`-th of `mask.len()` sequential
    /// [`Self::f32`] draws, leaving the generator where those draws would.
    ///
    /// A draw is `u / 2^24` for the integer `u = z >> 40`, exactly, and
    /// `keep · 2^24` is exact too, so `draw < keep` is `u < ⌈keep · 2^24⌉`:
    /// one integer compare, on every element at once (the SIMD tier's
    /// `keep_mask`).
    pub fn keep_mask(&mut self, keep: f32, on: f32, mask: &mut [f32]) {
        // A NaN or negative `keep` saturates to 0 (no draw is below it);
        // one above 1 exceeds every `u`.
        let threshold = (keep * (1u32 << 24) as f32).ceil() as u64;
        crate::simd::keep_mask(crate::simd::active(), self.state, threshold, on, mask);
        self.state = self
            .state
            .wrapping_add(GAMMA.wrapping_mul(mask.len() as u64));
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An index in `range` (`start + next % span`; panics when empty).
    pub fn range(&mut self, range: Range<usize>) -> usize {
        assert!(range.start < range.end, "empty range");
        let span = (range.end - range.start) as u64;
        range.start + (self.next_u64() % span) as usize
    }

    /// A float in `range`: `start + unit * (end - start)`.
    pub fn range_f32(&mut self, range: Range<f32>) -> f32 {
        let unit = self.f32();
        range.start + unit * (range.end - range.start)
    }

    /// Fisher–Yates shuffle of `slice`, swapping from the back.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One seed's first draws, in the order `pinned_outputs` takes them.
    struct Pinned {
        seed: u64,
        raw: [u64; 3],
        f32_bits: u32,
        f64_bits: u64,
        range: usize,
        range_incl: usize,
        range_f32_bits: u32,
        shuffle: [usize; 10],
    }

    const PINNED: [Pinned; 4] = [
        Pinned {
            seed: 0,
            raw: [0xe98ff1a0396ff552, 0xfe0612e395ab3d91, 0xa2757f60ebe1e246],
            f32_bits: 0x3f3920fd,
            f64_bits: 0x3fe8710c8a902264,
            range: 1,
            range_incl: 5,
            range_f32_bits: 0xbce1f140,
            shuffle: [7, 8, 3, 5, 0, 2, 4, 1, 6, 9],
        },
        Pinned {
            seed: 1,
            raw: [0x6d86a80aec7e07f6, 0xa8055d7343e14e85, 0xd47e0ea0ea1bcdbb],
            f32_bits: 0x3f152f85,
            f64_bits: 0x3fd13f00c0f50d24,
            range: 8,
            range_incl: 4,
            range_f32_bits: 0xbe553650,
            shuffle: [1, 4, 3, 5, 6, 7, 8, 2, 0, 9],
        },
        Pinned {
            seed: 42,
            raw: [0x5f23c636d928e9ee, 0x547e9ffecd7862e9, 0x5092108dce7c238b],
            f32_bits: 0x3f20fb16,
            f64_bits: 0x3fd72ff6d815debc,
            range: 9,
            range_incl: 5,
            range_f32_bits: 0xbec1bcd2,
            shuffle: [0, 9, 5, 8, 7, 6, 1, 2, 3, 4],
        },
        Pinned {
            seed: 0xdead_beef,
            raw: [0x3677e3453a526715, 0xdf716a1fb60cd8d5, 0x18430988e9cd9dfe],
            f32_bits: 0x3f61a708,
            f64_bits: 0x3fed69343be9e255,
            range: 1,
            range_incl: 3,
            range_f32_bits: 0xbe067010,
            shuffle: [8, 3, 0, 2, 5, 4, 9, 1, 6, 7],
        },
    ];

    #[test]
    fn pinned_outputs() {
        for p in &PINNED {
            let seed = p.seed;
            let mut r = seeded_rng(seed);
            let raw = [r.next_u64(), r.next_u64(), r.next_u64()];
            assert_eq!(raw, p.raw, "seed {seed:#x}: raw u64");
            assert_eq!(r.f32().to_bits(), p.f32_bits, "seed {seed:#x}: f32");
            assert_eq!(r.f64().to_bits(), p.f64_bits, "seed {seed:#x}: f64");
            assert_eq!(r.range(0..10), p.range, "seed {seed:#x}: range");
            // An inclusive range `3..=5` is the half-open `3..6`.
            assert_eq!(r.range(3..6), p.range_incl, "seed {seed:#x}: 3..=5");
            let f = r.range_f32(-0.5..0.5);
            assert_eq!(f.to_bits(), p.range_f32_bits, "seed {seed:#x}: f32 range");
            let mut v: Vec<usize> = (0..10).collect();
            r.shuffle(&mut v);
            assert_eq!(v, p.shuffle, "seed {seed:#x}: shuffle");
        }
    }

    /// `keep_mask` against `mask.len()` sequential `f32() < keep` draws,
    /// on both tiers, for keeps whose `keep · 2^24` is an integer (every
    /// keep in `[0.5, 1)`, and 2^-k) and is not (0.1, 0.3, 1e-7), plus the
    /// ends: 0, 1, above 1, negative and NaN.
    #[test]
    fn keep_mask_matches_sequential_draws() {
        let keeps = [
            0.5f32,
            0.8,
            0.75,
            1.0 - f32::EPSILON / 2.0,
            0.125,
            0.1,
            0.3,
            1e-7,
            0.0,
            1.0,
            1.5,
            -0.25,
            f32::NAN,
        ];
        for keep in keeps {
            let exact = (keep * (1u32 << 24) as f32).fract() == 0.0;
            for seed in [0u64, 7, 0xdead_beef] {
                for tier in [crate::SimdTier::Scalar, crate::SimdTier::Avx2] {
                    if !crate::simd::available(tier) {
                        continue;
                    }
                    let mut seq = seeded_rng(seed);
                    let want: Vec<u32> = (0..203)
                        .map(|_| (2.5f32 * ((seq.f32() < keep) as u32 as f32)).to_bits())
                        .collect();
                    let mut fast = seeded_rng(seed);
                    let mut mask = vec![f32::NAN; 203];
                    let threshold = (keep * (1u32 << 24) as f32).ceil() as u64;
                    crate::simd::keep_mask(tier, fast.state, threshold, 2.5, &mut mask);
                    fast.state = fast.state.wrapping_add(GAMMA.wrapping_mul(203));
                    let got: Vec<u32> = mask.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(
                        got, want,
                        "keep {keep} (exact {exact}) seed {seed} {tier:?}"
                    );
                    assert_eq!(fast.next_u64(), seq.next_u64(), "keep {keep}: state");
                }
                let mut seq = seeded_rng(seed);
                let mut via_method = seeded_rng(seed);
                let mut mask = [0.0f32; 17];
                via_method.keep_mask(keep, 1.0, &mut mask);
                for (i, m) in mask.iter().enumerate() {
                    assert_eq!(*m == 1.0, seq.f32() < keep, "keep {keep} draw {i}");
                }
                assert_eq!(via_method.next_u64(), seq.next_u64());
            }
        }
    }

    #[test]
    fn draws_stay_in_range() {
        let mut r = seeded_rng(7);
        for _ in 0..1000 {
            let x = r.f32();
            assert!((0.0..1.0).contains(&x));
            let y = r.f64();
            assert!((0.0..1.0).contains(&y));
            assert!((5..9).contains(&r.range(5..9)));
        }
    }
}
