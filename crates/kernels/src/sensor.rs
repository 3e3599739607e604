//! Sensor-stream DSP kernels for the MCU-class edge pipeline: waveform
//! acquisition, FIR filtering, windowed feature extraction, and a small
//! linear classifier.
//!
//! These are the real CPU kernels behind [`crate::apps::sensor_app`] — a
//! `sample → filter → feature-extract → classify` chain, the
//! canonical always-on workload of dual-core microcontrollers (one core
//! acquires and conditions the signal while the other classifies). Every
//! kernel is deterministic per seed so golden-replay tests can pin
//! end-to-end results.
//!
//! The three streaming kernels run work that does not depend on itself
//! side by side, and every output bit is still the one of the plain
//! per-sample loop: Rust never reassociates float operations, so keeping
//! each output's own operation order is enough.
//!
//! - The source is a [`Wavetable`]: a task's two tones depend only on
//!   `seed % 7` and `seed % 5`, so the 12 possible tone blocks are computed
//!   once and a block is two table reads plus one noise draw per sample.
//!   The noise comes from 8 interleaved LCG sub-streams: for the group of
//!   samples starting at `i`, lane `j` holds draw `i + j + 1`, and every
//!   lane steps by the 8-step jump constants (`A⁸` and `C·(A⁷ + … + 1)`
//!   mod 2⁶⁴, computed by a `const fn`), so the draws are the serial
//!   stream's. The tones are added in a second, element-wise pass.
//! - [`fir_filter`] blocks its output: 16 outputs accumulate in registers
//!   over all taps, in tap order from `0.0` (each output's original sum),
//!   from one input window sliced per block. On the x86-64 baseline (SSE2,
//!   4 floats a register) this is as far as it goes: the 16 accumulators
//!   fill four registers.
//! - [`extract_features`] runs 8 windows at a time, each lane keeping its
//!   own window's sums and peak in sample order, so the eight dependency
//!   chains overlap; the zero-crossing count is a branch-free
//!   `pos ^ prev`.

use crate::ParCtx;

/// Number of taps in the low-pass FIR filter.
pub(crate) const FIR_TAPS: usize = 16;

/// Features extracted per analysis window (mean, energy, zero-crossing
/// rate, peak amplitude).
pub(crate) const FEATURES_PER_WINDOW: usize = 4;

/// Samples per analysis window.
pub(crate) const WINDOW: usize = 64;

/// Number of classes the linear classifier separates.
pub(crate) const CLASSES: usize = 8;

/// Independent lanes the source's noise draws and the feature extractor's
/// windows run in.
const LANES: usize = 8;

/// Outputs [`fir_filter`] accumulates at once.
const FIR_BLOCK: usize = 16;

// Numerical Recipes LCG: `state ← A·state + C` mod 2⁶⁴.
const LCG_A: u64 = 6364136223846793005;
const LCG_C: u64 = 1442695040888963407;

/// The multiplier and increment of `steps` LCG steps at once:
/// `(A^steps, C·(A^(steps-1) + … + 1))` mod 2⁶⁴.
const fn lcg_jump(steps: usize) -> (u64, u64) {
    let (mut a, mut c) = (1u64, 0u64);
    let mut k = 0;
    while k < steps {
        a = a.wrapping_mul(LCG_A);
        c = c.wrapping_mul(LCG_A).wrapping_add(LCG_C);
        k += 1;
    }
    (a, c)
}

const LANE_JUMP: (u64, u64) = lcg_jump(LANES);

/// The top 24 bits of an LCG state as a float in `[0, 1)`. Exact: they fit
/// `f32`'s mantissa, so the conversion can go through `i32`, which SSE2
/// converts four at a time.
fn unit(state: u64) -> f32 {
    ((state >> 40) as i32 as f32) / (1u64 << 24) as f32
}

fn lcg(state: &mut u64) -> f32 {
    *state = state.wrapping_mul(LCG_A).wrapping_add(LCG_C);
    unit(*state)
}

/// A noise sample from a draw in `[0, 1)`.
fn noise(draw: f32) -> f32 {
    0.25 * (draw - 0.5)
}

// Distinct frequencies of the first and of the second tone.
const F1_STEPS: usize = 7;
const F2_STEPS: usize = 5;

/// The sensor source: blocks of samples, each a two-tone waveform whose
/// frequencies drift with the seed, plus uniform noise.
///
/// Sample `i` of seed `s` is `sin(τ·f1·i) + 0.5·sin(τ·f2·i) + noise`, with
/// `f1 = 0.01 + 0.002·(s % 7)` and `f2 = 0.07 + 0.003·(s % 5)`. The tones
/// are precomputed as 7 + 5 tables of `block` values (192 KiB at 4 096
/// samples), so a block costs no `sin` at all; the noise is a per-seed LCG
/// stream drawn in sample order.
#[derive(Debug)]
pub(crate) struct Wavetable {
    block: usize,
    /// The `F1_STEPS` first-tone tables, then the `F2_STEPS` second-tone
    /// tables, each `block` long.
    tones: Vec<f32>,
}

impl Wavetable {
    /// Builds the tone tables for blocks of `block` samples.
    pub(crate) fn new(block: usize) -> Wavetable {
        let tone = |f: f32| (0..block).map(move |i| (core::f32::consts::TAU * f * i as f32).sin());
        let mut tones = Vec::with_capacity((F1_STEPS + F2_STEPS) * block);
        for s in 0..F1_STEPS {
            tones.extend(tone(0.01 + 0.002 * s as f32));
        }
        for s in 0..F2_STEPS {
            tones.extend(tone(0.07 + 0.003 * s as f32));
        }
        Wavetable { block, tones }
    }

    /// Writes the block of `seed` into `out`, reusing its capacity.
    /// Deterministic per `(seed, block)`.
    pub(crate) fn fill(&self, seed: u64, out: &mut Vec<f32>) {
        let table = |t: usize| &self.tones[t * self.block..(t + 1) * self.block];
        let first = table((seed % F1_STEPS as u64) as usize);
        let second = table(F1_STEPS + (seed % F2_STEPS as u64) as usize);
        out.clear();
        out.resize(self.block, 0.0);
        // Lane `j` starts at draw `j + 1` of the stream and jumps `LANES`
        // draws at a time.
        let mut rng = seed ^ 0x5eed_5eed_5eed_5eed;
        let mut lanes = [0u64; LANES];
        for lane in &mut lanes {
            rng = rng.wrapping_mul(LCG_A).wrapping_add(LCG_C);
            *lane = rng;
        }
        let (jump_a, jump_c) = LANE_JUMP;
        let mut groups = out.chunks_exact_mut(LANES);
        for group in &mut groups {
            for (o, lane) in group.iter_mut().zip(&mut lanes) {
                *o = noise(unit(*lane));
                *lane = lane.wrapping_mul(jump_a).wrapping_add(jump_c);
            }
        }
        for (o, &lane) in groups.into_remainder().iter_mut().zip(&lanes) {
            *o = noise(unit(lane));
        }
        // `noise + tone` is `tone + noise`: IEEE addition commutes.
        for ((o, &a), &b) in out.iter_mut().zip(first).zip(second) {
            *o += a + 0.5 * b;
        }
    }
}

/// The low-pass tap set used by the sensor pipeline: a normalized raised
/// triangle (deterministic, sums to 1 so DC gain is unity).
pub(crate) fn lowpass_taps() -> [f32; FIR_TAPS] {
    let mut taps = [0.0f32; FIR_TAPS];
    let mid = (FIR_TAPS - 1) as f32 / 2.0;
    let mut sum = 0.0;
    for (i, t) in taps.iter_mut().enumerate() {
        *t = 1.0 - (i as f32 - mid).abs() / (mid + 1.0);
        sum += *t;
    }
    for t in &mut taps {
        *t /= sum;
    }
    taps
}

/// Convolves `input` with `taps` (same-length output, zero-padded head):
/// `out[i] = Σ_k taps[k] · input[i - k]`. The arithmetic hot spot of the
/// pipeline.
///
/// Output-blocked: each block of 16 outputs sums all taps in
/// registers, in tap order `k = 0, 1, …` from `0.0` (every output's own
/// sum), reading one input window sliced once per block. The head (the
/// outputs with fewer than [`FIR_TAPS`] terms) and a tail shorter than a
/// block take the scalar loop.
pub(crate) fn fir_filter(ctx: &ParCtx, input: &[f32], taps: &[f32; FIR_TAPS], out: &mut Vec<f32>) {
    out.clear();
    out.resize(input.len(), 0.0);
    ctx.for_each_chunk(out, |offset, chunk| {
        let end = offset + chunk.len();
        let head = (FIR_TAPS - 1).saturating_sub(offset).min(chunk.len());
        let (head_out, body) = chunk.split_at_mut(head);
        for (i, o) in (offset..).zip(head_out) {
            *o = fir_at(input, taps, i);
        }
        let mut blocks = body.chunks_exact_mut(FIR_BLOCK);
        for (i, block) in (offset + head..).step_by(FIR_BLOCK).zip(&mut blocks) {
            let window = &input[i + 1 - FIR_TAPS..][..FIR_TAPS + FIR_BLOCK - 1];
            let mut acc = [0.0f32; FIR_BLOCK];
            for (k, &t) in taps.iter().enumerate() {
                let xs = &window[FIR_TAPS - 1 - k..][..FIR_BLOCK];
                for (a, &x) in acc.iter_mut().zip(xs) {
                    *a += t * x;
                }
            }
            block.copy_from_slice(&acc);
        }
        let tail = blocks.into_remainder();
        for (i, o) in (end - tail.len()..).zip(tail) {
            *o = fir_at(input, taps, i);
        }
    });
}

/// Output `i` of [`fir_filter`], one term per tap that reaches the input.
fn fir_at(input: &[f32], taps: &[f32; FIR_TAPS], i: usize) -> f32 {
    let mut acc = 0.0f32;
    for (k, &t) in taps.iter().enumerate().take(i + 1) {
        acc += t * input[i - k];
    }
    acc
}

/// Extracts [`FEATURES_PER_WINDOW`] features from each [`WINDOW`]-sample
/// window of `filtered`: mean, mean-square energy, zero-crossing rate, and
/// peak amplitude. The tail partial window (if any) is dropped, matching
/// fixed-size DSP frames.
///
/// Windows go 8 at a time (a last group of fewer, one at a time), each
/// lane summing its own window in sample order.
pub(crate) fn extract_features(ctx: &ParCtx, filtered: &[f32], out: &mut Vec<f32>) {
    const GROUP: usize = LANES * FEATURES_PER_WINDOW;
    let windows = filtered.len() / WINDOW;
    out.clear();
    out.resize(windows * FEATURES_PER_WINDOW, 0.0);
    let grouped = windows / LANES * LANES;
    let (groups, rest) = out.split_at_mut(grouped * FEATURES_PER_WINDOW);
    ctx.for_each_block(groups, GROUP, |g, f| {
        window_features::<LANES>(&filtered[g * LANES * WINDOW..], f);
    });
    for (w, f) in (grouped..).zip(rest.chunks_exact_mut(FEATURES_PER_WINDOW)) {
        window_features::<1>(&filtered[w * WINDOW..], f);
    }
}

/// The features of the `G` windows at the front of `frames` into `out`
/// (`G · FEATURES_PER_WINDOW` values), the windows side by side.
fn window_features<const G: usize>(frames: &[f32], out: &mut [f32]) {
    let frames: [&[f32; WINDOW]; G] = core::array::from_fn(|l| {
        frames[l * WINDOW..(l + 1) * WINDOW]
            .try_into()
            .expect("a window is WINDOW samples")
    });
    let mut mean = [0.0f32; G];
    let mut energy = [0.0f32; G];
    let mut peak = [0.0f32; G];
    let mut crossings = [0u32; G];
    // Sample 0 is its own predecessor: no crossing.
    let mut prev: [bool; G] = core::array::from_fn(|l| frames[l][0] >= 0.0);
    for i in 0..WINDOW {
        for (l, x) in frames.map(|frame| frame[i]).into_iter().enumerate() {
            mean[l] += x;
            energy[l] += x * x;
            peak[l] = peak[l].max(x.abs());
            let pos = x >= 0.0;
            crossings[l] += u32::from(pos ^ prev[l]);
            prev[l] = pos;
        }
    }
    for (l, f) in out.chunks_exact_mut(FEATURES_PER_WINDOW).enumerate() {
        f[0] = mean[l] / WINDOW as f32;
        f[1] = energy[l] / WINDOW as f32;
        f[2] = crossings[l] as f32 / WINDOW as f32;
        f[3] = peak[l];
    }
}

/// The classifier's weight matrix, deterministic per `seed`:
/// `CLASSES × FEATURES_PER_WINDOW` values in `[-0.5, 0.5)`.
pub(crate) fn classifier_weights(seed: u64) -> Vec<f32> {
    let mut rng = seed ^ 0xc1a5_51f1_ed00_0000;
    (0..CLASSES * FEATURES_PER_WINDOW)
        .map(|_| lcg(&mut rng) - 0.5)
        .collect()
}

/// Scores every window of `features` against `weights` (one matvec per
/// window), sums the per-window scores, and returns the argmax class.
/// Ties break toward the higher class index.
pub(crate) fn classify(ctx: &ParCtx, features: &[f32], weights: &[f32]) -> usize {
    assert_eq!(weights.len(), CLASSES * FEATURES_PER_WINDOW);
    let windows = features.len() / FEATURES_PER_WINDOW;
    let totals = ctx.reduce(
        windows,
        [0.0f32; CLASSES],
        |range| {
            let mut scores = [0.0f32; CLASSES];
            for w in range {
                let f = &features[w * FEATURES_PER_WINDOW..(w + 1) * FEATURES_PER_WINDOW];
                for (c, s) in scores.iter_mut().enumerate() {
                    let row = &weights[c * FEATURES_PER_WINDOW..(c + 1) * FEATURES_PER_WINDOW];
                    *s += row.iter().zip(f).map(|(w, x)| w * x).sum::<f32>();
                }
            }
            scores
        },
        |mut acc, part| {
            for (a, p) in acc.iter_mut().zip(part) {
                *a += p;
            }
            acc
        },
    );
    totals
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("scores are finite"))
        .map(|(c, _)| c)
        .expect("CLASSES > 0")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The source's original per-sample formula: two `sin` calls per
    /// sample.
    fn synth_reference(seed: u64, n: usize) -> Vec<f32> {
        let mut rng = seed ^ 0x5eed_5eed_5eed_5eed;
        let f1 = 0.01 + 0.002 * ((seed % 7) as f32);
        let f2 = 0.07 + 0.003 * ((seed % 5) as f32);
        (0..n)
            .map(|i| {
                let t = i as f32;
                let tone = (core::f32::consts::TAU * f1 * t).sin()
                    + 0.5 * (core::f32::consts::TAU * f2 * t).sin();
                let noise = 0.25 * (lcg(&mut rng) - 0.5);
                tone + noise
            })
            .collect()
    }

    /// The FIR's original output-major loop.
    fn fir_reference(input: &[f32], taps: &[f32; FIR_TAPS]) -> Vec<f32> {
        (0..input.len())
            .map(|i| {
                let mut acc = 0.0f32;
                for (k, &t) in taps.iter().enumerate() {
                    if i >= k {
                        acc += t * input[i - k];
                    }
                }
                acc
            })
            .collect()
    }

    /// The feature extractor's original per-window loop.
    fn features_reference(filtered: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        for frame in filtered.chunks_exact(WINDOW) {
            let mut mean = 0.0f32;
            let mut energy = 0.0f32;
            let mut crossings = 0u32;
            let mut peak = 0.0f32;
            for (i, &x) in frame.iter().enumerate() {
                mean += x;
                energy += x * x;
                peak = peak.max(x.abs());
                if i > 0 && (x >= 0.0) != (frame[i - 1] >= 0.0) {
                    crossings += 1;
                }
            }
            out.extend([
                mean / WINDOW as f32,
                energy / WINDOW as f32,
                crossings as f32 / WINDOW as f32,
                peak,
            ]);
        }
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Block lengths around every noise lane, FIR block and window edge.
    const LENGTHS: [usize; 14] = [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 4095, 4096, 4099];

    #[test]
    fn kernels_match_their_oracles_on_special_values() {
        // A window of alternating signed zeros, then sparse infinities,
        // NaNs, extremes and subnormals through the FIR head, blocks and
        // tail and through full and leftover feature groups. Rust leaves a
        // NaN's sign and payload unspecified, so any NaN matches any NaN;
        // every other value matches bit for bit.
        let specials = [
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MAX,
            -f32::MAX,
            1e-40,
            -1e-40,
        ];
        let mut input = synth_reference(5, 9 * WINDOW + 3);
        for (i, x) in input[WINDOW..2 * WINDOW].iter_mut().enumerate() {
            *x = if i % 2 == 0 { 0.0 } else { -0.0 };
        }
        for (i, x) in input.iter_mut().enumerate().skip(2 * WINDOW).step_by(37) {
            *x = specials[i % specials.len()];
        }
        let values = |v: &[f32]| -> Vec<Option<u32>> {
            v.iter()
                .map(|x| (!x.is_nan()).then(|| x.to_bits()))
                .collect()
        };
        let taps = lowpass_taps();
        let (mut filtered, mut feats) = (Vec::new(), Vec::new());
        for threads in 1..=4 {
            let ctx = ParCtx::new(threads);
            fir_filter(&ctx, &input, &taps, &mut filtered);
            assert_eq!(values(&filtered), values(&fir_reference(&input, &taps)));
            extract_features(&ctx, &input, &mut feats);
            assert_eq!(values(&feats), values(&features_reference(&input)));
        }
    }

    #[test]
    fn synth_is_deterministic_and_seed_sensitive() {
        let table = Wavetable::new(256);
        let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
        table.fill(3, &mut a);
        table.fill(3, &mut b);
        table.fill(4, &mut c);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 256);
    }

    #[test]
    fn wavetable_matches_the_per_sample_formula_bit_for_bit() {
        // Seeds 0..10 000 cover every (seed % 7, seed % 5) table pair many
        // times over; the shorter blocks are prefixes of the longest, and
        // the lengths put every noise lane last.
        let blocks = LENGTHS;
        let tables = blocks.map(Wavetable::new);
        let mut got = Vec::new();
        for seed in 0..10_000 {
            let want = bits(&synth_reference(seed, 4099));
            for (table, n) in tables.iter().zip(blocks) {
                table.fill(seed, &mut got);
                assert_eq!(bits(&got), want[..n], "seed {seed}, block {n}");
            }
        }
    }

    #[test]
    fn fir_impulse_response_recovers_taps() {
        let taps = lowpass_taps();
        let mut input = vec![0.0f32; 64];
        input[0] = 1.0;
        let mut out = Vec::new();
        fir_filter(&ParCtx::serial(), &input, &taps, &mut out);
        for (k, &t) in taps.iter().enumerate() {
            assert!((out[k] - t).abs() < 1e-6, "tap {k}");
        }
        assert!(out[FIR_TAPS..].iter().all(|&x| x.abs() < 1e-6));
    }

    #[test]
    fn fir_parallel_matches_serial() {
        // Against the output-major loop, bit for bit: lengths around the
        // tap count and the 16-output block, at 1–4 workers (so chunk
        // edges fall inside the head, the blocks and the tail too).
        let taps = lowpass_taps();
        let mut out = Vec::new();
        for n in LENGTHS.into_iter().chain([1000]) {
            for seed in 0..35 {
                let input = synth_reference(seed, n);
                let want = bits(&fir_reference(&input, &taps));
                for threads in 1..=4 {
                    fir_filter(&ParCtx::new(threads), &input, &taps, &mut out);
                    assert_eq!(
                        bits(&out),
                        want,
                        "seed {seed}, length {n}, {threads} workers"
                    );
                }
            }
        }
    }

    #[test]
    fn features_match_the_per_window_loop() {
        // Bit for bit at 1–4 workers; the extra lengths are 7, 9, 15, 17
        // and 63 whole windows plus a partial one, so leftover groups of
        // every size run.
        let extra = [7, 9, 15, 17, 63].map(|w| w * WINDOW + 5);
        let mut out = Vec::new();
        for n in LENGTHS.into_iter().chain(extra) {
            for seed in 0..35 {
                let input = synth_reference(seed, n);
                let want = bits(&features_reference(&input));
                for threads in 1..=4 {
                    extract_features(&ParCtx::new(threads), &input, &mut out);
                    assert_eq!(
                        bits(&out),
                        want,
                        "seed {seed}, length {n}, {threads} workers"
                    );
                }
            }
        }
    }

    #[test]
    fn features_have_expected_shape_and_values() {
        // A constant-positive signal: mean 1, energy 1, no crossings, peak 1.
        let signal = vec![1.0f32; WINDOW * 3 + 7];
        let mut feats = Vec::new();
        extract_features(&ParCtx::new(2), &signal, &mut feats);
        assert_eq!(feats.len(), 3 * FEATURES_PER_WINDOW, "tail window dropped");
        for w in 0..3 {
            let f = &feats[w * FEATURES_PER_WINDOW..(w + 1) * FEATURES_PER_WINDOW];
            assert!((f[0] - 1.0).abs() < 1e-6);
            assert!((f[1] - 1.0).abs() < 1e-6);
            assert_eq!(f[2], 0.0);
            assert_eq!(f[3], 1.0);
        }
    }

    #[test]
    fn classify_is_deterministic_and_in_range() {
        let mut raw = Vec::new();
        Wavetable::new(WINDOW * 16).fill(11, &mut raw);
        let taps = lowpass_taps();
        let mut filtered = Vec::new();
        fir_filter(&ParCtx::serial(), &raw, &taps, &mut filtered);
        let mut feats = Vec::new();
        extract_features(&ParCtx::serial(), &filtered, &mut feats);
        let weights = classifier_weights(0);
        let a = classify(&ParCtx::serial(), &feats, &weights);
        let b = classify(&ParCtx::new(4), &feats, &weights);
        assert_eq!(a, b, "parallel reduce must match serial");
        assert!(a < CLASSES);
    }
}
