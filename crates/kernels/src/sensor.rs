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
//! The source is a [`Wavetable`]: a task's two tones depend only on
//! `seed % 7` and `seed % 5`, so the 12 possible tone blocks are computed
//! once and a block is two table reads plus the noise draws per sample —
//! bit for bit the per-sample `sin` formula. [`fir_filter`] runs tap-major
//! (one vectorizable pass per tap) in each output's original summation
//! order.

use crate::ParCtx;

/// Number of taps in the low-pass FIR filter.
pub const FIR_TAPS: usize = 16;

/// Features extracted per analysis window (mean, energy, zero-crossing
/// rate, peak amplitude).
pub const FEATURES_PER_WINDOW: usize = 4;

/// Samples per analysis window.
pub const WINDOW: usize = 64;

/// Number of classes the linear classifier separates.
pub const CLASSES: usize = 8;

fn lcg(state: &mut u64) -> f32 {
    // Numerical Recipes LCG; top 24 bits → [0, 1).
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 40) as f32) / (1u64 << 24) as f32
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
pub struct Wavetable {
    block: usize,
    /// The `F1_STEPS` first-tone tables, then the `F2_STEPS` second-tone
    /// tables, each `block` long.
    tones: Vec<f32>,
}

impl Wavetable {
    /// Builds the tone tables for blocks of `block` samples.
    pub fn new(block: usize) -> Wavetable {
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
    pub fn fill(&self, seed: u64, out: &mut Vec<f32>) {
        let table = |t: usize| &self.tones[t * self.block..(t + 1) * self.block];
        let first = table((seed % F1_STEPS as u64) as usize);
        let second = table(F1_STEPS + (seed % F2_STEPS as u64) as usize);
        let mut rng = seed ^ 0x5eed_5eed_5eed_5eed;
        out.clear();
        out.extend(first.iter().zip(second).map(|(&a, &b)| {
            let noise = 0.25 * (lcg(&mut rng) - 0.5);
            (a + 0.5 * b) + noise
        }));
    }
}

/// The low-pass tap set used by the sensor pipeline: a normalized raised
/// triangle (deterministic, sums to 1 so DC gain is unity).
pub fn lowpass_taps() -> [f32; FIR_TAPS] {
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
/// Tap-major: pass `k` adds `taps[k] · input[i - k]` to every output
/// `i ≥ k`, so the inner loop is a straight multiply-add over two slices
/// that vectorizes, and every output still sums its terms in tap order
/// `k = 0, 1, …` from `0.0`.
pub fn fir_filter(ctx: &ParCtx, input: &[f32], taps: &[f32; FIR_TAPS], out: &mut Vec<f32>) {
    out.clear();
    out.resize(input.len(), 0.0);
    ctx.for_each_chunk(out, |offset, chunk| {
        let end = offset + chunk.len();
        for (k, &t) in taps.iter().enumerate() {
            // Outputs before `k` have no term for this tap.
            let first = k.max(offset);
            if first >= end {
                break;
            }
            let outs = &mut chunk[first - offset..];
            for (o, &x) in outs.iter_mut().zip(&input[first - k..end - k]) {
                *o += t * x;
            }
        }
    });
}

/// Extracts [`FEATURES_PER_WINDOW`] features from each [`WINDOW`]-sample
/// window of `filtered`: mean, mean-square energy, zero-crossing rate, and
/// peak amplitude. The tail partial window (if any) is dropped, matching
/// fixed-size DSP frames.
pub fn extract_features(ctx: &ParCtx, filtered: &[f32], out: &mut Vec<f32>) {
    let windows = filtered.len() / WINDOW;
    out.clear();
    out.resize(windows * FEATURES_PER_WINDOW, 0.0);
    ctx.for_each_block(out, FEATURES_PER_WINDOW, |w, f| {
        let frame = &filtered[w * WINDOW..(w + 1) * WINDOW];
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
        f[0] = mean / WINDOW as f32;
        f[1] = energy / WINDOW as f32;
        f[2] = crossings as f32 / WINDOW as f32;
        f[3] = peak;
    });
}

/// The classifier's weight matrix, deterministic per `seed`:
/// `CLASSES × FEATURES_PER_WINDOW` values in `[-0.5, 0.5)`.
pub fn classifier_weights(seed: u64) -> Vec<f32> {
    let mut rng = seed ^ 0xc1a5_51f1_ed00_0000;
    (0..CLASSES * FEATURES_PER_WINDOW)
        .map(|_| lcg(&mut rng) - 0.5)
        .collect()
}

/// Scores every window of `features` against `weights` (one matvec per
/// window), sums the per-window scores, and returns the argmax class.
/// Ties break toward the higher class index.
pub fn classify(ctx: &ParCtx, features: &[f32], weights: &[f32]) -> usize {
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

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
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
        // times over; the shorter blocks are prefixes of the longest.
        let blocks = [0, 1, 63, 4096];
        let tables = blocks.map(Wavetable::new);
        let mut got = Vec::new();
        for seed in 0..10_000 {
            let want = bits(&synth_reference(seed, 4096));
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
        // Against the output-major loop, bit for bit: empty, shorter than,
        // as long as and just past the tap count, and a full block, at 1–4
        // workers (so chunk edges fall inside the first taps too).
        let taps = lowpass_taps();
        let mut out = Vec::new();
        for n in [0, 1, 15, 16, 17, 1000, 4096] {
            let input = synth_reference(9, n);
            let want = bits(&fir_reference(&input, &taps));
            for threads in 1..=4 {
                fir_filter(&ParCtx::new(threads), &input, &taps, &mut out);
                assert_eq!(bits(&out), want, "length {n}, {threads} workers");
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
