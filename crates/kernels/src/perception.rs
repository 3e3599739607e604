//! Perception-pipeline kernels: the fourth paper-style workload, and the
//! first genuinely *branching* one.
//!
//! A preprocessed luminance frame forks into two independent branches —
//! a detection branch (multi-filter convolution + non-maximum suppression)
//! and an optical-flow branch (image pyramid + Lucas–Kanade-style solve) —
//! whose outputs join in a fusion stage feeding a tracker. The branches
//! touch disjoint scratch buffers, so a DAG scheduler may run them on
//! different PUs for the same frame.
//!
//! All kernels are real, deterministic CPU compute (the host substrate
//! executes them); their [`bt_soc::WorkProfile`]s live in
//! [`crate::apps::perception_app`].

use crate::ParCtx;

/// Side length of the square detection filters.
pub(crate) const FILTER_SIZE: usize = 5;

/// Builds `k` deterministic oriented 5×5 ridge filters, flattened
/// row-major per filter. The seed perturbs the orientation phase so
/// different app instances exercise different weights.
pub(crate) fn detection_filters(k: usize, seed: u64) -> Vec<f32> {
    let mut filters = vec![0.0f32; k * FILTER_SIZE * FILTER_SIZE];
    for f in 0..k {
        let angle = std::f64::consts::PI * (f as f64 + (seed % 7) as f64 * 0.1) / k as f64;
        let (s, c) = angle.sin_cos();
        let base = f * FILTER_SIZE * FILTER_SIZE;
        let mut sum = 0.0f64;
        for y in 0..FILTER_SIZE {
            for x in 0..FILTER_SIZE {
                let dx = x as f64 - (FILTER_SIZE as f64 - 1.0) / 2.0;
                let dy = y as f64 - (FILTER_SIZE as f64 - 1.0) / 2.0;
                // Signed distance to the oriented ridge axis.
                let d = dx * s - dy * c;
                let v = (1.0 - d * d).exp() * (-(dx * dx + dy * dy) / 6.0).exp();
                filters[base + y * FILTER_SIZE + x] = v as f32;
                sum += v;
            }
        }
        // Zero-mean so flat regions respond with 0.
        let mean = (sum / (FILTER_SIZE * FILTER_SIZE) as f64) as f32;
        for w in &mut filters[base..base + FILTER_SIZE * FILTER_SIZE] {
            *w -= mean;
        }
    }
    filters
}

/// Stage 0 — preprocess: normalizes the frame to zero mean and applies a
/// 3×3 box blur, writing the luminance plane both branches consume.
pub(crate) fn preprocess(ctx: &ParCtx, frame: &[f32], w: usize, h: usize, lum: &mut Vec<f32>) {
    assert_eq!(frame.len(), w * h, "frame size mismatch");
    let mean = (frame.iter().map(|&v| v as f64).sum::<f64>() / frame.len().max(1) as f64) as f32;
    lum.clear();
    lum.resize(w * h, 0.0);
    ctx.for_each_chunk(lum, |offset, chunk| {
        for (i, out) in chunk.iter_mut().enumerate() {
            let idx = offset + i;
            let (x, y) = ((idx % w) as isize, (idx / w) as isize);
            let mut acc = 0.0f32;
            let mut cnt = 0.0f32;
            for dy in -1..=1isize {
                for dx in -1..=1isize {
                    let (nx, ny) = (x + dx, y + dy);
                    if nx >= 0 && (nx as usize) < w && ny >= 0 && (ny as usize) < h {
                        acc += frame[ny as usize * w + nx as usize] - mean;
                        cnt += 1.0;
                    }
                }
            }
            *out = acc / cnt;
        }
    });
}

/// Stage 1 (detection branch) — convolution: applies every filter at every
/// interior pixel and keeps the strongest response. This is the workload's
/// compute bottleneck (`k · FILTER_SIZE²` MACs per pixel) and the stage
/// worth replicating across PU classes.
pub(crate) fn detect_conv(
    ctx: &ParCtx,
    lum: &[f32],
    w: usize,
    h: usize,
    filters: &[f32],
    detmap: &mut Vec<f32>,
) {
    assert_eq!(lum.len(), w * h, "luminance size mismatch");
    assert_eq!(filters.len() % (FILTER_SIZE * FILTER_SIZE), 0);
    let k = filters.len() / (FILTER_SIZE * FILTER_SIZE);
    let r = FILTER_SIZE / 2;
    detmap.clear();
    detmap.resize(w * h, 0.0);
    ctx.for_each_chunk(detmap, |offset, chunk| {
        for (i, out) in chunk.iter_mut().enumerate() {
            let idx = offset + i;
            let (x, y) = (idx % w, idx / w);
            if x < r || x >= w - r || y < r || y >= h - r {
                continue;
            }
            let mut best = 0.0f32;
            for f in 0..k {
                let base = f * FILTER_SIZE * FILTER_SIZE;
                let mut acc = 0.0f32;
                for fy in 0..FILTER_SIZE {
                    let row = (y + fy - r) * w + x - r;
                    for fx in 0..FILTER_SIZE {
                        acc += filters[base + fy * FILTER_SIZE + fx] * lum[row + fx];
                    }
                }
                best = best.max(acc.abs());
            }
            *out = best;
        }
    });
}

/// Stage 2 (detection branch) — non-maximum suppression: keeps pixels that
/// are a strict 3×3 local maximum above `threshold`, as `(index, score)`
/// pairs sorted by index.
pub(crate) fn detect_nms(
    _ctx: &ParCtx,
    detmap: &[f32],
    w: usize,
    h: usize,
    threshold: f32,
    detections: &mut Vec<(usize, f32)>,
) {
    assert_eq!(detmap.len(), w * h, "detection map size mismatch");
    detections.clear();
    for y in 1..h.saturating_sub(1) {
        for x in 1..w.saturating_sub(1) {
            let v = detmap[y * w + x];
            if v <= threshold {
                continue;
            }
            let mut is_max = true;
            'scan: for dy in -1..=1isize {
                for dx in -1..=1isize {
                    if dx == 0 && dy == 0 {
                        continue;
                    }
                    let n = ((y as isize + dy) as usize) * w + (x as isize + dx) as usize;
                    if detmap[n] > v {
                        is_max = false;
                        break 'scan;
                    }
                }
            }
            if is_max {
                detections.push((y * w + x, v));
            }
        }
    }
}

/// Stage 3 (flow branch) — image pyramid: `levels` successive 2×2 average
/// downsamples of the luminance plane, concatenated coarsest-last.
/// Returns the (width, height) of each level, finest first.
pub(crate) fn flow_pyramid(
    ctx: &ParCtx,
    lum: &[f32],
    w: usize,
    h: usize,
    levels: usize,
    pyramid: &mut Vec<f32>,
) -> Vec<(usize, usize)> {
    assert_eq!(lum.len(), w * h, "luminance size mismatch");
    pyramid.clear();
    let mut dims = Vec::with_capacity(levels);
    let mut src: Vec<f32> = lum.to_vec();
    let (mut sw, mut sh) = (w, h);
    for _ in 0..levels {
        let (dw, dh) = (sw / 2, sh / 2);
        if dw == 0 || dh == 0 {
            break;
        }
        let mut dst = vec![0.0f32; dw * dh];
        let src_ref = &src;
        ctx.for_each_chunk(&mut dst, |offset, chunk| {
            for (i, out) in chunk.iter_mut().enumerate() {
                let idx = offset + i;
                let (x, y) = (idx % dw, idx / dw);
                let base = (2 * y) * sw + 2 * x;
                *out = 0.25
                    * (src_ref[base]
                        + src_ref[base + 1]
                        + src_ref[base + sw]
                        + src_ref[base + sw + 1]);
            }
        });
        pyramid.extend_from_slice(&dst);
        dims.push((dw, dh));
        src = dst;
        sw = dw;
        sh = dh;
    }
    dims
}

/// Stage 4 (flow branch) — Lucas–Kanade-style solve on the finest pyramid
/// level: per 4×4 block, accumulates the structure tensor from central
/// differences and the temporal difference against the next-coarser level,
/// then solves the regularized 2×2 system for `(dx, dy)` per block.
pub(crate) fn flow_solve(
    _ctx: &ParCtx,
    pyramid: &[f32],
    dims: &[(usize, usize)],
    flow: &mut Vec<f32>,
) {
    flow.clear();
    if dims.len() < 2 {
        return;
    }
    let (fw, fh) = dims[0];
    let (cw, _ch) = dims[1];
    let fine = &pyramid[..fw * fh];
    let coarse = &pyramid[fw * fh..fw * fh + cw * dims[1].1];
    let (bw, bh) = (fw / 4, fh / 4);
    flow.resize(bw * bh * 2, 0.0);
    for by in 0..bh {
        for bx in 0..bw {
            let (mut gxx, mut gxy, mut gyy, mut gxt, mut gyt) = (0.0f64, 0.0, 0.0, 0.0, 0.0);
            for y in (by * 4).max(1)..((by + 1) * 4).min(fh - 1) {
                for x in (bx * 4).max(1)..((bx + 1) * 4).min(fw - 1) {
                    let ix = 0.5 * (fine[y * fw + x + 1] - fine[y * fw + x - 1]) as f64;
                    let iy = 0.5 * (fine[(y + 1) * fw + x] - fine[(y - 1) * fw + x]) as f64;
                    // Temporal difference: the same location one level up
                    // stands in for the "previous frame".
                    let it = (coarse[(y / 2) * cw + x / 2] - fine[y * fw + x]) as f64;
                    gxx += ix * ix;
                    gxy += ix * iy;
                    gyy += iy * iy;
                    gxt += ix * it;
                    gyt += iy * it;
                }
            }
            // Regularized 2×2 solve (Tikhonov eps keeps it well-posed on
            // flat blocks).
            let eps = 1e-3;
            let det = (gxx + eps) * (gyy + eps) - gxy * gxy;
            let dx = (-(gxt) * (gyy + eps) + gxy * gyt) / det;
            let dy = (gxy * gxt - (gxx + eps) * gyt) / det;
            flow[(by * bw + bx) * 2] = dx as f32;
            flow[(by * bw + bx) * 2 + 1] = dy as f32;
        }
    }
}

/// Stage 5 (join) — fuse: pairs each detection with the flow vector of its
/// block, producing flattened `(x, y, dx, dy, score)` observations. This
/// stage consumes both branch outputs, making it the DAG's merge point.
pub(crate) fn fuse(
    _ctx: &ParCtx,
    detections: &[(usize, f32)],
    flow: &[f32],
    w: usize,
    fused: &mut Vec<f32>,
) {
    fused.clear();
    let bw = (w / 2) / 4; // flow blocks span 4 px of the half-res level
    for &(idx, score) in detections {
        let (x, y) = (idx % w, idx / w);
        let (bx, by) = ((x / 2 / 4).min(bw.saturating_sub(1)), y / 2 / 4);
        let b = (by * bw + bx) * 2;
        let (dx, dy) = if b + 1 < flow.len() {
            (flow[b], flow[b + 1])
        } else {
            (0.0, 0.0)
        };
        fused.extend_from_slice(&[x as f32, y as f32, dx, dy, score]);
    }
}

/// Stage 6 — track: folds the fused observations into an exponential
/// moving-average track state `(cx, cy, vx, vy, mass)`.
pub(crate) fn track(_ctx: &ParCtx, fused: &[f32], state: &mut [f32; 5]) {
    let alpha = 0.2f32;
    for obs in fused.chunks_exact(5) {
        let weight = obs[4].max(0.0);
        let a = alpha * (weight / (1.0 + weight));
        state[0] += a * (obs[0] - state[0]);
        state[1] += a * (obs[1] - state[1]);
        state[2] += a * (obs[2] - state[2]);
        state[3] += a * (obs[3] - state[3]);
        state[4] = state[4] * (1.0 - alpha) + weight * alpha;
    }
}

/// Deterministic synthetic frame: a textured background with a few moving
/// bright blobs (so detection finds peaks and flow sees structure).
pub(crate) fn synthetic_frame(w: usize, h: usize, seed: u64) -> Vec<f32> {
    let mut frame = vec![0.0f32; w * h];
    let t = (seed % 64) as f32;
    for y in 0..h {
        for x in 0..w {
            let (xf, yf) = (x as f32, y as f32);
            // Background texture.
            let mut v = 0.15 * ((0.37 * xf).sin() * (0.29 * yf).cos());
            // Three orbiting blobs.
            for b in 0..3u32 {
                let phase = t * 0.2 + b as f32 * 2.1;
                let cx = w as f32 * (0.5 + 0.3 * (phase).cos());
                let cy = h as f32 * (0.5 + 0.3 * (phase * 1.3).sin());
                let d2 = (xf - cx).powi(2) + (yf - cy).powi(2);
                v += (2.0 + b as f32 * 0.5) * (-d2 / 18.0).exp();
            }
            frame[y * w + x] = v;
        }
    }
    frame
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filters_are_zero_mean() {
        let k = 4;
        let f = detection_filters(k, 3);
        assert_eq!(f.len(), k * FILTER_SIZE * FILTER_SIZE);
        for filt in f.chunks_exact(FILTER_SIZE * FILTER_SIZE) {
            let sum: f32 = filt.iter().sum();
            assert!(sum.abs() < 1e-4, "filter mean {sum}");
        }
    }

    #[test]
    fn detection_finds_blobs() {
        let (w, h) = (64, 64);
        let ctx = ParCtx::new(2);
        let frame = synthetic_frame(w, h, 0);
        let mut lum = Vec::new();
        preprocess(&ctx, &frame, w, h, &mut lum);
        assert_eq!(lum.len(), w * h);
        let filters = detection_filters(8, 0);
        let mut detmap = Vec::new();
        detect_conv(&ctx, &lum, w, h, &filters, &mut detmap);
        let mut detections = Vec::new();
        detect_nms(&ctx, &detmap, w, h, 0.5, &mut detections);
        assert!(!detections.is_empty(), "blobs should produce peaks");
        assert!(detections.windows(2).all(|d| d[0].0 < d[1].0));
    }

    #[test]
    fn pyramid_and_flow_shapes() {
        let (w, h) = (64, 48);
        let ctx = ParCtx::serial();
        let frame = synthetic_frame(w, h, 5);
        let mut lum = Vec::new();
        preprocess(&ctx, &frame, w, h, &mut lum);
        let mut pyramid = Vec::new();
        let dims = flow_pyramid(&ctx, &lum, w, h, 3, &mut pyramid);
        assert_eq!(dims, vec![(32, 24), (16, 12), (8, 6)]);
        assert_eq!(pyramid.len(), 32 * 24 + 16 * 12 + 8 * 6);
        let mut flow = Vec::new();
        flow_solve(&ctx, &pyramid, &dims, &mut flow);
        assert_eq!(flow.len(), (32 / 4) * (24 / 4) * 2);
        assert!(flow.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn fuse_and_track_are_deterministic() {
        let detections = vec![(10 * 64 + 20, 1.5f32), (30 * 64 + 40, 2.0)];
        let flow = vec![0.5f32; 2 * 8 * 8];
        let ctx = ParCtx::serial();
        let mut fused = Vec::new();
        fuse(&ctx, &detections, &flow, 64, &mut fused);
        assert_eq!(fused.len(), 10);
        let mut s1 = [0.0f32; 5];
        let mut s2 = [0.0f32; 5];
        track(&ctx, &fused, &mut s1);
        track(&ctx, &fused, &mut s2);
        assert_eq!(s1, s2);
        assert!(s1[4] > 0.0, "track accumulated mass");
    }

    #[test]
    fn parallel_matches_serial() {
        let (w, h) = (48, 48);
        let frame = synthetic_frame(w, h, 9);
        let filters = detection_filters(6, 9);
        let run = |ctx: &ParCtx| {
            let mut lum = Vec::new();
            preprocess(ctx, &frame, w, h, &mut lum);
            let mut detmap = Vec::new();
            detect_conv(ctx, &lum, w, h, &filters, &mut detmap);
            (lum, detmap)
        };
        assert_eq!(run(&ParCtx::serial()), run(&ParCtx::new(4)));
    }
}
