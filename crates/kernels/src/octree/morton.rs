//! 30-bit Morton (Z-order) encoding of 3-D points in the unit cube.

use crate::pointcloud::Point3;
use crate::ParCtx;

/// Bits per Morton code (10 per axis → octree depth 10).
pub(crate) const MORTON_BITS: u32 = 30;

/// Spreads the low 10 bits of `v` so consecutive bits land 3 apart.
fn expand_bits(v: u32) -> u32 {
    let mut x = v & 0x3ff;
    x = (x | (x << 16)) & 0x030000FF;
    x = (x | (x << 8)) & 0x0300F00F;
    x = (x | (x << 4)) & 0x030C30C3;
    x = (x | (x << 2)) & 0x09249249;
    x
}

/// Encodes a point with coordinates in `[0, 1)` into a 30-bit Morton code
/// (x bits in positions 0, 3, 6 …; y in 1, 4, 7 …; z in 2, 5, 8 …).
///
/// Coordinates outside `[0, 1)` are clamped.
///
/// ```
/// use bt_kernels::{apps::octree_app, ParCtx};
/// let app = octree_app(Default::default());
/// let mut task = app.new_payload();
/// task.cloud = vec![[0.0; 3], [0.9; 3]];
/// app.stages()[0].run(&mut task, &ParCtx::new(1)); // the `morton` stage
/// assert_eq!(task.codes[0], 0);
/// assert!(task.codes[1] < (1 << 30));
/// ```
pub(crate) fn morton_encode(p: Point3) -> u32 {
    let quant = |c: f32| -> u32 {
        let scaled = (c.clamp(0.0, 0.999_999) * 1024.0) as u32;
        scaled.min(1023)
    };
    expand_bits(quant(p[0])) | (expand_bits(quant(p[1])) << 1) | (expand_bits(quant(p[2])) << 2)
}

/// Stage 1 kernel: encodes a whole cloud in parallel.
pub(crate) fn morton_encode_cloud(ctx: &ParCtx, cloud: &[Point3], out: &mut Vec<u32>) {
    out.clear();
    out.resize(cloud.len(), 0);
    ctx.for_each_chunk(out, |offset, chunk| {
        for (i, slot) in chunk.iter_mut().enumerate() {
            *slot = morton_encode(cloud[offset + i]);
        }
    });
}

/// Inverse of [`expand_bits`].
#[cfg(test)]
fn compact_bits(mut x: u32) -> u32 {
    x &= 0x09249249;
    x = (x | (x >> 2)) & 0x030C30C3;
    x = (x | (x >> 4)) & 0x0300F00F;
    x = (x | (x >> 8)) & 0x030000FF;
    x = (x | (x >> 16)) & 0x3ff;
    x
}

/// Decodes a Morton code back to the cell-corner coordinates (each in
/// `[0, 1)`, quantized to 1/1024).
#[cfg(test)]
pub(crate) fn morton_decode(code: u32) -> Point3 {
    [
        compact_bits(code) as f32 / 1024.0,
        compact_bits(code >> 1) as f32 / 1024.0,
        compact_bits(code >> 2) as f32 / 1024.0,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pointcloud::{CloudShape, PointCloudStream};

    #[test]
    fn codes_fit_in_30_bits() {
        let cloud = PointCloudStream::new(CloudShape::Uniform, 1).next_cloud(5000);
        for p in &cloud {
            assert!(morton_encode(*p) < (1 << 30));
        }
    }

    #[test]
    fn encode_decode_round_trip_within_quantization() {
        let cloud = PointCloudStream::new(CloudShape::Clustered, 2).next_cloud(1000);
        for p in &cloud {
            let q = morton_decode(morton_encode(*p));
            for axis in 0..3 {
                assert!((p[axis] - q[axis]).abs() < 1.0 / 1024.0 + 1e-6);
            }
        }
    }

    #[test]
    fn spatial_locality() {
        // Nearby points share high bits more than distant ones.
        let a = morton_encode([0.5, 0.5, 0.5]);
        let near = morton_encode([0.5 + 1.5 / 1024.0, 0.5, 0.5]);
        let far = morton_encode([0.95, 0.1, 0.9]);
        let lz = |x: u32, y: u32| (x ^ y).leading_zeros();
        assert!(lz(a, near) > lz(a, far));
    }

    #[test]
    fn clamps_out_of_range() {
        assert_eq!(morton_encode([0.0, 0.0, 0.0]), 0);
        assert_eq!(morton_encode([-1.0, -0.5, -0.1]), 0);
        let max = morton_encode([2.0, 2.0, 2.0]);
        assert_eq!(max, (1 << 30) - 1);
    }

    #[test]
    fn parallel_encode_matches_serial() {
        let cloud = PointCloudStream::new(CloudShape::Surface, 3).next_cloud(3000);
        let mut par = Vec::new();
        morton_encode_cloud(&ParCtx::new(4), &cloud, &mut par);
        let serial: Vec<u32> = cloud.iter().map(|&p| morton_encode(p)).collect();
        assert_eq!(par, serial);
    }

    #[test]
    fn axes_interleave_correctly() {
        // x = 1 alone sets bit 0; y bit 1; z bit 2.
        let eps = 1.0 / 1024.0;
        assert_eq!(morton_encode([eps, 0.0, 0.0]), 0b001);
        assert_eq!(morton_encode([0.0, eps, 0.0]), 0b010);
        assert_eq!(morton_encode([0.0, 0.0, eps]), 0b100);
    }
}
