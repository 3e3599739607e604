//! Synthetic 3-D point-cloud generator for the octree workload.
//!
//! The paper builds octrees from streaming point clouds (OctoMap-style
//! robotics mapping). We generate deterministic clouds in the unit cube
//! under three distributions that stress the pipeline differently:
//! uniform (balanced tree), clustered (deep local subtrees — the realistic
//! LiDAR-like case), and surface (points on a sphere shell, the 3-D
//! reconstruction case).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A 3-D point in the unit cube.
pub(crate) type Point3 = [f32; 3];

/// Spatial distribution of generated points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloudShape {
    /// Uniform in the unit cube.
    Uniform,
    /// Gaussian clusters around a handful of centers (LiDAR-like).
    Clustered,
    /// A spherical shell (surface reconstruction-like).
    Surface,
}

/// Deterministic point-cloud stream.
///
/// ```
/// use bt_kernels::apps::{octree_app, OctreeConfig};
/// let app = octree_app(OctreeConfig { points: 1000, seed: 42, ..Default::default() });
/// let mut task = app.new_payload();
/// app.load_input(&mut task, 0); // a clustered cloud from a `PointCloudStream`
/// assert_eq!(task.cloud.len(), 1000);
/// assert!(task.cloud.iter().flatten().all(|c| (0.0..1.0).contains(c)));
/// ```
#[derive(Debug)]
pub(crate) struct PointCloudStream {
    shape: CloudShape,
    rng: StdRng,
}

impl PointCloudStream {
    /// A stream of `shape`-distributed clouds, deterministic per seed.
    pub(crate) fn new(shape: CloudShape, seed: u64) -> PointCloudStream {
        PointCloudStream {
            shape,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Generates the next cloud of `n` points, each coordinate in `[0, 1)`.
    pub(crate) fn next_cloud(&mut self, n: usize) -> Vec<Point3> {
        match self.shape {
            CloudShape::Uniform => (0..n).map(|_| self.uniform_point()).collect(),
            CloudShape::Clustered => self.clustered(n),
            CloudShape::Surface => self.surface(n),
        }
    }

    fn uniform_point(&mut self) -> Point3 {
        [
            self.rng.gen_range(0.0..1.0),
            self.rng.gen_range(0.0..1.0),
            self.rng.gen_range(0.0..1.0),
        ]
    }

    fn clustered(&mut self, n: usize) -> Vec<Point3> {
        let k = 8.max(n / 50_000);
        let centers: Vec<Point3> = (0..k).map(|_| self.uniform_point()).collect();
        (0..n)
            .map(|_| {
                let c = centers[self.rng.gen_range(0..k)];
                let mut p = [0.0f32; 3];
                for (axis, slot) in p.iter_mut().enumerate() {
                    // Box-Muller-free: sum of uniforms approximates a Gaussian.
                    let g: f32 = (0..4).map(|_| self.rng.gen_range(-0.5..0.5)).sum::<f32>() / 2.0;
                    *slot = (c[axis] + g * 0.08).clamp(0.0, 0.999_999);
                }
                p
            })
            .collect()
    }

    fn surface(&mut self, n: usize) -> Vec<Point3> {
        (0..n)
            .map(|_| {
                // Rejection-sample a direction, project to a shell.
                loop {
                    let v = [
                        self.rng.gen_range(-1.0f32..1.0),
                        self.rng.gen_range(-1.0f32..1.0),
                        self.rng.gen_range(-1.0f32..1.0),
                    ];
                    let norm = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
                    if norm > 1e-3 && norm <= 1.0 {
                        let r = 0.4 + self.rng.gen_range(-0.01f32..0.01);
                        let p = [
                            (0.5 + v[0] / norm * r).clamp(0.0, 0.999_999),
                            (0.5 + v[1] / norm * r).clamp(0.0, 0.999_999),
                            (0.5 + v[2] / norm * r).clamp(0.0, 0.999_999),
                        ];
                        return p;
                    }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn in_unit_cube(cloud: &[Point3]) -> bool {
        cloud
            .iter()
            .all(|p| p.iter().all(|&c| (0.0..1.0).contains(&c)))
    }

    #[test]
    fn all_shapes_stay_in_unit_cube() {
        for shape in [
            CloudShape::Uniform,
            CloudShape::Clustered,
            CloudShape::Surface,
        ] {
            let cloud = PointCloudStream::new(shape, 1).next_cloud(2000);
            assert_eq!(cloud.len(), 2000);
            assert!(in_unit_cube(&cloud), "{shape:?} left the unit cube");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = PointCloudStream::new(CloudShape::Clustered, 5).next_cloud(100);
        let b = PointCloudStream::new(CloudShape::Clustered, 5).next_cloud(100);
        assert_eq!(a, b);
    }

    #[test]
    fn clustered_is_denser_than_uniform() {
        // Clustered points concentrate: mean nearest-center distance must
        // be far below the uniform expectation.
        let cloud = PointCloudStream::new(CloudShape::Clustered, 2).next_cloud(4000);
        let centroid = cloud.iter().fold([0.0f64; 3], |mut acc, p| {
            for i in 0..3 {
                acc[i] += p[i] as f64;
            }
            acc
        });
        let n = cloud.len() as f64;
        let centroid = [centroid[0] / n, centroid[1] / n, centroid[2] / n];
        let var: f64 = cloud
            .iter()
            .map(|p| {
                (0..3)
                    .map(|i| (p[i] as f64 - centroid[i]).powi(2))
                    .sum::<f64>()
            })
            .sum::<f64>()
            / n;
        // Uniform variance would be 3/12 = 0.25; clusters should be tighter
        // unless centers happen to spread widely — allow a loose bound.
        assert!(var < 0.25, "variance {var}");
    }

    #[test]
    fn surface_points_lie_on_shell() {
        let cloud = PointCloudStream::new(CloudShape::Surface, 3).next_cloud(500);
        for p in &cloud {
            let r = ((p[0] - 0.5).powi(2) + (p[1] - 0.5).powi(2) + (p[2] - 0.5).powi(2)).sqrt();
            assert!((r - 0.4).abs() < 0.02, "radius {r}");
        }
    }
}
