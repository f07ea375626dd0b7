//! Seeded input generation shared by the workloads.
//!
//! Every input derives from the workload seed through [`mix`], so one
//! seed always gives the same networks, request streams and scenarios.

use bc_geom::Aabb;
use bc_wsn::spatial::GridIndex;
use bc_wsn::{deploy, Network};

/// Bundle radius `r` (m) of every workload.
pub const RADIUS_M: f64 = 10.0;

/// Per-sensor energy demand (J), as in the repository's bench fixtures.
pub const DEMAND_J: f64 = 2.0;

/// Worker threads for planners, services and campaigns (the 2-core
/// budget the workloads were sized for).
pub const WORKERS: usize = 2;

/// SplitMix64 of `seed` and a stream index: independent, reproducible
/// sub-seeds for each network, client and campaign seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small deterministic generator for request streams.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded from `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        self.0 = self.0.wrapping_add(1);
        (mix(self.0, 0) % bound as u64) as usize
    }
}

/// `n` sensors uniform on a `side_m` square with the standard demand.
pub fn uniform(n: usize, side_m: f64, seed: u64) -> Network {
    deploy::uniform(n, Aabb::square(side_m), DEMAND_J, seed)
}

/// Field side that keeps the density of `n0` sensors on `side0` for `n`
/// sensors.
pub fn side_at_density(n: usize, n0: usize, side0: f64) -> f64 {
    side0 * (n as f64 / n0 as f64).sqrt()
}

/// Unordered sensor pairs at most `dist` apart, counted with `bc_wsn`'s
/// grid index.
pub fn pairs_within(net: &Network, dist: f64) -> u64 {
    let pts = net.positions();
    let index = GridIndex::build(pts, dist);
    let mut near = Vec::new();
    let mut pairs = 0u64;
    for (i, &p) in pts.iter().enumerate() {
        index.within_radius_into(pts, p, dist, &mut near);
        pairs += near.iter().filter(|&&j| j > i).count() as u64;
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_separates_streams_and_seeds() {
        assert_eq!(mix(7, 3), mix(7, 3));
        assert_ne!(mix(7, 3), mix(7, 4));
        assert_ne!(mix(7, 3), mix(8, 3));
    }

    #[test]
    fn rng_stays_in_range_and_repeats() {
        let mut a = Rng::new(5);
        let mut b = Rng::new(5);
        for _ in 0..100 {
            let x = a.below(8);
            assert!(x < 8);
            assert_eq!(x, b.below(8));
        }
    }

    #[test]
    fn pair_count_matches_brute_force() {
        let net = uniform(300, 100.0, 11);
        let pts = net.positions();
        let mut brute = 0u64;
        for i in 0..pts.len() {
            for j in i + 1..pts.len() {
                if pts[i].distance(pts[j]) <= 2.0 * RADIUS_M {
                    brute += 1;
                }
            }
        }
        assert_eq!(pairs_within(&net, 2.0 * RADIUS_M), brute);
    }

    #[test]
    fn density_scaling() {
        assert!((side_at_density(4000, 1000, 300.0) - 600.0).abs() < 1e-9);
    }
}
