//! Input generation from the run seed.
//!
//! Each surrogate data set has a fixed structure: the generator runs at a
//! constant seed and ten times the needed size, standing in for one fixed
//! real data set (GeoLife, Household, SS-varden). The run seed draws the
//! run's sample from that pool and drives every request and mutation
//! sequence. Without the pool, the random cluster layout alone moved
//! `emst_memogfk` time by 2x between seeds, which would drown any change
//! the benchmark is meant to see.

use parclust::Point;
use parclust_data::generators::{gps_like, seed_spreader, sensor_like};
use rand::prelude::*;

/// Generator seed that fixes each data set's structure.
const STRUCTURE_SEED: u64 = 0x5EED_2021;
/// Pool size as a multiple of the sample size.
const POOL_FACTOR: usize = 10;

/// `minPts` and minimum cluster size of every HDBSCAN\* run.
pub const MIN_PTS: usize = 10;
pub const MIN_CLUSTER_SIZE: usize = 50;

/// Batch op (a): GeoLife-like 3D points.
pub const HDBSCAN_N: usize = 100_000;
/// Batch op (b): Household-like 7D points in 8 clusters.
pub const EMST_N: usize = 40_000;
pub const EMST_CLUSTERS: usize = 8;
/// The served read-only model (SS-varden 3D).
pub const READ_N: usize = 50_000;
/// The served dynamic model (SS-varden 3D) when serve-mutate is the
/// workload, and the smaller one its probe uses otherwise.
pub const MUTATE_N: usize = 20_000;
pub const MUTATE_PROBE_N: usize = 4_000;

/// Distinct streams derived from the run seed.
pub mod stream {
    pub const HDBSCAN: u64 = 1;
    pub const EMST: u64 = 2;
    pub const READ_MODEL: u64 = 3;
    pub const MUTATE_MODEL: u64 = 4;
    pub const READ_REQUESTS: u64 = 5;
    pub const MUTATIONS: u64 = 6;
    pub const READER: u64 = 7;
    pub const ARRIVALS: u64 = 8;
}

/// A reproducible RNG for one stream of the run seed.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

/// `n` points drawn without replacement from `pool`, kept in pool order.
fn sample<T: Copy>(pool: &[T], n: usize, rng: &mut StdRng) -> Vec<T> {
    let mut idx: Vec<usize> = (0..pool.len()).collect();
    for i in 0..n {
        let j = rng.gen_range(i..pool.len());
        idx.swap(i, j);
    }
    let mut picked = idx[..n].to_vec();
    picked.sort_unstable();
    picked.into_iter().map(|i| pool[i]).collect()
}

pub fn hdbscan_points(seed: u64) -> Vec<Point<3>> {
    let pool = gps_like(HDBSCAN_N * POOL_FACTOR, STRUCTURE_SEED);
    sample(&pool, HDBSCAN_N, &mut rng(seed, stream::HDBSCAN))
}

pub fn emst_points(seed: u64) -> Vec<Point<7>> {
    let pool = sensor_like::<7>(EMST_N * POOL_FACTOR, STRUCTURE_SEED, EMST_CLUSTERS);
    sample(&pool, EMST_N, &mut rng(seed, stream::EMST))
}

/// A served model's points, and the bounding box of the whole data set
/// they were drawn from, where requests draw their query points. The box
/// does not depend on the seed: the sample's own box did, because a few far
/// points of the data set fall in some samples and not in others, and that
/// moved the 4k-point model's read latency 2x between seeds.
pub struct ServedInput {
    pub points: Vec<Point<3>>,
    pub lo: Point<3>,
    pub hi: Point<3>,
}

fn served_sample(pool: &[Point<3>], n: usize, rng: &mut StdRng) -> ServedInput {
    let (mut lo, mut hi) = (Point([f64::INFINITY; 3]), Point([f64::NEG_INFINITY; 3]));
    for p in pool {
        for d in 0..3 {
            lo.0[d] = lo.0[d].min(p.0[d]);
            hi.0[d] = hi.0[d].max(p.0[d]);
        }
    }
    ServedInput {
        points: sample(pool, n, rng),
        lo,
        hi,
    }
}

pub fn read_points(seed: u64) -> ServedInput {
    let pool = seed_spreader::<3>(READ_N * POOL_FACTOR, STRUCTURE_SEED);
    served_sample(&pool, READ_N, &mut rng(seed, stream::READ_MODEL))
}

pub fn mutate_points(seed: u64, n: usize) -> ServedInput {
    let pool = seed_spreader::<3>(n * POOL_FACTOR, STRUCTURE_SEED + 1);
    served_sample(&pool, n, &mut rng(seed, stream::MUTATE_MODEL))
}
