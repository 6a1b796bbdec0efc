//! Machine-speed probe for the host-time end-to-end metrics.
//!
//! The box the benchmark runs on shares its host with other tenants,
//! and its speed for allocation- and cache-heavy code such as the
//! simulator drifts by up to 2x over seconds to minutes. A fixed
//! kernel of the benchmark's own (hash-map, B-tree and allocator
//! churn, none of it the simulator's code) is timed between the timed
//! runs; a run's host time is scaled by the kernel's time around it,
//! which turns host seconds into *reference seconds*: the seconds the
//! work would take on the machine at the speed where the kernel takes
//! [`REFERENCE_S`]. A change to the simulator moves the simulator's
//! time but not the kernel's, so it shows in full.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::time::Instant;

/// Kernel time, seconds, at the reference machine speed. A fixed
/// scale: only ratios between runs of the benchmark matter.
pub const REFERENCE_S: f64 = 0.015;

/// Loop iterations of one kernel pass.
const ITERS: u64 = 60_000;

/// Buffers the allocator churn keeps alive at once.
const LIVE: usize = 500;

/// One pass of the kernel; returns a checksum so nothing is optimised
/// away. Deterministic: fixed hasher keys and a fixed xorshift stream.
fn kernel() -> u64 {
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut tree = BTreeMap::new();
    let mut live: Vec<Vec<u8>> = Vec::with_capacity(LIVE + 1);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 50_000, i);
        tree.insert(x % 20_000, i);
        if let Some(v) = map.get(&(x.rotate_left(7) % 50_000)) {
            acc = acc.wrapping_add(*v);
        }
        live.push(vec![i as u8; 16 + (x >> 53) as usize]);
        if live.len() > LIVE {
            let gone = live.swap_remove((x % LIVE as u64) as usize);
            acc = acc.wrapping_add(gone.len() as u64);
        }
    }
    acc ^ map.len() as u64 ^ tree.len() as u64 ^ live.len() as u64
}

/// Times one kernel pass, seconds.
pub fn probe() -> f64 {
    let start = Instant::now();
    std::hint::black_box(kernel());
    start.elapsed().as_secs_f64()
}

/// The machine's speed for a workload relative to the reference, from
/// the kernel times taken just before and just after a timed
/// operation: above 1 when the machine runs faster than the reference.
/// `exponent` is how much harder contention slows the workload than
/// the kernel ([`Kind::contention_exponent`]). Host seconds times this
/// are reference seconds.
///
/// [`Kind::contention_exponent`]: crate::workload::Kind::contention_exponent
pub fn speed(before: f64, after: f64, exponent: f64) -> f64 {
    (REFERENCE_S / ((before + after) / 2.0)).powf(exponent)
}
