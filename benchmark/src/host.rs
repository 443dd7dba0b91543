//! Host speed, for host-normalised wall-clock times.
//!
//! On a shared machine the same binary's wall-clock drifts by 10-20% from
//! one minute to the next, with CPU time drifting alike: other tenants
//! contend for the caches and memory the simulator lives in. A dependent
//! pointer chase through a table too large for the private caches slows
//! down with them. Each instance chases before and after it runs; its
//! times are scaled by `REFERENCE_NS / chase`, which puts them in seconds
//! of a host whose chase takes [`REFERENCE_NS`].

use std::hint::black_box;
use std::time::Instant;

/// Table entries: 32 MiB of `u32`, far past the 2 MiB per-core L2.
const TABLE: u32 = 1 << 23;

/// Dependent loads per chase.
const STEPS: u32 = 500_000;

/// Chase latency of the reference host, in ns per load: a 2-vCPU Intel
/// Xeon VM (105 MiB L3) measured 170 ns on a typical minute.
pub const REFERENCE_NS: f64 = 170.0;

/// Nanoseconds per dependent load of one chase. The table is built and
/// freed inside the call, so it adds nothing to the caller's RSS after.
pub fn chase_ns() -> f64 {
    // A full-period LCG modulo 2^23 (multiplier 1 mod 4, odd increment) is
    // one cycle through every slot, in an order no prefetcher follows.
    let table: Vec<u32> = (0..TABLE)
        .map(|i| i.wrapping_mul(0x9E37_79B9).wrapping_add(0x7F4A_7C15) & (TABLE - 1))
        .collect();
    let t0 = Instant::now();
    let mut at = 0u32;
    for _ in 0..STEPS {
        at = table[at as usize];
    }
    black_box(at);
    t0.elapsed().as_nanos() as f64 / STEPS as f64
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc: returns free heap memory to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands memory freed by earlier instances back to the kernel, so the next
/// instance starts from the same resident baseline and heap state as the
/// first. Without it, glibc keeps freed pages resident and each later
/// instance's peak RSS grows (357 MB to 494 MB over five ft8-churn runs).
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` takes no pointers and only walks the
    // allocator's own free lists under its lock.
    unsafe {
        malloc_trim(0);
    }
}
