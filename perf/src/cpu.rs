//! Which CPU the benchmark's threads, and the server it starts, run on.
//!
//! A serve run puts its load and the `pta serve` child on one CPU. A
//! request's round trip over loopback then costs two context switches
//! on that CPU. With the client and the server free to run on
//! different CPUs, each round trip instead woke a thread on the other
//! CPU, which on a virtual machine waits until the host resumes that
//! CPU if it sat idle, so latency followed the host's load. In half a
//! minute of alternating closed-loop and open-loop half-second cycles
//! on a two-core machine, the closed loop's rate sat between 48,000 and
//! 53,000 requests/s (quartiles) and one open-loop cycle in four had a
//! p99 over a millisecond; on one CPU, between 73,000 and 87,000, and
//! one cycle in 27.

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on, in ascending order.
pub fn allowed() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable `cpu_set_t` of the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread, and every thread and process it starts
/// from then on, to the last CPU it may run on. Returns that CPU, or
/// `None` if the restriction failed.
pub fn pin_to_one() -> Option<usize> {
    let cpu = *allowed().last()?;
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a `cpu_set_t` of the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    (rc == 0).then_some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pinned_thread_may_run_on_one_cpu() {
        let before = allowed();
        assert!(!before.is_empty());
        std::thread::spawn(move || {
            let cpu = pin_to_one().expect("pinning succeeds");
            assert_eq!(Some(&cpu), before.last());
            assert_eq!(allowed(), vec![cpu]);
            // Threads started afterwards inherit the restriction.
            let child = std::thread::spawn(allowed).join().unwrap();
            assert_eq!(child, vec![cpu]);
        })
        .join()
        .unwrap();
    }
}
