//! Pins the benchmark process to one CPU.
//!
//! Every thread of a run — the sweep worker, the server's reactor and
//! compute worker, the client — and the reference pass then share one
//! CPU. On a shared two-core machine an unpinned run migrates between
//! the cores as the neighbours come and go, and the serve round trip
//! changes with it: a wake-up on the other core costs an inter-core
//! hop that a wake-up on the same core does not. Pinned, the ops and
//! the reference pass see the same core's share of the machine.

const SET_WORDS: usize = 16; // a 1024-bit `cpu_set_t`

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and so every thread it starts later, to
/// the highest-numbered CPU it may run on; returns that CPU.
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    let mut mask = [0u64; SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu = (0..SET_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or_else(|| std::io::Error::other("no CPU in the affinity mask"))?;
    let mut one = [0u64; SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}
