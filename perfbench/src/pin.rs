//! Pin the whole benchmark process to one CPU.
//!
//! On the small shared VM this benchmark was built on, runs that spread
//! their threads over both vCPUs disagreed more than runs kept on one:
//! a fixed 2-thread scan loop gave medians from 18.9k to 26.5k docs/s
//! across processes, the same loop on one thread 13.2k to 14.9k, and in
//! `serve_read` runs made alternately pinned and unpinned in the same
//! minutes the worst spread of an end-to-end metric was 13% pinned
//! against 23% unpinned (numbers in `perfbench/README.md`). So every
//! thread the benchmark and the program start shares one CPU: the one
//! with the highest number the process may run on (the first CPU
//! usually takes the most device interrupts).
//!
//! Affinity is per thread and inherited by threads created later, so
//! [`pin_to_one_cpu`] must run before any thread is spawned.

/// Words of the affinity mask passed to the kernel: room for 1,024 CPUs.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
const MASK_WORDS: usize = 16;

/// `sched_setaffinity` (`set`) or `sched_getaffinity` of the calling
/// thread with `mask`; the kernel's return value (-errno on failure).
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn affinity_syscall(set: bool, mask: &mut [u64; MASK_WORDS]) -> isize {
    const SYS_SCHED_SETAFFINITY: usize = 203;
    const SYS_SCHED_GETAFFINITY: usize = 204;
    let number = if set {
        SYS_SCHED_SETAFFINITY
    } else {
        SYS_SCHED_GETAFFINITY
    };
    let ret: isize;
    // SAFETY: `number` is one of the two affinity calls, which on the
    // calling thread (pid 0) read or write at most `size_of_val(mask)`
    // bytes of `mask`, a live, exclusively borrowed buffer of that size.
    // The kernel returns -errno on failure.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") number as isize => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(mask),
            in("rdx") mask.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

/// Restrict the calling thread, and every thread it starts afterwards,
/// to the highest-numbered CPU it may run on. Returns that CPU.
///
/// # Errors
/// The kernel refused, or this platform has no implementation (only
/// x86-64 Linux has one).
pub fn pin_to_one_cpu() -> Result<usize, String> {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        let mut mask = [0u64; MASK_WORDS];
        let ret = affinity_syscall(false, &mut mask);
        if ret < 0 {
            return Err(format!("sched_getaffinity failed: errno {}", -ret));
        }
        let cpu = (0..MASK_WORDS * 64)
            .rev()
            .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
            .ok_or("sched_getaffinity returned an empty mask")?;
        let mut one = [0u64; MASK_WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        let ret = affinity_syscall(true, &mut one);
        if ret < 0 {
            return Err(format!(
                "sched_setaffinity to CPU {cpu} failed: errno {}",
                -ret
            ));
        }
        Ok(cpu)
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    {
        Err("pinning to one CPU is implemented for x86-64 Linux only".to_string())
    }
}
