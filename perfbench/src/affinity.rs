//! Team placement: each thread of a workload's team is bound to its own
//! CPU, as `OMP_PROC_BIND=spread` would bind an OpenMP team.
//!
//! `ompsim` leaves placement to the OS scheduler. On a small VM the
//! scheduler sometimes stacks both team threads on one CPU for seconds
//! at a time, and every step then runs about twice as slowly; which runs
//! hit that depends on the host, not on the code under test. Binding the
//! team from the outside (by thread name, after the pool exists) takes
//! that choice away. Load-generator threads stay unbound.

use std::fs;

const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// CPUs this process may run on, ascending.
#[cfg(target_os = "linux")]
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

#[cfg(not(target_os = "linux"))]
pub fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

/// Binds thread `tid` (0 = the calling thread) to `cpu`.
#[cfg(target_os = "linux")]
fn bind(tid: i32, cpu: usize) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed; a
    // stale `tid` only makes the call fail.
    unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn bind(_tid: i32, _cpu: usize) -> bool {
    false
}

/// Threads of this process: `(tid, name)`.
fn threads() -> Vec<(i32, String)> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|e| {
            let tid = e.file_name().to_str()?.parse().ok()?;
            let name = fs::read_to_string(e.path().join("comm")).ok()?;
            Some((tid, name.trim().to_string()))
        })
        .collect()
}

/// Binds the team: thread `master` (by name, or the calling thread when
/// `None`) to the first allowed CPU and `ompsim-worker-k` to the k-th,
/// wrapping. Returns the bindings made, for the run's notes.
pub fn bind_team(master: Option<&str>) -> Vec<String> {
    let cpus = allowed_cpus();
    if cpus.len() < 2 {
        return Vec::new();
    }
    let mut done = Vec::new();
    let mut place = |tid: i32, name: &str, slot: usize| {
        let cpu = cpus[slot % cpus.len()];
        if bind(tid, cpu) {
            done.push(format!("{name}->cpu{cpu}"));
        }
    };
    if master.is_none() {
        place(0, "caller", 0);
    }
    for (tid, name) in threads() {
        if Some(name.as_str()) == master {
            place(tid, &name, 0);
        } else if let Some(k) = name
            .strip_prefix("ompsim-worker-")
            .and_then(|k| k.parse::<usize>().ok())
        {
            place(tid, &name, k);
        }
    }
    done
}
