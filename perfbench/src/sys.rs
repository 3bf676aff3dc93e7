//! The few operating-system calls the benchmark needs beyond `std`:
//! a wait on the client sockets with a sub-millisecond timeout, and
//! peak memory and stolen CPU time read from `/proc`.

use std::os::fd::RawFd;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x001;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Block until one of `fds` is readable or `timeout` passes. Interrupts
/// and other errors just return: the caller re-checks everything anyway.
pub fn wait_readable(fds: &[RawFd], timeout: Duration) {
    let mut polls: Vec<PollFd> =
        fds.iter().map(|&fd| PollFd { fd, events: POLLIN, revents: 0 }).collect();
    let ts =
        Timespec { tv_sec: timeout.as_secs() as i64, tv_nsec: i64::from(timeout.subsec_nanos()) };
    // SAFETY: `polls` is a live, exclusively borrowed array of
    // `polls.len()` pollfd structs and `ts` a valid timespec, both
    // outliving the call; a null sigmask leaves the mask unchanged.
    unsafe {
        ppoll(polls.as_mut_ptr(), polls.len() as u64, &ts, std::ptr::null());
    }
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Pids of this process's live children whose command name is `comm`.
pub fn children_named(comm: &str) -> Vec<String> {
    let me = std::process::id().to_string();
    let Ok(dir) = std::fs::read_dir("/proc") else { return Vec::new() };
    dir.filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|pid| pid.bytes().all(|b| b.is_ascii_digit()))
        .filter(|pid| {
            let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
                return false;
            };
            // `pid (comm) state ppid ...`; comm may itself hold spaces.
            let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else {
                return false;
            };
            let ppid = stat[close + 1..].split_whitespace().nth(1);
            &stat[open + 1..close] == comm && ppid == Some(me.as_str())
        })
        .collect()
}

/// Cumulative CPU time, summed over CPUs, in clock ticks: (stolen by
/// the hypervisor for other guests, total). `None` off Linux.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let fields: Vec<u64> = line.split_whitespace().filter_map(|f| f.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Share of CPU time stolen between two [`cpu_ticks`] readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}
