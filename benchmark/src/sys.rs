//! Host readings: CPU time of the process tree, peak resident memory,
//! steal time, and a fixed spin kernel — the cost metrics and the
//! canaries that tell a contaminated run from a regression.
//!
//! Everything comes from `/proc` except the benchmark's own CPU clock,
//! which needs nanosecond resolution per pass (`/proc/self/stat` ticks
//! are 10 ms) and is read with `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// Linux `_SC_CLK_TCK`.
const SC_CLK_TCK: i32 = 2;

/// CPU time (user + system, all threads) this process has consumed, ns.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) that outlives the call, and
    // the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Kernel clock ticks per second (the unit of `/proc/<pid>/stat` times).
pub fn clock_ticks_per_s() -> u64 {
    // SAFETY: `sysconf` takes a plain integer and touches no memory of
    // ours.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as u64
    } else {
        100
    }
}

/// `(ppid, utime + stime in ticks)` from one `/proc/<pid>/stat` line.
/// The command name (field 2) may itself contain spaces and parentheses,
/// so fields are counted from the *last* `)`.
pub fn parse_stat(line: &str) -> Option<(u32, u64)> {
    let rest = &line[line.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    // after the command: state(0) ppid(1) ... utime(11) stime(12)
    let ppid = fields.get(1)?.parse().ok()?;
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((ppid, utime + stime))
}

/// A `kB` field (`VmHWM`, `VmRSS`, ...) from `/proc/<pid>/status` text.
pub fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// `(steal, total)` jiffies from the aggregate `cpu` line of `/proc/stat`.
pub fn parse_proc_stat(text: &str) -> Option<(u64, u64)> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_ascii_whitespace()
        .skip(1)
        .map_while(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user/nice
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Pids whose parent is this process (the fleet's worker processes).
pub fn child_pids() -> Vec<u32> {
    let me = std::process::id();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut pids: Vec<u32> = entries
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            std::fs::read_to_string(format!("/proc/{pid}/stat"))
                .ok()
                .and_then(|s| parse_stat(&s))
                .is_some_and(|(ppid, _)| ppid == me)
        })
        .collect();
    pids.sort_unstable();
    pids
}

/// Summed CPU time of `pids`, ns at tick resolution (a vanished pid
/// counts zero — a clean run loses no worker, and the verifier fails the
/// run when one restarts).
pub fn children_cpu_ns(pids: &[u32]) -> u64 {
    let ticks: u64 = pids
        .iter()
        .filter_map(|pid| std::fs::read_to_string(format!("/proc/{pid}/stat")).ok())
        .filter_map(|s| parse_stat(&s))
        .map(|(_, ticks)| ticks)
        .sum();
    ticks * 1_000_000_000 / clock_ticks_per_s()
}

/// Peak resident set (`VmHWM`) of this process plus `pids`, in MB.
pub fn peak_rss_mb(pids: &[u32]) -> f64 {
    let hwm = |path: String| {
        std::fs::read_to_string(path)
            .ok()
            .and_then(|s| parse_status_kb(&s, "VmHWM"))
            .unwrap_or(0)
    };
    let kb = hwm("/proc/self/status".to_string())
        + pids
            .iter()
            .map(|pid| hwm(format!("/proc/{pid}/status")))
            .sum::<u64>();
    kb as f64 / 1024.0
}

/// `(steal, total)` jiffies right now; `(0, 0)` where `/proc/stat` is
/// unreadable.
pub fn steal_now() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_proc_stat(&s))
        .unwrap_or((0, 0))
}

/// Steal share of the host's CPU time between two [`steal_now`] readings,
/// in percent.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
}

/// The calibration kernel: a fixed dependent-arithmetic spin (about a
/// millisecond). Its time moves only when the host does — frequency,
/// steal, a co-tenant on the sibling thread — never with the program.
pub fn calib_spin_ms() -> f64 {
    let start = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..1_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_hostile_command_name() {
        let line = "4242 (a b) c) S 17 4242 4242 0 -1 4194560 100 0 0 0 \
                    250 50 0 0 20 0 3 0 1000 1 2";
        assert_eq!(parse_stat(line), Some((17, 300)));
        assert_eq!(parse_stat("garbage"), None);
        assert_eq!(parse_stat("1 (x) S 2"), None);
    }

    #[test]
    fn status_field_lookup() {
        let status = "Name:\tslbench\nVmPeak:\t  9000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(12345));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(1));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        // a prefix of another field's name must not match it
        assert_eq!(parse_status_kb(status, "Vm"), None);
    }

    #[test]
    fn proc_stat_steal_and_total() {
        let text = "cpu  10 20 30 400 5 6 7 22 3 4\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_proc_stat(text), Some((22, 500)));
        assert_eq!(parse_proc_stat("intr 1 2 3\n"), None);
        assert_eq!(steal_pct((0, 0), (22, 500)), 4.4);
        assert_eq!(steal_pct((5, 100), (5, 100)), 0.0);
    }

    #[test]
    fn own_readings_are_live() {
        let before = process_cpu_ns();
        let spin = calib_spin_ms();
        assert!(spin > 0.0);
        assert!(process_cpu_ns() > before, "the spin burned CPU time");
        assert!(peak_rss_mb(&[]) > 0.0);
        assert!(clock_ticks_per_s() > 0);
    }

    #[test]
    fn child_cpu_reader_sees_a_real_child() {
        let mut child = std::process::Command::new("sleep")
            .arg("5")
            .spawn()
            .expect("spawn sleep");
        let pids = child_pids();
        assert!(pids.contains(&child.id()), "{pids:?} lacks {}", child.id());
        // a sleeping child has used next to nothing, but the file parses
        assert!(children_cpu_ns(&[child.id()]) < 1_000_000_000);
        assert!(peak_rss_mb(&[child.id()]) > peak_rss_mb(&[]) - 1e-9);
        child.kill().expect("kill sleep");
        child.wait().expect("reap sleep");
    }
}
