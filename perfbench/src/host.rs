//! Process CPU time, peak memory and host/build metadata (Linux).

use std::process::Command;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user + sys) of every thread of this process, in seconds.
pub fn process_cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call; the clock id is a
    // constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Host CPU clock ticks so far, summed over all CPUs: (ticks in all
/// states, ticks stolen by the hypervisor), from the aggregate `cpu` line
/// of `/proc/stat` (zeros where it is unreadable).
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map_or(Vec::new(), |l| {
            l.split_whitespace()
                .take(8)
                .filter_map(|f| f.parse().ok())
                .collect()
        });
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0))
}

/// Share of host CPU time stolen between two [`cpu_ticks`] readings.
pub fn steal_share(from: (u64, u64), to: (u64, u64)) -> f64 {
    (to.1 - from.1) as f64 / (to.0 - from.0).max(1) as f64
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line present");
    kib / 1024.0
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Host and build description, as one JSON object. Ratios measured by
/// this benchmark are only comparable between runs with equal metadata.
pub fn metadata() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|v| v.split_once(':'))
        .map_or("unknown", |(_, m)| m.trim());
    let flags: Vec<&str> = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("flags"))
        .and_then(|v| v.split_once(':'))
        .map_or(Vec::new(), |(_, f)| f.split_whitespace().collect());
    let has = |f: &str| flags.contains(&f);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // The benchmark runs from the repository root; outside a git
    // checkout (an exported tree) there is no commit to report.
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| {
            Command::new("git")
                .args(["rev-parse", "HEAD"])
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map_or("unavailable (not a git checkout)".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": {}, \"aes\": {}, \"sha_ni\": {}, \"avx2\": {}, \
         \"rustc\": {}, \"commit\": {}, \"wire\": \"in-process (VirtualWire or direct calls), no real link, no loopback\"}}",
        json_str(model),
        has("aes"),
        has("sha_ni"),
        has("avx2"),
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
        json_str(&commit),
    )
}
