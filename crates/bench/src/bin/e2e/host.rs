//! What the harness reads off the host: process CPU time and peak memory
//! from `/proc`, the noise canary, and the fingerprint written into every
//! result file.

use std::hint::black_box;
use std::process::Command;
use std::time::{Duration, Instant};

use crate::json::Json;

/// Kernel clock ticks per second as exposed in `/proc/<pid>/stat`. Linux
/// reports these fields in `USER_HZ`, which is 100 on every supported
/// architecture; std has no `sysconf`, and the workspace no libc.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process (all threads) has consumed.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    let utime = ticks(fields.next());
    let stime = ticks(fields.next());
    (utime + stime) / USER_HZ
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The noise canary: a fixed single-thread integer loop (an xorshift
/// chain, so the iterations cannot be folded or vectorised away), timed.
/// On a quiet host it takes the same time every call; a co-tenant burst
/// shows up as a longer reading just before the run it would distort.
pub fn calibrate_s() -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15_u64);
    for _ in 0..60_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t0.elapsed().as_secs_f64()
}

/// Keeps every CPU busy for `seconds`. The host places and clocks the
/// vCPUs by their recent load: after an idle spell, or a spell with one
/// busy thread, the first tenths of a second in which two threads run at
/// once take about twice as long as they do just after both CPUs were busy
/// (measured: `t_pc50_s` of `movies-ed-static` 0.09 s against 0.04 s with
/// `wall_s` unchanged, the fast state outlasting a 36 s series of passes).
/// Every run starts with this, so that what the host did before the run
/// does not decide the run's ingest phase.
pub fn warm_up(seconds: f64) {
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    std::thread::scope(|scope| {
        for _ in 0..cpus {
            scope.spawn(|| {
                let mut x = black_box(0x9e37_79b9_7f4a_7c15_u64);
                while Instant::now() < until {
                    for _ in 0..100_000 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                    }
                }
                black_box(x);
            });
        }
    });
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// `nproc`, CPU model, kernel, rustc and git commit of this host and
/// checkout. Fields that cannot be read are `null` (the acceptance
/// checkout, for one, is not a git repository).
pub fn fingerprint() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|c| {
        c.lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
    });
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .ok()
        .map(|s| s.trim().to_string());
    let text = |v: Option<String>| v.map_or(Json::Null, Json::Str);
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64),
        ),
        ("cpu_model", text(cpu_model)),
        ("kernel", text(kernel)),
        ("rustc", text(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            text(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}
