//! Process and host readings from `/proc`, and the order statistics the
//! metrics are built from.

use std::fs;

/// Clock ticks per second of `/proc/stat` and `/proc/self/stat`
/// (`USER_HZ`, 100 on every Linux architecture this runs on).
const TICKS_PER_S: f64 = 100.0;

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Steal time summed over the host's vCPUs, in seconds since boot.
pub fn host_steal_s() -> Option<f64> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    let steal: f64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal / TICKS_PER_S)
}

/// Field `n` (1-based, as in proc(5)) of `/proc/self/stat`.
fn self_stat_field(n: usize) -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // Fields resume after the parenthesised command name (field 2).
    let rest = &stat[stat.rfind(')')? + 2..];
    rest.split_whitespace().nth(n.checked_sub(3)?)?.parse().ok()
}

/// User plus system CPU time of this process, in seconds.
pub fn process_cpu_s() -> Option<f64> {
    Some((self_stat_field(14)? + self_stat_field(15)?) / TICKS_PER_S)
}

/// Minor page faults of this process so far.
pub fn minor_faults() -> Option<f64> {
    self_stat_field(10)
}

/// The CPUs this process may run on, as `/proc/self/status` lists them
/// (`Cpus_allowed_list`, for example `0-1` or `3`).
pub fn allowed_cpus() -> Option<String> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status
        .lines()
        .find(|l| l.starts_with("Cpus_allowed_list:"))?;
    Some(line.split_whitespace().nth(1)?.to_string())
}

/// Restrict this process to the last CPU it may run on, with the
/// `taskset` program; threads started afterwards inherit the
/// restriction. Call it before any thread starts. Returns the CPU, or
/// why the process stays unrestricted.
pub fn pin_to_one_cpu() -> Result<String, String> {
    let allowed = allowed_cpus().ok_or("no Cpus_allowed_list")?;
    let last = allowed
        .rsplit([',', '-'])
        .next()
        .filter(|cpu| cpu.parse::<u32>().is_ok())
        .ok_or_else(|| format!("unreadable CPU list {allowed:?}"))?
        .to_string();
    let status = std::process::Command::new("taskset")
        .args(["-p", "-c", &last, &std::process::id().to_string()])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("taskset: {e}"))?;
    if !status.success() {
        return Err(format!("taskset: {status}"));
    }
    match allowed_cpus() {
        Some(now) if now == last => Ok(last),
        now => Err(format!("still allowed on {now:?}")),
    }
}

/// Set in the child that measures; see [`run_measuring_child`].
pub const MEASURING: &str = "SERVEBENCH_MEASURING";

/// The glibc setting the measuring child runs with: one malloc arena for
/// all threads.
const ONE_ARENA: &str = "glibc.malloc.arena_max=1";

/// Run this program again with the same arguments, as the process that
/// measures: [`MEASURING`] set, and glibc's malloc limited to one arena
/// (added to any `GLIBC_TUNABLES` already set). Waits for the child and
/// returns its exit code, 1 if it could not start or was killed.
///
/// With the default arenas, each server's worker allocates from an
/// arena of its own, and whole processes of one seed came out in one of
/// two speeds 10% apart; with one arena, they agree.
pub fn run_measuring_child() -> i32 {
    let tunables = match std::env::var("GLIBC_TUNABLES") {
        Ok(set) if !set.is_empty() => format!("{set}:{ONE_ARENA}"),
        _ => ONE_ARENA.to_string(),
    };
    let child = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .args(std::env::args_os().skip(1))
            .env(MEASURING, "1")
            .env("GLIBC_TUNABLES", tunables)
            .status()
    });
    match child {
        Ok(status) => status.code().unwrap_or(1),
        Err(e) => {
            eprintln!("servebench: could not start the measuring process: {e}");
            1
        }
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (`q` in `[0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "quantile of no values");
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.5), 50.0);
    }

    #[test]
    fn proc_readings_are_available() {
        assert!(peak_rss_mib().unwrap() > 0.0);
        assert!(host_steal_s().unwrap() >= 0.0);
        assert!(process_cpu_s().unwrap() >= 0.0);
        assert!(minor_faults().unwrap() > 0.0);
        assert!(!allowed_cpus().unwrap().is_empty());
    }
}
