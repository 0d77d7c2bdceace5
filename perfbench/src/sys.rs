//! Process gauges read from `/proc` (Linux).

/// Kernel clock ticks per second for `/proc/<pid>/stat` CPU times
/// (`USER_HZ`, fixed at 100 on Linux).
const TICKS_PER_SECOND: f64 = 100.0;

fn status_path(pid: Option<u32>) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    }
}

/// A `kB` field (`VmHWM`, `VmRSS`, ...) of a process's status, in MB
/// (10^6 bytes); `pid` `None` is this process.
fn status_mb(pid: Option<u32>, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path(pid)).ok()?;
    parse_status_kb(&status, field).map(|kb| kb as f64 * 1024.0 / 1e6)
}

fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    status_mb(pid, "VmHWM").unwrap_or(0.0)
}

/// Current resident set size (`VmRSS`) in MB.
pub fn rss_mb(pid: Option<u32>) -> f64 {
    status_mb(pid, "VmRSS").unwrap_or(0.0)
}

/// User plus system CPU seconds a process has consumed.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    parse_stat_cpu_ticks(&stat).map(|ticks| ticks as f64 / TICKS_PER_SECOND)
}

fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after it.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_and_stat_fields_parse() {
        let status = "Name:\thybridd\nVmHWM:\t  828000 kB\nVmRSS:\t  500 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(828_000));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(500));
        assert_eq!(parse_status_kb(status, "VmPeak"), None);
        let stat = "42 (my (odd) name) S 1 42 42 0 -1 4194560 100 0 0 0 250 30 0 0 20 0 4 0";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(280));
    }

    #[test]
    fn this_process_has_a_resident_set() {
        assert!(peak_rss_mb(None) > 0.0);
        assert!(rss_mb(None) > 0.0);
        assert!(cpu_seconds(std::process::id()).is_some());
    }
}
