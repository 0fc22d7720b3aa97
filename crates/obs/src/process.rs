//! Process-level resource introspection (Linux `/proc`).
//!
//! Benches record peak RSS next to their latency/recall numbers so
//! memory claims are machine-checked rather than eyeballed. The kernel
//! tracks the high-water mark for us: `VmHWM` in `/proc/self/status` is
//! the peak resident set size since process start (monotone — a sweep
//! that measures after each stage sees the running maximum).

use std::fs;

/// Peak resident set size (`VmHWM`) of this process in bytes.
///
/// Returns `None` off-Linux or if `/proc/self/status` is unreadable or
/// has no `VmHWM` line. The kernel reports the value in kB.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb * 1024)
}

/// Current resident set size (`VmRSS`) of this process in bytes, if
/// available.
pub fn current_rss_bytes() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    parse_field_kb(&status, "VmRSS:").map(|kb| kb * 1024)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    parse_field_kb(status, "VmHWM:")
}

fn parse_field_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find(|l| l.starts_with(field))?.split_ascii_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_line() {
        let status = "Name:\tatnn\nVmPeak:\t  123 kB\nVmHWM:\t    4567 kB\nVmRSS:\t 4096 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(4567));
        assert_eq!(parse_field_kb(status, "VmRSS:"), Some(4096));
        assert_eq!(parse_field_kb("no such field", "VmHWM:"), None);
    }

    #[test]
    fn live_reading_is_positive_on_linux() {
        // Current first: sibling tests allocate concurrently, and only a
        // peak read *after* a residency reading is bound to cover it.
        let cur = current_rss_bytes();
        if let Some(bytes) = peak_rss_bytes() {
            assert!(bytes > 0);
            // Peak can never be below an earlier residency reading.
            if let Some(cur) = cur {
                assert!(bytes >= cur);
            }
        }
    }
}
