//! Host fingerprint and process I/O counters stamped into every run record,
//! so drift between runs and the machine a number came from stay visible.

use std::path::Path;

/// What the host looked like when the run started; `loadavg_end` is filled
/// in when it ends.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub parallelism: usize,
    pub cpu_model: String,
    pub loadavg_start: String,
    pub loadavg_end: String,
}

impl Fingerprint {
    pub fn capture() -> Self {
        Self {
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model(),
            loadavg_start: loadavg(),
            loadavg_end: String::new(),
        }
    }

    pub fn finish(&mut self) {
        self.loadavg_end = loadavg();
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The first three fields of `/proc/loadavg`.
fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}

/// Bytes this process has passed to `write`-family calls so far
/// (`wchar` of `/proc/self/io`); 0 where the file is unavailable.
pub fn write_chars() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("wchar:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.flatten()
        .map(|e| match e.metadata() {
            Ok(md) if md.is_dir() => dir_bytes(&e.path()),
            Ok(md) => md.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Minimal JSON string escaping for the run record.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
