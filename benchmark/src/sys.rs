//! What the run record says about the host: memory high-water marks,
//! load, core count, and the commit under test.

/// A process's peak resident set, MiB: `VmHWM` in `/proc/<pid>/status`.
/// Unlike `getrusage`'s `ru_maxrss`, it belongs to the running program
/// image alone, so it does not inherit the high-water mark of whatever
/// forked and exec'd the process (cargo, or this benchmark for its
/// children).
fn hwm_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set of this process, MiB.
pub fn self_rss_mb() -> f64 {
    hwm_mb("self").unwrap_or(0.0)
}

/// Peak resident set of each live child process of this one, MiB.
pub fn children_rss_mb() -> Vec<f64> {
    let me = std::process::id().to_string();
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.filter_map(|entry| {
        let pid = entry.ok()?.file_name().into_string().ok()?;
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
        // After the parenthesised command name come the state and the
        // parent's pid.
        let ppid = stat.rsplit_once(')')?.1.split_whitespace().nth(1)?;
        if ppid == me {
            hwm_mb(&pid)
        } else {
            None
        }
    })
    .collect()
}

/// `/proc/loadavg`'s three load averages, or `"unknown"`.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|| "unknown".into())
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `"unknown"` outside a git checkout.
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
