//! CPU time and memory read from `/proc`.
//!
//! `utime`/`stime` in `/proc/*/stat` count in clock ticks of
//! `USER_HZ`, which Linux fixes at 100 for the `/proc` interface, so one
//! tick is 10 ms.

use std::fs;

const MS_PER_TICK: u64 = 10;

/// `utime + stime` of a `stat` file, in milliseconds.
fn stat_cpu_ms(path: &str) -> u64 {
    let Ok(text) = fs::read_to_string(path) else {
        return 0;
    };
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let Some(close) = text.rfind(')') else {
        return 0;
    };
    let fields: Vec<&str> = text[close + 1..].split_whitespace().collect();
    let field = |i: usize| {
        fields
            .get(i)
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (field(11) + field(12)) * MS_PER_TICK
}

/// User plus system CPU of the whole process, in milliseconds.
pub fn process_cpu_ms() -> u64 {
    stat_cpu_ms("/proc/self/stat")
}

/// User plus system CPU of the calling thread, in milliseconds.
pub fn thread_cpu_ms() -> u64 {
    stat_cpu_ms("/proc/thread-self/stat")
}

/// Peak resident set size (`VmHWM`) of the process, in KiB.
pub fn vm_hwm_kb() -> u64 {
    let Ok(text) = fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    text.lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        assert!(vm_hwm_kb() > 0);
        // CPU may legitimately read zero this early; the reads must parse.
        let _ = (process_cpu_ms(), thread_cpu_ms());
    }
}
