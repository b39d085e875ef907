//! The host record printed with every run: cores, team and generator
//! widths, cache sizes, and the workload's working set next to them.

use std::fs;

/// Size in bytes of the level-`level` data or unified cache of CPU 0,
/// from sysfs; `None` where sysfs does not say.
pub fn cache_bytes(level: u32) -> Option<u64> {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    fs::read_dir(base).ok()?.flatten().find_map(|entry| {
        let dir = entry.path();
        let read = |f: &str| fs::read_to_string(dir.join(f)).ok();
        let lvl: u32 = read("level")?.trim().parse().ok()?;
        let kind = read("type")?;
        if lvl != level || kind.trim() == "Instruction" {
            return None;
        }
        parse_size(read("size")?.trim())
    })
}

/// Parses a sysfs cache size such as `2048K` or `300M`.
pub fn parse_size(s: &str) -> Option<u64> {
    let (num, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1u64 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().ok().map(|n| n * mult)
}

/// The host record of one run, as one JSON object.
pub fn record(workload: &str, team: usize, gen_threads: usize, working_set: u64) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let l2 = cache_bytes(2);
    let l3 = cache_bytes(3);
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |b| b.to_string());
    let ratio = |v: Option<u64>| {
        v.map_or("null".to_string(), |b| {
            format!("{:.2}", working_set as f64 / b as f64)
        })
    };
    format!(
        "{{\"workload\":\"{workload}\",\"available_parallelism\":{cores},\"team_width\":{team},\
\"load_generator_threads\":{gen_threads},\"oversubscribed\":{},\"l2_bytes\":{},\"l3_bytes\":{},\
\"working_set_bytes_computed\":{working_set},\"working_set_over_l2\":{},\"working_set_over_l3\":{}}}",
        team > cores || gen_threads > cores,
        opt(l2),
        opt(l3),
        ratio(l2),
        ratio(l3),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_parse() {
        assert_eq!(parse_size("2048K"), Some(2 << 20));
        assert_eq!(parse_size("300M"), Some(300 << 20));
        assert_eq!(parse_size("64"), Some(64));
        assert_eq!(parse_size("x"), None);
    }
}
