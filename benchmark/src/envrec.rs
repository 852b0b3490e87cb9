//! `env.json`: where and with what a set of numbers was measured.

use std::process::Command;

use crate::workloads::WORKLOADS;

/// Refuse to run when any `PDES_*` variable is set: `EngineConfig::new`
/// seeds observability, audit, checkpointing and GVT mode from them, and
/// caches the answer for the life of the process.
pub fn refuse_pdes_variables() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PDES_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "unset {} first: the benchmark measures one fixed configuration",
            set.join(", ")
        ))
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// First line of a command's stdout, or "unknown" (the benchmark also runs
/// from exported trees that are not git repositories).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `L1 Data 48K`-style descriptions of cpu0's caches.
fn caches() -> Vec<String> {
    let read = |i: usize, f: &str| {
        std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/{f}"))
            .map(|s| s.trim().to_string())
    };
    (0..8)
        .map_while(|i| {
            Some(format!(
                "L{} {} {}",
                read(i, "level").ok()?,
                read(i, "type").ok()?,
                read(i, "size").ok()?
            ))
        })
        .collect()
}

/// Render the environment record.
pub fn env_json(seed: u64, suite_wall_s: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let caches: Vec<String> = caches()
        .iter()
        .map(|c| format!("\"{}\"", escape(c)))
        .collect();
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("\"{}\":\"{}\"", w.name, escape(&w.describe())))
        .collect();
    // `run.sh` pins this; a bare run of the binary leaves glibc adapting.
    let mmap_threshold =
        std::env::var("MALLOC_MMAP_THRESHOLD_").unwrap_or_else(|_| "adaptive".to_string());
    let out = format!(
        "{{\"nproc\":{nproc},\"hardware_threads\":{nproc},\"cpu_model\":\"{}\",\"caches\":[{}],\
         \"rustc\":\"{}\",\"git_commit\":\"{}\",\"malloc_mmap_threshold\":\"{}\",\"seed\":{seed},\
         \"workloads\":{{{}}},\"suite_wall_s\":{suite_wall_s}}}\n",
        escape(&cpu_model()),
        caches.join(","),
        escape(&first_line_of("rustc", &["-V"])),
        escape(&first_line_of("git", &["rev-parse", "HEAD"])),
        escape(&mmap_threshold),
        workloads.join(","),
    );
    pdes::obs::json::validate(&out).expect("env.json must validate");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_record_is_valid_json_with_the_promised_fields() {
        let doc = pdes::obs::json::parse(&env_json(7, 1.5)).unwrap();
        for key in [
            "nproc",
            "cpu_model",
            "caches",
            "rustc",
            "git_commit",
            "seed",
            "workloads",
            "suite_wall_s",
        ] {
            assert!(doc.get(key).is_some(), "env.json lacks {key}");
        }
        assert_eq!(doc.u64_field("seed"), Some(7));
        assert!(doc.get("workloads").unwrap().get("phold_tw2").is_some());
    }

    #[test]
    fn escape_handles_quotes_and_backslashes() {
        assert_eq!(escape(r#"a"b\c"#), r#"a\"b\\c"#);
    }
}
