//! `mcheck` — CI runner for the in-tree concurrency model checker
//! (`pdes::mcheck`, compiled only under `--cfg mcheck`).
//!
//! Two modes:
//!
//! * default — run every protocol model (`ring`, `ring_spill`, `quiesce`,
//!   `barrier`, `window`) against the **unmutated** production code with
//!   its CI budget, print one summary line per model, and write a JSON
//!   artifact.
//!   Exit 1 if any model reports a violation or fails to exhaust its
//!   bounded state space (`complete = false` means the budget is too small
//!   to mean anything — fix the budget, don't ship a partial search).
//! * `--self-test` — activate each seeded mutation
//!   ([`pdes::mcheck::mutation`]) in turn, re-run the model that covers
//!   it, and require a violation with a non-empty interleaving trace.
//!   A surviving mutant means the checker would miss that bug class for
//!   real; exit 1.
//!
//! Build and run (the cfg lives behind its own target dir so the native
//! artifacts stay warm):
//!
//! ```sh
//! RUSTFLAGS="--cfg mcheck" CARGO_TARGET_DIR=target/mcheck \
//!     cargo run --release -p bench --bin mcheck -- --out=artifacts/mcheck.json
//! ```
//!
//! Flags: `--out=<path>` (default `artifacts/mcheck.json`),
//! `--model=<name>` (restrict to one model), `--self-test`.
//!
//! Without `--cfg mcheck` this binary is a stub that exits 2: the facade
//! inlines straight to `std` atomics in native builds, so there is nothing
//! to explore.

#[cfg(not(mcheck))]
fn main() {
    eprintln!(
        "mcheck: built without --cfg mcheck; rebuild with \
         RUSTFLAGS=\"--cfg mcheck\" CARGO_TARGET_DIR=target/mcheck"
    );
    std::process::exit(2);
}

#[cfg(mcheck)]
fn main() {
    use pdes::mcheck::models::{default_cfg, mutation_target, run_model, MODEL_NAMES};
    use pdes::mcheck::mutation;
    use std::fmt::Write as _;

    let mut out_path = String::from("artifacts/mcheck.json");
    let mut only: Option<String> = None;
    let mut self_test = false;
    for a in std::env::args().skip(1) {
        if let Some(v) = a.strip_prefix("--out=") {
            out_path = v.to_string();
        } else if let Some(v) = a.strip_prefix("--model=") {
            only = Some(v.to_string());
        } else if a == "--self-test" {
            self_test = true;
        } else {
            eprintln!("flags: --out=<path> --model=<name> --self-test");
            std::process::exit(2);
        }
    }

    let mut json = String::new();
    let mut failed = false;

    if self_test {
        // Every seeded bug must be caught by the model that claims to
        // cover it. `killed == true` for all of them is what CI asserts.
        json.push_str("{\n  \"mutations\": [\n");
        let all = mutation::all();
        for (i, &m) in all.iter().enumerate() {
            let target = mutation_target(m);
            mutation::set(Some(m));
            let report = run_model(target, &default_cfg(target)).expect("known model name");
            mutation::set(None);
            let killed = report.violation.is_some();
            match &report.violation {
                Some(v) => {
                    println!(
                        "mutation {m:<24?} killed by {target} as `{}` at schedule {}: {}",
                        v.kind, v.schedule, v.message
                    );
                    for step in &v.trace {
                        println!("    {step}");
                    }
                }
                None => eprintln!(
                    "mutation {m:?} SURVIVED {target} ({} schedules, complete={})",
                    report.schedules, report.complete
                ),
            }
            failed |= !killed;
            let (kind, sched) = report.violation.as_ref().map_or(("null".into(), 0), |v| {
                (format!("\"{}\"", v.kind), v.schedule)
            });
            let _ = writeln!(
                json,
                "    {{ \"mutation\": \"{m:?}\", \"model\": \"{target}\", \
                 \"killed\": {killed}, \"kind\": {kind}, \"schedule\": {sched}, \
                 \"schedules_explored\": {} }}{}",
                report.schedules,
                if i + 1 < all.len() { "," } else { "" }
            );
        }
        json.push_str("  ]\n}\n");
    } else {
        json.push_str("{\n  \"models\": [\n");
        let names: Vec<&str> = MODEL_NAMES
            .iter()
            .copied()
            .filter(|n| only.as_deref().is_none_or(|o| o == *n))
            .collect();
        if names.is_empty() {
            eprintln!("unknown --model; known: {MODEL_NAMES:?}");
            std::process::exit(2);
        }
        for (i, name) in names.iter().enumerate() {
            let report = run_model(name, &default_cfg(name)).expect("known model name");
            println!(
                "model {name:<10} {:>7} schedules  {:>8} transitions  \
                 {:>6} read-branches  complete={} in {} ms",
                report.schedules,
                report.transitions,
                report.read_branches,
                report.complete,
                report.wall_ms
            );
            if let Some(v) = &report.violation {
                eprintln!("VIOLATION [{}] in {name}: {}", v.kind, v.message);
                for step in &v.trace {
                    eprintln!("  {step}");
                }
                failed = true;
            } else if !report.complete {
                eprintln!(
                    "INCOMPLETE: {name} did not exhaust its bounded state space \
                     within budget"
                );
                failed = true;
            }
            let _ = writeln!(
                json,
                "    {}{}",
                report.to_json(),
                if i + 1 < names.len() { "," } else { "" }
            );
        }
        json.push_str("  ]\n}\n");
    }

    pdes::obs::json::validate(&json).expect("mcheck JSON failed self-validation");
    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create out dir");
        }
    }
    std::fs::write(&out_path, &json).expect("write mcheck json");
    println!("wrote {out_path}");

    if failed {
        std::process::exit(1);
    }
}
