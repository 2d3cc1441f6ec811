//! The ldgm benchmark: one workload per run, end-to-end metrics untraced
//! (`--trace 0`) or per-layer metrics from a traced run (`--trace 1`).
//!
//! ```text
//! perfbench --workload match|serve --seed N --seconds S --trace 0|1 [--out DIR]
//! perfbench compare BASE.json NEW.json
//! ```
//!
//! The benchmark generates every input from `--seed`, checks every
//! output, prints each metric by name and unit, writes the full result
//! (and, traced, the recorded spans) under `--out`, and prints the
//! one-line JSON result last. A failed check makes it exit nonzero.
//! `compare` prints the change in every metric of two result files.

mod dyn_replay;
mod report;
mod stats;
mod sys;
mod trace;
mod wl_match;
mod wl_serve;

use std::path::PathBuf;
use std::process::ExitCode;

use ldgm_bench::datasets::by_name;
use ldgm_graph::rng::splitmix64;
use ldgm_graph::weights::reweight_uniform;
use ldgm_graph::CsrGraph;

use report::RunResult;
use trace::Tracer;

/// The workloads, by name.
const WORKLOADS: &[&str] = &["match", "serve"];

/// Derive a stream seed from a recipe seed and the run's seed.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut s = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut s)
}

/// A registry stand-in with the recipe's own topology and edge weights
/// drawn afresh (the paper's uniform scheme) from the run's seed. The
/// topology stays fixed so properties the workloads rely on, such as how
/// many batches a graph needs per device, hold for every seed.
pub fn stand_in(name: &str, seed: u64) -> CsrGraph {
    let d = by_name(name).expect("registry stand-in");
    reweight_uniform(&d.build(), mix(d.seed, seed))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from("perfbench/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num =
            |v: &str| v.parse::<u64>().map_err(|_| format!("{flag}: '{v}' is not a whole number"));
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => {
                return Err(format!("unknown workload '{value}' (valid: {})", WORKLOADS.join(", ")))
            }
            "--seed" => seed = Some(num(&value)?),
            "--seconds" if num(&value)? >= 1 => seconds = Some(num(&value)?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err("--trace takes 0 or 1".into()),
            },
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown or invalid option {flag} {value}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds (at least 1) is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match compare_files(&argv[1..]) {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let seconds = args.seconds as f64;
    let mut tr = Tracer::new(args.trace);
    let mut out = RunResult::new(&args.workload, args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "match" => wl_match::run(args.seed, seconds, &mut tr, &mut out),
        "serve" => wl_serve::run(args.seed, seconds, &mut tr, &mut out),
        _ => unreachable!("workload names are checked when parsed"),
    }
    // A layer this workload does not exercise did no work here.
    if args.trace {
        for &(name, _) in report::PER_LAYER {
            if !out.metrics.contains_key(name) {
                out.set(name, 0.0);
            }
        }
    }

    let stem = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    if let Err(e) = write_files(&args.out, &stem, &out, &tr) {
        out.fail(format!("could not write results under {}: {e}", args.out.display()));
    }

    for &(name, unit) in out.catalog() {
        let Some(v) = out.metrics.get(name) else {
            println!("{name:<32} MISSING");
            continue;
        };
        let n = v.n.map(|n| format!(" n={n}")).unwrap_or_default();
        let tail = v.tail.map(|(p, t)| format!(" p{p}={t:.6}")).unwrap_or_default();
        let base = v.base.as_deref().map(|b| format!("  [{b}]")).unwrap_or_default();
        println!("{name:<32} {:>16.6} {unit}{n}{tail}{base}", v.value);
    }
    println!(
        "{:<32} {:>16.6} ratio ({} of {})",
        "failed_frac",
        out.failed_frac(),
        out.failed,
        out.attempted
    );
    for f in &out.failures {
        println!("FAILED: {f}");
    }
    let line = out.result_line();
    println!("{}", line.to_string_compact());
    if line.get("correct").and_then(ldgm_gpusim::Json::as_bool) == Some(true) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Write the result file and, for a traced run, the spans.
fn write_files(
    dir: &std::path::Path,
    stem: &str,
    out: &RunResult,
    tr: &Tracer,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(format!("{stem}.json")), out.to_json().to_string_pretty())?;
    if tr.enabled() {
        std::fs::write(dir.join(format!("{stem}-spans.json")), tr.to_json().to_string_compact())?;
    }
    Ok(())
}

fn compare_files(paths: &[String]) -> Result<String, String> {
    let [base, new] = paths else {
        return Err("usage: perfbench compare BASE.json NEW.json".into());
    };
    let load = |p: &String| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        RunResult::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    Ok(report::compare(&load(base)?, &load(new)?))
}

#[cfg(test)]
mod tests {
    use ldgm_gpusim::json::{self, Json};

    fn doc(file: &str) -> Json {
        let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
        json::parse(&std::fs::read_to_string(&path).expect(&path)).expect(&path)
    }

    fn names(doc: &Json) -> Vec<String> {
        let list = doc.get("workloads").and_then(Json::as_array).expect("workloads");
        list.iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name").to_string())
            .collect()
    }

    #[test]
    fn workload_record_covers_every_workload() {
        let bench = doc("../BENCHMARK.json");
        let record = doc("workloads.json");
        assert_eq!(names(&bench), super::WORKLOADS);
        assert_eq!(names(&record), super::WORKLOADS);
        for w in record.get("workloads").and_then(Json::as_array).unwrap() {
            for key in
                ["why", "inputs", "setup", "timed", "metrics", "checks", "stresses", "control_for"]
            {
                assert!(w.get(key).is_some(), "{key} missing from {w:?}");
            }
            let metrics = w.get("metrics").unwrap();
            for &(name, _) in crate::report::END_TO_END.iter().filter(|(n, _)| *n != "setup_s") {
                assert!(metrics.get(name).is_some(), "{name} undefined for {w:?}");
            }
        }
    }

    #[test]
    fn seeds_mix_both_inputs() {
        assert_ne!(super::mix(1, 2), super::mix(1, 3));
        assert_ne!(super::mix(1, 2), super::mix(2, 2));
        assert_eq!(super::mix(7, 9), super::mix(7, 9));
    }
}
