//! Regenerate the matching-as-a-service load study and record its
//! measurements as `BENCH_serve.json` (schema version 2) in the working
//! directory. See `ldgm_bench::exp::ext_serve`.
//!
//! Usage: `ext_serve [--out PATH] [--clients N] [--updates N]
//!         [--duration-ms MS] [--throughput-clients A,B,...]
//!         [--window N] [DATASET...]`
//!
//! With no datasets the default three-graph subset is measured; naming a
//! subset (e.g. the CI smoke run) restricts it. `--duration-ms 0` skips
//! the throughput sweep. The written JSON is parsed back and
//! cross-checked against the in-memory records before the binary reports
//! success.

use ldgm_bench::datasets::by_name;
use ldgm_bench::exp::ext_serve::{run_on_with, StudyConfig, DATASETS};
use ldgm_bench::runner::{write_json_doc, ExtCli};
use ldgm_gpusim::json::Json;

fn parse_num<T: std::str::FromStr>(flag: &str, args: &mut dyn Iterator<Item = String>) -> T {
    let raw = args.next().unwrap_or_else(|| panic!("{flag} requires a value"));
    raw.parse().unwrap_or_else(|_| panic!("{flag}: bad value {raw:?}"))
}

fn main() {
    let mut cfg = StudyConfig::default();
    let mut cli = ExtCli::parse_env_with("BENCH_serve.json", |flag, args| match flag {
        "--clients" => {
            cfg.clients = parse_num(flag, args);
            true
        }
        "--updates" => {
            cfg.updates_per_client = parse_num(flag, args);
            true
        }
        "--duration-ms" => {
            cfg.duration_ms = parse_num(flag, args);
            true
        }
        "--window" => {
            cfg.window = parse_num(flag, args);
            true
        }
        "--throughput-clients" => {
            let raw = args.next().expect("--throughput-clients requires a list");
            cfg.throughput_clients = raw
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| s.parse().unwrap_or_else(|_| panic!("bad client count {s:?}")))
                .collect();
            true
        }
        _ => false,
    });
    assert!(cfg.clients > 0 && cfg.updates_per_client > 0 && cfg.window > 0, "zero-sized study");
    if cli.names.is_empty() {
        cli.names = DATASETS.iter().map(|s| s.to_string()).collect();
    }
    let datasets: Vec<_> = cli.names.iter().map(|n| by_name(n).expect("known dataset")).collect();

    let mut out = std::io::stdout().lock();
    let study = run_on_with(&datasets, &cfg, &mut out).expect("report write failed");

    // Round-trip check: what landed on disk parses back to the same rows.
    let parsed = write_json_doc(&cli.out_path, &study.to_json());
    assert_eq!(
        parsed.get("schema_version").and_then(Json::as_f64),
        Some(2.0),
        "document must carry the schema bump"
    );
    let rows = parsed.get("records").and_then(Json::as_array).expect("records array");
    assert_eq!(rows.len(), study.records.len(), "record count round-trips");
    for (row, rec) in rows.iter().zip(&study.records) {
        assert_eq!(row.get("dataset").and_then(Json::as_str), Some(rec.dataset.as_str()));
        assert_eq!(row.get("mean_batch").and_then(Json::as_f64), Some(rec.mean_batch));
        assert_eq!(row.get("replay_identical").and_then(Json::as_bool), Some(rec.replay_identical));
        assert!(rec.replay_identical, "{}: served matching diverged from replay", rec.dataset);
        assert!(rec.mean_batch > 1.0, "{}: no coalescing under load", rec.dataset);
    }
    let points = parsed.get("throughput").and_then(Json::as_array).expect("throughput array");
    assert_eq!(points.len(), study.throughput.len(), "throughput count round-trips");
    for (row, p) in points.iter().zip(&study.throughput) {
        assert_eq!(row.get("io").and_then(Json::as_str), Some("reactor"));
        let rps = row.get("rps").and_then(Json::as_f64).expect("rps recorded");
        assert!(rps > 0.0, "{} clients: zero throughput", p.clients);
        assert!(row.get("p99_us").and_then(Json::as_f64).is_some(), "p99 recorded");
        assert!(
            row.get("replay_identical").and_then(Json::as_bool) == Some(true),
            "{} clients: replay diverged",
            p.clients
        );
    }
    match study.speedup() {
        Some(s) => println!(
            "wrote {} ({} records, {} throughput points, reactor speedup {s:.1}x)",
            cli.out_path,
            study.records.len(),
            study.throughput.len()
        ),
        None => println!(
            "wrote {} ({} records, throughput sweep skipped)",
            cli.out_path,
            study.records.len()
        ),
    }
}
