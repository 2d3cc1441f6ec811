//! Metric catalog, per-run result file, and the one-line result.
//!
//! The catalog is the single list of metric names and units the
//! benchmark emits; `BENCHMARK.json` lists the same names (a test checks
//! that the two agree). A run's result file holds every metric it
//! measured with its sample count, tail percentile and ratio base, so two
//! runs can be compared metric by metric (`run.py compare`).

use std::collections::BTreeMap;

use ldgm_gpusim::json::{self, Json};

/// End-to-end metrics, reported by every workload (`--trace 0`). The
/// `a`/`b` pair names the workload's two operation classes: `match`
/// a = `ld-gpu`, b = `ld-gpu-opt`; `serve` a = `mate` reads, b =
/// `update` writes.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("host_a_us", "us"),
    ("host_b_us", "us"),
    ("rate_per_s", "1/s"),
    ("billed_a_ms", "ms"),
    ("billed_b_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload (`--trace 1`). A layer a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.mtx_parse_s", "s"),
    ("graph.mtx_mb_per_s", "MB/s"),
    ("graph.sorted_build_s", "s"),
    ("part.plan_s", "s"),
    ("part.batches", "count"),
    ("core.run_s.AGATHA-2015", "s"),
    ("core.run_s.uk-2007-05", "s"),
    ("core.run_s.kmer_U1a", "s"),
    ("core.run_opt_s.AGATHA-2015", "s"),
    ("core.run_opt_s.uk-2007-05", "s"),
    ("core.run_opt_s.kmer_U1a", "s"),
    ("core.set_pointers_s", "s"),
    ("core.set_mates_s", "s"),
    ("core.set_pointers_ns_per_edge", "ns"),
    ("core.driver_self_s", "s"),
    ("core.driver_self_opt_s", "s"),
    ("core.ld_seq_s", "s"),
    ("core.iterations", "count"),
    ("core.edges_scanned", "count"),
    ("core.pointers_set", "count"),
    ("core.edges_committed", "count"),
    ("core.pointer_yield", "ratio"),
    ("core.edges_scanned_opt", "count"),
    ("core.edges_skipped", "count"),
    ("core.skip_ratio", "ratio"),
    ("gpusim.collective_bytes", "B"),
    ("gpusim.allreduce_calls", "count"),
    ("gpusim.kernel_bytes_moved", "B"),
    ("gpusim.trace_events", "count"),
    ("gpusim.finish_s", "s"),
    ("dyn.setup_s", "s"),
    ("dyn.apply_us.b16", "us"),
    ("dyn.apply_us.b16.tail", "us"),
    ("dyn.apply_us.b1024", "us"),
    ("dyn.apply_us.b1024.tail", "us"),
    ("dyn.delta_ns_per_update", "ns"),
    ("dyn.stabilize_self_us.b16", "us"),
    ("dyn.stabilize_self_us.b1024", "us"),
    ("dyn.compact_ms", "ms"),
    ("dyn.seed_frontier", "count"),
    ("dyn.rounds", "count"),
    ("dyn.new_matches", "count"),
    ("dyn.broken_matches", "count"),
    ("dyn.match_yield", "ratio"),
    ("dyn.compactions", "count"),
    ("dyn.rss_kb_per_batch", "KiB"),
    ("serve.tune_s", "s"),
    ("serve.split_ns", "ns"),
    ("serve.parse_mate_ns", "ns"),
    ("serve.parse_json_ns", "ns"),
    ("serve.serialize_ns", "ns"),
    ("serve.mate_ns", "ns"),
    ("serve.admit_us", "us"),
    ("serve.flush_us", "us"),
    ("serve.snapshot_us", "us"),
    ("serve.mean_batch", "count"),
    ("serve.coalesce_ratio", "ratio"),
    ("serve.flushes", "count"),
    ("serve.deadline_flushes", "count"),
    ("serve.backpressure_stalls", "count"),
    ("serve.read_p99_us", "us"),
    ("serve.read_p999_us", "us"),
    ("serve.write_p99_us", "us"),
    ("loadgen.late_p50_us", "us"),
    ("loadgen.late_max_us", "us"),
    ("trace.overhead_frac", "ratio"),
];

/// Whether `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Whether `unit` is a valid unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
#[cfg(test)]
fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

/// The unit the catalog gives `name`.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map(|&(_, u)| u)
}

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Value {
    /// The number, in `unit`.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Samples behind a median.
    pub n: Option<usize>,
    /// `(p, value)`: the highest percentile with at least ten samples
    /// beyond it.
    pub tail: Option<(f64, f64)>,
    /// What a ratio is a ratio of, or how a value was derived.
    pub base: Option<String>,
}

impl Value {
    /// A plain value.
    pub fn new(value: f64, unit: &str) -> Value {
        Value { value, unit: unit.to_string(), n: None, tail: None, base: None }
    }

    /// Attach a sample count.
    pub fn samples(mut self, n: usize) -> Value {
        self.n = Some(n);
        self
    }

    /// Attach a tail percentile.
    pub fn tail(mut self, tail: Option<(f64, f64)>) -> Value {
        self.tail = tail;
        self
    }

    /// Attach a ratio base or derivation.
    pub fn base(mut self, base: impl Into<String>) -> Value {
        self.base = Some(base.into());
        self
    }

    fn to_json(&self) -> Json {
        let mut j = Json::object().with("value", self.value).with("unit", self.unit.clone());
        if let Some(n) = self.n {
            j.set("n", n);
        }
        if let Some((p, v)) = self.tail {
            j.set("tail", Json::object().with("p", p).with("value", v));
        }
        if let Some(b) = &self.base {
            j.set("base", b.clone());
        }
        j
    }

    fn from_json(j: &Json) -> Result<Value, String> {
        let value = j.get("value").and_then(Json::as_f64).ok_or("metric without a value")?;
        let unit = j.get("unit").and_then(Json::as_str).ok_or("metric without a unit")?;
        let tail = match j.get("tail") {
            Some(t) => Some((
                t.get("p").and_then(Json::as_f64).ok_or("tail without p")?,
                t.get("value").and_then(Json::as_f64).ok_or("tail without value")?,
            )),
            None => None,
        };
        Ok(Value {
            value,
            unit: unit.to_string(),
            n: j.get("n").and_then(Json::as_f64).map(|n| n as usize),
            tail,
            base: j.get("base").and_then(Json::as_str).map(str::to_string),
        })
    }
}

/// Everything one run measured.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds asked for.
    pub seconds: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations (and output checks) that failed.
    pub failed: u64,
    /// Why checks failed, one line each.
    pub failures: Vec<String>,
    /// Every metric measured, by name.
    pub metrics: BTreeMap<String, Value>,
}

impl RunResult {
    /// An empty result for one run.
    pub fn new(workload: &str, seed: u64, seconds: u64, trace: bool) -> RunResult {
        RunResult {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: BTreeMap::new(),
        }
    }

    /// Record a metric; a catalog name takes the catalog's unit.
    pub fn put(&mut self, name: &str, value: Value) {
        assert!(valid_name(name), "invalid metric name {name}");
        if let Some(unit) = unit_of(name) {
            assert_eq!(value.unit, unit, "unit of {name}");
        }
        self.metrics.insert(name.to_string(), value);
    }

    /// Record a plain catalog metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("{name} is not in the catalog"));
        self.put(name, Value::new(value, unit));
    }

    /// Count one attempted operation, failed when `ok` is false.
    pub fn attempt(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Record a failed operation or output check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        // Keep the file readable when a defect fails every operation.
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// `failed / attempted`.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The full result file.
    pub fn to_json(&self) -> Json {
        let mut metrics = Json::object();
        for (k, v) in &self.metrics {
            metrics.set(k.clone(), v.to_json());
        }
        Json::object()
            .with("workload", self.workload.clone())
            .with("seed", self.seed as f64)
            .with("seconds", self.seconds as f64)
            .with("trace", self.trace)
            .with("correct", self.correct())
            .with("attempted", self.attempted as f64)
            .with("failed", self.failed as f64)
            .with("failed_frac", self.failed_frac())
            .with("failures", Json::Array(self.failures.iter().cloned().map(Json::from).collect()))
            .with("metrics", metrics)
    }

    /// Parse a result file written by [`RunResult::to_json`].
    pub fn from_json(j: &Json) -> Result<RunResult, String> {
        let num = |k: &str| j.get(k).and_then(Json::as_f64).ok_or(format!("missing '{k}'"));
        let mut metrics = BTreeMap::new();
        if let Some(Json::Object(entries)) = j.get("metrics") {
            for (k, v) in entries {
                metrics.insert(k.clone(), Value::from_json(v).map_err(|e| format!("{k}: {e}"))?);
            }
        } else {
            return Err("missing 'metrics'".into());
        }
        Ok(RunResult {
            workload: j.get("workload").and_then(Json::as_str).ok_or("missing 'workload'")?.into(),
            seed: num("seed")? as u64,
            seconds: num("seconds")? as u64,
            trace: j.get("trace").and_then(Json::as_bool).ok_or("missing 'trace'")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            failures: j
                .get("failures")
                .and_then(Json::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
            metrics,
        })
    }

    /// Parse result-file text.
    pub fn parse(text: &str) -> Result<RunResult, String> {
        RunResult::from_json(&json::parse(text).map_err(|e| e.to_string())?)
    }

    /// The catalog section this run reports: end-to-end untraced,
    /// per-layer traced.
    pub fn catalog(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Catalog metrics this run did not record.
    pub fn missing(&self) -> Vec<&'static str> {
        self.catalog().iter().map(|&(n, _)| n).filter(|n| !self.metrics.contains_key(*n)).collect()
    }

    /// The one-line result: `correct`, `attempted`, `failed` and the
    /// catalog section's metrics, by name with their units.
    pub fn result_line(&self) -> Json {
        let mut metrics = Json::object();
        for &(name, unit) in self.catalog() {
            if let Some(v) = self.metrics.get(name) {
                metrics.set(name, Json::object().with("value", v.value).with("unit", unit));
            }
        }
        Json::object()
            .with("correct", self.correct() && self.missing().is_empty())
            .with("attempted", self.attempted as f64)
            .with("failed", self.failed as f64)
            .with("metrics", metrics)
    }
}

/// The change in every metric of two runs, one line each: base and new
/// value, the difference, and the ratio with the base it divides by.
/// Catalog metrics come first, in catalog order; a metric only one run
/// has is listed as such.
pub fn compare(base: &RunResult, new: &RunResult) -> String {
    let mut out = format!(
        "base: {} seed {} trace {} ({} of {} failed)\nnew:  {} seed {} trace {} ({} of {} failed)\n",
        base.workload,
        base.seed,
        u8::from(base.trace),
        base.failed,
        base.attempted,
        new.workload,
        new.seed,
        u8::from(new.trace),
        new.failed,
        new.attempted,
    );
    out.push_str(&format!(
        "{:<32} {:>8} {:>16} {:>16} {:>16} {:>10}\n",
        "metric", "unit", "base", "new", "new - base", "new / base"
    ));
    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|&(n, _)| n).collect();
    for k in base.metrics.keys().chain(new.metrics.keys()) {
        if !names.contains(&k.as_str()) {
            names.push(k);
        }
    }
    for name in names {
        match (base.metrics.get(name), new.metrics.get(name)) {
            (Some(b), Some(n)) => {
                let ratio =
                    if b.value != 0.0 { format!("{:.4}", n.value / b.value) } else { "n/a".into() };
                out.push_str(&format!(
                    "{name:<32} {:>8} {:>16.6} {:>16.6} {:>+16.6} {ratio:>10}\n",
                    b.unit,
                    b.value,
                    n.value,
                    n.value - b.value
                ));
            }
            (Some(b), None) => out.push_str(&format!(
                "{name:<32} {:>8} {:>16.6} {:>16}\n",
                b.unit, b.value, "(absent)"
            )),
            (None, Some(n)) => out.push_str(&format!(
                "{name:<32} {:>8} {:>16} {:>16.6}\n",
                n.unit, "(absent)", n.value
            )),
            (None, None) => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "duplicate {name}");
        }
        assert!(END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
        assert!(!valid_name("a b") && !valid_name(".x") && !valid_name(""));
        assert!(!valid_unit("") && !valid_unit("µs"));
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        for (key, want) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let got: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let want: Vec<(String, String)> =
                want.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(got, want, "{key}");
        }
    }

    #[test]
    fn result_file_round_trips() {
        let mut r = RunResult::new("serve", 7, 10, true);
        r.attempt(true, String::new);
        r.attempt(false, || "mate array differs at checkpoint 2".into());
        r.put("dyn.apply_us.b16", Value::new(61.25, "us").samples(4000).tail(Some((99.0, 180.5))));
        r.put(
            "core.pointer_yield",
            Value::new(0.8125, "ratio").base("2 x edges_committed / pointers_set"),
        );
        r.set("setup_s", 0.123456789);
        let text = r.to_json().to_string_pretty();
        let back = RunResult::parse(&text).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.failed_frac(), 0.5);
        assert!(!back.correct());
    }

    #[test]
    fn compare_lists_every_metric_with_its_base() {
        let mut base = RunResult::new("serve", 1, 10, false);
        let mut new = RunResult::new("serve", 2, 10, false);
        base.set("host_a_us", 20.0);
        new.set("host_a_us", 25.0);
        base.put("extra.only_base", Value::new(3.0, "count"));
        new.set("setup_s", 1.5);
        let text = compare(&base, &new);
        let line = |name: &str| text.lines().find(|l| l.starts_with(name)).unwrap().to_string();
        let a = line("host_a_us");
        assert!(
            a.contains("20.000000") && a.contains("25.000000") && a.contains("+5.000000"),
            "{a}"
        );
        assert!(a.trim_end().ends_with("1.2500"), "{a}");
        assert!(line("setup_s").contains("(absent)"));
        assert!(line("extra.only_base").contains("(absent)"));
        // Catalog order first, extras after.
        assert!(text.find("setup_s").unwrap() < text.find("host_a_us").unwrap());
        assert!(text.find("host_a_us").unwrap() < text.find("extra.only_base").unwrap());
    }

    #[test]
    fn result_line_has_exactly_the_catalog_section() {
        let mut r = RunResult::new("match", 1, 10, false);
        r.attempt(true, String::new);
        for &(name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        r.set("core.iterations", 3.0);
        let line = r.result_line();
        let Some(Json::Object(m)) = line.get("metrics") else { panic!("no metrics") };
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        r.metrics.remove("setup_s");
        assert_eq!(r.missing(), vec!["setup_s"]);
        assert_eq!(r.result_line().get("correct").and_then(Json::as_bool), Some(false));
    }
}
