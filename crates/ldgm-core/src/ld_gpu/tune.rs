//! Self-tuning configuration planner for the LD-GPU driver.
//!
//! The driver exposes a grid of billing-preserving knobs — batch count
//! (which is also the overlap chunk count: one comm chunk per batch), the
//! optimized (`ld-gpu-opt`) mode, and communication overlap — whose best
//! combination depends on the dataset's degree structure and the
//! platform's memory/bandwidth balance. [`auto_tune`] searches that grid
//! by *probing*: each candidate runs only a few matching iterations
//! ([`LdGpuConfig::probe_iterations`]) and is ranked by the simulated
//! time of that prefix, which is where the per-iteration structure
//! (scan cost, collective payload, exposed wire time) already shows.
//!
//! The probe ranking then picks a shortlist that is run to completion
//! **together with the caller's base configuration**, and the locked
//! config is the full-run winner — so the tuned result is never slower
//! (in simulated time) than the defaults it replaces, by construction.
//! Every candidate varies only billing/schedule knobs; the matching
//! stays bit-identical across the whole grid, so tuning never changes
//! the answer, only its cost.
//!
//! Candidates are checked like any other configuration:
//! [`LdGpu::try_run`] runs [`LdGpuConfig::validate`] first, so a grid
//! point that breaks a rule (a zero batch count or a one-band window in
//! [`TuneOptions`]) is skipped like an infeasible batch plan, and an
//! invalid base config is the tuner's error.
//!
//! The search is fully deterministic: a fixed candidate order, exact
//! simulated times, and first-wins tie-breaking mean re-tuning the same
//! graph on the same platform always locks the same config.

use ldgm_graph::csr::CsrGraph;

use super::{LdGpu, LdGpuConfig, LdGpuError};

/// Knobs of the tuning search itself (not of the tuned config).
#[derive(Clone, Debug)]
pub struct TuneOptions {
    /// Matching iterations per probe run (default 3 — enough to price
    /// the steady-state iteration mix without paying for convergence).
    pub probe_iterations: usize,
    /// Batch counts to try; `None` is the driver's auto (minimal) plan.
    /// Ignored when the base config streams (the band walk has no batch
    /// knob; the window axis below replaces it).
    pub batch_counts: Vec<Option<usize>>,
    /// Streaming windows to try when the base config has `streaming` on;
    /// `None` is the driver's default (2 bands). Replaces the batch axis
    /// so the grid keeps the same size either way.
    pub stream_windows: Vec<Option<usize>>,
    /// Probe-ranked candidates promoted to full runs alongside the base
    /// config (default 2).
    pub shortlist: usize,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            probe_iterations: 3,
            batch_counts: vec![None, Some(2), Some(4), Some(8)],
            stream_windows: vec![None, Some(3), Some(4), Some(8)],
            shortlist: 2,
        }
    }
}

/// One probed candidate, for reporting.
#[derive(Clone, Debug)]
pub struct ProbeRecord {
    /// Human-readable knob summary (see [`describe_knobs`]).
    pub knobs: String,
    /// Simulated seconds of the probe prefix.
    pub probe_time: f64,
}

/// The tuner's verdict.
#[derive(Clone, Debug)]
pub struct TuneReport {
    /// The locked configuration: full-run winner among the probe
    /// shortlist and the base config, with the caller's trace flag
    /// restored and `probe_iterations` cleared.
    pub config: LdGpuConfig,
    /// Full-run simulated seconds of the locked config.
    pub sim_time: f64,
    /// Full-run simulated seconds of the base config. Invariant:
    /// `sim_time <= base_sim_time`.
    pub base_sim_time: f64,
    /// Candidates probed (infeasible batch plans are skipped silently).
    pub candidates: usize,
    /// The probe shortlist that went to full runs, best first.
    pub shortlist: Vec<ProbeRecord>,
}

impl TuneReport {
    /// Whether tuning found a strictly faster config than the base.
    pub fn improved(&self) -> bool {
        self.sim_time < self.base_sim_time
    }

    /// Knob summary of the locked config.
    pub fn knobs(&self) -> String {
        describe_knobs(&self.config)
    }
}

/// Compact `batches=.. opt=.. overlap=..` summary of a config's tuned
/// knobs; streaming configs append ` stream=on window=..` (and drive the
/// window, not the batch count).
pub fn describe_knobs(cfg: &LdGpuConfig) -> String {
    let onoff = |b: bool| if b { "on" } else { "off" };
    let mut s = format!(
        "batches={} opt={} overlap={}",
        cfg.batches.map_or("auto".to_string(), |b| b.to_string()),
        onoff(cfg.optimized),
        onoff(cfg.overlap),
    );
    if cfg.streaming {
        s.push_str(&format!(
            " stream=on window={}",
            cfg.stream_window.map_or("auto".to_string(), |w| w.to_string())
        ));
    }
    s
}

/// The candidate grid seeded from `base`: the optimized mode off/on ×
/// overlap off/on × the option's batch counts — or, when the base
/// streams, the option's window sizes (batches have no effect on the band
/// walk, so the window replaces that axis and the grid keeps its shape).
/// Order is deterministic.
fn candidates(base: &LdGpuConfig, opts: &TuneOptions) -> Vec<LdGpuConfig> {
    let streaming = base.streaming;
    let batch_axis: &[Option<usize>] = if streaming { &[None] } else { &opts.batch_counts };
    let window_axis: &[Option<usize>] = if streaming { &opts.stream_windows } else { &[None] };
    let mut out = Vec::new();
    for optimized in [false, true] {
        for overlap in [false, true] {
            for &batches in batch_axis {
                for &window in window_axis {
                    let mut c = base.clone();
                    c.optimized = optimized;
                    c.overlap = overlap;
                    if streaming {
                        c.stream_window = window;
                    } else {
                        c.batches = batches;
                    }
                    out.push(c);
                }
            }
        }
    }
    out
}

/// Strip the trace from a config so probe/comparison runs price only the
/// algorithm.
fn quiet(mut cfg: LdGpuConfig) -> LdGpuConfig {
    cfg.collect_trace = false;
    cfg
}

/// Tune with default [`TuneOptions`].
pub fn auto_tune(g: &CsrGraph, base: &LdGpuConfig) -> Result<TuneReport, LdGpuError> {
    auto_tune_with(g, base, &TuneOptions::default())
}

/// Search the (mode × overlap × batches) grid on `g`, probing each
/// candidate for `opts.probe_iterations` iterations, then lock the
/// full-run winner among the probe shortlist and `base` itself.
///
/// Errors only if the *base* config cannot run at all (it breaks a rule
/// of [`LdGpuConfig::validate`], or its fixed batch plan overflows device
/// memory); infeasible candidates are skipped. The locked config keeps
/// `base`'s platform, devices, and trace flag — only the tuned knobs
/// differ.
pub fn auto_tune_with(
    g: &CsrGraph,
    base: &LdGpuConfig,
    opts: &TuneOptions,
) -> Result<TuneReport, LdGpuError> {
    let probe_k = opts.probe_iterations.max(1);
    let mut probed: Vec<(f64, usize, LdGpuConfig)> = Vec::new();
    let mut candidates_run = 0usize;
    for (i, cand) in candidates(base, opts).into_iter().enumerate() {
        let mut probe_cfg = quiet(cand.clone());
        probe_cfg.probe_iterations = Some(probe_k);
        let Ok(out) = LdGpu::new(probe_cfg).try_run(g) else {
            continue; // invalid or infeasible batch plan on this platform
        };
        candidates_run += 1;
        probed.push((out.sim_time, i, cand));
    }
    // Rank by probe time; candidate order breaks exact ties, so the
    // search is reproducible run to run.
    probed.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    probed.truncate(opts.shortlist.max(1));

    // Full runs: the base config first (its time is the floor the locked
    // config must beat or match), then the shortlist in probe order.
    let base_time = LdGpu::new(quiet(base.clone())).try_run(g)?.sim_time;
    let mut best_cfg = base.clone();
    let mut best_time = base_time;
    let mut shortlist = Vec::new();
    for (probe_time, _, cand) in probed {
        shortlist.push(ProbeRecord { knobs: describe_knobs(&cand), probe_time });
        let Ok(out) = LdGpu::new(quiet(cand.clone())).try_run(g) else {
            continue;
        };
        // Strict improvement only: ties keep the earlier (or base)
        // config, which also makes re-tuning deterministic.
        if out.sim_time < best_time {
            best_time = out.sim_time;
            best_cfg = cand;
        }
    }

    best_cfg.probe_iterations = None;
    best_cfg.collect_trace = base.collect_trace;
    Ok(TuneReport {
        config: best_cfg,
        sim_time: best_time,
        base_sim_time: base_time,
        candidates: candidates_run,
        shortlist,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldgm_gpusim::Platform;
    use ldgm_graph::gen::{rmat, urand, RmatParams};

    fn small_opts() -> TuneOptions {
        TuneOptions {
            probe_iterations: 2,
            batch_counts: vec![None, Some(2)],
            stream_windows: vec![None, Some(4)],
            shortlist: 2,
        }
    }

    #[test]
    fn tuned_never_slower_and_matching_identical() {
        let g = rmat(2_000, 16_000, RmatParams::GAP_KRON, 11);
        let base = LdGpuConfig::new(Platform::dgx_a100()).devices(2);
        let report = auto_tune_with(&g, &base, &small_opts()).unwrap();
        assert!(report.sim_time <= report.base_sim_time, "{report:?}");
        assert!(report.candidates > 0);
        assert!(report.config.probe_iterations.is_none());

        // Same matching bits under the locked config as under the base.
        let tuned = LdGpu::new(report.config.clone()).run(&g);
        let default = LdGpu::new(base).run(&g);
        assert_eq!(tuned.matching.mate_array(), default.matching.mate_array());
    }

    #[test]
    fn retuning_is_deterministic() {
        let g = urand(1_500, 9_000, 7);
        let base = LdGpuConfig::new(Platform::dgx2()).devices(2);
        let a = auto_tune_with(&g, &base, &small_opts()).unwrap();
        let b = auto_tune_with(&g, &base, &small_opts()).unwrap();
        assert_eq!(a.knobs(), b.knobs());
        assert_eq!(a.sim_time, b.sim_time);
        assert_eq!(a.base_sim_time, b.base_sim_time);
        assert_eq!(a.candidates, b.candidates);
    }

    #[test]
    fn respects_retirement_constraint() {
        let base = LdGpuConfig::new(Platform::dgx_a100());
        let opts = TuneOptions::default();
        assert!(candidates(&base, &opts).iter().any(|c| c.optimized));
        // The grid is 2 modes x 2 overlap x |batch_counts|.
        assert_eq!(candidates(&base, &opts).len(), 2 * 2 * opts.batch_counts.len());
    }

    #[test]
    fn streaming_base_tunes_the_window_axis() {
        let base = LdGpuConfig::new(Platform::dgx_a100()).with_streaming(true);
        let opts = TuneOptions::default();
        let grid = candidates(&base, &opts);
        // Same grid shape as the batch search: the window axis replaces
        // the batch axis one for one.
        assert_eq!(grid.len(), 2 * 2 * opts.stream_windows.len());
        assert!(grid.iter().all(|c| c.streaming && c.batches == base.batches));
        assert!(grid.iter().any(|c| c.stream_window == Some(8)));

        // End to end: tuning a streaming base stays streaming, never
        // slower, and bit-identical.
        let g = urand(1_200, 8_000, 19);
        let report = auto_tune_with(&g, &base, &small_opts()).unwrap();
        assert!(report.sim_time <= report.base_sim_time);
        assert!(report.config.streaming);
        let tuned = LdGpu::new(report.config.clone()).run(&g);
        let default = LdGpu::new(base).run(&g);
        assert_eq!(tuned.matching.mate_array(), default.matching.mate_array());
    }

    #[test]
    fn knob_summary_reads_back() {
        let cfg = LdGpuConfig::new(Platform::dgx_a100()).batches(4).with_overlap(true);
        assert_eq!(describe_knobs(&cfg), "batches=4 opt=off overlap=on");
        let auto = LdGpuConfig::new(Platform::dgx_a100()).optimized();
        assert_eq!(describe_knobs(&auto), "batches=auto opt=on overlap=off");
        let streamed =
            LdGpuConfig::new(Platform::dgx_a100()).with_streaming(true).with_stream_window(4);
        assert_eq!(
            describe_knobs(&streamed),
            "batches=auto opt=off overlap=off stream=on window=4"
        );
    }
}
