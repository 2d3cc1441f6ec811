//! The coalescing match service: one resident dataset, one incremental
//! engine, many concurrent callers.
//!
//! ## Coalescing state machine
//!
//! Updates never touch the engine directly. They are *admitted* into a
//! pending buffer (per-tenant cap → `429`-style rejection) and the buffer
//! is *flushed* into a single [`IncrementalLd::apply_batch`] call when
//! either trigger fires:
//!
//! - **target**: the buffer reaches [`ServeConfig::coalesce_target`]
//!   entries (flushed inline by the submitting thread), or
//! - **deadline**: the oldest pending update has waited
//!   [`ServeConfig::deadline`] (flushed by the server's flusher thread).
//!
//! Arrival order is preserved end to end — the buffer is drained FIFO into
//! the batch — so the folded graph state equals the one-stream offline
//! fold, and canonical uniqueness makes the committed matching
//! bit-identical to the offline run ([`MatchService::replay_check`]
//! asserts exactly this).
//!
//! ## Snapshot discipline
//!
//! Reads are served from an `Arc`-swapped [`Snapshot`] of the last
//! *committed* state. A flush holds the engine lock while it applies the
//! batch, then builds the next snapshot and swaps it in one `RwLock`
//! write; readers either see the old epoch or the new one, never a
//! half-applied batch. The swap happens under the `history` lock, so the
//! committed history and the published snapshot always describe the same
//! epoch. Lock order is `engine → pending → history → snap → subs →
//! stats`; no path acquires them in any other order.
//!
//! ## Boot
//!
//! A service boots in one engine build: [`resolve_dyn_config`] derives the
//! one schedule knob it sets, `overlap`, from the device count, and the
//! base graph is held once behind an [`Arc`] that the engine and the
//! shutdown replay engine share.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ldgm_dyn::{DynConfig, EdgeUpdate, IncrementalLd};
use ldgm_gpusim::json::Json;
use ldgm_gpusim::metrics::names;
use ldgm_graph::csr::{CsrGraph, VertexId};
use parking_lot::{Mutex, RwLock};

pub use ldgm_core::UNMATCHED;

/// Service knobs; everything else rides [`DynConfig`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Flush the pending buffer when it reaches this many updates
    /// (default 64 — the BENCH_dynamic amortization sweet spot).
    pub coalesce_target: usize,
    /// Flush the pending buffer when its oldest entry has waited this
    /// long (default 10 ms), so a trickle of updates still commits.
    pub deadline: Duration,
    /// Per-tenant cap on pending (admitted, not yet flushed) updates;
    /// submissions beyond it are rejected with a `429` code.
    pub max_pending_per_tenant: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            coalesce_target: 64,
            deadline: Duration::from_millis(10),
            max_pending_per_tenant: 256,
        }
    }
}

/// An immutable committed view of the matching, shared by all readers.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Committed mate array ([`UNMATCHED`] for unmatched vertices).
    pub mate: Vec<VertexId>,
    /// Total matched weight.
    pub weight: f64,
    /// Matched edges.
    pub cardinality: usize,
    /// Commit epoch: 0 after the seeding build, +1 per flushed batch.
    pub epoch: u64,
    /// Billed simulated seconds so far (engine horizon at commit).
    pub sim_time: f64,
    /// Schema-v2 gauges copied from the engine metrics at commit, so
    /// `match-info` never has to take the engine lock.
    pub gauges: Vec<(String, f64)>,
}

impl Snapshot {
    /// The committed mate of `v`, or `None` for unmatched/out-of-range.
    pub fn mate(&self, v: VertexId) -> Option<VertexId> {
        match self.mate.get(v as usize) {
            Some(&m) if m != UNMATCHED => Some(m),
            _ => None,
        }
    }
}

/// A committed mate change, delivered to subscribers of `v`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MateChange {
    /// The watched vertex.
    pub v: VertexId,
    /// Its mate before the batch ([`UNMATCHED`] if none).
    pub old: VertexId,
    /// Its mate after the batch ([`UNMATCHED`] if none).
    pub new: VertexId,
    /// Epoch of the committing batch.
    pub epoch: u64,
}

/// Ack for an admitted submission.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SubmitAck {
    /// Updates admitted by this call.
    pub admitted: usize,
    /// Buffer occupancy after admission (0 if the call triggered a flush).
    pub pending: usize,
    /// Whether this submission tripped the target-size flush.
    pub flushed: bool,
}

/// Admission-control rejection (`429`-style).
#[derive(Clone, Debug, PartialEq)]
pub struct AdmissionError {
    /// The rejected tenant.
    pub tenant: String,
    /// That tenant's pending updates at rejection time.
    pub pending: usize,
    /// The configured cap.
    pub limit: usize,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tenant '{}' has {} pending updates (limit {}): retry after a flush",
            self.tenant, self.pending, self.limit
        )
    }
}

impl std::error::Error for AdmissionError {}

/// What a single flush committed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlushSummary {
    /// Coalesced batch size.
    pub updates: usize,
    /// Epoch of the committed snapshot.
    pub epoch: u64,
    /// Simulated seconds billed for the batch.
    pub sim_time: f64,
    /// Whether the deadline (vs the size target / an explicit call)
    /// triggered it.
    pub by_deadline: bool,
}

/// Per-tenant accounting, billed from [`ldgm_gpusim::SimRuntime`] time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TenantStats {
    /// Updates admitted into the coalescer.
    pub submitted: u64,
    /// Updates rejected by admission control.
    pub rejected: u64,
    /// Point queries served.
    pub queries: u64,
    /// Simulated seconds billed: each flush's `BatchReport::sim_time`
    /// split across tenants proportionally to their updates in the batch.
    pub billed_sim_time: f64,
}

/// Aggregate coalescer statistics.
#[derive(Clone, Debug, Default)]
pub struct ServiceStats {
    /// Committed flushes.
    pub flushes: u64,
    /// Flushes triggered by the deadline rather than the size target.
    pub deadline_flushes: u64,
    /// Total updates committed.
    pub updates_applied: u64,
    /// Every committed batch size, in commit order (the coalesced
    /// batch-size histogram's raw samples).
    pub batch_sizes: Vec<u64>,
    /// Per-tenant accounting.
    pub tenants: BTreeMap<String, TenantStats>,
}

impl ServiceStats {
    /// Apply `f` to `tenant`'s accounting, allocating its key only the
    /// first time the tenant is seen.
    fn with_tenant(&mut self, tenant: &str, f: impl FnOnce(&mut TenantStats)) {
        match self.tenants.get_mut(tenant) {
            Some(t) => f(t),
            None => f(self.tenants.entry(tenant.to_string()).or_default()),
        }
    }

    /// Mean committed batch size (0 when nothing flushed).
    pub fn mean_batch(&self) -> f64 {
        if self.batch_sizes.is_empty() {
            0.0
        } else {
            self.updates_applied as f64 / self.batch_sizes.len() as f64
        }
    }

    /// Largest committed batch.
    pub fn max_batch(&self) -> u64 {
        self.batch_sizes.iter().copied().max().unwrap_or(0)
    }

    /// Histogram of committed batch sizes over power-of-two buckets:
    /// `(upper_bound, count)`, used by the `ext_serve` study.
    pub fn batch_histogram(&self) -> Vec<(u64, u64)> {
        let mut hist: BTreeMap<u64, u64> = BTreeMap::new();
        for &s in &self.batch_sizes {
            *hist.entry(s.max(1).next_power_of_two()).or_insert(0) += 1;
        }
        hist.into_iter().collect()
    }
}

/// A mate-change sink; returns `false` when the subscriber is gone (its
/// connection closed), after which the service prunes it.
type SubscriberSink = Box<dyn FnMut(&MateChange) -> bool + Send>;

struct Subscription {
    v: VertexId,
    sink: SubscriberSink,
}

struct Pending {
    queue: Vec<EdgeUpdate>,
    /// Queued updates per tenant; a flush takes it as the batch's owners.
    per_tenant: BTreeMap<String, usize>,
    oldest: Option<Instant>,
}

/// One resident dataset: the incremental engine, its pending buffer, the
/// committed snapshot, subscriptions and accounting. Shareable across
/// threads behind an [`Arc`].
pub struct MatchService {
    name: String,
    /// The boot graph, shared with the engine until its first compaction
    /// and with every replay engine: the replay origin.
    base: Arc<CsrGraph>,
    dyn_cfg: DynConfig,
    cfg: ServeConfig,
    engine: Mutex<IncrementalLd>,
    pending: Mutex<Pending>,
    snap: RwLock<Arc<Snapshot>>,
    subs: Mutex<Vec<Subscription>>,
    stats: Mutex<ServiceStats>,
    /// Every update committed so far, in commit order, for the offline
    /// replay check. Extended under the same lock hold that swaps `snap`.
    history: Mutex<Vec<EdgeUpdate>>,
}

/// Copy the schema-v2 gauges the serve layer surfaces through
/// `match-info` out of the engine's live metrics.
fn copy_gauges(engine: &IncrementalLd) -> Vec<(String, f64)> {
    let m = engine.metrics();
    let mut out: Vec<(String, f64)> = [
        names::DYN_BATCHES,
        names::DYN_UPDATES_APPLIED,
        names::DYN_INSERTS,
        names::DYN_DELETES,
        names::DYN_COMPACTIONS,
    ]
    .iter()
    .map(|&n| (n.to_string(), m.counter(n) as f64))
    .collect();
    for n in ["comm.exposed_time", "comm.hidden_time"] {
        if let Some(g) = m.gauge(n) {
            out.push((n.to_string(), g));
        }
    }
    out
}

/// The serving config rule: overlap the engine's collectives with compute
/// exactly when more than one device shares them.
///
/// At one device there is no peer to wait for, and both settings bill
/// identically. At two or more, chunked collectives never bill more than
/// bulk ones; `ldgm-bench`'s `overlap_registry` test checks this on every
/// stand-in. Platform, devices and compaction stay as configured, and the
/// matching is bit-identical either way (overlap is billing-only). The
/// graph is not consulted; the parameter keeps existing callers compiling.
pub fn resolve_dyn_config(_g: &CsrGraph, base: DynConfig) -> DynConfig {
    DynConfig { overlap: base.devices > 1, ..base }
}

impl MatchService {
    /// [`MatchService::new`] with the device-count rule applied
    /// ([`resolve_dyn_config`]) — the boot path of `ldgm serve`.
    pub fn with_tuned_config(
        name: impl Into<String>,
        base: CsrGraph,
        dyn_cfg: DynConfig,
        cfg: ServeConfig,
    ) -> Self {
        let dyn_cfg = resolve_dyn_config(&base, dyn_cfg);
        Self::new(name, base, dyn_cfg, cfg)
    }

    /// Load `base` under `name` with `dyn_cfg` as given: runs the static
    /// seeding build (the engine's initial full stabilization) and commits
    /// epoch 0. The engine shares `base` rather than copying it.
    pub fn new(
        name: impl Into<String>,
        base: CsrGraph,
        dyn_cfg: DynConfig,
        cfg: ServeConfig,
    ) -> Self {
        let base = Arc::new(base);
        let engine = IncrementalLd::new(Arc::clone(&base), dyn_cfg.clone());
        let snap = Arc::new(Snapshot {
            mate: engine.mate_array().to_vec(),
            weight: engine.matched_weight(),
            cardinality: engine.cardinality(),
            epoch: 0,
            sim_time: engine.horizon(),
            gauges: copy_gauges(&engine),
        });
        MatchService {
            name: name.into(),
            base,
            dyn_cfg,
            cfg,
            engine: Mutex::new(engine),
            pending: Mutex::new(Pending {
                queue: Vec::new(),
                per_tenant: BTreeMap::new(),
                oldest: None,
            }),
            snap: RwLock::new(snap),
            subs: Mutex::new(Vec::new()),
            stats: Mutex::new(ServiceStats::default()),
            history: Mutex::new(Vec::new()),
        }
    }

    /// Dataset name this service answers for.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The current committed snapshot (cheap: one `RwLock` read + `Arc`
    /// clone; never blocks on an in-flight batch).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.snap.read().clone()
    }

    /// Point query: `v`'s committed mate, billed to `tenant`.
    pub fn mate(&self, tenant: &str, v: VertexId) -> (Option<VertexId>, Arc<Snapshot>) {
        let snap = self.snapshot();
        self.stats.lock().with_tenant(tenant, |t| t.queries += 1);
        (snap.mate(v), snap)
    }

    /// Credit `n` point queries to `tenant` in one accounting write.
    ///
    /// The reactor's sharded read path answers `mate` from the committed
    /// snapshot without touching any service lock; each connection counts
    /// its queries locally and merges them here when it closes, renames
    /// its tenant, or a `stats`/`shutdown` op asks for current numbers —
    /// so the per-query hot path never crosses the stats mutex.
    pub fn credit_queries(&self, tenant: &str, n: u64) {
        if n == 0 {
            return;
        }
        self.stats.lock().with_tenant(tenant, |t| t.queries += n);
    }

    /// Updates currently admitted but not yet flushed.
    pub fn pending_len(&self) -> usize {
        self.pending.lock().queue.len()
    }

    /// Admit `updates` for `tenant`, flushing inline if the buffer
    /// reaches the coalesce target. The batch is admitted or rejected as
    /// a unit.
    pub fn submit(
        &self,
        tenant: &str,
        updates: &[EdgeUpdate],
    ) -> Result<SubmitAck, AdmissionError> {
        if updates.is_empty() {
            return Ok(SubmitAck { admitted: 0, pending: self.pending_len(), flushed: false });
        }
        let should_flush;
        {
            let mut p = self.pending.lock();
            let mine = p.per_tenant.get(tenant).copied().unwrap_or(0);
            if mine + updates.len() > self.cfg.max_pending_per_tenant {
                drop(p);
                self.stats.lock().with_tenant(tenant, |t| t.rejected += updates.len() as u64);
                return Err(AdmissionError {
                    tenant: tenant.to_string(),
                    pending: mine,
                    limit: self.cfg.max_pending_per_tenant,
                });
            }
            if p.queue.is_empty() {
                p.oldest = Some(Instant::now());
            }
            p.queue.extend_from_slice(updates);
            match p.per_tenant.get_mut(tenant) {
                Some(n) => *n += updates.len(),
                None => {
                    p.per_tenant.insert(tenant.to_string(), updates.len());
                }
            }
            should_flush = p.queue.len() >= self.cfg.coalesce_target;
        }
        self.stats.lock().with_tenant(tenant, |t| t.submitted += updates.len() as u64);
        let flushed = if should_flush { self.flush_with(false).is_some() } else { false };
        Ok(SubmitAck {
            admitted: updates.len(),
            pending: if flushed { 0 } else { self.pending_len() },
            flushed,
        })
    }

    /// Force a flush of whatever is pending (the `flush` op and the
    /// shutdown path).
    pub fn flush(&self) -> Option<FlushSummary> {
        self.flush_with(false)
    }

    /// Flush only if the oldest pending update has exceeded the deadline;
    /// called periodically by the server's flusher thread.
    pub fn flush_due(&self) -> Option<FlushSummary> {
        let due = {
            let p = self.pending.lock();
            !p.queue.is_empty()
                && p.oldest.map(|t| t.elapsed() >= self.cfg.deadline).unwrap_or(false)
        };
        if due {
            self.flush_with(true)
        } else {
            None
        }
    }

    /// Drain the pending buffer into one engine batch and commit the next
    /// snapshot. See the module docs for the locking discipline.
    fn flush_with(&self, by_deadline: bool) -> Option<FlushSummary> {
        // Engine first: holding it serializes flushes, and the pending
        // drain below happens inside that critical section so two racing
        // flushes cannot interleave their batches out of arrival order.
        let mut engine = self.engine.lock();
        let (batch, owners) = {
            let mut p = self.pending.lock();
            if p.queue.is_empty() {
                return None;
            }
            p.oldest = None;
            (std::mem::take(&mut p.queue), std::mem::take(&mut p.per_tenant))
        };

        let old = self.snapshot();
        let report = engine.apply_batch(&batch);
        let next = Arc::new(Snapshot {
            mate: engine.mate_array().to_vec(),
            weight: engine.matched_weight(),
            cardinality: engine.cardinality(),
            epoch: old.epoch + 1,
            sim_time: engine.horizon(),
            gauges: copy_gauges(&engine),
        });
        {
            let mut history = self.history.lock();
            history.extend_from_slice(&batch);
            *self.snap.write() = next.clone();
        }
        drop(engine);

        // Notify subscribers whose watched vertex changed mates.
        {
            let mut subs = self.subs.lock();
            subs.retain_mut(|s| {
                let before = old.mate.get(s.v as usize).copied().unwrap_or(UNMATCHED);
                let after = next.mate.get(s.v as usize).copied().unwrap_or(UNMATCHED);
                if before == after {
                    return true;
                }
                (s.sink)(&MateChange { v: s.v, old: before, new: after, epoch: next.epoch })
            });
        }

        // Bill the batch's sim-time across tenants proportionally.
        {
            let mut stats = self.stats.lock();
            stats.flushes += 1;
            if by_deadline {
                stats.deadline_flushes += 1;
            }
            stats.updates_applied += batch.len() as u64;
            stats.batch_sizes.push(batch.len() as u64);
            let total = batch.len() as f64;
            for (tenant, count) in owners {
                let t = stats.tenants.entry(tenant).or_default();
                t.billed_sim_time += report.sim_time * count as f64 / total;
            }
        }

        Some(FlushSummary {
            updates: batch.len(),
            epoch: next.epoch,
            sim_time: report.sim_time,
            by_deadline,
        })
    }

    /// Watch `v`: `sink` is invoked (from the flushing thread) for every
    /// committed batch that changes `v`'s mate, until it returns `false`.
    pub fn subscribe(&self, v: VertexId, sink: SubscriberSink) {
        self.subs.lock().push(Subscription { v, sink });
    }

    /// Live subscription count (pruned sinks excluded).
    pub fn subscriber_count(&self) -> usize {
        self.subs.lock().len()
    }

    /// A copy of the aggregate coalescer/tenant statistics.
    pub fn stats(&self) -> ServiceStats {
        self.stats.lock().clone()
    }

    /// The offline replay check: build a fresh engine on the original base
    /// graph (shared, not copied), apply the full committed history as one
    /// batch, and compare mate arrays bit-for-bit. Canonical uniqueness
    /// says they must agree no matter how the live traffic was coalesced.
    pub fn replay_check(&self) -> Result<(), String> {
        // Flush anything still pending so the comparison covers it, then
        // hold the history: no flush can commit past the snapshot read
        // below until the comparison is done.
        self.flush();
        let history = self.history.lock();
        let mut offline = IncrementalLd::new(Arc::clone(&self.base), self.dyn_cfg.clone());
        if !history.is_empty() {
            offline.apply_batch(&history);
        }
        let snap = self.snapshot();
        if offline.mate_array() != snap.mate.as_slice() {
            let diverged =
                offline.mate_array().iter().zip(snap.mate.iter()).filter(|(a, b)| a != b).count();
            return Err(format!(
                "replay diverged on {} of {} vertices after {} updates",
                diverged,
                snap.mate.len(),
                history.len()
            ));
        }
        Ok(())
    }

    /// `match-info` as a wire object (also used by the CLI summary).
    pub fn info_json(&self) -> Json {
        let snap = self.snapshot();
        let mut gauges = Json::object();
        for (k, v) in &snap.gauges {
            gauges.set(k.clone(), *v);
        }
        Json::object()
            .with("dataset", self.name.clone())
            .with("num_vertices", snap.mate.len())
            .with("weight", snap.weight)
            .with("size", snap.cardinality)
            .with("epoch", snap.epoch)
            .with("sim_time", snap.sim_time)
            .with("pending", self.pending_len())
            .with("gauges", gauges)
    }

    /// `stats` as a wire object.
    pub fn stats_json(&self) -> Json {
        let s = self.stats();
        let mut tenants = Json::object();
        for (name, t) in &s.tenants {
            tenants.set(
                name.clone(),
                Json::object()
                    .with("submitted", t.submitted)
                    .with("rejected", t.rejected)
                    .with("queries", t.queries)
                    .with("billed_sim_time", t.billed_sim_time),
            );
        }
        let hist: Vec<Json> = s
            .batch_histogram()
            .into_iter()
            .map(|(le, n)| Json::object().with("le", le).with("count", n))
            .collect();
        Json::object()
            .with("dataset", self.name.clone())
            .with("flushes", s.flushes)
            .with("deadline_flushes", s.deadline_flushes)
            .with("updates_applied", s.updates_applied)
            .with("mean_batch", s.mean_batch())
            .with("max_batch", s.max_batch())
            .with("batch_histogram", hist)
            .with("subscribers", self.subscriber_count())
            .with("tenants", tenants)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldgm_gpusim::Platform;
    use ldgm_graph::gen::urand;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    fn cfg() -> DynConfig {
        DynConfig::new(Platform::dgx_a100()).devices(2)
    }

    fn svc(target: usize) -> MatchService {
        MatchService::new(
            "t",
            urand(120, 480, 5),
            cfg(),
            ServeConfig { coalesce_target: target, ..ServeConfig::default() },
        )
    }

    #[test]
    fn boots_with_the_device_count_rule() {
        let g = urand(120, 480, 5);
        for devices in [1, 2, 4] {
            for given in [false, true] {
                let base =
                    DynConfig::new(Platform::dgx_a100()).devices(devices).with_overlap(given);
                let resolved = resolve_dyn_config(&g, base.clone());
                assert_eq!(resolved.overlap, devices > 1, "{devices} devices, {given} given");
                assert_eq!(resolved.devices, base.devices, "the rule moves overlap only");
                assert_eq!(resolved.compact_frac, base.compact_frac);
            }
        }
        // The tuned boot is exactly `new` under the rule's config, and the
        // rule only moves billing: the seeded matching is the plain one.
        let tuned =
            MatchService::with_tuned_config("tuned", g.clone(), cfg(), ServeConfig::default());
        let ruled =
            MatchService::new("ruled", g.clone(), cfg().with_overlap(true), ServeConfig::default());
        let plain = MatchService::new("plain", g, cfg(), ServeConfig::default());
        assert_eq!(tuned.snapshot().sim_time, ruled.snapshot().sim_time);
        assert_eq!(tuned.snapshot().mate, plain.snapshot().mate);
        assert!(tuned.snapshot().sim_time > 0.0);
    }

    #[test]
    fn engine_and_replay_share_one_base() {
        let s = svc(1000);
        assert_eq!(Arc::strong_count(&s.base), 2, "service and engine hold one copy");
        s.submit("a", &[EdgeUpdate::Insert { u: 0, v: 60, w: 7.0 }]).unwrap();
        s.replay_check().unwrap();
        assert_eq!(Arc::strong_count(&s.base), 2, "the replay engine is dropped");
    }

    #[test]
    fn seeds_from_the_static_engine() {
        let g = urand(100, 400, 1);
        let s = MatchService::new("seed", g.clone(), cfg(), ServeConfig::default());
        let snap = s.snapshot();
        assert_eq!(snap.epoch, 0);
        assert_eq!(snap.mate, ldgm_core::ld_seq::ld_seq(&g).mate_array());
        assert!(snap.sim_time > 0.0, "the seeding build must be billed");
        assert!(snap.weight > 0.0);
    }

    #[test]
    fn updates_coalesce_until_the_target() {
        let s = svc(4);
        for i in 0..3u32 {
            let ack = s
                .submit("a", &[EdgeUpdate::Insert { u: i, v: i + 50, w: 5.0 + i as f64 }])
                .unwrap();
            assert!(!ack.flushed);
            assert_eq!(ack.pending, i as usize + 1);
            assert_eq!(s.snapshot().epoch, 0, "nothing commits before the target");
        }
        let ack = s.submit("a", &[EdgeUpdate::Insert { u: 3, v: 53, w: 9.0 }]).unwrap();
        assert!(ack.flushed);
        assert_eq!(ack.pending, 0);
        let snap = s.snapshot();
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.mate(3), Some(53), "a heavy fresh edge must match");
        let stats = s.stats();
        assert_eq!(stats.flushes, 1);
        assert_eq!(stats.batch_sizes, vec![4]);
        s.replay_check().unwrap();
    }

    #[test]
    fn admission_control_rejects_over_cap() {
        let s = MatchService::new(
            "adm",
            urand(60, 200, 2),
            cfg(),
            ServeConfig {
                coalesce_target: 1000, // never auto-flush
                max_pending_per_tenant: 5,
                ..ServeConfig::default()
            },
        );
        let upd = |i: u32| EdgeUpdate::Insert { u: i % 30, v: 30 + i % 30, w: 1.0 };
        for i in 0..5 {
            s.submit("greedy", &[upd(i)]).unwrap();
        }
        let err = s.submit("greedy", &[upd(5)]).expect_err("cap must reject");
        assert_eq!(err.pending, 5);
        assert_eq!(err.limit, 5);
        assert!(err.to_string().contains("greedy"));
        // Other tenants are unaffected; a flush clears the cap.
        s.submit("polite", &[upd(6)]).unwrap();
        s.flush().unwrap();
        s.submit("greedy", &[upd(7)]).unwrap();
        let stats = s.stats();
        assert_eq!(stats.tenants["greedy"].rejected, 1);
        assert_eq!(stats.tenants["greedy"].submitted, 6);
    }

    #[test]
    fn tenant_billing_splits_proportionally() {
        let s = svc(1000);
        let ins = |u: u32, v: u32| EdgeUpdate::Insert { u, v, w: 2.0 };
        s.submit("a", &[ins(0, 60), ins(1, 61), ins(2, 62)]).unwrap();
        s.submit("b", &[ins(3, 63)]).unwrap();
        let sum = s.flush().unwrap();
        assert_eq!(sum.updates, 4);
        let stats = s.stats();
        let (a, b) = (stats.tenants["a"].billed_sim_time, stats.tenants["b"].billed_sim_time);
        assert!(a > 0.0 && b > 0.0);
        assert!((a / b - 3.0).abs() < 1e-9, "3:1 split, got {a} vs {b}");
        assert!((a + b - sum.sim_time).abs() < 1e-12 * sum.sim_time.max(1.0));
    }

    #[test]
    fn subscriptions_fire_on_commit_and_prune_dead_sinks() {
        let s = svc(1000);
        let snap = s.snapshot();
        // Find a matched pair and outbid it so mates demonstrably change.
        let u = (0..snap.mate.len() as u32).find(|&u| snap.mate(u).is_some()).unwrap();
        let (tx, rx) = mpsc::channel();
        s.subscribe(
            u,
            Box::new(move |c| {
                let _ = tx.send(*c);
                true
            }),
        );
        let dead_calls = Arc::new(AtomicUsize::new(0));
        let dc = dead_calls.clone();
        s.subscribe(
            u,
            Box::new(move |_| {
                dc.fetch_add(1, Ordering::SeqCst);
                false // simulate a hung-up connection
            }),
        );
        assert_eq!(s.subscriber_count(), 2);
        s.submit("a", &[EdgeUpdate::Insert { u, v: snap.mate(u).unwrap(), w: 1e6 }]).unwrap();
        // Reweighting the matched edge up does not change mates: no event.
        s.flush();
        // Now delete it: u's mate must change.
        s.submit("a", &[EdgeUpdate::Delete { u, v: snap.mate(u).unwrap() }]).unwrap();
        let flushed = s.flush().unwrap();
        let ev = rx.try_recv().expect("mate change must notify");
        assert_eq!(ev.v, u);
        assert_eq!(ev.old, snap.mate(u).unwrap());
        assert_ne!(ev.new, ev.old);
        assert_eq!(ev.epoch, flushed.epoch);
        assert_eq!(dead_calls.load(Ordering::SeqCst), 1);
        assert_eq!(s.subscriber_count(), 1, "dead sink must be pruned");
        s.replay_check().unwrap();
    }

    #[test]
    fn deadline_flush_commits_stragglers() {
        let s = MatchService::new(
            "dl",
            urand(80, 300, 3),
            cfg(),
            ServeConfig {
                coalesce_target: 1000,
                deadline: Duration::from_millis(1),
                ..ServeConfig::default()
            },
        );
        s.submit("a", &[EdgeUpdate::Insert { u: 0, v: 40, w: 99.0 }]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut flushed = None;
        while flushed.is_none() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
            flushed = s.flush_due();
        }
        let f = flushed.expect("deadline flush never fired");
        assert!(f.by_deadline);
        assert_eq!(s.snapshot().mate(0), Some(40));
        assert_eq!(s.stats().deadline_flushes, 1);
    }

    #[test]
    fn info_and_stats_json_have_wire_shape() {
        let s = svc(2);
        s.submit(
            "a",
            &[
                EdgeUpdate::Insert { u: 0, v: 70, w: 3.0 },
                EdgeUpdate::Insert { u: 1, v: 71, w: 3.0 },
            ],
        )
        .unwrap();
        let info = s.info_json();
        assert_eq!(info.get("dataset").and_then(Json::as_str), Some("t"));
        assert_eq!(info.get("epoch").and_then(Json::as_f64), Some(1.0));
        assert!(info.get("weight").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(info.get("gauges").unwrap().get(names::DYN_BATCHES).is_some());
        let stats = s.stats_json();
        assert_eq!(stats.get("flushes").and_then(Json::as_f64), Some(1.0));
        assert_eq!(stats.get("mean_batch").and_then(Json::as_f64), Some(2.0));
        assert!(!stats.get("batch_histogram").unwrap().as_array().unwrap().is_empty());
        // Round-trip through the hand-rolled parser (what clients do).
        let parsed = ldgm_gpusim::json::parse(&stats.to_string_compact()).unwrap();
        assert_eq!(parsed.get("updates_applied").and_then(Json::as_f64), Some(2.0));
    }
}
