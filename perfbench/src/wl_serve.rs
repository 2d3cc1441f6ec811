//! `serve`: in-process `ldgm-serve` on com-Friendster at `ldgm serve`'s
//! defaults — boot through `MatchService::with_tuned_config`, unscaled
//! DGX-A100, 1 device, coalesce 64, deadline 10 ms, the reactor with 2
//! event-loop threads.
//!
//! A one-thread load generator drives 2 connections, sending 15 `mate`
//! reads for every single-edge `update`. Phase 1 is closed-loop with a
//! fixed pipelining window per connection and measures capacity. Phase 2
//! is open-loop at one fixed offered rate well below capacity; each
//! request is timed from the moment it was due, and the generator
//! records how late it ran. Every flush rebuilds an O(n) snapshot inline
//! on a reactor thread that reads also need, so a gain for writes that
//! costs reads (or the reverse) shows here.
//!
//! The traced run also replays each layer on the workload's own inputs:
//! the protocol pieces, the coalescer beside a bare engine, and the
//! `dyn` write path alone in 16- and 1024-update batches
//! ([`dyn_replay`]).

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use epoll_shim::{Event, Interest, Poller};
use ldgm_dyn::{DynConfig, EdgeUpdate, IncrementalLd, UpdateStream, WorkloadKind};
use ldgm_gpusim::json::{self, Json};
use ldgm_gpusim::Platform;
use ldgm_graph::{CsrGraph, Xoshiro256};
use ldgm_serve::protocol::{update_to_json, wire};
use ldgm_serve::{
    resolve_dyn_config, serve_opts, FrameSplitter, MatchService, ParsedRequest, Request,
    ServeConfig, ServerHandle, ServerOptions, SplitFrame, MAX_FRAME_LEN,
};

use crate::report::{RunResult, Value};
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::{dyn_replay, mix, stand_in, sys};

/// Set-up repetitions (`setup_s` is their median).
const SETUP_REPS: usize = 3;
/// Load-generator connections.
const CONNS: usize = 2;
/// Closed-loop requests in flight per connection.
const WINDOW: usize = 16;
/// Every this many requests, one is an `update`; the rest are `mate`.
const MIX: u64 = 16;
/// Open-loop offered rate, requests per second (capacity is above 400k).
const OPEN_RATE: f64 = 20_000.0;
/// Longest share of the measured time the closed-loop phase may take;
/// the open-loop phase gets the rest.
const CLOSED_SHARE: f64 = 0.4;
/// Requests the closed-loop phase sends at most, so the updates the
/// service retains (and so its memory) do not depend on machine speed.
const CLOSED_REQUESTS: u64 = 2_000_000;
/// Window over which closed-loop completions are counted.
const RATE_WINDOW: Duration = Duration::from_millis(100);
/// How long to wait for outstanding responses after a phase ends.
const GRACE: Duration = Duration::from_secs(5);
/// Requests kept for the per-layer replays.
const CAPTURE: usize = 1 << 16;
/// Repetitions of each per-layer micro-replay.
const MICRO_REPS: usize = 5;

/// The seeded request sequence.
struct Gen {
    rng: Xoshiro256,
    n: u64,
    updates: UpdateStream,
    next_id: u64,
}

impl Gen {
    /// Append the next request line to `out`; returns its id and whether
    /// it is an update.
    fn next(&mut self, out: &mut Vec<u8>) -> (u64, bool) {
        let id = self.next_id;
        self.next_id += 1;
        let write = id % MIX == MIX - 1;
        if write {
            let u = self.updates.next_batch(1)[0];
            let mut j = update_to_json(&u);
            j.set("op", "update");
            out.extend_from_slice(j.to_string_compact().as_bytes());
            out.push(b'\n');
        } else {
            out.extend_from_slice(b"{\"op\":\"mate\",\"v\":");
            wire::push_u64(out, self.rng.below(self.n));
            out.extend_from_slice(b"}\n");
        }
        (id, write)
    }
}

/// A request awaiting its response.
struct Pending {
    id: u64,
    /// When it was sent (closed loop) or due (open loop).
    from: Instant,
    write: bool,
}

/// One load-generator connection.
struct Conn {
    stream: TcpStream,
    splitter: FrameSplitter,
    wbuf: Vec<u8>,
    wpos: usize,
    inflight: VecDeque<Pending>,
    armed: bool,
}

impl Phase {
    /// Completed requests per second: the median over the phase's full
    /// [`RATE_WINDOW`]s, so a stall in part of the phase moves it less.
    fn rate(&self) -> f64 {
        let full = (self.elapsed / RATE_WINDOW.as_secs_f64()) as usize;
        let counts: Vec<f64> = self.windows.iter().take(full).map(|&c| c as f64).collect();
        match Summary::of(&counts) {
            Some(s) => s.median / RATE_WINDOW.as_secs_f64(),
            None => self.completed as f64 / self.elapsed.max(1e-9),
        }
    }
}

impl Conn {
    /// Write what the socket takes; true when bytes remain unsent.
    fn flush(&mut self) -> bool {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(k) => self.wpos += k,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => panic!("loadgen write failed: {e}"),
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
        false
    }
}

/// What one load phase saw.
#[derive(Default)]
struct Phase {
    completed: u64,
    failed: u64,
    /// Requests sent.
    sent: u64,
    /// Completions in each [`RATE_WINDOW`] while the phase was sending.
    windows: Vec<u64>,
    /// Seconds the phase was sending.
    elapsed: f64,
    /// Latencies of `mate` reads and `update` acks, seconds.
    reads: Vec<f64>,
    writes: Vec<f64>,
    /// How late the generator sent each open-loop request, seconds.
    late: Vec<f64>,
}

/// Closed loop (fixed window) or open loop (fixed rate).
#[derive(Clone, Copy)]
enum Mode {
    Closed,
    Open,
}

/// The load generator: its connections and request sequence.
struct Load {
    poller: Poller,
    conns: Vec<Conn>,
    gen: Gen,
    /// The first [`CAPTURE`] request lines, for the micro-replays.
    captured: Vec<(Vec<u8>, bool)>,
}

impl Load {
    fn connect(addr: SocketAddr, gen: Gen) -> Load {
        let poller = Poller::new().expect("loadgen poller");
        let conns = (0..CONNS)
            .map(|i| {
                let stream = TcpStream::connect(addr).expect("loadgen connect");
                stream.set_nodelay(true).expect("nodelay");
                stream.set_nonblocking(true).expect("nonblocking");
                poller.add(stream.as_raw_fd(), i as u64, Interest::READ).expect("register");
                Conn {
                    stream,
                    splitter: FrameSplitter::new(MAX_FRAME_LEN),
                    wbuf: Vec::new(),
                    wpos: 0,
                    inflight: VecDeque::new(),
                    armed: false,
                }
            })
            .collect();
        Load { poller, conns, gen, captured: Vec::new() }
    }

    /// Queue the next request on connection `c`, timed from `from`.
    fn enqueue(&mut self, c: usize, from: Instant) {
        let conn = &mut self.conns[c];
        let start = conn.wbuf.len();
        let (id, write) = self.gen.next(&mut conn.wbuf);
        if self.captured.len() < CAPTURE {
            self.captured.push((conn.wbuf[start..].to_vec(), write));
        }
        conn.inflight.push_back(Pending { id, from, write });
    }

    fn sync_interest(&mut self, c: usize) {
        let conn = &mut self.conns[c];
        let blocked = conn.flush();
        if blocked != conn.armed {
            conn.armed = blocked;
            let want = if blocked { Interest::READ_WRITE } else { Interest::READ };
            self.poller.modify(conn.stream.as_raw_fd(), c as u64, want).expect("rearm");
        }
    }

    /// Drive one phase for `secs` (a closed-loop phase ends sooner once it
    /// has sent [`CLOSED_REQUESTS`]), then wait out the responses.
    fn drive(&mut self, mode: Mode, secs: f64, tr: &mut Tracer, spans: bool) -> Phase {
        let mut ph = Phase::default();
        let mut buf = vec![0u8; 64 * 1024];
        let mut events: Vec<Event> = Vec::new();
        let t0 = Instant::now();
        let end = t0 + Duration::from_secs_f64(secs);
        let mut stop: Option<Instant> = None;
        if let Mode::Closed = mode {
            for c in 0..CONNS {
                for _ in 0..WINDOW {
                    self.enqueue(c, Instant::now());
                }
                ph.sent += WINDOW as u64;
                self.sync_interest(c);
            }
        }
        loop {
            let now = Instant::now();
            let sending = stop.is_none()
                && now < end
                && !matches!(mode, Mode::Closed if ph.sent >= CLOSED_REQUESTS);
            if !sending && stop.is_none() {
                stop = Some(now.min(end));
            }
            if !sending && self.conns.iter().all(|c| c.inflight.is_empty()) {
                break;
            }
            if now > end + GRACE {
                let missing: usize = self.conns.iter().map(|c| c.inflight.len()).sum();
                ph.failed += missing as u64;
                for c in &mut self.conns {
                    c.inflight.clear();
                }
                break;
            }
            if let (Mode::Open, true) = (mode, sending) {
                // Send everything due; request i is due at t0 + i / rate.
                loop {
                    let due = t0 + Duration::from_secs_f64(ph.sent as f64 / OPEN_RATE);
                    if due > now || due >= end {
                        break;
                    }
                    let c = (ph.sent % CONNS as u64) as usize;
                    ph.late.push(now.duration_since(due).as_secs_f64());
                    self.enqueue(c, due);
                    ph.sent += 1;
                }
                for c in 0..CONNS {
                    self.sync_interest(c);
                }
            }
            events.clear();
            let timeout = match mode {
                Mode::Open if sending => 0,
                _ => 1,
            };
            self.poller.wait(&mut events, timeout).expect("loadgen wait");
            for ev in events.iter().copied() {
                let c = ev.token as usize;
                if ev.readable {
                    let answered = self.read(c, &mut buf, tr, spans, &mut ph);
                    if sending {
                        let w = (Instant::now().duration_since(t0).as_nanos()
                            / RATE_WINDOW.as_nanos()) as usize;
                        if ph.windows.len() <= w {
                            ph.windows.resize(w + 1, 0);
                        }
                        ph.windows[w] += answered;
                        if let Mode::Closed = mode {
                            for _ in 0..answered {
                                self.enqueue(c, Instant::now());
                            }
                            ph.sent += answered;
                        }
                    }
                }
                self.sync_interest(c);
            }
        }
        ph.elapsed = (stop.unwrap_or(end) - t0).as_secs_f64();
        ph
    }

    /// Take the responses waiting on connection `c`.
    fn read(
        &mut self,
        c: usize,
        buf: &mut [u8],
        tr: &mut Tracer,
        spans: bool,
        ph: &mut Phase,
    ) -> u64 {
        loop {
            match self.conns[c].stream.read(buf) {
                Ok(0) => panic!("server closed a loadgen connection"),
                Ok(k) => {
                    self.conns[c].splitter.push(&buf[..k]);
                    if k < buf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => panic!("loadgen read failed: {e}"),
            }
        }
        let now = Instant::now();
        let mut answered = 0;
        let conn = &mut self.conns[c];
        while let Some(frame) = conn.splitter.next() {
            let ok = match frame {
                SplitFrame::Line(r) => conn.splitter.slice(r).starts_with(b"{\"ok\":true"),
                SplitFrame::TooLarge { .. } => false,
            };
            let Some(p) = conn.inflight.pop_front() else {
                ph.failed += 1;
                continue;
            };
            if ok {
                ph.completed += 1;
            } else {
                ph.failed += 1;
            }
            let lat = now.duration_since(p.from).as_secs_f64();
            if p.write {
                ph.writes.push(lat);
            } else {
                ph.reads.push(lat);
            }
            if spans {
                let name = if p.write { "serve.request.update" } else { "serve.request.mate" };
                tr.record(name, p.from, now, Some(p.id));
            }
            answered += 1;
        }
        answered
    }
}

/// Boot the service and bind the reactor, as `ldgm serve` does.
fn boot(g: &CsrGraph, cfg: &DynConfig) -> (Arc<MatchService>, ServerHandle) {
    let svc = Arc::new(MatchService::with_tuned_config(
        "com-Friendster",
        g.clone(),
        cfg.clone(),
        ServeConfig::default(),
    ));
    let handle = serve_opts(vec![svc.clone()], "127.0.0.1:0", ServerOptions::default())
        .expect("bind loopback");
    (svc, handle)
}

/// Send one line on a fresh blocking connection and read the reply.
fn call(addr: SocketAddr, line: &str) -> Result<Json, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    s.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
    let mut reply = String::new();
    BufReader::new(s).read_line(&mut reply).map_err(|e| e.to_string())?;
    json::parse(&reply).map_err(|e| e.to_string())
}

/// Run the workload.
pub fn run(seed: u64, secs: f64, tr: &mut Tracer, out: &mut RunResult) {
    let g = stand_in("com-Friendster", seed);
    let cfg = DynConfig::new(Platform::dgx_a100());
    let gen = Gen {
        rng: Xoshiro256::seed_from_u64(mix(seed, 0x5E)),
        n: g.num_vertices() as u64,
        updates: UpdateStream::new(&g, WorkloadKind::Uniform, mix(seed, 0xC4)),
        next_id: 0,
    };
    sys::reset_peak();

    // Set-up: boot and bind several times; the last server is loaded.
    let mut setup = Vec::new();
    let mut booted = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, h)) = booted.take() {
            ServerHandle::shutdown(h);
        }
        let t = Instant::now();
        booted = Some(tr.time("serve.boot", || boot(&g, &cfg)));
        setup.push(t.elapsed().as_secs_f64());
    }
    let (svc, handle) = booted.expect("booted");
    let s = Summary::of(&setup).expect("setup samples");
    out.put("setup_s", Value::new(s.median, "s").samples(s.n));
    let boot_billed = svc.snapshot().sim_time;

    let mut load = Load::connect(handle.addr, gen);
    let (closed, open) = if tr.enabled() {
        // Untraced phases first, then traced ones; the difference in the
        // read median is the tracing overhead.
        let half = secs / 2.0;
        let c = load.drive(Mode::Closed, half * CLOSED_SHARE, &mut Tracer::new(false), false);
        let base = load.drive(Mode::Open, half - c.elapsed, &mut Tracer::new(false), false);
        let o = tr.open("loadgen.closed");
        let closed = load.drive(Mode::Closed, half * CLOSED_SHARE, tr, false);
        tr.close(o);
        let o = tr.open("loadgen.open");
        let open = load.drive(Mode::Open, half - closed.elapsed, tr, true);
        tr.close(o);
        let med = |p: &Phase| Summary::of(&p.reads).map_or(0.0, |s| s.median);
        out.put(
            "trace.overhead_frac",
            Value::new(med(&open) / med(&base) - 1.0, "ratio")
                .base("traced / untraced open-loop read median - 1"),
        );
        (closed, open)
    } else {
        let closed = load.drive(Mode::Closed, secs * CLOSED_SHARE, tr, false);
        let open = load.drive(Mode::Open, secs - closed.elapsed, tr, false);
        (closed, open)
    };
    for ph in [&closed, &open] {
        out.attempted += ph.completed + ph.failed;
        if ph.failed > 0 {
            out.failed += ph.failed;
            out.failures.push(format!("{} requests refused or unanswered", ph.failed));
        }
    }
    let captured = std::mem::take(&mut load.captured);
    drop(load);

    // Shutdown flushes what is pending and runs the offline replay check;
    // the service's counters are read after it, so they cover that flush.
    let stalls = handle.stats().backpressure_stalls();
    let bye = call(handle.addr, "{\"op\":\"shutdown\"}\n");
    handle.join();
    let stats = svc.stats();
    let identical =
        bye.as_ref().ok().and_then(|j| j.get("replay_identical")).and_then(Json::as_bool);
    out.attempt(identical == Some(true), || format!("shutdown replay check failed: {bye:?}"));
    let final_snap = svc.snapshot();
    let applied = stats.updates_applied.max(1) as f64;

    let read = Summary::of(&open.reads);
    let write = Summary::of(&open.writes);
    let put_lat = |out: &mut RunResult, name: &str, s: Option<Summary>, what: &str| {
        let s = s.unwrap_or(Summary { n: 0, median: 0.0, tail: None });
        out.put(
            name,
            Value::new(s.median * 1e6, "us")
                .samples(s.n)
                .tail(s.tail.map(|(p, v)| (p, v * 1e6)))
                .base(format!("open-loop {what} latency from due time at {OPEN_RATE} req/s")),
        );
    };
    let rate = closed.rate();
    let pct = |xs: &[f64], p: f64| Summary::supported(xs, p).map_or(0.0, |v| v * 1e6);
    out.put(
        "serve.mean_batch",
        Value::new(stats.mean_batch(), "count").base("updates per committed flush"),
    );
    out.put(
        "serve.coalesce_ratio",
        Value::new(stats.mean_batch() / ServeConfig::default().coalesce_target as f64, "ratio")
            .base("mean batch / coalesce target"),
    );
    out.set("serve.flushes", stats.flushes as f64);
    out.set("serve.deadline_flushes", stats.deadline_flushes as f64);
    out.set("serve.backpressure_stalls", stalls as f64);
    out.set("serve.read_p99_us", pct(&open.reads, 99.0));
    out.set("serve.read_p999_us", pct(&open.reads, 99.9));
    out.set("serve.write_p99_us", pct(&open.writes, 99.0));
    let late = Summary::of(&open.late);
    out.put(
        "loadgen.late_p50_us",
        Value::new(late.map_or(0.0, |s| s.median * 1e6), "us")
            .samples(open.late.len())
            .base("send time - due time"),
    );
    out.set("loadgen.late_max_us", open.late.iter().copied().fold(0.0, f64::max) * 1e6);

    if !tr.enabled() {
        put_lat(out, "host_a_us", read, "mate");
        put_lat(out, "host_b_us", write, "update");
        out.put(
            "rate_per_s",
            Value::new(rate, "1/s").samples(closed.completed as usize).base(format!(
                "closed-loop completions per second, median over 100 ms windows, {CONNS} connections x window {WINDOW}"
            )),
        );
        out.put(
            "billed_a_ms",
            Value::new(boot_billed * 1e3, "ms").base("billed sim_time of the boot build (epoch 0)"),
        );
        out.put(
            "billed_b_ms",
            Value::new((final_snap.sim_time - boot_billed) * 1e3 * 1000.0 / applied, "ms")
                .base(format!("billed maintenance per 1000 applied updates ({applied} applied)")),
        );
        out.put("peak_rss_mb", Value::new(sys::peak_kb() as f64 / 1024.0, "MiB"));
        return;
    }
    layers(&g, &cfg, &captured, tr, out);
    dyn_replay::run(seed, &g, tr, out);
}

/// Per-layer metrics from replays of the workload's own requests: the
/// protocol pieces one by one, the service's point read, and the write
/// path through `MatchService::submit` beside a bare `apply_batch` twin.
fn layers(
    g: &CsrGraph,
    cfg: &DynConfig,
    captured: &[(Vec<u8>, bool)],
    tr: &mut Tracer,
    out: &mut RunResult,
) {
    let resolved = {
        let t = Instant::now();
        let c = tr.time("serve.tune", || resolve_dyn_config(g, cfg.clone()));
        out.put(
            "serve.tune_s",
            Value::new(t.elapsed().as_secs_f64(), "s").base("resolve_dyn_config"),
        );
        c
    };
    let svc = MatchService::new("replay", g.clone(), resolved.clone(), ServeConfig::default());
    let snap = svc.snapshot();

    let stream: Vec<u8> = captured.iter().flat_map(|(l, _)| l.iter().copied()).collect();
    let lines: Vec<&[u8]> = captured.iter().map(|(l, _)| &l[..l.len() - 1]).collect();
    let reads: Vec<u32> = captured
        .iter()
        .zip(&lines)
        .filter(|((_, w), _)| !*w)
        .filter_map(|(_, l)| wire::parse_mate_fast(l))
        .collect();
    let update_lines: Vec<&str> = captured
        .iter()
        .zip(&lines)
        .filter(|((_, w), _)| *w)
        .map(|(_, l)| std::str::from_utf8(l).expect("generated lines are UTF-8"))
        .collect();
    let n_reads = captured.iter().filter(|(_, w)| !*w).count();
    out.attempt(reads.len() == n_reads, || "a generated mate line missed the fast parser".into());

    // Each micro-replay: ns per item, median over repetitions.
    let mut micro = |name: &'static str, items: usize, f: &mut dyn FnMut() -> usize| -> f64 {
        let mut per = Vec::new();
        for _ in 0..MICRO_REPS {
            let t = Instant::now();
            let done = tr.time(name, &mut *f);
            per.push(t.elapsed().as_secs_f64() * 1e9 / items.max(1) as f64);
            assert_eq!(done, items, "{name} replay lost items");
        }
        Summary::of(&per).expect("repetitions").median
    };
    let split = micro("serve.split", captured.len(), &mut || {
        let mut sp = FrameSplitter::new(MAX_FRAME_LEN);
        let mut frames = 0;
        for chunk in stream.chunks(16 * 1024) {
            sp.push(chunk);
            while let Some(SplitFrame::Line(_)) = sp.next() {
                frames += 1;
            }
        }
        frames
    });
    let parse_mate = micro("serve.parse_mate", reads.len(), &mut || {
        lines.iter().filter_map(|l| std::hint::black_box(wire::parse_mate_fast(l))).count()
    });
    let parse_json = micro("serve.parse_json", update_lines.len(), &mut || {
        update_lines
            .iter()
            .filter(|l| {
                matches!(
                    ParsedRequest::parse(l),
                    Ok(ParsedRequest { request: Request::Update { .. }, .. })
                )
            })
            .count()
    });
    let mut buf = Vec::with_capacity(1 << 16);
    let serialize = micro("serve.serialize", captured.len(), &mut || {
        let mut k = 0;
        let mut next_read = reads.iter();
        for (_, write) in captured {
            if buf.len() > 60_000 {
                buf.clear();
            }
            if *write {
                wire::update_ack(&mut buf, 1, 7, false);
            } else if let Some(&v) = next_read.next() {
                wire::mate_response(&mut buf, v, snap.mate(v), snap.epoch);
            }
            k += 1;
        }
        std::hint::black_box(&buf);
        k
    });
    let mate = micro("serve.mate", reads.len(), &mut || {
        reads.iter().filter(|&&v| std::hint::black_box(svc.mate("bench", v)).1.epoch == 0).count()
    });
    out.put(
        "serve.split_ns",
        Value::new(split, "ns").base("FrameSplitter push/next per request frame"),
    );
    out.put(
        "serve.parse_mate_ns",
        Value::new(parse_mate, "ns").base("wire::parse_mate_fast per mate line"),
    );
    out.put(
        "serve.parse_json_ns",
        Value::new(parse_json, "ns").base("ParsedRequest::parse per update line"),
    );
    out.put(
        "serve.serialize_ns",
        Value::new(serialize, "ns").base("wire::mate_response / update_ack per response"),
    );
    out.put("serve.mate_ns", Value::new(mate, "ns").base("MatchService::mate per read"));

    // The write path: each captured update submitted alone; a bare engine
    // applies the same batches the coalescer flushes.
    let updates: Vec<EdgeUpdate> = update_lines
        .iter()
        .filter_map(|l| match ParsedRequest::parse(l) {
            Ok(ParsedRequest { request: Request::Update { update }, .. }) => Some(update),
            _ => None,
        })
        .collect();
    let mut twin = IncrementalLd::new(g.clone(), resolved);
    let (mut admit, mut flush, mut apply) = (Vec::new(), Vec::new(), Vec::new());
    let mut batch = Vec::new();
    for u in updates {
        let t = Instant::now();
        let ack = tr.time("serve.submit", || svc.submit("bench", &[u]));
        let dt = t.elapsed().as_secs_f64();
        batch.push(u);
        match ack {
            Ok(a) if a.flushed => {
                flush.push(dt);
                let t = Instant::now();
                tr.time("dyn.apply.twin", || twin.apply_batch(&batch));
                apply.push(t.elapsed().as_secs_f64());
                batch.clear();
            }
            Ok(_) => admit.push(dt),
            Err(e) => out.fail(format!("replay submit refused: {e}")),
        }
    }
    svc.flush();
    twin.apply_batch(&batch);
    out.attempt(svc.snapshot().mate == twin.mate_array(), || {
        "coalescer replay differs from the bare engine".into()
    });
    let med = |xs: &[f64]| Summary::of(xs).map_or(0.0, |s| s.median * 1e6);
    out.put(
        "serve.admit_us",
        Value::new(med(&admit), "us").samples(admit.len()).base("submit that did not flush"),
    );
    out.put(
        "serve.flush_us",
        Value::new(med(&flush), "us").samples(flush.len()).base("submit that flushed"),
    );
    out.put(
        "serve.snapshot_us",
        Value::new(med(&flush) - med(&apply), "us")
            .samples(apply.len())
            .base("median flush - median apply_batch of the same batches"),
    );
}
