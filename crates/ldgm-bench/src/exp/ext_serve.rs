//! **Extension**: the matching service under concurrent client load.
//!
//! Every other study drives an engine directly; this one measures the
//! `ldgm-serve` stack end to end — TCP framing, the update coalescer, the
//! snapshot read path — with seeded in-process load generators. Two
//! complementary measurements per run:
//!
//! 1. **Coalescing records** (one per dataset, latency-comparable across
//!    PRs): N closed-loop client threads each stream single-edge updates
//!    interleaved with timed `mate` point queries. Reported: wall-clock
//!    p50/p99 query latency, the coalesced batch-size histogram (the
//!    whole point of the coalescer: mean committed batch size must
//!    exceed 1 under concurrent load), per-tenant billed simulated time,
//!    and whether the final matching survived the offline replay check.
//! 2. **Throughput trajectory** (first dataset): a single-threaded
//!    multiplexed loadgen — every connection non-blocking behind one
//!    poller, a bounded window of pipelined in-flight requests per
//!    connection — sweeps the client count against the epoll reactor and
//!    records rps with p50/p99/p999 completion latency. The summary pins
//!    the headline ratio: reactor rps at the largest client count over
//!    [`BASELINE_BEST_RPS`], the best rps the retired thread-per-connection
//!    pool reached in the committed `BENCH_serve.json`.
//!
//! `BENCH_serve.json` is a schema-version-2 document:
//! `{schema_version, records, throughput, summary}`.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write as IoWrite};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use epoll_shim::{Event, Interest, Poller};
use ldgm_dyn::DynConfig;
use ldgm_gpusim::json::{self, Json};
use ldgm_gpusim::Platform;
use ldgm_graph::{CsrGraph, Xoshiro256};
use ldgm_serve::{
    serve, serve_opts, FrameSplitter, MatchService, ServeConfig, ServerOptions, SplitFrame,
    MAX_FRAME_LEN,
};

use crate::datasets::{by_name, scaled_platform, Dataset};
use crate::table::Table;

/// Concurrent load-generator clients per dataset (coalescing records).
pub const CLIENTS: usize = 4;
/// Updates each client submits (coalescing records).
pub const UPDATES_PER_CLIENT: usize = 80;
/// Coalescer flush target (smaller than the 64 default so a short
/// benchmark still commits many batches).
pub const COALESCE_TARGET: usize = 16;
/// Simulated devices backing each service.
pub const DEVICES: usize = 2;
/// Load-stream seed.
pub const SEED: u64 = 11;
/// Default datasets: the three smallest Table I stand-ins, one per
/// family shape (social rmat, stencil lattice, dense similarity).
pub const DATASETS: &[&str] = &["com-Orkut", "Queen_4147", "mouse_gene"];
/// Default client-count sweep of the throughput trajectory.
pub const THROUGHPUT_CLIENTS: &[usize] = &[4, 32, 128, 512];
/// Default duration of one throughput point, milliseconds.
pub const THROUGHPUT_DURATION_MS: u64 = 2000;
/// Default pipelined in-flight requests per loadgen connection.
pub const WINDOW: usize = 16;
/// Reactor event-loop threads used by the throughput sweep.
pub const REACTOR_THREADS: usize = 2;
/// The baseline of the headline ratio: the best rps of the
/// thread-per-connection pool (one handler thread per client) in the
/// committed `BENCH_serve.json`, reached at [`BASELINE_BEST_CLIENTS`]
/// clients. The pool is gone, so the figure is pinned here.
pub const BASELINE_BEST_RPS: f64 = 218_691.5;
/// Client count of [`BASELINE_BEST_RPS`].
pub const BASELINE_BEST_CLIENTS: usize = 32;
/// One update is interleaved per this many loadgen requests.
const UPDATE_EVERY: usize = 64;

/// Knobs of one study run; every field has a CLI flag in `ext_serve`.
#[derive(Clone, Debug)]
pub struct StudyConfig {
    /// Closed-loop clients per coalescing record.
    pub clients: usize,
    /// Updates per closed-loop client.
    pub updates_per_client: usize,
    /// Duration of each throughput point, ms (0 skips the sweep).
    pub duration_ms: u64,
    /// Client counts of the throughput sweep.
    pub throughput_clients: Vec<usize>,
    /// Pipelined in-flight requests per loadgen connection.
    pub window: usize,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            clients: CLIENTS,
            updates_per_client: UPDATES_PER_CLIENT,
            duration_ms: THROUGHPUT_DURATION_MS,
            throughput_clients: THROUGHPUT_CLIENTS.to_vec(),
            window: WINDOW,
        }
    }
}

/// One dataset's service-under-load measurement.
#[derive(Clone, Debug)]
pub struct ServeRecord {
    /// Dataset name.
    pub dataset: String,
    /// Concurrent clients.
    pub clients: usize,
    /// Coalescer flush target.
    pub coalesce_target: usize,
    /// Updates applied by the engine (== admitted across all clients).
    pub updates_applied: u64,
    /// Point queries served.
    pub queries: u64,
    /// Committed batches.
    pub flushes: u64,
    /// Batches committed by the deadline rather than the size target.
    pub deadline_flushes: u64,
    /// Mean coalesced batch size (> 1 means coalescing actually merged
    /// concurrent submissions).
    pub mean_batch: f64,
    /// Largest committed batch.
    pub max_batch: u64,
    /// Power-of-two batch-size histogram as (upper bound, count).
    pub batch_histogram: Vec<(f64, u64)>,
    /// Wall-clock median `mate` latency, microseconds.
    pub p50_query_us: f64,
    /// Wall-clock 99th-percentile `mate` latency, microseconds.
    pub p99_query_us: f64,
    /// Mate-change events delivered to the subscribing client.
    pub subscription_events: u64,
    /// Final matched weight.
    pub weight: f64,
    /// Final matched edges.
    pub cardinality: u64,
    /// Final commit epoch (== flushes).
    pub epoch: u64,
    /// Simulated seconds billed across all tenants.
    pub billed_sim_time: f64,
    /// Whether the final matching was bit-identical to an offline replay
    /// of the full update history.
    pub replay_identical: bool,
}

impl ServeRecord {
    /// Serialize for `BENCH_serve.json`.
    pub fn to_json(&self) -> Json {
        let hist: Vec<Json> = self
            .batch_histogram
            .iter()
            .map(|&(le, n)| Json::object().with("le", le).with("count", n))
            .collect();
        Json::object()
            .with("dataset", self.dataset.clone())
            .with("clients", self.clients)
            .with("coalesce_target", self.coalesce_target)
            .with("updates_applied", self.updates_applied)
            .with("queries", self.queries)
            .with("flushes", self.flushes)
            .with("deadline_flushes", self.deadline_flushes)
            .with("mean_batch", self.mean_batch)
            .with("max_batch", self.max_batch)
            .with("batch_histogram", Json::Array(hist))
            .with("p50_query_us", self.p50_query_us)
            .with("p99_query_us", self.p99_query_us)
            .with("subscription_events", self.subscription_events)
            .with("weight", self.weight)
            .with("cardinality", self.cardinality)
            .with("epoch", self.epoch)
            .with("billed_sim_time", self.billed_sim_time)
            .with("replay_identical", self.replay_identical)
    }
}

/// One client-count point of the throughput trajectory.
#[derive(Clone, Debug)]
pub struct ThroughputPoint {
    /// Dataset name.
    pub dataset: String,
    /// Concurrent loadgen connections.
    pub clients: usize,
    /// Reactor event-loop threads.
    pub threads: usize,
    /// Pipelined in-flight requests per connection.
    pub window: usize,
    /// Measurement window, ms.
    pub duration_ms: u64,
    /// Requests completed inside the measurement window.
    pub requests: u64,
    /// Updates interleaved into the request stream (rest are `mate`).
    pub updates: u64,
    /// Completed requests per second.
    pub rps: f64,
    /// Median completion latency (enqueue to response), microseconds.
    pub p50_us: f64,
    /// 99th-percentile completion latency, microseconds.
    pub p99_us: f64,
    /// 99.9th-percentile completion latency, microseconds.
    pub p999_us: f64,
    /// Server-side flushes that hit `WouldBlock`.
    pub backpressure_stalls: u64,
    /// Offline replay check at shutdown.
    pub replay_identical: bool,
}

impl ThroughputPoint {
    /// Serialize for `BENCH_serve.json`.
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("dataset", self.dataset.clone())
            .with("io", "reactor")
            .with("clients", self.clients)
            .with("threads", self.threads)
            .with("window", self.window)
            .with("duration_ms", self.duration_ms)
            .with("requests", self.requests)
            .with("updates", self.updates)
            .with("rps", self.rps)
            .with("p50_us", self.p50_us)
            .with("p99_us", self.p99_us)
            .with("p999_us", self.p999_us)
            .with("backpressure_stalls", self.backpressure_stalls)
            .with("replay_identical", self.replay_identical)
    }
}

/// Everything one study run produced.
#[derive(Clone, Debug, Default)]
pub struct Study {
    /// Per-dataset coalescing records.
    pub records: Vec<ServeRecord>,
    /// The throughput trajectory (empty when the sweep was skipped).
    pub throughput: Vec<ThroughputPoint>,
}

impl Study {
    /// The headline ratio: reactor rps at its largest measured client
    /// count over [`BASELINE_BEST_RPS`]. `None` when the sweep was
    /// skipped.
    pub fn speedup(&self) -> Option<f64> {
        let reactor_at_max = self.throughput.iter().max_by_key(|p| p.clients)?;
        Some(reactor_at_max.rps / BASELINE_BEST_RPS)
    }

    /// Serialize the schema-version-2 `BENCH_serve.json` document.
    pub fn to_json(&self) -> Json {
        let mut summary = Json::object();
        if let Some(peak) = self.throughput.iter().max_by_key(|p| p.clients) {
            summary.set("baseline_best_rps", BASELINE_BEST_RPS);
            summary.set("baseline_best_clients", BASELINE_BEST_CLIENTS);
            summary.set("reactor_rps_at_max_clients", peak.rps);
            summary.set("reactor_max_clients", peak.clients);
            summary.set("speedup", peak.rps / BASELINE_BEST_RPS);
        }
        Json::object()
            .with("schema_version", 2u64)
            .with("records", Json::Array(self.records.iter().map(ServeRecord::to_json).collect()))
            .with(
                "throughput",
                Json::Array(self.throughput.iter().map(ThroughputPoint::to_json).collect()),
            )
            .with("summary", summary)
    }
}

/// Serialize a coalescing-record set as a flat JSON array (the schema-v1
/// body, still used by tests comparing individual records).
pub fn serve_records_to_json(records: &[ServeRecord]) -> Json {
    Json::Array(records.iter().map(ServeRecord::to_json).collect())
}

/// One line-delimited JSON client; responses are read past any
/// interleaved subscription events, which are counted separately.
struct LoadClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    events: u64,
}

impl LoadClient {
    fn connect(addr: &str) -> LoadClient {
        let stream = TcpStream::connect(addr).expect("connect to in-process server");
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        LoadClient { stream, reader, events: 0 }
    }

    /// Send one request line and return its (non-event) response.
    fn call(&mut self, req: &Json) -> Json {
        writeln!(self.stream, "{}", req.to_string_compact()).expect("request write");
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("response read");
            let msg = json::parse(&line).expect("server speaks JSON");
            if msg.get("event").is_some() {
                self.events += 1;
                continue;
            }
            return msg;
        }
    }
}

/// One client's session: `updates` seeded single-edge updates, with a
/// timed `mate` query after every second update. Returns the query
/// latencies (µs) and the subscription events this client observed.
fn client_session(addr: &str, id: usize, updates: usize, seed: u64) -> (Vec<f64>, u64) {
    let mut c = LoadClient::connect(addr);
    let hello = c.call(&Json::object().with("op", "hello").with("tenant", format!("loadgen-{id}")));
    assert_eq!(hello.get("ok").and_then(Json::as_bool), Some(true), "hello failed");
    let info = c.call(&Json::object().with("op", "match-info"));
    let n =
        info.get("num_vertices").and_then(Json::as_f64).expect("match-info num_vertices") as u64;
    // The first client also subscribes, so notification delivery runs
    // under the same load it is being measured with.
    if id == 0 {
        let sub = c.call(&Json::object().with("op", "subscribe").with("v", 0u32));
        assert_eq!(sub.get("ok").and_then(Json::as_bool), Some(true), "subscribe failed");
    }

    let mut rng = Xoshiro256::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9e37_79b9));
    let mut latencies = Vec::with_capacity(updates / 2 + 1);
    for i in 0..updates {
        let u = rng.below(n) as u32;
        let v = rng.below(n) as u32;
        if u == v {
            continue;
        }
        let upd = if rng.chance(0.3) {
            Json::object().with("op", "update").with("kind", "delete").with("u", u).with("v", v)
        } else {
            Json::object()
                .with("op", "update")
                .with("kind", "insert")
                .with("u", u)
                .with("v", v)
                .with("w", 0.05 + rng.next_f64())
        };
        let ack = c.call(&upd);
        assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true), "update rejected: {ack:?}");

        if i % 2 == 1 {
            let q = rng.below(n) as u32;
            let t0 = Instant::now();
            let resp = c.call(&Json::object().with("op", "mate").with("v", q));
            latencies.push(t0.elapsed().as_secs_f64() * 1e6);
            assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "query failed");
        }
    }
    (latencies, c.events)
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn service_for(name: &str, g: CsrGraph, coalesce_target: usize) -> Arc<MatchService> {
    let dyn_cfg = DynConfig::new(scaled_platform(Platform::dgx_a100())).devices(DEVICES);
    let cfg = ServeConfig {
        coalesce_target,
        deadline: Duration::from_millis(25),
        max_pending_per_tenant: 1_000_000,
    };
    Arc::new(MatchService::new(name, g, dyn_cfg, cfg))
}

/// Serve `g` on a loopback server, drive it with `clients` concurrent
/// seeded sessions, and collect the record.
pub fn measure(name: &str, g: CsrGraph, clients: usize, updates_per_client: usize) -> ServeRecord {
    let service = service_for(name, g, COALESCE_TARGET);
    let handle = serve(vec![service], "127.0.0.1:0", 2).expect("bind loopback");
    let addr = handle.addr.to_string();

    let sessions: Vec<_> = (0..clients)
        .map(|id| {
            let addr = addr.clone();
            std::thread::spawn(move || client_session(&addr, id, updates_per_client, SEED))
        })
        .collect();
    let mut latencies = Vec::new();
    let mut events = 0u64;
    for s in sessions {
        let (lat, ev) = s.join().expect("client session");
        latencies.extend(lat);
        events += ev;
    }
    latencies.sort_by(|a, b| a.total_cmp(b));

    // Control session: commit stragglers, read the final state, then shut
    // the server down (which runs the offline replay check).
    let mut ctl = LoadClient::connect(&addr);
    ctl.call(&Json::object().with("op", "flush"));
    let stats = ctl.call(&Json::object().with("op", "stats"));
    let info = ctl.call(&Json::object().with("op", "match-info"));
    let bye = ctl.call(&Json::object().with("op", "shutdown"));
    handle.join();

    let f = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let hist = stats
        .get("batch_histogram")
        .and_then(Json::as_array)
        .map(|rows| rows.iter().map(|r| (f(r, "le"), f(r, "count") as u64)).collect::<Vec<_>>())
        .unwrap_or_default();
    let sum_tenants = |k: &str| match stats.get("tenants") {
        Some(Json::Object(entries)) => entries.iter().map(|(_, t)| f(t, k)).sum::<f64>(),
        _ => 0.0,
    };
    ServeRecord {
        dataset: name.to_string(),
        clients,
        coalesce_target: COALESCE_TARGET,
        updates_applied: f(&stats, "updates_applied") as u64,
        queries: sum_tenants("queries") as u64,
        flushes: f(&stats, "flushes") as u64,
        deadline_flushes: f(&stats, "deadline_flushes") as u64,
        mean_batch: f(&stats, "mean_batch"),
        max_batch: f(&stats, "max_batch") as u64,
        batch_histogram: hist,
        p50_query_us: percentile(&latencies, 0.50),
        p99_query_us: percentile(&latencies, 0.99),
        subscription_events: events,
        weight: f(&info, "weight"),
        cardinality: f(&info, "size") as u64,
        epoch: f(&info, "epoch") as u64,
        billed_sim_time: sum_tenants("billed_sim_time"),
        replay_identical: bye.get("replay_identical").and_then(Json::as_bool).unwrap_or(false),
    }
}

/// One multiplexed loadgen connection: non-blocking socket, reusable
/// frame splitter and send buffer, a bounded window of in-flight
/// requests stamped with their enqueue times.
struct PipeConn {
    stream: TcpStream,
    splitter: FrameSplitter,
    wbuf: Vec<u8>,
    wpos: usize,
    inflight: VecDeque<Instant>,
    write_armed: bool,
    sent: u64,
}

impl PipeConn {
    fn unsent(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Enqueue one request: mostly compact `mate` frames (the server's
    /// zero-allocation fast path), one insert per [`UPDATE_EVERY`].
    fn enqueue(&mut self, n: u64, rng: &mut Xoshiro256, updates_sent: &mut u64) {
        if self.sent % UPDATE_EVERY as u64 == UPDATE_EVERY as u64 - 1 {
            let u = rng.below(n) as u32;
            let v = (u + 1 + rng.below(n - 1) as u32) % n as u32;
            let w = 0.05 + rng.next_f64();
            self.wbuf.extend_from_slice(
                format!(
                    "{{\"op\":\"update\",\"kind\":\"insert\",\"u\":{u},\"v\":{v},\"w\":{w}}}\n"
                )
                .as_bytes(),
            );
            *updates_sent += 1;
        } else {
            let q = rng.below(n);
            self.wbuf.extend_from_slice(b"{\"op\":\"mate\",\"v\":");
            self.wbuf.extend_from_slice(q.to_string().as_bytes());
            self.wbuf.extend_from_slice(b"}\n");
        }
        self.sent += 1;
        self.inflight.push_back(Instant::now());
    }

    /// Write as much of the send buffer as the socket takes; returns
    /// whether the socket would block (write interest should be armed).
    fn flush(&mut self) -> bool {
        while self.unsent() > 0 {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => panic!("loadgen socket closed mid-benchmark"),
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

/// Serve `g` on [`REACTOR_THREADS`] event loops and drive it with a
/// multiplexed windowed-pipelining loadgen for `duration_ms`; returns the
/// point.
pub fn measure_throughput(
    name: &str,
    g: CsrGraph,
    clients: usize,
    duration_ms: u64,
    window: usize,
) -> ThroughputPoint {
    assert!(clients > 0 && window > 0 && duration_ms > 0);
    let service = service_for(name, g, 64);
    let n = service.snapshot().mate.len() as u64;
    assert!(n > 2, "throughput graph too small");
    let threads = REACTOR_THREADS;
    let handle = serve_opts(
        vec![service],
        "127.0.0.1:0",
        ServerOptions { threads, max_frame: MAX_FRAME_LEN },
    )
    .expect("bind loopback");
    let addr = handle.addr;

    let poller = Poller::new().expect("loadgen poller");
    let mut conns: Vec<PipeConn> = (0..clients)
        .map(|i| {
            let stream = TcpStream::connect(addr).expect("loadgen connect");
            stream.set_nodelay(true).expect("nodelay");
            stream.set_nonblocking(true).expect("nonblocking");
            poller.add(stream.as_raw_fd(), i as u64, Interest::READ).expect("register");
            PipeConn {
                stream,
                splitter: FrameSplitter::new(MAX_FRAME_LEN),
                wbuf: Vec::new(),
                wpos: 0,
                inflight: VecDeque::new(),
                write_armed: false,
                sent: 0,
            }
        })
        .collect();

    let mut rng = Xoshiro256::seed_from_u64(SEED ^ (clients as u64) << 8 ^ threads as u64);
    let mut latencies: Vec<f64> = Vec::new();
    let mut completed_in_window = 0u64;
    let mut updates_sent = 0u64;
    let mut bad_frames = 0u64;
    let mut scratch = vec![0u8; 64 * 1024];

    let t0 = Instant::now();
    let t_end = t0 + Duration::from_millis(duration_ms);
    let t_grace = t_end + Duration::from_secs(10);

    // Prime every window, then let readiness drive the rest.
    for (i, c) in conns.iter_mut().enumerate() {
        for _ in 0..window {
            c.enqueue(n, &mut rng, &mut updates_sent);
        }
        if c.flush() && !c.write_armed {
            c.write_armed = true;
            let _ = poller.modify(c.stream.as_raw_fd(), i as u64, Interest::READ_WRITE);
        }
    }

    let mut events: Vec<Event> = Vec::new();
    loop {
        let now = Instant::now();
        let sending = now < t_end;
        if !sending
            && (conns.iter().all(|c| c.inflight.is_empty() && c.unsent() == 0) || now > t_grace)
        {
            break;
        }
        events.clear();
        poller.wait(&mut events, 100).expect("loadgen wait");
        for ev in &events {
            let i = ev.token as usize;
            let c = &mut conns[i];
            if ev.readable {
                loop {
                    match c.stream.read(&mut scratch) {
                        Ok(0) => panic!("server hung up mid-benchmark"),
                        Ok(k) => {
                            c.splitter.push(&scratch[..k]);
                            if k < scratch.len() {
                                break;
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(e) => panic!("loadgen read failed: {e}"),
                    }
                }
                let now = Instant::now();
                let counting = now < t_end;
                while let Some(frame) = c.splitter.next() {
                    let SplitFrame::Line(r) = frame else { panic!("oversized response frame") };
                    if !c.splitter.slice(r).starts_with(b"{\"ok\":true") {
                        bad_frames += 1;
                    }
                    let sent_at =
                        c.inflight.pop_front().expect("response without an in-flight request");
                    if counting {
                        completed_in_window += 1;
                        latencies.push(now.duration_since(sent_at).as_secs_f64() * 1e6);
                    }
                }
                if sending {
                    while c.inflight.len() < window {
                        c.enqueue(n, &mut rng, &mut updates_sent);
                    }
                }
            }
            let blocked = c.flush();
            if blocked != c.write_armed {
                c.write_armed = blocked;
                let want = if blocked { Interest::READ_WRITE } else { Interest::READ };
                let _ = poller.modify(c.stream.as_raw_fd(), i as u64, want);
            }
        }
    }
    assert_eq!(bad_frames, 0, "loadgen saw {bad_frames} non-ok responses");
    drop(conns); // close every loadgen socket before the control session

    let mut ctl = LoadClient::connect(&addr.to_string());
    let stats = ctl.call(&Json::object().with("op", "stats"));
    let stalls = stats
        .get("server")
        .and_then(|s| s.get("backpressure_stalls"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0) as u64;
    let bye = ctl.call(&Json::object().with("op", "shutdown"));
    handle.join();

    latencies.sort_by(|a, b| a.total_cmp(b));
    ThroughputPoint {
        dataset: name.to_string(),
        clients,
        threads,
        window,
        duration_ms,
        requests: completed_in_window,
        updates: updates_sent,
        rps: completed_in_window as f64 / (duration_ms as f64 / 1e3),
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        p999_us: percentile(&latencies, 0.999),
        backpressure_stalls: stalls,
        replay_identical: bye.get("replay_identical").and_then(Json::as_bool).unwrap_or(false),
    }
}

/// Run the study over `datasets` with `cfg`, returning every record.
pub fn run_on_with(
    datasets: &[Dataset],
    cfg: &StudyConfig,
    w: &mut dyn IoWrite,
) -> io::Result<Study> {
    writeln!(w, "# Extension: matching-as-a-service under concurrent load\n")?;
    writeln!(
        w,
        "{} loadgen clients per dataset, {} updates each with\n\
         interleaved timed point queries, coalesce target {COALESCE_TARGET}, {DEVICES}\n\
         simulated devices. `replay` checks the served matching against an\n\
         offline replay of the full update history (canonical uniqueness).\n",
        cfg.clients, cfg.updates_per_client
    )?;
    let mut t = Table::new(vec![
        "dataset",
        "clients",
        "updates",
        "flushes",
        "mean batch",
        "p50 query",
        "p99 query",
        "replay",
    ]);
    let mut study = Study::default();
    for ds in datasets {
        let rec = measure(ds.name, ds.build(), cfg.clients, cfg.updates_per_client);
        t.row(vec![
            rec.dataset.clone(),
            format!("{}", rec.clients),
            format!("{}", rec.updates_applied),
            format!("{} ({} deadline)", rec.flushes, rec.deadline_flushes),
            format!("{:.1}", rec.mean_batch),
            format!("{:.0} us", rec.p50_query_us),
            format!("{:.0} us", rec.p99_query_us),
            if rec.replay_identical { "identical" } else { "DIVERGED" }.to_string(),
        ]);
        study.records.push(rec);
    }
    writeln!(w, "{t}")?;

    let Some(first) = datasets.first() else { return Ok(study) };
    if cfg.duration_ms == 0 || cfg.throughput_clients.is_empty() {
        return Ok(study);
    }
    writeln!(w, "## Throughput trajectory ({}): epoll reactor\n", first.name)?;
    writeln!(
        w,
        "Multiplexed loadgen, window {} pipelined requests per connection,\n\
         {} ms per point; 1 update per {UPDATE_EVERY} requests, rest are fast-path\n\
         `mate` queries.\n",
        cfg.window, cfg.duration_ms
    )?;
    let mut tt =
        Table::new(vec!["clients", "threads", "rps", "p50", "p99", "p99.9", "stalls", "replay"]);
    for &clients in &cfg.throughput_clients {
        let p = measure_throughput(first.name, first.build(), clients, cfg.duration_ms, cfg.window);
        tt.row(vec![
            format!("{}", p.clients),
            format!("{}", p.threads),
            format!("{:.0}", p.rps),
            format!("{:.0} us", p.p50_us),
            format!("{:.0} us", p.p99_us),
            format!("{:.0} us", p.p999_us),
            format!("{}", p.backpressure_stalls),
            if p.replay_identical { "identical" } else { "DIVERGED" }.to_string(),
        ]);
        study.throughput.push(p);
    }
    writeln!(w, "{tt}")?;
    if let Some(s) = study.speedup() {
        writeln!(
            w,
            "reactor @ max clients vs the thread-per-connection pool's best \
             ({BASELINE_BEST_RPS:.0} rps @ {BASELINE_BEST_CLIENTS} clients, pinned): {s:.1}x\n"
        )?;
    }
    Ok(study)
}

/// Run the study over `datasets` with the default knobs.
pub fn run_on(datasets: &[Dataset], w: &mut dyn IoWrite) -> io::Result<Study> {
    run_on_with(datasets, &StudyConfig::default(), w)
}

/// Run the study on the default dataset subset, writing the report to `w`.
pub fn run(w: &mut dyn IoWrite) -> io::Result<()> {
    let datasets: Vec<Dataset> =
        DATASETS.iter().map(|n| by_name(n).expect("registry dataset")).collect();
    run_on(&datasets, w).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldgm_graph::gen::urand;

    #[test]
    fn concurrent_load_coalesces_and_replays_identically() {
        let rec = measure("test-urand", urand(400, 1600, 3), 3, 30);
        // What coalescing promises: concurrent submissions actually merge.
        assert!(rec.mean_batch > 1.0, "mean batch {}", rec.mean_batch);
        assert!(rec.flushes > 1, "{} flushes", rec.flushes);
        assert_eq!(rec.epoch, rec.flushes);
        assert!(rec.replay_identical, "served matching diverged from offline replay");
        assert!(rec.queries > 0 && rec.updates_applied > 0);
        assert!(rec.p99_query_us >= rec.p50_query_us);
        assert!(rec.billed_sim_time > 0.0);
        let total_in_hist: u64 = rec.batch_histogram.iter().map(|&(_, n)| n).sum();
        assert_eq!(total_in_hist, rec.flushes, "histogram covers every flush");
    }

    #[test]
    fn throughput_point_measures_the_reactor() {
        let p = measure_throughput("test-urand", urand(300, 1200, 3), 8, 250, 8);
        assert_eq!(p.threads, REACTOR_THREADS);
        assert!(p.requests > 0, "no completions");
        assert!(p.rps > 0.0);
        assert!(p.p99_us >= p.p50_us && p.p999_us >= p.p99_us);
        assert!(p.replay_identical, "replay diverged");
        assert!(p.updates > 0, "stream had no updates");
    }

    #[test]
    fn study_document_has_schema_v2_shape() {
        let point = |clients: usize, rps: f64| ThroughputPoint {
            dataset: "x".into(),
            clients,
            threads: 2,
            window: 16,
            duration_ms: 100,
            requests: (rps / 10.0) as u64,
            updates: 3,
            rps,
            p50_us: 50.0,
            p99_us: 200.0,
            p999_us: 400.0,
            backpressure_stalls: 1,
            replay_identical: true,
        };
        let study = Study {
            records: Vec::new(),
            throughput: vec![point(32, 437_383.0), point(4, 500_000.0)],
        };
        // Speedup = reactor at its largest client count (32) over the
        // pinned baseline.
        assert_eq!(study.speedup(), Some(2.0));
        assert_eq!(Study::default().speedup(), None);
        let doc = study.to_json();
        assert_eq!(doc.get("schema_version").and_then(Json::as_f64), Some(2.0));
        let rows = doc.get("throughput").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.get("io").and_then(Json::as_str) == Some("reactor")));
        let summary = doc.get("summary").unwrap();
        assert_eq!(summary.get("baseline_best_rps").and_then(Json::as_f64), Some(218_691.5));
        assert_eq!(summary.get("baseline_best_clients").and_then(Json::as_f64), Some(32.0));
        assert_eq!(
            summary.get("reactor_rps_at_max_clients").and_then(Json::as_f64),
            Some(437_383.0)
        );
        assert_eq!(summary.get("reactor_max_clients").and_then(Json::as_f64), Some(32.0));
        assert_eq!(summary.get("speedup").and_then(Json::as_f64), Some(2.0));
        // Round-trip through the parser (what the CI gate does).
        let parsed = json::parse(&doc.to_string_pretty()).unwrap();
        let rows = parsed.get("throughput").and_then(Json::as_array).unwrap();
        assert!(rows.iter().all(|r| {
            r.get("rps").and_then(Json::as_f64).unwrap() > 0.0
                && r.get("p99_us").and_then(Json::as_f64).is_some()
        }));
    }

    #[test]
    fn record_round_trips_through_json() {
        let rec = ServeRecord {
            dataset: "x".into(),
            clients: 4,
            coalesce_target: 16,
            updates_applied: 320,
            queries: 160,
            flushes: 20,
            deadline_flushes: 2,
            mean_batch: 16.0,
            max_batch: 16,
            batch_histogram: vec![(16.0, 18), (32.0, 2)],
            p50_query_us: 120.0,
            p99_query_us: 900.0,
            subscription_events: 3,
            weight: 12.5,
            cardinality: 180,
            epoch: 20,
            billed_sim_time: 0.25,
            replay_identical: true,
        };
        let doc = serve_records_to_json(std::slice::from_ref(&rec)).to_string_pretty();
        let parsed = json::parse(&doc).unwrap();
        let row = &parsed.as_array().unwrap()[0];
        assert_eq!(row.get("dataset").and_then(Json::as_str), Some("x"));
        assert_eq!(row.get("mean_batch").and_then(Json::as_f64), Some(rec.mean_batch));
        assert_eq!(row.get("replay_identical").and_then(Json::as_bool), Some(true));
        let hist = row.get("batch_histogram").and_then(Json::as_array).unwrap();
        assert_eq!(hist.len(), 2);
        assert_eq!(hist[1].get("count").and_then(Json::as_f64), Some(2.0));
    }
}
