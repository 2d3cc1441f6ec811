//! The TCP layer: a shared front door over two interchangeable I/O
//! models.
//!
//! - [`IoModel::Reactor`] (the default behind [`serve`]): a few epoll
//!   event-loop threads ([`crate::reactor`]) multiplex every connection —
//!   non-blocking sockets, per-connection state machines, batched
//!   flushes, write interest armed only while a send buffer is
//!   non-empty. This is the high-throughput path.
//! - [`IoModel::Blocking`] ([`serve_blocking`]): the original
//!   thread-per-connection pool — one acceptor feeding `threads` handler
//!   threads over an mpsc channel. Kept as the measured baseline for the
//!   `ext_serve` throughput study and as a semantics reference: both
//!   models speak bit-identical wire responses.
//!
//! Either way a flusher thread ticks the deadline-based flush of every
//! resident dataset so a trickle of updates still commits without
//! waiting for the coalesce target, and shutdown is cooperative: the
//! `shutdown` op (or [`ServerHandle::shutdown`]) flushes every dataset,
//! runs the offline replay check, flips the stop flag and wakes every
//! event loop (reactor) or nudges the acceptor with a loopback connect
//! (blocking).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ldgm_gpusim::json::Json;
use parking_lot::Mutex;

use crate::protocol::{
    err_response, frame_too_large_response, ok_response, ParsedRequest, Request, MAX_FRAME_LEN,
};
use crate::reactor::{spawn_shards, ShardHandle};
use crate::service::{MatchService, UNMATCHED};

/// Which I/O engine drives the sockets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoModel {
    /// Epoll event loops (poll(2) off Linux): a few threads, many
    /// connections, zero-allocation hot path. The default.
    Reactor,
    /// Thread-per-connection on a worker pool: the pre-reactor baseline.
    Blocking,
}

impl IoModel {
    /// Stable wire/CLI name (`"reactor"` / `"blocking"`).
    pub fn label(self) -> &'static str {
        match self {
            IoModel::Reactor => "reactor",
            IoModel::Blocking => "blocking",
        }
    }

    /// Parse a CLI/wire name (the inverse of [`IoModel::label`]).
    pub fn parse(s: &str) -> Option<IoModel> {
        match s {
            "reactor" => Some(IoModel::Reactor),
            "blocking" => Some(IoModel::Blocking),
            _ => None,
        }
    }
}

/// Tunables for [`serve_opts`]; [`Default`] matches plain [`serve`].
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// I/O engine.
    pub io: IoModel,
    /// Reactor event-loop threads, or blocking handler threads.
    pub threads: usize,
    /// Per-frame byte cap; longer lines answer `413` and are discarded.
    pub max_frame: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions { io: IoModel::Reactor, threads: 2, max_frame: MAX_FRAME_LEN }
    }
}

/// Server-wide transport counters, surfaced through the `stats` op and
/// the `serve.*` gauges of `match-info`.
#[derive(Debug)]
pub struct ServerStats {
    pub(crate) accepted: AtomicU64,
    pub(crate) connections: AtomicUsize,
    pub(crate) requests: AtomicU64,
    pub(crate) backpressure_stalls: AtomicU64,
    started: Instant,
    io: IoModel,
    threads: usize,
}

impl ServerStats {
    fn new(io: IoModel, threads: usize) -> ServerStats {
        ServerStats {
            accepted: AtomicU64::new(0),
            connections: AtomicUsize::new(0),
            requests: AtomicU64::new(0),
            backpressure_stalls: AtomicU64::new(0),
            started: Instant::now(),
            io,
            threads,
        }
    }

    /// Connections currently open.
    pub fn connections(&self) -> usize {
        self.connections.load(Ordering::Relaxed)
    }

    /// Connections accepted since boot.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Requests handled since boot (every non-blank frame counts, even
    /// malformed ones — they are answered too).
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Flushes that hit `WouldBlock` and armed write interest (reactor)
    /// — i.e. moments a peer was slower than the server.
    pub fn backpressure_stalls(&self) -> u64 {
        self.backpressure_stalls.load(Ordering::Relaxed)
    }

    /// Lifetime mean requests/second since boot.
    pub fn rps(&self) -> f64 {
        let secs = self.started.elapsed().as_secs_f64();
        if secs > 0.0 {
            self.requests() as f64 / secs
        } else {
            0.0
        }
    }
}

/// One reactor shard's counters, for the `stats` op's `server.shards`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ShardSnapshot {
    pub(crate) connections: usize,
    pub(crate) requests: u64,
}

/// Resolve a request's dataset route to an index into `services`.
pub(crate) fn resolve_idx(
    services: &[Arc<MatchService>],
    dataset: Option<&str>,
) -> Result<usize, Json> {
    match dataset {
        None => Ok(0),
        Some(name) => services.iter().position(|s| s.name() == name).ok_or_else(|| {
            let valid: Vec<&str> = services.iter().map(|s| s.name()).collect();
            err_response(404, format!("unknown dataset '{name}' (loaded: {})", valid.join(", ")))
        }),
    }
}

/// The `shutdown` response body: flush every dataset, verify each
/// against an offline replay, report. (The caller flips the stop flag.)
pub(crate) fn shutdown_response(services: &[Arc<MatchService>]) -> Json {
    let mut datasets = Vec::new();
    let mut all_identical = true;
    for s in services {
        s.flush();
        let replay = s.replay_check();
        all_identical &= replay.is_ok();
        let snap = s.snapshot();
        datasets.push(
            Json::object()
                .with("dataset", s.name())
                .with("epoch", snap.epoch)
                .with("weight", snap.weight)
                .with("size", snap.cardinality)
                .with("replay_identical", replay.is_ok())
                .with(
                    "replay_error",
                    match replay {
                        Ok(()) => Json::Null,
                        Err(e) => Json::from(e),
                    },
                ),
        );
    }
    ok_response()
        .with("stopping", true)
        .with("replay_identical", all_identical)
        .with("datasets", datasets)
}

/// The `server` object embedded in `stats` responses.
fn server_stats_json(stats: &ServerStats, shards: &[ShardSnapshot]) -> Json {
    let shard_list: Vec<Json> = shards
        .iter()
        .map(|s| Json::object().with("connections", s.connections).with("requests", s.requests))
        .collect();
    Json::object()
        .with("io", stats.io.label())
        .with("threads", stats.threads)
        .with("connections", stats.connections())
        .with("accepted", stats.accepted())
        .with("requests", stats.requests())
        .with("rps", stats.rps())
        .with("backpressure_stalls", stats.backpressure_stalls())
        .with("shards", shard_list)
}

/// The `stats` response: the service's coalescer/tenant accounting plus
/// the transport's `server` object.
pub(crate) fn stats_response(
    service: &MatchService,
    stats: &ServerStats,
    shards: &[ShardSnapshot],
) -> Json {
    let mut j = service.stats_json();
    j.set("ok", true);
    j.set("server", server_stats_json(stats, shards));
    j
}

/// The `match-info` response, with the transport's `serve.*` gauges
/// merged into the service's schema-v2 gauge object.
pub(crate) fn info_response(service: &MatchService, stats: &ServerStats) -> Json {
    let mut j = service.info_json();
    j.set("ok", true);
    let mut gauges = j.get("gauges").cloned().unwrap_or_else(Json::object);
    gauges.set("serve.connections", stats.connections() as f64);
    gauges.set("serve.rps", stats.rps());
    gauges.set("serve.backpressure_stalls", stats.backpressure_stalls() as f64);
    j.set("gauges", gauges);
    j
}

/// A running server: its bound address and the handles needed to stop it.
pub struct ServerHandle {
    /// The actual bound address (the requested port may have been 0).
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    stats: Arc<ServerStats>,
    /// Reactor shards to wake on shutdown (empty for the blocking model).
    shards: Vec<Arc<ShardHandle>>,
}

impl ServerHandle {
    /// True once a `shutdown` op (or [`ServerHandle::shutdown`]) ran.
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Live transport counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Stop the server and join its threads. Idempotent with the wire
    /// `shutdown` op; in-flight connections are drained, not severed.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        if self.shards.is_empty() {
            // Nudge the blocking accept loop.
            let _ = TcpStream::connect(self.addr);
        } else {
            for s in &self.shards {
                s.wake();
            }
        }
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// Block until every server thread exits (i.e. until some client
    /// sends the `shutdown` op).
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Start serving `services` (first entry is the default dataset) on
/// `bind` (e.g. `"127.0.0.1:0"`) with `threads` reactor event-loop
/// threads. Shorthand for [`serve_opts`] with [`IoModel::Reactor`].
pub fn serve(
    services: Vec<Arc<MatchService>>,
    bind: &str,
    threads: usize,
) -> std::io::Result<ServerHandle> {
    serve_opts(services, bind, ServerOptions { threads, ..ServerOptions::default() })
}

/// Start serving with the legacy thread-per-connection model (`threads`
/// handler threads). The baseline the throughput study measures against.
pub fn serve_blocking(
    services: Vec<Arc<MatchService>>,
    bind: &str,
    threads: usize,
) -> std::io::Result<ServerHandle> {
    serve_opts(
        services,
        bind,
        ServerOptions { io: IoModel::Blocking, threads, ..ServerOptions::default() },
    )
}

/// Start serving with explicit [`ServerOptions`].
pub fn serve_opts(
    services: Vec<Arc<MatchService>>,
    bind: &str,
    opts: ServerOptions,
) -> std::io::Result<ServerHandle> {
    assert!(!services.is_empty(), "serve requires at least one dataset");
    let listener = TcpListener::bind(bind)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let services = Arc::new(services);
    let threads_n = opts.threads.max(1);
    let stats = Arc::new(ServerStats::new(opts.io, threads_n));
    let mut threads = Vec::new();

    // Deadline flusher: ticks at a fraction of the smallest deadline.
    let min_deadline =
        services.iter().map(|s| s.config().deadline).min().unwrap_or(Duration::from_millis(10));
    let tick = (min_deadline / 2).clamp(Duration::from_millis(1), Duration::from_millis(50));
    {
        let services = services.clone();
        let stop = stop.clone();
        threads.push(std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                for s in services.iter() {
                    s.flush_due();
                }
                std::thread::sleep(tick);
            }
        }));
    }

    let shards = match opts.io {
        IoModel::Reactor => {
            let (shards, joins) = spawn_shards(
                listener,
                services.clone(),
                stats.clone(),
                stop.clone(),
                threads_n,
                opts.max_frame,
            )?;
            threads.extend(joins);
            shards
        }
        IoModel::Blocking => {
            spawn_blocking(
                listener,
                services,
                stats.clone(),
                stop.clone(),
                threads_n,
                opts.max_frame,
                &mut threads,
            );
            Vec::new()
        }
    };

    Ok(ServerHandle { addr, stop, threads, stats, shards })
}

/// The legacy acceptor + worker pool.
fn spawn_blocking(
    listener: TcpListener,
    services: Arc<Vec<Arc<MatchService>>>,
    stats: Arc<ServerStats>,
    stop: Arc<AtomicBool>,
    workers: usize,
    max_frame: usize,
    threads: &mut Vec<JoinHandle<()>>,
) {
    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    for _ in 0..workers {
        let rx = rx.clone();
        let services = services.clone();
        let stats = stats.clone();
        let stop = stop.clone();
        threads.push(std::thread::spawn(move || loop {
            let conn = { rx.lock().recv() };
            match conn {
                Ok(stream) => handle_connection(&services, &stats, stream, &stop, max_frame),
                Err(_) => return, // acceptor gone
            }
        }));
    }
    {
        let stop = stop.clone();
        threads.push(std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break; // the nudge connect lands here
                }
                match stream {
                    Ok(s) => {
                        if tx.send(s).is_err() {
                            break;
                        }
                    }
                    Err(_) => continue,
                }
            }
            // Dropping `tx` drains the worker pool.
        }));
    }
}

fn write_line(out: &Mutex<TcpStream>, j: &Json) -> bool {
    let mut line = j.to_string_compact();
    line.push('\n');
    let mut s = out.lock();
    s.write_all(line.as_bytes()).and_then(|_| s.flush()).is_ok()
}

fn handle_connection(
    services: &[Arc<MatchService>],
    stats: &Arc<ServerStats>,
    stream: TcpStream,
    stop: &Arc<AtomicBool>,
    max_frame: usize,
) {
    stats.accepted.fetch_add(1, Ordering::Relaxed);
    stats.connections.fetch_add(1, Ordering::Relaxed);
    // Balance the connection gauge on every exit path.
    struct OpenConn<'a>(&'a ServerStats);
    impl Drop for OpenConn<'_> {
        fn drop(&mut self) {
            self.0.connections.fetch_sub(1, Ordering::Relaxed);
        }
    }
    let _open = OpenConn(stats);

    let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "?".into());
    // A finite read timeout lets this handler notice the stop flag even
    // while its client sits idle, so shutdown never hangs on an open
    // connection. Nagle's algorithm would add ~40 ms of delayed-ACK
    // latency to the small request/response frames this protocol sends.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(Mutex::new(stream));
    let mut reader = BufReader::new(read_half);
    // Until `hello` renames it, the tenant is the peer socket address —
    // unique per connection, so accounting still separates clients.
    let mut tenant = format!("client-{peer}");
    let mut line = String::new();

    loop {
        line.clear();
        loop {
            match reader.read_line(&mut line) {
                Ok(0) => return, // client hung up
                Ok(_) => break,
                // Timeout mid-wait (or mid-line: already-read bytes stay
                // appended to `line`, so continuing is lossless).
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                }
                Err(_) => return,
            }
        }
        if line.trim().is_empty() {
            continue;
        }
        stats.requests.fetch_add(1, Ordering::Relaxed);
        if line.len() > max_frame {
            // Same cap the reactor's splitter enforces mid-stream; the
            // buffered reader sees the whole line, so checking after the
            // fact bounds memory just as well here.
            if !write_line(&writer, &frame_too_large_response(line.len(), max_frame)) {
                return;
            }
            continue;
        }
        let parsed = match ParsedRequest::parse(line.trim()) {
            Ok(p) => p,
            Err(e) => {
                if !write_line(&writer, &err_response(400, e)) {
                    return;
                }
                continue;
            }
        };
        let service = match resolve_idx(services, parsed.dataset.as_deref()) {
            Ok(i) => &services[i],
            Err(resp) => {
                if !write_line(&writer, &resp) {
                    return;
                }
                continue;
            }
        };
        let response = match parsed.request {
            Request::Hello { tenant: t } => {
                tenant = t;
                ok_response().with("tenant", tenant.clone())
            }
            Request::Mate { v } => {
                let (mate, snap) = service.mate(&tenant, v);
                if (v as usize) >= snap.mate.len() {
                    err_response(404, format!("vertex {v} out of range (n={})", snap.mate.len()))
                } else {
                    let mate_json = match mate {
                        Some(m) => Json::from(m),
                        None => Json::Null,
                    };
                    ok_response().with("v", v).with("mate", mate_json).with("epoch", snap.epoch)
                }
            }
            Request::MatchInfo => info_response(service, stats),
            Request::Update { update } => match service.submit(&tenant, &[update]) {
                Ok(ack) => ok_response()
                    .with("admitted", ack.admitted)
                    .with("pending", ack.pending)
                    .with("flushed", ack.flushed),
                Err(e) => err_response(429, e.to_string()),
            },
            Request::UpdateBatch { updates } => match service.submit(&tenant, &updates) {
                Ok(ack) => ok_response()
                    .with("admitted", ack.admitted)
                    .with("pending", ack.pending)
                    .with("flushed", ack.flushed),
                Err(e) => err_response(429, e.to_string()),
            },
            Request::Subscribe { v } => {
                if (v as usize) >= service.snapshot().mate.len() {
                    err_response(404, format!("vertex {v} out of range"))
                } else {
                    let out = writer.clone();
                    let dataset = service.name().to_string();
                    service.subscribe(
                        v,
                        Box::new(move |c| {
                            let ev = Json::object()
                                .with("event", "mate-change")
                                .with("dataset", dataset.clone())
                                .with("v", c.v)
                                .with(
                                    "old",
                                    if c.old == UNMATCHED { Json::Null } else { Json::from(c.old) },
                                )
                                .with(
                                    "new",
                                    if c.new == UNMATCHED { Json::Null } else { Json::from(c.new) },
                                )
                                .with("epoch", c.epoch);
                            write_line(&out, &ev)
                        }),
                    );
                    ok_response().with("subscribed", v)
                }
            }
            Request::Flush => match service.flush() {
                Some(f) => ok_response()
                    .with("flushed", f.updates)
                    .with("epoch", f.epoch)
                    .with("sim_time", f.sim_time),
                None => ok_response().with("flushed", 0u64),
            },
            Request::Stats => stats_response(service, stats, &[]),
            Request::Shutdown => {
                let resp = shutdown_response(services);
                stop.store(true, Ordering::SeqCst);
                resp
            }
        };
        let stopping = stop.load(Ordering::SeqCst);
        if !write_line(&writer, &response) {
            return;
        }
        if stopping {
            // Nudge the acceptor so it observes the flag.
            if let Ok(addr) = writer.lock().local_addr() {
                let _ = TcpStream::connect(addr);
            }
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ERR_FRAME_TOO_LARGE;
    use crate::service::ServeConfig;
    use ldgm_dyn::DynConfig;
    use ldgm_gpusim::{json, Platform};
    use ldgm_graph::gen::urand;

    struct Client {
        reader: BufReader<TcpStream>,
        stream: TcpStream,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let stream = TcpStream::connect(addr).unwrap();
            let reader = BufReader::new(stream.try_clone().unwrap());
            Client { reader, stream }
        }

        fn send(&mut self, line: &str) -> Json {
            self.stream.write_all(line.as_bytes()).unwrap();
            self.stream.write_all(b"\n").unwrap();
            self.read_msg()
        }

        fn read_msg(&mut self) -> Json {
            let mut line = String::new();
            self.reader.read_line(&mut line).unwrap();
            json::parse(line.trim()).unwrap()
        }
    }

    fn make_service(n: usize, m: usize, seed: u64, target: usize) -> Arc<MatchService> {
        let g = urand(n, m, seed);
        let cfg = DynConfig::builder(Platform::dgx_a100()).devices(2).build().unwrap();
        Arc::new(MatchService::new(
            "g",
            g,
            cfg,
            ServeConfig {
                coalesce_target: target,
                // Keep the background flusher out of these deterministic
                // sessions: only the size target (or explicit ops) flush.
                deadline: Duration::from_secs(3600),
                ..ServeConfig::default()
            },
        ))
    }

    fn start(n: usize, m: usize, seed: u64, target: usize) -> ServerHandle {
        serve(vec![make_service(n, m, seed, target)], "127.0.0.1:0", 2).unwrap()
    }

    fn session(handle: ServerHandle, io: &str) {
        let addr = handle.addr;
        let mut c = Client::connect(addr);

        let hello = c.send(r#"{"op":"hello","tenant":"alice"}"#);
        assert_eq!(hello.get("ok").and_then(Json::as_bool), Some(true));

        let info = c.send(r#"{"op":"match-info"}"#);
        assert_eq!(info.get("epoch").and_then(Json::as_f64), Some(0.0));
        let seed_weight = info.get("weight").and_then(Json::as_f64).unwrap();
        assert!(seed_weight > 0.0);
        let gauges = info.get("gauges").expect("gauges object");
        assert!(
            gauges.get("serve.connections").and_then(Json::as_f64).unwrap() >= 1.0,
            "this very connection must show in serve.connections"
        );
        assert!(gauges.get("serve.rps").is_some());
        assert!(gauges.get("serve.backpressure_stalls").is_some());

        // A malformed line errors without killing the connection.
        let bad = c.send(r#"{"op":"warp"}"#);
        assert_eq!(bad.get("code").and_then(Json::as_f64), Some(400.0));

        // Heavy insert: must flush at the 4-update target and show up in
        // mate queries.
        let burst = r#"{"op":"update-batch","updates":[
            {"kind":"insert","u":0,"v":50,"w":1000.0},
            {"kind":"insert","u":1,"v":51,"w":1000.0},
            {"kind":"insert","u":2,"v":52,"w":1000.0},
            {"kind":"insert","u":3,"v":53,"w":1000.0}]}"#
            .replace('\n', " ");
        let ack = c.send(&burst);
        assert_eq!(ack.get("flushed").and_then(Json::as_bool), Some(true));
        let mate = c.send(r#"{"op":"mate","v":0}"#);
        assert_eq!(mate.get("mate").and_then(Json::as_f64), Some(50.0));
        assert_eq!(mate.get("epoch").and_then(Json::as_f64), Some(1.0));

        // A second concurrent client sees the same committed snapshot.
        let mut c2 = Client::connect(addr);
        let mate2 = c2.send(r#"{"op":"mate","v":0,"dataset":"g"}"#);
        assert_eq!(mate2.get("mate").and_then(Json::as_f64), Some(50.0));
        let missing = c2.send(r#"{"op":"mate","v":0,"dataset":"nope"}"#);
        assert_eq!(missing.get("code").and_then(Json::as_f64), Some(404.0));

        let stats = c.send(r#"{"op":"stats"}"#);
        assert_eq!(stats.get("flushes").and_then(Json::as_f64), Some(1.0));
        let tenants = stats.get("tenants").unwrap();
        assert!(tenants.get("alice").is_some(), "hello must rename the tenant");
        let server = stats.get("server").expect("server transport object");
        assert_eq!(server.get("io").and_then(Json::as_str), Some(io));
        assert!(server.get("requests").and_then(Json::as_f64).unwrap() >= 7.0);
        assert!(server.get("connections").and_then(Json::as_f64).unwrap() >= 2.0);

        let bye = c.send(r#"{"op":"shutdown"}"#);
        assert_eq!(bye.get("replay_identical").and_then(Json::as_bool), Some(true));
        handle.join();
    }

    #[test]
    fn end_to_end_session_over_tcp() {
        session(start(100, 400, 7, 4), "reactor");
    }

    #[test]
    fn blocking_model_answers_the_same_session() {
        let handle = serve_blocking(vec![make_service(100, 400, 7, 4)], "127.0.0.1:0", 4).unwrap();
        session(handle, "blocking");
    }

    #[test]
    fn subscription_events_arrive_over_the_wire() {
        let handle = start(80, 300, 9, 2);
        let mut c = Client::connect(handle.addr);
        // Insert a dominant edge, then delete it; subscriber on u sees the
        // second commit change u's mate.
        let ins = r#"{"op":"update-batch","updates":[
            {"kind":"insert","u":5,"v":40,"w":500.0},
            {"kind":"insert","u":6,"v":41,"w":500.0}]}"#
            .replace('\n', " ");
        c.send(&ins);
        assert_eq!(
            c.send(r#"{"op":"subscribe","v":5}"#).get("subscribed").and_then(Json::as_f64),
            Some(5.0)
        );
        let del = r#"{"op":"update-batch","updates":[
            {"kind":"delete","u":5,"v":40},
            {"kind":"delete","u":6,"v":41}]}"#
            .replace('\n', " ");
        // The flush happens inline during submit; depending on the model
        // the mate-change event may be queued before or after the ack, so
        // accept either order.
        let m1 = c.send(&del);
        let m2 = c.read_msg();
        let (ev, ack) = if m1.get("event").is_some() { (m1, m2) } else { (m2, m1) };
        assert_eq!(ack.get("flushed").and_then(Json::as_bool), Some(true));
        assert_eq!(ev.get("event").and_then(Json::as_str), Some("mate-change"));
        assert_eq!(ev.get("v").and_then(Json::as_f64), Some(5.0));
        assert_eq!(ev.get("old").and_then(Json::as_f64), Some(40.0));
        handle.shutdown();
    }

    #[test]
    fn admission_control_answers_429_on_the_wire() {
        let g = urand(50, 150, 3);
        let cfg = DynConfig::builder(Platform::dgx_a100()).build().unwrap();
        let service = Arc::new(MatchService::new(
            "g",
            g,
            cfg,
            ServeConfig {
                coalesce_target: 10_000,
                max_pending_per_tenant: 3,
                deadline: Duration::from_secs(3600),
            },
        ));
        let handle = serve(vec![service], "127.0.0.1:0", 2).unwrap();
        let mut c = Client::connect(handle.addr);
        for i in 0..3 {
            let resp = c.send(&format!(
                r#"{{"op":"update","kind":"insert","u":{i},"v":{},"w":1.0}}"#,
                i + 20
            ));
            assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{i}");
        }
        let resp = c.send(r#"{"op":"update","kind":"insert","u":9,"v":29,"w":1.0}"#);
        assert_eq!(resp.get("code").and_then(Json::as_f64), Some(429.0));
        // An explicit flush clears the backlog and admits again.
        c.send(r#"{"op":"flush"}"#);
        let resp = c.send(r#"{"op":"update","kind":"insert","u":9,"v":29,"w":1.0}"#);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        handle.shutdown();
    }

    #[test]
    fn oversized_frames_answer_413_and_keep_the_connection() {
        for io in [IoModel::Reactor, IoModel::Blocking] {
            let handle = serve_opts(
                vec![make_service(60, 200, 5, 1000)],
                "127.0.0.1:0",
                ServerOptions { io, threads: 2, max_frame: 1024 },
            )
            .unwrap();
            let mut c = Client::connect(handle.addr);
            // A 4 KiB line of garbage blows the 1 KiB cap…
            let big = "x".repeat(4096);
            let resp = c.send(&big);
            assert_eq!(resp.get("code").and_then(Json::as_f64), Some(413.0), "{io:?}");
            assert!(
                resp.get("error").and_then(Json::as_str).unwrap().contains(ERR_FRAME_TOO_LARGE),
                "{io:?}"
            );
            // …and the connection still answers real requests after it.
            let mate = c.send(r#"{"op":"mate","v":1}"#);
            assert_eq!(mate.get("ok").and_then(Json::as_bool), Some(true), "{io:?}");
            if io == IoModel::Reactor {
                // Bad UTF-8 inside a frame is a 400, not a hangup. (The
                // blocking model's line reader can't represent non-UTF-8
                // input, so only the reactor makes this promise.)
                self::write_raw(&mut c.stream, b"\"\xff\xfe\"\n");
                let resp = c.read_msg();
                assert_eq!(resp.get("code").and_then(Json::as_f64), Some(400.0), "{io:?}");
            }
            handle.shutdown();
        }
    }

    #[test]
    fn deeply_nested_frames_answer_400_and_keep_the_connection() {
        for io in [IoModel::Reactor, IoModel::Blocking] {
            let opts = ServerOptions { io, ..ServerOptions::default() };
            let handle =
                serve_opts(vec![make_service(60, 200, 5, 1000)], "127.0.0.1:0", opts).unwrap();
            let mut c = Client::connect(handle.addr);
            // 10 KB of `[`, far under the frame cap. Parsed without a depth
            // cap, it would overflow the handling thread's stack and abort
            // the whole server.
            let resp = c.send(&"[".repeat(10_000));
            assert_eq!(resp.get("code").and_then(Json::as_f64), Some(400.0), "{io:?}");
            let mate = c.send(r#"{"op":"mate","v":1}"#);
            assert_eq!(mate.get("ok").and_then(Json::as_bool), Some(true), "{io:?}");
            handle.shutdown();
        }
    }

    fn write_raw(stream: &mut TcpStream, bytes: &[u8]) {
        stream.write_all(bytes).unwrap();
    }
}
