//! The TCP layer: a few epoll event-loop threads ([`crate::reactor`])
//! multiplex every connection — non-blocking sockets, per-connection
//! state machines, batched flushes, write interest armed only while a
//! send buffer is non-empty.
//!
//! A flusher thread ticks the deadline-based flush of every resident
//! dataset so a trickle of updates still commits without waiting for the
//! coalesce target, and shutdown is cooperative: the `shutdown` op (or
//! [`ServerHandle::shutdown`]) flushes every dataset, runs the offline
//! replay check, flips the stop flag and wakes every event loop.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ldgm_gpusim::json::Json;

use crate::protocol::{err_response, ok_response, MAX_FRAME_LEN};
use crate::reactor::{spawn_shards, ShardHandle};
use crate::service::MatchService;

/// Tunables for [`serve_opts`]; [`Default`] matches plain [`serve`].
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Reactor event-loop threads.
    pub threads: usize,
    /// Per-frame byte cap; longer lines answer `413` and are discarded.
    pub max_frame: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions { threads: 2, max_frame: MAX_FRAME_LEN }
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
    threads: usize,
}

impl ServerStats {
    fn new(threads: usize) -> ServerStats {
        ServerStats {
            accepted: AtomicU64::new(0),
            connections: AtomicUsize::new(0),
            requests: AtomicU64::new(0),
            backpressure_stalls: AtomicU64::new(0),
            started: Instant::now(),
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
        .with("io", "reactor")
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
    /// Reactor shards to wake on shutdown.
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
        for s in &self.shards {
            s.wake();
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
/// threads. Shorthand for [`serve_opts`] with the default frame cap.
pub fn serve(
    services: Vec<Arc<MatchService>>,
    bind: &str,
    threads: usize,
) -> std::io::Result<ServerHandle> {
    serve_opts(services, bind, ServerOptions { threads, ..ServerOptions::default() })
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
    let stats = Arc::new(ServerStats::new(threads_n));
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

    let (shards, joins) =
        spawn_shards(listener, services, stats.clone(), stop.clone(), threads_n, opts.max_frame)?;
    threads.extend(joins);

    Ok(ServerHandle { addr, stop, threads, stats, shards })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ERR_FRAME_TOO_LARGE;
    use crate::service::ServeConfig;
    use ldgm_dyn::DynConfig;
    use ldgm_gpusim::{json, Platform};
    use ldgm_graph::gen::urand;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

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
        let cfg = DynConfig::new(Platform::dgx_a100()).devices(2);
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

    fn session(handle: ServerHandle) {
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
        assert_eq!(server.get("io").and_then(Json::as_str), Some("reactor"));
        assert!(server.get("requests").and_then(Json::as_f64).unwrap() >= 7.0);
        assert!(server.get("connections").and_then(Json::as_f64).unwrap() >= 2.0);

        let bye = c.send(r#"{"op":"shutdown"}"#);
        assert_eq!(bye.get("replay_identical").and_then(Json::as_bool), Some(true));
        handle.join();
    }

    #[test]
    fn end_to_end_session_over_tcp() {
        session(start(100, 400, 7, 4));
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
        // The flush happens inline during submit; the mate-change event
        // may be queued before or after the ack, so accept either order.
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
        let cfg = DynConfig::new(Platform::dgx_a100());
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
        let handle = serve_opts(
            vec![make_service(60, 200, 5, 1000)],
            "127.0.0.1:0",
            ServerOptions { threads: 2, max_frame: 1024 },
        )
        .unwrap();
        let mut c = Client::connect(handle.addr);
        // A 4 KiB line of garbage blows the 1 KiB cap…
        let big = "x".repeat(4096);
        let resp = c.send(&big);
        assert_eq!(resp.get("code").and_then(Json::as_f64), Some(413.0));
        assert!(resp.get("error").and_then(Json::as_str).unwrap().contains(ERR_FRAME_TOO_LARGE));
        // …and the connection still answers real requests after it.
        let mate = c.send(r#"{"op":"mate","v":1}"#);
        assert_eq!(mate.get("ok").and_then(Json::as_bool), Some(true));
        // Bad UTF-8 inside a frame is a 400, not a hangup.
        self::write_raw(&mut c.stream, b"\"\xff\xfe\"\n");
        let resp = c.read_msg();
        assert_eq!(resp.get("code").and_then(Json::as_f64), Some(400.0));
        handle.shutdown();
    }

    #[test]
    fn deeply_nested_frames_answer_400_and_keep_the_connection() {
        let handle = serve_opts(
            vec![make_service(60, 200, 5, 1000)],
            "127.0.0.1:0",
            ServerOptions::default(),
        )
        .unwrap();
        let mut c = Client::connect(handle.addr);
        // 10 KB of `[`, far under the frame cap. Parsed without a depth
        // cap, it would overflow the handling thread's stack and abort
        // the whole server.
        let resp = c.send(&"[".repeat(10_000));
        assert_eq!(resp.get("code").and_then(Json::as_f64), Some(400.0));
        let mate = c.send(r#"{"op":"mate","v":1}"#);
        assert_eq!(mate.get("ok").and_then(Json::as_bool), Some(true));
        handle.shutdown();
    }

    fn write_raw(stream: &mut TcpStream, bytes: &[u8]) {
        stream.write_all(bytes).unwrap();
    }
}
