//! The epoll reactor: a small number of event-loop threads serving
//! thousands of connections.
//!
//! ## Architecture
//!
//! `reactor_threads` shard threads each own one [`epoll_shim::Poller`]
//! (raw epoll on Linux, `poll(2)` elsewhere), a pipe [`Waker`], and the
//! set of connections routed to them. Shard 0 additionally owns the
//! non-blocking listener and deals accepted connections round-robin:
//! local ones register directly, remote ones go through the target
//! shard's inbox + waker. A connection lives on one shard for its whole
//! lifetime, so requests on it are processed in order (the protocol's
//! promise) without any cross-thread handoff.
//!
//! ## Per-connection state machine
//!
//! Each connection owns a reusable [`FrameSplitter`] (incremental
//! newline framing with an oversize cap) and a reusable send buffer.
//! Readiness drives it:
//!
//! - **readable** → drain the socket into the splitter, handle every
//!   complete frame, append responses to the send buffer, then flush the
//!   whole buffer with as few `write` syscalls as possible (many queued
//!   responses per syscall — the batched-flush analog of the kernels'
//!   coalescing).
//! - **write interest is armed only while the send buffer is non-empty**
//!   (a flush hit `WouldBlock`, counted as a backpressure stall); once
//!   the buffer drains it is disarmed again.
//! - a send buffer past the high watermark pauses reads on that
//!   connection until the peer drains it — per-connection backpressure
//!   instead of unbounded buffering.
//!
//! ## Sharded read path
//!
//! `mate` answers from the service's `Arc`-swapped committed snapshot:
//! no service lock is crossed. Per-tenant query accounting is kept
//! connection-local and merged via [`MatchService::credit_queries`] on
//! close/`hello`/`stats`/`shutdown`, so the hot path touches no shared
//! mutex either. Hot responses are serialized by [`wire`] straight into
//! the send buffer — no `Json` tree, no `String`, no allocation.
//!
//! ## Subscriptions off the hot path
//!
//! `subscribe` sinks never write sockets from the flushing thread.
//! A sink pushes the event onto the owning shard's notifier queue and
//! wakes it; the shard serializes the event into the connection's send
//! buffer on its own thread, preserving the single-writer invariant.
//!
//! ## Robustness
//!
//! A malformed frame (bad UTF-8, bad JSON, unknown op) answers `400`;
//! an oversized frame answers `413` with [`ERR_FRAME_TOO_LARGE`] and
//! resynchronizes at the next newline; a panicking handler answers
//! `500`. All three keep the connection alive. Responses are appended
//! only after the handler returns, so a panic can never leave a
//! half-written frame in the send buffer.
//!
//! [`ERR_FRAME_TOO_LARGE`]: crate::protocol::ERR_FRAME_TOO_LARGE

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use epoll_shim::{Event, Interest, Poller, Waker};
use ldgm_gpusim::json::Json;
use parking_lot::Mutex;

use crate::protocol::{
    err_response, frame_too_large_response, ok_response, wire, FrameSplitter, ParsedRequest,
    Request, SplitFrame,
};
use crate::server::{
    info_response, resolve_idx, shutdown_response, stats_response, ServerStats, ShardSnapshot,
};
use crate::service::{MatchService, MateChange, Snapshot, UNMATCHED};

/// Reserved poller token of the shard's waker pipe.
const TOKEN_WAKER: u64 = 0;
/// Reserved poller token of the listener (shard 0 only).
const TOKEN_LISTENER: u64 = 1;
/// First token handed to a connection.
const TOKEN_FIRST_CONN: u64 = 2;

/// Pause reading a connection whose send buffer exceeds this many bytes
/// until the peer drains it (per-connection backpressure).
const HIGH_WATERMARK: usize = 1 << 20;
/// A send buffer past this size means the peer stopped reading for good:
/// the connection is dropped rather than buffering without bound.
const MAX_SEND_BUFFER: usize = 64 << 20;

/// A queued `mate-change` event bound for a connection on this shard.
struct Notice {
    token: u64,
    dataset: String,
    change: MateChange,
}

/// The cross-thread face of one shard: its waker plus the two queues
/// other threads may touch (new connections, subscription notices) and
/// its public counters.
pub(crate) struct ShardHandle {
    waker: Waker,
    inbox: Mutex<Vec<TcpStream>>,
    notices: Mutex<Vec<Notice>>,
    /// Live connections on this shard.
    pub(crate) connections: AtomicUsize,
    /// Requests handled by this shard.
    pub(crate) requests: AtomicU64,
}

impl ShardHandle {
    fn new() -> std::io::Result<ShardHandle> {
        Ok(ShardHandle {
            waker: Waker::new()?,
            inbox: Mutex::new(Vec::new()),
            notices: Mutex::new(Vec::new()),
            connections: AtomicUsize::new(0),
            requests: AtomicU64::new(0),
        })
    }

    /// Interrupt this shard's poll wait.
    pub(crate) fn wake(&self) {
        self.waker.wake();
    }

    /// Counter snapshot for the `stats` op.
    pub(crate) fn snapshot(&self) -> ShardSnapshot {
        ShardSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
        }
    }
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    splitter: FrameSplitter,
    /// Queued response bytes; `wpos..` is still unsent.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Interest currently armed with the poller.
    interest: Interest,
    /// Billing id (peer address until `hello` renames it).
    tenant: String,
    /// Cleared on close so subscription sinks stop delivering.
    alive: Arc<AtomicBool>,
    /// Connection-local query counts, one slot per dataset.
    queries: Vec<u64>,
}

impl Conn {
    fn unsent(&self) -> usize {
        self.wbuf.len() - self.wpos
    }
}

/// What a handler produced; appended to the send buffer only after the
/// handler returned, so panics never corrupt the stream.
enum Reply {
    /// Hot `mate` response (fast serializer).
    Mate { v: u32, mate: Option<u32>, epoch: u64 },
    /// Hot update/update-batch ack (fast serializer).
    Ack { admitted: u64, pending: u64, flushed: bool },
    /// Anything else (cold path, `Json` tree).
    Tree(Json),
}

/// Outcome of flushing a connection's send buffer.
#[derive(PartialEq, Eq)]
enum FlushState {
    /// Buffer fully drained.
    Drained,
    /// Socket would block; write interest must stay armed.
    Blocked,
    /// Peer is gone (or buffered beyond [`MAX_SEND_BUFFER`]).
    Dead,
}

/// Everything one shard thread owns.
pub(crate) struct Reactor {
    idx: usize,
    poller: Poller,
    shard: Arc<ShardHandle>,
    shards: Vec<Arc<ShardHandle>>,
    services: Arc<Vec<Arc<MatchService>>>,
    stats: Arc<ServerStats>,
    stop: Arc<AtomicBool>,
    listener: Option<TcpListener>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    next_shard: usize,
    /// Reusable socket read scratch.
    scratch: Vec<u8>,
    /// Reusable copy of the frame being handled (the splitter's buffer
    /// may move while the handler appends to the same connection).
    frame: Vec<u8>,
    max_frame: usize,
}

/// What [`spawn_shards`] hands back: the shards' cross-thread handles
/// plus their thread join handles.
pub(crate) type SpawnedShards = (Vec<Arc<ShardHandle>>, Vec<std::thread::JoinHandle<()>>);

/// Spawn the shard threads. `shards[0]` owns `listener`.
pub(crate) fn spawn_shards(
    listener: TcpListener,
    services: Arc<Vec<Arc<MatchService>>>,
    stats: Arc<ServerStats>,
    stop: Arc<AtomicBool>,
    threads: usize,
    max_frame: usize,
) -> std::io::Result<SpawnedShards> {
    listener.set_nonblocking(true)?;
    let shards: Vec<Arc<ShardHandle>> =
        (0..threads).map(|_| ShardHandle::new().map(Arc::new)).collect::<std::io::Result<_>>()?;
    let mut joins = Vec::with_capacity(threads);
    for (idx, shard) in shards.iter().enumerate() {
        let poller = Poller::new()?;
        poller.add(shard.waker.fd(), TOKEN_WAKER, Interest::READ)?;
        let listener = if idx == 0 {
            // Register the clone that the reactor will own: the original
            // drops when this function returns, and a closed fd silently
            // vanishes from its epoll set.
            let l = listener.try_clone()?;
            poller.add(l.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
            Some(l)
        } else {
            None
        };
        let mut reactor = Reactor {
            idx,
            poller,
            shard: shard.clone(),
            shards: shards.clone(),
            services: services.clone(),
            stats: stats.clone(),
            stop: stop.clone(),
            listener,
            conns: HashMap::new(),
            next_token: TOKEN_FIRST_CONN,
            next_shard: 0,
            scratch: vec![0u8; 64 * 1024],
            frame: Vec::new(),
            max_frame,
        };
        joins.push(std::thread::spawn(move || reactor.run()));
    }
    Ok((shards, joins))
}

impl Reactor {
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::with_capacity(256);
        loop {
            events.clear();
            // The waker covers every cross-thread signal; the timeout is
            // only a safety net against a lost wakeup.
            if self.poller.wait(&mut events, 200).is_err() {
                break;
            }
            for &ev in &events {
                match ev.token {
                    TOKEN_WAKER => self.shard.waker.drain(),
                    TOKEN_LISTENER => self.accept_ready(),
                    token => self.conn_ready(token, ev),
                }
                if self.stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            self.adopt_inbox();
            self.deliver_notices();
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
        }
        self.finalize();
    }

    /// Accept every pending connection and deal it to a shard.
    fn accept_ready(&mut self) {
        let Some(listener) = self.listener.take() else { return };
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    self.stats.accepted.fetch_add(1, Ordering::Relaxed);
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_nonblocking(true);
                    let target = self.next_shard;
                    self.next_shard = (self.next_shard + 1) % self.shards.len();
                    if target == self.idx {
                        self.register(stream);
                    } else {
                        self.shards[target].inbox.lock().push(stream);
                        self.shards[target].wake();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        self.listener = Some(listener);
    }

    /// Register connections other shards routed to us.
    fn adopt_inbox(&mut self) {
        loop {
            let Some(stream) = self.shard.inbox.lock().pop() else { return };
            self.register(stream);
        }
    }

    fn register(&mut self, stream: TcpStream) {
        let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "?".into());
        let token = self.next_token;
        self.next_token += 1;
        if self.poller.add(stream.as_raw_fd(), token, Interest::READ).is_err() {
            return;
        }
        self.conns.insert(
            token,
            Conn {
                stream,
                splitter: FrameSplitter::new(self.max_frame),
                wbuf: Vec::new(),
                wpos: 0,
                interest: Interest::READ,
                tenant: format!("client-{peer}"),
                alive: Arc::new(AtomicBool::new(true)),
                queries: vec![0; self.services.len()],
            },
        );
        self.shard.connections.fetch_add(1, Ordering::Relaxed);
        self.stats.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Merge a connection's local query counts into its services' stats.
    fn credit_queries(&self, conn: &mut Conn) {
        for (idx, n) in conn.queries.iter_mut().enumerate() {
            if *n > 0 {
                self.services[idx].credit_queries(&conn.tenant, *n);
                *n = 0;
            }
        }
    }

    fn close(&mut self, token: u64, mut conn: Conn) {
        conn.alive.store(false, Ordering::SeqCst);
        self.credit_queries(&mut conn);
        let _ = self.poller.remove(conn.stream.as_raw_fd());
        self.shard.connections.fetch_sub(1, Ordering::Relaxed);
        self.stats.connections.fetch_sub(1, Ordering::Relaxed);
        debug_assert!(!self.conns.contains_key(&token));
    }

    fn conn_ready(&mut self, token: u64, ev: Event) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return; // token raced with a close: stale event
        };
        if ev.writable && self.flush(&mut conn) == FlushState::Dead {
            self.close(token, conn);
            return;
        }
        if ev.readable {
            if let Err(()) = self.read_ready(token, &mut conn) {
                self.close(token, conn);
                return;
            }
        } else if ev.error {
            // Error without readability: nothing left to drain.
            self.close(token, conn);
            return;
        }
        self.update_interest(token, &mut conn);
        self.conns.insert(token, conn);
    }

    /// Drain the socket, handle complete frames, queue responses.
    /// `Err(())` means the connection is finished (EOF or error).
    fn read_ready(&mut self, token: u64, conn: &mut Conn) -> Result<(), ()> {
        let mut eof = false;
        // Per-drain snapshot cache: a run of consecutive fast-path `mate`
        // frames from one connection resolves against one snapshot fetch
        // (they are semantically simultaneous — nothing of this
        // connection's happened between them). Any other op invalidates
        // it, so read-your-writes across an inline flush is preserved.
        let mut snap_cache: Option<Arc<Snapshot>> = None;
        let mut handled: u64 = 0;
        'drain: loop {
            if conn.unsent() > HIGH_WATERMARK {
                break; // backpressure: stop reading until the peer drains
            }
            let n = {
                // `scratch` is only used inside this block; take it so
                // the handler below can borrow `self` freely.
                let mut scratch = std::mem::take(&mut self.scratch);
                let got = conn.stream.read(&mut scratch);
                if let Ok(n) = got {
                    conn.splitter.push(&scratch[..n]);
                }
                self.scratch = scratch;
                match got {
                    Ok(0) => {
                        eof = true;
                        0
                    }
                    Ok(n) => n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break 'drain,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue 'drain,
                    Err(_) => {
                        eof = true;
                        0
                    }
                }
            };
            while let Some(item) = conn.splitter.next() {
                match item {
                    SplitFrame::Line(range) => {
                        self.frame.clear();
                        let mut frame = std::mem::take(&mut self.frame);
                        frame.extend_from_slice(conn.splitter.slice(range));
                        handled += self.handle_frame(token, &frame, conn, &mut snap_cache);
                        self.frame = frame;
                    }
                    SplitFrame::TooLarge { len } => {
                        let resp = frame_too_large_response(len, self.max_frame);
                        append_json(&mut conn.wbuf, &resp);
                    }
                }
                if self.stop.load(Ordering::SeqCst) {
                    break 'drain; // a shutdown op stops frame processing
                }
            }
            if eof || n == 0 {
                break;
            }
        }
        // One batched counter update and one batched flush for
        // everything this readiness round queued.
        if handled > 0 {
            self.stats.requests.fetch_add(handled, Ordering::Relaxed);
            self.shard.requests.fetch_add(handled, Ordering::Relaxed);
        }
        if self.flush(conn) == FlushState::Dead {
            return Err(());
        }
        if eof {
            // Deliver what we could; the peer is gone.
            return Err(());
        }
        Ok(())
    }

    /// Handle one complete frame, appending the response to `conn.wbuf`.
    /// Returns how many requests this frame counted as (0 for blanks).
    fn handle_frame(
        &mut self,
        token: u64,
        raw: &[u8],
        conn: &mut Conn,
        snap_cache: &mut Option<Arc<Snapshot>>,
    ) -> u64 {
        let line = raw.trim_ascii();
        if line.is_empty() {
            return 0; // blank lines are ignored
        }

        // Zero-allocation fast path: the canonical compact `mate` frame
        // on the default dataset.
        if let Some(v) = wire::parse_mate_fast(line) {
            let snap = snap_cache.get_or_insert_with(|| self.services[0].snapshot());
            conn.queries[0] += 1;
            if (v as usize) >= snap.mate.len() {
                let resp =
                    err_response(404, format!("vertex {v} out of range (n={})", snap.mate.len()));
                append_json(&mut conn.wbuf, &resp);
            } else {
                wire::mate_response(&mut conn.wbuf, v, snap.mate(v), snap.epoch);
            }
            return 1;
        }
        // Anything that is not a fast-path read may move the matching;
        // later fast-path reads must refetch.
        *snap_cache = None;

        let reply = catch_unwind(AssertUnwindSafe(|| self.handle_slow(token, line, conn)))
            .unwrap_or_else(|_| {
                Reply::Tree(err_response(500, "internal error: request handler panicked"))
            });
        match reply {
            Reply::Mate { v, mate, epoch } => wire::mate_response(&mut conn.wbuf, v, mate, epoch),
            Reply::Ack { admitted, pending, flushed } => {
                wire::update_ack(&mut conn.wbuf, admitted, pending, flushed)
            }
            Reply::Tree(j) => append_json(&mut conn.wbuf, &j),
        }
        1
    }

    /// The full (parse-everything) request path. Side effects happen in
    /// here; the response is appended by the caller after this returns.
    fn handle_slow(&mut self, token: u64, line: &[u8], conn: &mut Conn) -> Reply {
        let Ok(text) = std::str::from_utf8(line) else {
            return Reply::Tree(err_response(400, "frame is not valid UTF-8"));
        };
        let parsed = match ParsedRequest::parse(text) {
            Ok(p) => p,
            Err(e) => return Reply::Tree(err_response(400, e)),
        };
        let sidx = match resolve_idx(&self.services, parsed.dataset.as_deref()) {
            Ok(i) => i,
            Err(resp) => return Reply::Tree(resp),
        };
        let service = &self.services[sidx];
        match parsed.request {
            Request::Hello { tenant } => {
                // Queries made under the old billing id settle first.
                self.credit_queries(conn);
                conn.tenant = tenant;
                Reply::Tree(ok_response().with("tenant", conn.tenant.clone()))
            }
            Request::Mate { v } => {
                let snap = service.snapshot();
                conn.queries[sidx] += 1;
                if (v as usize) >= snap.mate.len() {
                    Reply::Tree(err_response(
                        404,
                        format!("vertex {v} out of range (n={})", snap.mate.len()),
                    ))
                } else {
                    Reply::Mate { v, mate: snap.mate(v), epoch: snap.epoch }
                }
            }
            Request::MatchInfo => Reply::Tree(info_response(service, &self.stats)),
            Request::Update { update } => match service.submit(&conn.tenant, &[update]) {
                Ok(ack) => Reply::Ack {
                    admitted: ack.admitted as u64,
                    pending: ack.pending as u64,
                    flushed: ack.flushed,
                },
                Err(e) => Reply::Tree(err_response(429, e.to_string())),
            },
            Request::UpdateBatch { updates } => match service.submit(&conn.tenant, &updates) {
                Ok(ack) => Reply::Ack {
                    admitted: ack.admitted as u64,
                    pending: ack.pending as u64,
                    flushed: ack.flushed,
                },
                Err(e) => Reply::Tree(err_response(429, e.to_string())),
            },
            Request::Subscribe { v } => {
                if (v as usize) >= service.snapshot().mate.len() {
                    Reply::Tree(err_response(404, format!("vertex {v} out of range")))
                } else {
                    let shard = self.shard.clone();
                    let alive = conn.alive.clone();
                    let dataset = service.name().to_string();
                    // The sink runs on whichever thread flushes; it only
                    // enqueues + wakes, never touches the socket.
                    service.subscribe(
                        v,
                        Box::new(move |c| {
                            if !alive.load(Ordering::SeqCst) {
                                return false;
                            }
                            shard.notices.lock().push(Notice {
                                token,
                                dataset: dataset.clone(),
                                change: *c,
                            });
                            shard.wake();
                            true
                        }),
                    );
                    Reply::Tree(ok_response().with("subscribed", v))
                }
            }
            Request::Flush => match service.flush() {
                Some(f) => Reply::Tree(
                    ok_response()
                        .with("flushed", f.updates)
                        .with("epoch", f.epoch)
                        .with("sim_time", f.sim_time),
                ),
                None => Reply::Tree(ok_response().with("flushed", 0u64)),
            },
            Request::Stats => {
                // Settle this connection's local counts so the caller
                // sees its own queries; other connections settle on
                // close (documented lag).
                self.credit_queries(conn);
                let shards: Vec<ShardSnapshot> = self.shards.iter().map(|s| s.snapshot()).collect();
                Reply::Tree(stats_response(service, &self.stats, &shards))
            }
            Request::Shutdown => {
                self.credit_queries(conn);
                let resp = shutdown_response(&self.services);
                self.stop.store(true, Ordering::SeqCst);
                for shard in &self.shards {
                    shard.wake();
                }
                Reply::Tree(resp)
            }
        }
    }

    /// Deliver queued `mate-change` events into their connections' send
    /// buffers (the only thread that may touch those buffers is us).
    fn deliver_notices(&mut self) {
        let notices = std::mem::take(&mut *self.shard.notices.lock());
        if notices.is_empty() {
            return;
        }
        for n in notices {
            let Some(mut conn) = self.conns.remove(&n.token) else { continue };
            let c = n.change;
            let ev = Json::object()
                .with("event", "mate-change")
                .with("dataset", n.dataset)
                .with("v", c.v)
                .with("old", if c.old == UNMATCHED { Json::Null } else { Json::from(c.old) })
                .with("new", if c.new == UNMATCHED { Json::Null } else { Json::from(c.new) })
                .with("epoch", c.epoch);
            append_json(&mut conn.wbuf, &ev);
            if self.flush(&mut conn) == FlushState::Dead {
                self.close(n.token, conn);
                continue;
            }
            self.update_interest(n.token, &mut conn);
            self.conns.insert(n.token, conn);
        }
    }

    /// Write as much of the send buffer as the socket takes; one syscall
    /// covers every queued response (batched flush).
    fn flush(&mut self, conn: &mut Conn) -> FlushState {
        if conn.unsent() == 0 {
            conn.wbuf.clear();
            conn.wpos = 0;
            return FlushState::Drained;
        }
        if conn.wbuf.len() > MAX_SEND_BUFFER {
            return FlushState::Dead;
        }
        loop {
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => return FlushState::Dead,
                Ok(n) => {
                    conn.wpos += n;
                    if conn.wpos == conn.wbuf.len() {
                        conn.wbuf.clear();
                        conn.wpos = 0;
                        return FlushState::Drained;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.stats.backpressure_stalls.fetch_add(1, Ordering::Relaxed);
                    return FlushState::Blocked;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return FlushState::Dead,
            }
        }
    }

    /// Re-arm the poller to match the connection's state: write interest
    /// only while the send buffer is non-empty, reads paused past the
    /// high watermark.
    fn update_interest(&mut self, token: u64, conn: &mut Conn) {
        let want =
            Interest { readable: conn.unsent() <= HIGH_WATERMARK, writable: conn.unsent() > 0 };
        if want != conn.interest && self.poller.modify(conn.stream.as_raw_fd(), token, want).is_ok()
        {
            conn.interest = want;
        }
    }

    /// Stop: settle accounting and push out whatever is still buffered
    /// (briefly blocking, bounded by a write timeout) before closing.
    fn finalize(&mut self) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            let mut conn = self.conns.remove(&token).unwrap();
            if conn.unsent() > 0 {
                let _ = conn.stream.set_nonblocking(false);
                let _ = conn.stream.set_write_timeout(Some(Duration::from_millis(500)));
                let _ = conn.stream.write_all(&conn.wbuf[conn.wpos..]);
            }
            self.close(token, conn);
        }
    }
}

/// Append a compact-serialized `Json` line (cold path; one `String`).
fn append_json(out: &mut Vec<u8>, j: &Json) {
    out.extend_from_slice(j.to_string_compact().as_bytes());
    out.push(b'\n');
}
