//! Per-device simulated timelines with dual-buffer stream semantics.
//!
//! Each device carries three logical queues matching the paper's execution
//! structure (§III-B, Fig. 2): a copy engine (async `cudaMemcpyAsync`
//! HtoD), a compute queue (kernel launches), and two batch buffers that
//! alternate between streams. Copy of batch *b+1* overlaps the kernel of
//! batch *b*; a buffer cannot be overwritten until the kernel consuming it
//! has finished; with more than two batches the driver inserts explicit
//! host synchronization (paper §III-D).
//!
//! A fourth queue — the *comm stream* — carries collective operations in
//! overlap mode ([`DeviceTimer::schedule_comm`]): a collective chunk is
//! ordered only behind the previous collective and its own data dependency
//! (`ready`), so its wire time can run under kernels and copies that do
//! not consume the reduced payload. Consumers declare the dependency with
//! [`DeviceTimer::wait_kernel_until`], which holds back the compute queue
//! while leaving the copy engine free to prefetch. Serialized paths
//! (`host_sync`/`drain`/`align_to`) keep the comm stream aligned with the
//! others, so engines that never call `schedule_comm` bill identically to
//! a timer without it.

use crate::interconnect::Link;

/// Simulated clock state of one device.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DeviceTimer {
    /// Host-visible "all prior work complete" point.
    now: f64,
    /// Copy engine available at.
    copy_free: f64,
    /// Compute queue available at.
    kernel_free: f64,
    /// Comm stream (collective queue) available at.
    comm_free: f64,
    /// Per-buffer: last kernel consuming the buffer finishes at.
    buffer_busy: [f64; 2],
    /// Per-buffer: last copy into the buffer finishes at.
    copy_done: [f64; 2],
    /// Copies that had to wait for a buffer's consumer kernel.
    stalls: u64,
    /// Total time copies spent waiting on busy buffers.
    stall_time: f64,
}

impl DeviceTimer {
    /// A fresh timer at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current host-visible time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Completion time of everything scheduled so far.
    pub fn horizon(&self) -> f64 {
        self.now.max(self.copy_free).max(self.kernel_free).max(self.comm_free)
    }

    /// Completion time of the compute queue (kernels and host progress
    /// only) — what a dependent kernel launch would have to wait for,
    /// ignoring in-flight copies and collectives.
    pub fn compute_done(&self) -> f64 {
        self.now.max(self.kernel_free)
    }

    /// Comm stream availability: when the next collective chunk could
    /// start, data dependencies aside.
    pub fn comm_free(&self) -> f64 {
        self.comm_free
    }

    /// Schedule an async host-to-device copy of `bytes` into buffer `buf`
    /// over `link`. Returns `(start, end)`.
    pub fn schedule_h2d(&mut self, buf: usize, bytes: u64, link: &Link) -> (f64, f64) {
        let ready = self.copy_free.max(self.now);
        let start = ready.max(self.buffer_busy[buf & 1]);
        if start > ready {
            // The dual-buffer scheme ran out of room: the copy engine sat
            // idle waiting for the kernel still consuming this buffer.
            self.stalls += 1;
            self.stall_time += start - ready;
        }
        let end = start + link.transfer_time(bytes);
        self.copy_free = end;
        self.copy_done[buf & 1] = end;
        (start, end)
    }

    /// Schedule a kernel of duration `dur` consuming buffer `buf`.
    /// Returns `(start, end)`.
    pub fn schedule_kernel(&mut self, buf: usize, dur: f64) -> (f64, f64) {
        let start = self.kernel_free.max(self.copy_done[buf & 1]).max(self.now);
        let end = start + dur;
        self.kernel_free = end;
        self.buffer_busy[buf & 1] = end;
        (start, end)
    }

    /// Schedule a kernel that reads only resident global arrays (no batch
    /// buffer dependency), e.g. SETMATES.
    pub fn schedule_kernel_global(&mut self, dur: f64) -> (f64, f64) {
        let start = self.kernel_free.max(self.now);
        let end = start + dur;
        self.kernel_free = end;
        (start, end)
    }

    /// Schedule a collective chunk on the comm stream: ordered behind the
    /// previous collective and its data dependency `ready`, independent of
    /// the compute and copy queues. Returns `(start, end)`.
    pub fn schedule_comm(&mut self, ready: f64, dur: f64) -> (f64, f64) {
        let start = self.comm_free.max(ready);
        let end = start + dur;
        self.comm_free = end;
        (start, end)
    }

    /// Hold the compute queue back until `t` — the consumer side of an
    /// overlapped collective. Host progress (`now`) and the copy engine
    /// stay free, so independent prefetches keep running under the
    /// collective; only dependent kernel launches wait.
    pub fn wait_kernel_until(&mut self, t: f64) {
        self.kernel_free = self.kernel_free.max(t);
    }

    /// Explicit host-device synchronization costing `cost` seconds:
    /// advances `now` past all outstanding work (including in-flight
    /// collectives, via [`DeviceTimer::horizon`]). The comm stream is
    /// waited on, not occupied: a sync never pushes `comm_free` forward,
    /// so later collective chunks are not queued behind it.
    pub fn host_sync(&mut self, cost: f64) {
        let t = self.horizon() + cost;
        self.now = t;
        self.copy_free = t;
        self.kernel_free = t;
    }

    /// Wait for all outstanding work without extra cost. Like
    /// [`DeviceTimer::host_sync`], waits on the comm stream without
    /// occupying it.
    pub fn drain(&mut self) {
        let t = self.horizon();
        self.now = t;
        self.copy_free = t;
        self.kernel_free = t;
    }

    /// Jump the whole timeline to `t` (used after collectives; `t` must not
    /// be in the device's past).
    pub fn align_to(&mut self, t: f64) {
        debug_assert!(t >= self.horizon() - 1e-12, "aligning into the past");
        self.now = t;
        self.copy_free = t;
        self.kernel_free = t;
        self.comm_free = t;
        self.buffer_busy = [t; 2];
        self.copy_done = [t; 2];
    }

    /// Copies that stalled waiting for a buffer's consumer kernel.
    pub fn buffer_stalls(&self) -> u64 {
        self.stalls
    }

    /// Total simulated time copies spent stalled on busy buffers.
    pub fn buffer_stall_time(&self) -> f64 {
        self.stall_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interconnect::Link;

    const L: Link = Link { name: "test", bw_gbps: 1.0, latency_us: 0.0 };

    #[test]
    fn copy_and_kernel_overlap_across_buffers() {
        let mut t = DeviceTimer::new();
        // Batch 0: copy then kernel.
        let (c0s, c0e) = t.schedule_h2d(0, 1_000_000_000, &L); // 1 s
        assert_eq!((c0s, c0e), (0.0, 1.0));
        let (k0s, k0e) = t.schedule_kernel(0, 2.0);
        assert_eq!((k0s, k0e), (1.0, 3.0));
        // Batch 1 copy starts immediately after copy 0 (copy engine free at
        // 1.0, buffer 1 never used): overlaps kernel 0.
        let (c1s, c1e) = t.schedule_h2d(1, 1_000_000_000, &L);
        assert_eq!((c1s, c1e), (1.0, 2.0));
        // Kernel 1 waits for kernel 0 (compute queue), not the copy.
        let (k1s, k1e) = t.schedule_kernel(1, 2.0);
        assert_eq!((k1s, k1e), (3.0, 5.0));
        assert_eq!(c1e, 2.0);
        assert_eq!(t.horizon(), 5.0);
    }

    #[test]
    fn buffer_reuse_waits_for_consumer() {
        let mut t = DeviceTimer::new();
        t.schedule_h2d(0, 1_000_000_000, &L); // copy0: 0-1
        t.schedule_kernel(0, 5.0); // kernel0: 1-6 holds buffer 0
                                   // Copy into buffer 0 again (batch 2) must wait for kernel0.
        let (c2s, _) = t.schedule_h2d(2, 1_000_000_000, &L);
        assert_eq!(c2s, 6.0);
        // That wait is a recorded buffer stall: engine free at 1, start 6.
        assert_eq!(t.buffer_stalls(), 1);
        assert_eq!(t.buffer_stall_time(), 5.0);
    }

    #[test]
    fn unstalled_copies_record_no_stall() {
        let mut t = DeviceTimer::new();
        t.schedule_h2d(0, 1_000_000_000, &L);
        t.schedule_h2d(1, 1_000_000_000, &L);
        assert_eq!(t.buffer_stalls(), 0);
        assert_eq!(t.buffer_stall_time(), 0.0);
    }

    #[test]
    fn kernel_waits_for_its_copy() {
        let mut t = DeviceTimer::new();
        t.schedule_h2d(0, 3_000_000_000, &L); // 0-3
        let (ks, _) = t.schedule_kernel(0, 1.0);
        assert_eq!(ks, 3.0);
    }

    #[test]
    fn host_sync_adds_cost_past_horizon() {
        let mut t = DeviceTimer::new();
        t.schedule_h2d(0, 1_000_000_000, &L);
        t.schedule_kernel(0, 2.0); // horizon 3
        t.host_sync(0.5);
        assert_eq!(t.now(), 3.5);
    }

    #[test]
    fn global_kernel_ignores_buffers() {
        let mut t = DeviceTimer::new();
        t.schedule_h2d(0, 10_000_000_000, &L); // copy busy until 10
        let (s, e) = t.schedule_kernel_global(1.0);
        assert_eq!((s, e), (0.0, 1.0));
    }

    #[test]
    fn drain_is_free() {
        let mut t = DeviceTimer::new();
        t.schedule_kernel_global(2.0);
        t.drain();
        assert_eq!(t.now(), 2.0);
    }

    #[test]
    fn comm_stream_runs_under_kernels() {
        let mut t = DeviceTimer::new();
        t.schedule_kernel_global(4.0); // compute busy 0-4
                                       // A chunk whose payload was ready at 1.0 starts at 1.0, under
                                       // the running kernel.
        let (s, e) = t.schedule_comm(1.0, 2.0);
        assert_eq!((s, e), (1.0, 3.0));
        // The next chunk queues behind the first on the comm stream.
        let (s2, e2) = t.schedule_comm(0.5, 1.0);
        assert_eq!((s2, e2), (3.0, 4.0));
        assert_eq!(t.horizon(), 4.0);
    }

    #[test]
    fn wait_kernel_holds_compute_not_copies() {
        let mut t = DeviceTimer::new();
        t.schedule_kernel_global(1.0);
        t.wait_kernel_until(5.0);
        // Dependent kernels start at 5; the copy engine is still free.
        let (ks, _) = t.schedule_kernel_global(1.0);
        assert_eq!(ks, 5.0);
        let mut t2 = DeviceTimer::new();
        t2.wait_kernel_until(5.0);
        let (cs, _) = t2.schedule_h2d(0, 1_000_000_000, &L);
        assert_eq!(cs, 0.0, "prefetch runs under the awaited collective");
    }

    #[test]
    fn sync_waits_on_comm_stream_without_occupying_it() {
        let mut t = DeviceTimer::new();
        t.schedule_comm(0.0, 2.0);
        // The sync waits past the in-flight collective (horizon 2.0) but
        // leaves the comm stream free at 2.0 for the next chunk.
        t.host_sync(0.5);
        assert_eq!(t.now(), 2.5);
        assert_eq!(t.comm_free(), 2.0);
        t.align_to(4.0);
        assert_eq!(t.comm_free(), 4.0);
        t.drain();
        assert_eq!(t.comm_free(), 4.0);
    }

    #[test]
    fn unused_comm_stream_changes_nothing() {
        // A timer that never schedules comm work behaves exactly as before
        // the comm stream existed: horizon, sync and drain are unaffected.
        let mut t = DeviceTimer::new();
        t.schedule_h2d(0, 1_000_000_000, &L);
        t.schedule_kernel(0, 2.0);
        assert_eq!(t.horizon(), 3.0);
        t.host_sync(0.5);
        assert_eq!(t.now(), 3.5);
    }
}
