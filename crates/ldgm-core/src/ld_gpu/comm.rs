//! The collective policy of Algorithm 2: how the pointer allreduce (line
//! 7) and the mate allreduce (line 9) are billed.
//!
//! Two orthogonal choices make up the policy. *Dense or sparse*: a dense
//! collective ships 8 B per vertex of the reduced slice, a sparse one 16 B
//! (index + value) per entry written this round. *Serialized or
//! overlapped*: a serialized reduction is one [`SimRuntime::allreduce`],
//! which starts when the last device finishes and aligns every device to
//! its end (the timeline books the other devices' wait, the paper's
//! imbalance-dominated synchronization, as the `sync` phase); an
//! overlapped one is a [`SimRuntime::allreduce_chunked`] on the comm
//! stream, each slice reducing from the moment its producer kernel
//! retires. [`CommPolicy`] is the only code that makes either choice: the
//! LD-GPU driver builds it from its configuration (sparse exactly in the
//! optimized mode), the incremental engine as sparse with its own overlap
//! flag.

use ldgm_gpusim::{CommChunk, SimRuntime};

/// How a run bills its pointer and mate reductions (see the module docs).
#[derive(Clone, Copy, Debug)]
pub struct CommPolicy {
    overlap: bool,
    sparse: bool,
}

impl CommPolicy {
    /// The policy with overlapped (chunked) or serialized reductions, of
    /// sparse or dense payloads.
    pub fn new(overlap: bool, sparse: bool) -> Self {
        CommPolicy { overlap, sparse }
    }

    /// Payload of a slice of `vertices` vertices, `written` of whose
    /// entries were written this round.
    fn bytes(&self, vertices: u64, written: u64) -> u64 {
        if self.sparse {
            16 * written
        } else {
            8 * vertices
        }
    }

    /// A pointer slice of `vertices` vertices, `written` of them written,
    /// became reducible at `ready`: overlapped reductions stage it as one
    /// chunk, serialized ones ship it with the whole array.
    pub fn stage(&self, chunks: &mut Vec<CommChunk>, vertices: u64, written: u64, ready: f64) {
        if self.overlap {
            chunks.push(CommChunk { bytes: self.bytes(vertices, written), ready });
        }
    }

    /// Reduce the pointer array of `vertices` vertices, `written` entries
    /// written this round, over the chunks staged for it.
    pub fn reduce_pointers(
        &self,
        rt: &mut SimRuntime,
        vertices: u64,
        written: u64,
        staged: &[CommChunk],
    ) {
        if self.overlap {
            rt.allreduce_chunked("allreduce ptr", staged);
        } else {
            rt.allreduce("allreduce ptr", self.bytes(vertices, written));
        }
    }

    /// Reduce the mate array of `vertices` vertices, `written` entries
    /// written this round. The matching kernel writes the whole array, so
    /// an overlapped reduction is one chunk, ready when the slowest
    /// device's compute retires; it still runs on the comm stream, under
    /// the next round's prefetch copies.
    pub fn reduce_mates(&self, rt: &mut SimRuntime, vertices: u64, written: u64) {
        let bytes = self.bytes(vertices, written);
        if self.overlap {
            let ready = rt.compute_horizon();
            rt.allreduce_chunked("allreduce mate", &[CommChunk { bytes, ready }]);
        } else {
            rt.allreduce("allreduce mate", bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_follow_the_policy() {
        let mut chunks = Vec::new();
        CommPolicy::new(true, false).stage(&mut chunks, 100, 7, 1.5);
        CommPolicy::new(true, true).stage(&mut chunks, 100, 7, 2.5);
        CommPolicy::new(false, false).stage(&mut chunks, 100, 7, 3.5);
        assert_eq!(
            chunks,
            [CommChunk { bytes: 800, ready: 1.5 }, CommChunk { bytes: 112, ready: 2.5 }],
            "dense 8 B per vertex, sparse 16 B per written entry, serialized stages nothing"
        );
    }
}
