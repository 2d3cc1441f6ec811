//! # ldgm-core — weighted matching algorithms
//!
//! The paper's primary contribution and every baseline it is evaluated
//! against:
//!
//! * [`ld_gpu`] — **LD-GPU**: multi-device, batched, pointer-based locally
//!   dominant ½-approximate matching on the `ldgm-gpusim` platform
//!   simulator (Algorithms 2–3 of the paper);
//! * [`ld_seq`] — LD-SEQ, the sequential pointer algorithm (Algorithm 1);
//! * [`suitor`] / [`suitor_par`] — sequential and rayon-parallel Suitor
//!   (the paper's SR-OMP baseline);
//! * [`suitor_sim`] — Suitor on a single simulated GPU (the SR-GPU
//!   baseline);
//! * [`local_max`] — Birn et al.'s edge-centric LocalMax;
//! * [`greedy`] — global-sort greedy;
//! * [`auction`] — Fagginger Auer & Bisseling's red-blue auction;
//! * [`cugraph_sim`] — a cuGraph-style multi-GPU baseline (MPI-staged
//!   collectives, no dead-vertex retirement) for Table V;
//! * [`blossom`] — exact maximum-weight matching (the LEMON stand-in);
//! * [`augment`] — Pettie–Sanders short-augmentation refinement toward a
//!   ⅔-approximation (the paper's §V future-work direction);
//! * [`matching`] / [`verify`] / [`fom`] — result types, certificates and
//!   the paper's MMEPS figure of merit;
//! * [`matcher`] — the unified [`matcher::Matcher`] trait and
//!   name-keyed registry putting every algorithm above behind one API.

pub mod auction;
pub mod augment;
pub mod blossom;
pub mod cugraph_sim;
pub mod fom;
pub mod greedy;
pub mod ld_gpu;
pub mod ld_seq;
pub mod local_max;
pub mod matcher;
pub mod matching;
pub mod suitor;
pub mod suitor_par;
pub mod suitor_sim;
pub mod verify;

pub use matcher::{
    edit_distance, nearest_names, MatchError, MatchResult, Matcher, MatcherRegistry, MatcherSetup,
};
pub use matching::{prefer, Matching, UNMATCHED};
