//! `perfbench`: the FNCC simulator's benchmark. It builds scenarios from a
//! seed, runs them through the simulator's public API and times the calls
//! into each crate from outside; `run.py` drives it and aggregates.

pub mod alloc;
pub mod calib;
pub mod digest;
pub mod rep;
pub mod stats;
pub mod trace;
pub mod traced;
pub mod workloads;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;
