//! # wtf-workloads — the paper's evaluation workloads
//!
//! Faithful re-implementations of the three workloads §5 evaluates
//! WTF-TM on, plus the measurement harness:
//!
//! * [`synthetic`] — the configurable array benchmark of §5.1/§5.2 (reads,
//!   hot-spot writes, `iter` spin-work) and the future-vs-continuation
//!   conflict workload of §5.3 (Figs. 6 and 7);
//! * [`bank`] — the Bank log-replay benchmark (`transfer` /
//!   `getTotalAmount`, Fig. 8), including the `getTotalAmount` sanity
//!   invariant;
//! * [`vacation`] — a from-scratch STAMP-Vacation analogue (travel agency
//!   over flight/car/room tables and customers) parallelized with
//!   transactional futures and 10%-probability 100 ms remote-lookup delays
//!   (Fig. 9);
//! * [`harness`] — virtual-time measurement: spawn client threads under a
//!   deterministic clock, run transactions, report makespan/throughput and
//!   the paper's two abort rates.
//!
//! All workloads are deterministic functions of their seeds under the
//! virtual clock, which is what lets `wtf-bench` regenerate the figures
//! reproducibly.

pub mod bank;
pub mod harness;
pub mod synthetic;
pub mod vacation;

pub use harness::{run_virtual, run_virtual_traced, with_backend, ClientFn, RunResult, RunSpec};
