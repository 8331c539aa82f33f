//! # wtf-mvstm — multi-versioned software transactional memory
//!
//! A from-scratch Rust analogue of **JVSTM** (Cachopo & Rito-Silva,
//! "Versioned boxes as the basis for memory transactions"), the substrate
//! the paper builds WTF-TM on. The design mirrors JVSTM's essentials:
//!
//! * **Versioned boxes**: every transactional location keeps
//!   a chain of `(version, value)` pairs, newest first — an immutable
//!   cons list behind an atomic head pointer, so snapshot reads are
//!   lock-free and installing a committed value is O(1).
//! * **Global version clock**: committing writers reserve a version with
//!   one atomic fetch-add and publish their write-set at that version.
//! * **Snapshot reads**: a transaction reads the newest version no newer
//!   than its begin snapshot, so *every* read observes a consistent memory
//!   snapshot — this gives opacity without per-read validation, and lets
//!   **read-only transactions commit without any validation** (JVSTM's
//!   signature property).
//! * **Commit-time validation** for update transactions under **striped
//!   commit locks**: boxes hash onto 64 cache-line-padded lock stripes
//!   ([`wtf_backend::STRIPES`]); a committer locks only the stripes
//!   covering its read- and write-set (in ascending order —
//!   deadlock-free), validates that every read is still current,
//!   installs, and publishes. Commits with disjoint stripe footprints run
//!   fully in parallel; there is no global commit mutex.
//! * **Version GC** driven by a dense, lock-free active-transaction
//!   registry (JVSTM's `ActiveTransactionsRecord`, in `wtf-backend`'s
//!   [`Horizon`](wtf_backend::Horizon)): version chains are pruned down
//!   to the oldest snapshot still in use, and the bodies of dropped boxes
//!   are freed under the same horizon.
//!
//! Most of that is not this crate's: the stripes, the validate-and-publish
//! frame, the counters and the horizon are `wtf-backend`'s (its `frame`
//! module), shared with `wtf-tl2`. What is left here is what makes the
//! STM multi-versioned — the version chain ([`raw`] and `vbox`), the
//! check of a read against the chain's head, and the install step: the
//! ticket, the chain installs, the ordered publish and the prune. The
//! protocol is documented in `DESIGN.md` § "Commit-path concurrency", in
//! the module docs of [`raw`] and `vbox`, and in those of `wtf-backend`'s
//! frame, registry and horizon.
//!
//! The crate has one way in: [`Stm`] is `wtf-backend`'s
//! [`Backend`] over the [`Mvstm`] protocol, so it
//! implements [`wtf_backend::StmBackend`] and transactions run through
//! `wtf_backend::atomic` (the plain "JVSTM" baseline of the paper's
//! evaluation — top-level transactions, no intra-transaction parallelism)
//! or through `wtf-core`, which layers transactional futures on the same
//! trait, exactly as WTF-TM layers on JVSTM ("we abstract the mechanisms
//! used to regulate concurrency among top-level transactions"). What is
//! left public beside the trait is mvstm-only: the [`raw`] diagnostics
//! the tests use.
//!
//! ## Example
//!
//! ```
//! use wtf_backend::{atomic, TBox};
//! use wtf_mvstm::Stm;
//!
//! let stm = Stm::new();
//! let acc_a = TBox::new_on(&stm, 100i64);
//! let acc_b = TBox::new_on(&stm, 0i64);
//!
//! atomic(&stm, |tx| {
//!     let a = tx.read(&acc_a)?;
//!     tx.write(&acc_a, a - 30)?;
//!     let b = tx.read(&acc_b)?;
//!     tx.write(&acc_b, b + 30)?;
//!     Ok(())
//! })
//! .unwrap();
//!
//! assert_eq!(atomic(&stm, |tx| tx.read(&acc_b)).unwrap(), 30);
//! ```

mod vbox;

pub mod raw;

// Kept for `benchmark/` only (`stm::VBox::new(&stm, v)`,
// `stm::StmStatsSnapshot`); everything else names these through
// `wtf-backend`.
pub use wtf_backend::{StmStatsSnapshot, TBox as VBox};

use std::sync::atomic::AtomicU64;
use wtf_backend::Backend;

/// A multi-versioned software transactional memory instance. Cheap to
/// clone (all clones share state); boxes are tied to the `Stm` they were
/// created on.
pub type Stm = Backend<Mvstm>;

/// The multi-version protocol (its install step is in [`raw`]) and the
/// one piece of state it adds to the shared frame: the version ticket
/// dispenser, on a cache line of its own (128 bytes: the adjacent-line
/// prefetcher pulls lines in pairs). Every update commit writes it, and
/// the read-mostly pointers beside it must not move with it.
#[derive(Default)]
#[repr(align(128))]
pub struct Mvstm {
    /// `fetch_add` here is the single global atomic RMW on the commit
    /// path. A ticket may be ahead of the clock while its commit is
    /// still installing.
    // ordering: acqrel-rmw — the ticket fetch_add orders each reserved
    // ticket after the validation that justified it and before the
    // installs published under it.
    next_version: AtomicU64,
}

#[cfg(test)]
mod tests;
