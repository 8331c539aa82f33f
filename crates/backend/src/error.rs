//! Why a transactional operation could not proceed.

/// Why a transactional operation could not proceed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StmError {
    /// Concurrency conflict; the transaction must be re-executed.
    Conflict,
    /// The program explicitly aborted the transaction.
    UserAbort,
}

/// The transaction was explicitly aborted by the program (not retried).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aborted;

impl std::fmt::Display for Aborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "transaction aborted explicitly")
    }
}

impl std::error::Error for Aborted {}

/// Result type of transactional operations and bodies.
pub type TxResult<T> = Result<T, StmError>;
