//! Client-side errors.

use kdwire::{ErrorCode, RpcError};

/// Anything that can go wrong on a client datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientError {
    /// Transport-level failure (connection closed, QP broken).
    Disconnected,
    /// The broker answered with an error code.
    Broker(ErrorCode),
    /// An unexpected or undecodable response (protocol bug).
    Protocol,
    /// Records failed client-side integrity checks.
    Corrupt,
    /// Exhausted retries (e.g. repeated access revocation).
    RetriesExhausted,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Disconnected => write!(f, "connection lost"),
            ClientError::Broker(e) => write!(f, "broker error: {e:?}"),
            ClientError::Protocol => write!(f, "unexpected response"),
            ClientError::Corrupt => write!(f, "corrupt records"),
            ClientError::RetriesExhausted => write!(f, "retries exhausted"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<RpcError> for ClientError {
    fn from(e: RpcError) -> Self {
        match e {
            RpcError::Closed => ClientError::Disconnected,
            RpcError::Protocol => ClientError::Protocol,
        }
    }
}

/// Converts a broker error code into a `Result`.
pub fn check(code: ErrorCode) -> Result<(), ClientError> {
    if code.is_ok() {
        Ok(())
    } else {
        Err(ClientError::Broker(code))
    }
}
