//! The crate-wide error type for the redesigned public API.
//!
//! Everything a caller can get wrong — malformed configuration, a window of
//! the wrong shape, a serving queue at capacity — surfaces as a typed
//! [`EnhanceNetError`] instead of a panic. Data-layer failures
//! ([`enhancenet_data::DataError`]) convert losslessly via `From`, so `?`
//! composes across the crate boundary.

use enhancenet_data::DataError;
use std::fmt;
use std::time::Duration;

/// Errors surfaced by the public EnhanceNet API.
#[derive(Debug, Clone, PartialEq)]
pub enum EnhanceNetError {
    /// A data-layer failure (scaling, windowing, streaming ingest).
    Data(DataError),
    /// A configuration field failed validation.
    InvalidConfig {
        /// The offending field.
        field: &'static str,
        /// What was wrong with it.
        reason: String,
    },
    /// A prediction input did not match the shape the model expects.
    InputShape {
        /// Expected trailing dimensions (`[H, N, C]`).
        expected: Vec<usize>,
        /// The shape actually supplied.
        got: Vec<usize>,
    },
    /// The model cannot report its expected input shape, which the caller's
    /// entry point requires (e.g. [`crate::serve::FleetService`], which
    /// sizes its sliding windows from it).
    UnknownInputShape {
        /// The model's `name()`.
        model: String,
    },
    /// Not enough history has been ingested to assemble a window.
    NotReady {
        /// Timestamps currently retained.
        have: usize,
        /// Timestamps required (`H`).
        need: usize,
    },
    /// The serving queue was full; the request was not enqueued.
    Overloaded {
        /// Configured queue capacity.
        capacity: usize,
    },
    /// A tenant's token-bucket quota was exhausted; the request was not
    /// enqueued. Unlike [`EnhanceNetError::Overloaded`] this is a
    /// per-tenant verdict: other tenants' requests still flow.
    Throttled {
        /// The tenant whose bucket ran dry.
        tenant: String,
    },
    /// The request's deadline elapsed before the batch worker replied.
    DeadlineExceeded {
        /// The deadline that elapsed.
        deadline: Duration,
    },
    /// The serving worker did not answer: the service shut down, or the
    /// batch's forward pass panicked (the worker survives and serves the
    /// next batch).
    ServiceStopped,
}

impl fmt::Display for EnhanceNetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Data(e) => write!(f, "data error: {e}"),
            Self::InvalidConfig { field, reason } => {
                write!(f, "invalid config: `{field}` {reason}")
            }
            Self::InputShape { expected, got } => {
                write!(f, "input shape mismatch: expected {expected:?}, got {got:?}")
            }
            Self::UnknownInputShape { model } => {
                write!(f, "model `{model}` does not report an input shape")
            }
            Self::NotReady { have, need } => {
                write!(f, "not ready: {have} of {need} timestamps ingested")
            }
            Self::Overloaded { capacity } => {
                write!(f, "serving queue full (capacity {capacity})")
            }
            Self::Throttled { tenant } => {
                write!(f, "tenant `{tenant}` throttled by its quota")
            }
            Self::DeadlineExceeded { deadline } => {
                write!(f, "deadline of {deadline:?} exceeded")
            }
            Self::ServiceStopped => write!(f, "forecast service stopped"),
        }
    }
}

impl std::error::Error for EnhanceNetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DataError> for EnhanceNetError {
    fn from(e: DataError) -> Self {
        Self::Data(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_errors_convert() {
        let e: EnhanceNetError = DataError::EmptyFit.into();
        assert_eq!(e, EnhanceNetError::Data(DataError::EmptyFit));
        assert!(e.to_string().contains("data error"));
    }

    #[test]
    fn displays_are_informative() {
        let e = EnhanceNetError::InputShape { expected: vec![12, 4, 1], got: vec![12, 3, 1] };
        assert!(e.to_string().contains("[12, 4, 1]"));
        let e = EnhanceNetError::InvalidConfig { field: "epochs", reason: "must be > 0".into() };
        assert!(e.to_string().contains("epochs"));
        let e = EnhanceNetError::NotReady { have: 3, need: 12 };
        assert!(e.to_string().contains("3 of 12"));
    }
}
