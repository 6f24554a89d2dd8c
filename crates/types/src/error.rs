//! Workspace-wide error type.
//!
//! The substrates are mostly infallible by construction (panics guard
//! programmer errors such as invalid capacities), but operations driven by
//! user configuration — training a model on an empty sample set, asking the
//! scheduler about an unknown component, running a simulation with an
//! inconsistent topology — report [`PcsError`].

use std::fmt;

/// Errors surfaced by the PCS library crates.
#[derive(Debug, Clone, PartialEq)]
pub enum PcsError {
    /// A model was asked to train on insufficient or degenerate data.
    InsufficientData {
        /// What was being trained or estimated.
        context: &'static str,
        /// How many samples were provided.
        got: usize,
        /// How many samples are required.
        need: usize,
    },
    /// A numerical routine failed to produce a finite result.
    Numerical {
        /// What was being computed.
        context: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// An id referred to an entity that does not exist.
    UnknownEntity {
        /// Entity category ("component", "node", ...).
        kind: &'static str,
        /// The raw id value.
        id: u32,
    },
    /// A configuration value was rejected.
    InvalidConfig {
        /// Which parameter was invalid.
        parameter: &'static str,
        /// Why it was rejected.
        detail: String,
    },
}

impl fmt::Display for PcsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PcsError::InsufficientData { context, got, need } => write!(
                f,
                "insufficient data for {context}: got {got} samples, need at least {need}"
            ),
            PcsError::Numerical { context, detail } => {
                write!(f, "numerical failure in {context}: {detail}")
            }
            PcsError::UnknownEntity { kind, id } => {
                write!(f, "unknown {kind} id {id}")
            }
            PcsError::InvalidConfig { parameter, detail } => {
                write!(f, "invalid configuration for {parameter}: {detail}")
            }
        }
    }
}

impl std::error::Error for PcsError {}

/// Returns [`PcsError::InvalidConfig`] for `parameter` (converted with
/// `Into` to the function's error type) from the enclosing function
/// unless `cond` holds; the detail is `format!`-style. The config
/// validators' counterpart of `assert!`.
#[macro_export]
macro_rules! ensure {
    ($cond:expr, $parameter:expr, $($detail:tt)+) => {
        if !$cond {
            return Err($crate::PcsError::InvalidConfig {
                parameter: $parameter,
                detail: format!($($detail)+),
            }
            .into());
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = PcsError::InsufficientData {
            context: "regression",
            got: 1,
            need: 3,
        };
        assert_eq!(
            e.to_string(),
            "insufficient data for regression: got 1 samples, need at least 3"
        );
        let e = PcsError::UnknownEntity {
            kind: "component",
            id: 7,
        };
        assert!(e.to_string().contains("component id 7"));
    }

    #[test]
    fn errors_are_comparable() {
        let a = PcsError::InvalidConfig {
            parameter: "epsilon",
            detail: "negative".into(),
        };
        assert_eq!(a.clone(), a);
    }
}
