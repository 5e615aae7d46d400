//! Typed errors for user-facing APIs.
//!
//! Invalid *user input* — a malformed configuration or an out-of-range
//! loss window — must surface as `Err`, never as a panic; panics are
//! reserved for internal invariant violations.
//! [`crate::config::SimConfig::validate`] and
//! [`crate::fault::LossWindow::new`] are the producers.

use std::fmt;

/// An error in user-supplied simulator input.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// A configuration field holds an invalid value.
    InvalidConfig {
        /// Dotted path of the offending field (e.g. `"queue.bands"`).
        field: &'static str,
        reason: String,
    },
}

impl SimError {
    pub(crate) fn config(field: &'static str, reason: impl Into<String>) -> SimError {
        SimError::InvalidConfig {
            field,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { field, reason } => {
                write!(f, "invalid configuration: `{field}` {reason}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_field() {
        let e = SimError::config("loss_window.prob", "must lie in [0, 1]");
        assert!(e.to_string().contains("loss_window.prob"));
    }
}
