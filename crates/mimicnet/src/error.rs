//! Typed errors for the MimicNet pipeline.

use dcn_sim::error::SimError;
use dcn_sim::pdes::LpPanic;
use dcn_sim::topology::NodeId;
use mimic_ml::train::TrainError;
use std::fmt;

/// An error raised while assembling or running a MimicNet estimate.
#[derive(Clone, Debug, PartialEq)]
pub enum PipelineError {
    /// A host could not be placed in any cluster while composing the
    /// large simulation — the topology is malformed.
    MalformedTopology { node: NodeId, reason: String },
    /// Model training failed (empty trace, diverged, ...).
    Train(TrainError),
    /// The underlying simulator rejected its input.
    Sim(SimError),
    /// A composition parameter is out of range (e.g. fewer than 2
    /// clusters, or a tier cadence that is not positive).
    InvalidComposition { reason: String },
    /// A training or tuning parameter is out of range (e.g. a zero
    /// window, batch size or layer count, or no tuning evaluations).
    InvalidConfig { reason: String },
    /// A logical process of a partitioned run panicked; the run stopped
    /// at that window.
    LpPanic(LpPanic),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::MalformedTopology { node, reason } => {
                write!(f, "malformed topology at node {}: {reason}", node.0)
            }
            PipelineError::Train(e) => write!(f, "training failed: {e}"),
            PipelineError::Sim(e) => write!(f, "simulation rejected input: {e}"),
            PipelineError::InvalidComposition { reason } => {
                write!(f, "invalid composition: {reason}")
            }
            PipelineError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            PipelineError::LpPanic(e) => write!(f, "partitioned run aborted: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Train(e) => Some(e),
            PipelineError::Sim(e) => Some(e),
            PipelineError::LpPanic(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TrainError> for PipelineError {
    fn from(e: TrainError) -> Self {
        PipelineError::Train(e)
    }
}

impl From<SimError> for PipelineError {
    fn from(e: SimError) -> Self {
        PipelineError::Sim(e)
    }
}

impl From<LpPanic> for PipelineError {
    fn from(e: LpPanic) -> Self {
        PipelineError::LpPanic(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e: PipelineError = TrainError::EmptyDataset.into();
        assert!(e.to_string().contains("training failed"));
        let e = PipelineError::MalformedTopology {
            node: NodeId(7),
            reason: "host outside every cluster".into(),
        };
        assert!(e.to_string().contains("node 7"));
    }
}
