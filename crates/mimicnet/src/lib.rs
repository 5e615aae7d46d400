//! # mimicnet — fast performance estimates for data center networks
//!
//! A from-scratch Rust reproduction of *MimicNet: Fast Performance
//! Estimates for Data Center Networks with Machine Learning* (Zhang et
//! al., SIGCOMM 2021), built on the workspace's own substrates:
//! [`dcn_sim`] (packet-level simulation), [`dcn_transport`] (protocols),
//! [`mimic_ml`] (LSTMs + Bayesian optimization), and [`flow_sim`] (the
//! flow-level baseline).
//!
//! ## The idea
//!
//! Packet-level simulation of an `N`-cluster data center costs `O(N²)` in
//! traffic but most of that traffic never touches the part of the network
//! an experimenter can observe. MimicNet therefore simulates **one**
//! cluster (plus the core and all remote applications it talks to) in full
//! fidelity and replaces the other `N−1` clusters with *Mimics*: learned
//! models that predict, per boundary-crossing packet, whether the
//! cluster's network would have dropped it, how long it would have dwelt
//! inside, and whether it would emerge CE-marked.
//!
//! ## The workflow (paper Figure 3)
//!
//! 1. **Data generation** ([`datagen`]) — a full-fidelity 2-cluster
//!    simulation with one cluster instrumented at its core- and
//!    host-facing junctures ([`dcn_sim::instrument`]).
//! 2. **Pre-processing** ([`trace`]) — match packets entering/leaving the
//!    cluster; derive latency, drop, and ECN labels.
//! 3. **Feature extraction** ([`features`]) — *scalable* features only
//!    (§5.3): local indices, core switch, sizes, discretized interarrival
//!    + EWMA, and the 4-state congestion estimate (§5.5).
//! 4. **Model training** ([`internal_model`]) — per-direction LSTMs with
//!    the DCN-friendly losses of §5.4 (Huber latency, weighted-BCE drops).
//! 5. **Feeder fitting** ([`feeder`]) — log-normal interarrival models of
//!    inter-Mimic traffic, parameterized by the cluster count (§6).
//! 6. **Hyper-parameter tuning** ([`tuning`]) — Bayesian optimization of
//!    end-to-end, user-defined metrics (e.g. W1 of FCTs) across validation
//!    scales (§7.2).
//! 7. **Composition** ([`compose`]) — a large simulation with one real
//!    cluster and `N−1` Mimics served by one [`MimicFleet`] (§7.1).
//!
//! [`pipeline`] packages steps 1–7 behind one call and reports the per-
//! phase wall-clock breakdown the paper's Table 2 shows.
//!
//! ## Quickstart
//!
//! ```no_run
//! use mimicnet::pipeline::{Pipeline, PipelineConfig};
//!
//! let cfg = PipelineConfig::default();
//! let mut pipe = Pipeline::new(cfg);
//! let (trained, _data) = pipe.try_train()?;        // small-scale sim + training
//! let report = pipe.try_estimate(&trained, 32, None)?; // 32-cluster estimate
//! println!("p99 FCT ≈ {:.3}s", report.fct_p99);
//! # Ok::<(), mimicnet::PipelineError>(())
//! ```

pub mod compose;
pub mod datagen;
pub mod diverge;
pub mod drift;
pub mod error;
pub mod features;
pub mod feeder;
pub mod fleet;
pub mod internal_model;
pub mod metrics;
pub mod mimic;
pub mod pipeline;
pub mod tier;
pub mod trace;
pub mod tuning;

pub use drift::{DriftMonitor, FeatureEnvelope};
pub use error::PipelineError;
pub use fleet::MimicFleet;
pub use pipeline::{Pipeline, PipelineConfig};
pub use tier::{AccuracyBudget, AdaptiveFleet, BudgetLedger, CorrectionHead};
