//! # dcn-sim — a packet-level data center network simulator
//!
//! `dcn-sim` is a deterministic discrete-event simulator (DES) for FatTree
//! data center networks. It is the simulation substrate used by the
//! [MimicNet](https://doi.org/10.1145/3452296.3472926) reproduction in this
//! workspace, playing the role that OMNeT++ v4.5 + INET v2.4 play in the
//! original paper.
//!
//! ## What it models
//!
//! * **Topology** ([`topology`]): canonical FatTree-style clusters — hosts
//!   under Top-of-Rack (ToR) switches, ToRs under cluster (aggregation)
//!   switches, clusters joined by core switches. Strict up-down routing with
//!   ECMP ([`routing`]).
//! * **Switches and queues** ([`switch`], [`queue`]): output-queued
//!   store-and-forward switches with DropTail, RED/ECN-marking, or strict
//!   priority queue disciplines.
//! * **Links** ([`link`]): full-duplex links with configurable bandwidth and
//!   propagation latency; serialization is modeled explicitly.
//! * **Hosts and transports** ([`host`], [`transport`]): hosts run
//!   per-flow transport state machines behind the [`transport::Transport`]
//!   trait (implementations live in the `dcn-transport` crate).
//! * **Workloads** ([`traffic`]): per-host Poisson flow arrivals with
//!   heavy-tailed, scale-independent flow-size distributions and a
//!   cluster-locality parameter, as the paper's restrictions require.
//! * **Instrumentation** ([`instrument`]): flow completion times, binned
//!   per-host throughput, packet RTTs, and the cluster-boundary packet
//!   traces that MimicNet trains on.
//! * **Mimic hook** ([`mimic`]): clusters can be replaced wholesale by a
//!   user-provided model implementing [`mimic::ClusterModel`]; this
//!   is the seam the `mimicnet` crate plugs its learned Mimics into.
//! * **Parallel execution** ([`pdes`]): conservative, barrier-synchronous
//!   parallel DES across per-cluster logical processes, used to reproduce the
//!   paper's Figure 2 observation that parallelism alone does not rescue
//!   tightly coupled DCN simulations.
//!
//! ## Determinism
//!
//! Every run is a pure function of its [`config::SimConfig`] (including the
//! seed). Virtual time is a `u64` nanosecond counter ([`time::SimTime`]); all
//! randomness flows from seeded [`rng::SplitMix64`] streams; simultaneous
//! events are ordered by a stable, structurally derived key so that
//! sequential and parallel executions agree bit-for-bit.
//!
//! ## Quickstart
//!
//! ```
//! use dcn_sim::config::SimConfig;
//! use dcn_sim::simulator::Simulation;
//!
//! let mut cfg = SimConfig::small_scale(); // the paper's 2-cluster setup
//! cfg.duration_s = 0.05;
//! cfg.seed = 7;
//! let mut sim = Simulation::new(cfg);
//! let metrics = sim.run();
//! assert!(metrics.flows_completed() > 0);
//! ```

pub mod cdf;
pub mod config;
pub mod error;
pub mod event;
pub mod fault;
pub mod host;
pub mod instrument;
pub mod link;
pub mod mimic;
pub mod packet;
pub mod pdes;
pub mod queue;
pub mod rng;
pub mod routing;
pub mod simulator;
pub mod snapshot;
pub mod stats;
pub mod switch;
pub mod time;
pub mod topology;
pub mod traffic;
pub mod transport;

pub use config::SimConfig;
pub use packet::Packet;
pub use simulator::Simulation;
pub use time::{SimDuration, SimTime};
