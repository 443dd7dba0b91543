//! The packet-level network data plane: what NS3 provided for the paper.
//!
//! A [`Simulation`] wires together:
//!
//! * the FatTree topology and ECMP routing (`sv2p-topology`);
//! * store-and-forward links with per-egress-port drop-tail queues
//!   ([`link`]);
//! * switches that run a per-switch [`sv2p_vnet::SwitchAgent`] fabricated by
//!   the experiment's [`sv2p_vnet::Strategy`] (SwitchV2P or any baseline);
//! * servers that drive TCP/UDP flows ([`flows`]) through per-server
//!   [`sv2p_vnet::HostAgent`]s, deliver to hosted VMs, and re-forward
//!   misdeliveries;
//! * translation gateways with the paper's 40 µs processing delay;
//! * VM migrations with follow-me rules (§5.2);
//! * full metrics recording (`sv2p-metrics`).
//!
//! The simulator is strategy-agnostic: nothing in this crate knows how
//! SwitchV2P caches — it only honors the [`sv2p_vnet::AgentOutput`] verdicts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod churn;
pub mod config;
pub mod engine;
pub mod faults;
pub mod flows;
pub mod link;
#[cfg(test)]
mod link_oracle;
pub mod sharded;
pub mod sim;
mod wire;

pub use arena::{PacketArena, PacketRef};
pub use churn::{ChurnMark, ChurnPlan, ChurnSpec};
pub use config::SimConfig;
pub use engine::Engine;
pub use faults::{FaultEvent, FaultPlan};
pub use flows::{FlowKind, FlowSpec};
pub use sharded::ShardedSimulation;
pub use sim::Simulation;
