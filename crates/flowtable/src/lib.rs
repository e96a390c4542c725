//! Hypervisor-resident flow monitoring for S-CORE (paper §V-B1).
//!
//! In the paper's Xen deployment, dom0 maintains a flow table fed by
//! periodically polling Open vSwitch datapath statistics. The table answers
//! the questions the token holder asks before a migration decision: *which
//! peers does this VM talk to and at what aggregate rate* (§V-B3).
//!
//! This crate reproduces that module:
//!
//! * [`FlowKey`] / [`Protocol`] — 5-tuple flow identification;
//! * [`FlowTable`] — add/update/lookup/delete with a by-IP secondary index,
//!   byte counters, timestamps, and per-peer aggregate throughput;
//! * [`benchset`] — the type-1/type-2 million-flow stress sets of Fig. 5a.
//!
//! # Examples
//!
//! ```
//! use std::net::Ipv4Addr;
//! use score_flowtable::{FlowKey, FlowTable};
//!
//! let mut table = FlowTable::new();
//! let vm = Ipv4Addr::new(10, 0, 0, 1);
//! let peer = Ipv4Addr::new(10, 0, 1, 1);
//! table.record(FlowKey::tcp(vm, 40_000, peer, 80), 1_000_000, 800, 0.0);
//!
//! // Ten seconds later the token arrives and dom0 aggregates the load.
//! let rates = table.aggregate_peer_rates(vm, 10.0, 1.0);
//! assert_eq!(rates, vec![(peer, 100_000.0)]); // bytes per second
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod benchset;
pub mod key;
pub mod table;

pub use benchset::{paper_type2_flows, type1_flows, type2_flows, TYPE2_GROUP};
pub use key::{FlowKey, Protocol};
pub use table::{FlowRecord, FlowTable};
