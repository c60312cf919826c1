//! # noc-topology — OWN and baseline NoC topologies
//!
//! Implements the five architectures compared in the paper, at both 256 and
//! 1024 cores, each as a [`Topology`] that builds a ready-to-run
//! [`noc_core::Network`] (routers, channels, shared buses, and a
//! deadlock-free routing function):
//!
//! * [`CMesh`] — concentrated 2-D mesh, 4 cores/router, XY dimension-order
//!   routing (the pure-electrical baseline).
//! * [`WirelessCMesh`] — 4-router electrically-crossbarred subnets with one
//!   wireless router each; XY DOR over the subnet grid (WCube-like).
//! * [`OptXb`] — single-stage photonic MWSR crossbar with token arbitration
//!   (Corona-like).
//! * [`PClos`] — two-hop photonic Clos: MWSR up-buses into middle switches,
//!   MWSR down-buses back to node routers.
//! * [`Own`] — the paper's contribution: photonic MWSR crossbars inside each
//!   16-tile cluster, wireless channels between clusters (256 cores) and
//!   SWMR wireless multicast between groups (1024 cores).
//!
//! Channel allocation (Tables I and II of the paper) lives in [`channels`];
//! the bisection-bandwidth equalization of §V-A lives in [`normalize`].
//!
//! ```
//! use noc_topology::{Own, Topology};
//!
//! let own = Own::new_256();
//! assert_eq!(own.diameter_hops(), 3); // photonic -> wireless -> photonic
//! let mut net = own.build(Default::default());
//! net.inject_packet(0, 255, 2); // cluster 0 to cluster 3
//! assert!(net.drain(2_000));
//! ```

#![forbid(unsafe_code)]

pub mod channels;
pub mod cmesh;
pub mod normalize;
pub mod optxb;
pub mod own1024;
pub mod own256;
pub mod pclos;
pub mod reconfig;
pub mod topology;
pub mod wcmesh;

pub use channels::{ChannelAllocation, WirelessLink};
pub use cmesh::CMesh;
pub use optxb::OptXb;
pub use own1024::Own1024;
pub use own256::{AntennaPlacement, Own256};
pub use pclos::PClos;
pub use reconfig::{profile_hot_pairs, Own256Reconfig, ReconfigPolicy};
pub use topology::{OwnScale, Topology};
pub use wcmesh::WirelessCMesh;

/// The paper's standard topology suite at a given core count (Figures 6–8):
/// CMESH, wireless-CMESH, OptXB, p-Clos and OWN.
pub fn paper_suite(cores: u32) -> Vec<Box<dyn Topology>> {
    vec![
        Box::new(CMesh::new(cores)),
        Box::new(WirelessCMesh::new(cores)),
        Box::new(OptXb::new(cores)),
        Box::new(PClos::new(cores)),
        own(cores),
    ]
}

/// The OWN topology for the given core count (256 or 1024).
pub fn own(cores: u32) -> Box<dyn Topology> {
    match cores {
        256 => Box::new(Own256::new()),
        1024 => Box::new(Own1024::new()),
        _ => panic!("OWN is defined for 256 and 1024 cores, not {cores}"),
    }
}

/// Convenience alias so callers can write `Own::new_256()`.
pub struct Own;

impl Own {
    /// The 256-core OWN (Fig. 1 of the paper).
    pub fn new_256() -> Own256 {
        Own256::new()
    }

    /// The 1024-core OWN (Fig. 2 of the paper).
    pub fn new_1024() -> Own1024 {
        Own1024::new()
    }
}
