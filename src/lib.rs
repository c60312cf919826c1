//! # own-noc — Optical-Wireless Network-on-Chip (OWN), IPDPS 2018 reproduction
//!
//! Umbrella crate re-exporting the workspace's public API:
//!
//! * [`core`](noc_core) — cycle-accurate flit-level NoC simulator engine.
//! * [`topology`](noc_topology) — OWN-256/1024 and the baseline topologies
//!   (CMESH, wireless-CMESH, OptXB, p-Clos).
//! * [`traffic`](noc_traffic) — synthetic traffic patterns and injectors.
//! * [`power`](noc_power) — electrical (DSENT-style), photonic and wireless
//!   energy models, incl. Table III/IV of the paper.
//! * [`phy`](noc_phy) — wireless physical layer: link budget, OOK
//!   transceiver circuit models (Figures 3 and 4).
//! * [`sim`](noc_sim) — simulation driver, metrics, sweeps and the
//!   experiment runners that regenerate every table and figure.

#![forbid(unsafe_code)]

pub use noc_core as core;
pub use noc_phy as phy;
pub use noc_power as power;
pub use noc_sim as sim;
pub use noc_topology as topology;
pub use noc_traffic as traffic;
