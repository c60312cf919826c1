//! # noc-power — energy models for the OWN evaluation
//!
//! Three families of models, mirroring §IV–V of the paper:
//!
//! * [`wireless`] — the Table III band plan: 16 wireless channels under an
//!   *ideal* (32 GHz bandwidth) and a *conservative* (16 GHz) scenario, with
//!   CMOS / BiCMOS / SiGe-HBT technologies, per-band efficiency ramps and
//!   link-distance (LD) scaling factors.
//! * [`configs`] — the Table IV configurations 1–4 mapping a technology to
//!   each distance class (C2C / E2E / SR).
//! * [`electrical`] + [`photonic`] — DSENT-style analytic router and wire
//!   energy at a bulk 45 nm LVT node, and the flat per-bit photonic link
//!   cost the paper quotes (1–2 pJ/bit including the laser share).
//!
//! [`budget`] aggregates simulator event counts ([`noc_core::NetStats`])
//! into a per-component power breakdown — the quantity plotted in Figures
//! 5, 6 and 8b.
//!
//! ```
//! use noc_core::DistanceClass;
//! use noc_power::{band_plan, Scenario, WinocConfig, WirelessModel};
//!
//! // Table III, ideal scenario: exactly four CMOS bands.
//! let plan = band_plan(Scenario::Ideal);
//! assert_eq!(plan.iter().filter(|b| b.tech.name() == "CMOS").count(), 4);
//!
//! // Configuration 4 prices a diagonal link on CMOS at full LD factor...
//! let own = WirelessModel::own(Scenario::Ideal, WinocConfig::Config4);
//! let c2c = own.energy_pj_per_bit(1, DistanceClass::C2C);
//! // ...and a short-range link on BiCMOS at 0.15x.
//! let sr = own.energy_pj_per_bit(9, DistanceClass::SR);
//! assert!(sr < c2c);
//! ```

#![forbid(unsafe_code)]

pub mod area;
pub mod budget;
pub mod configs;
pub mod dsent;
pub mod electrical;
pub mod photonic;
pub mod photonic_loss;
pub mod thermal;
pub mod wireless;

pub use area::{AreaModel, NetworkArea};
pub use budget::{NetworkPower, PowerModel, PowerParams};
pub use configs::WinocConfig;
pub use dsent::{DsentRouter, TechNode};
pub use electrical::ElectricalModel;
pub use photonic::PhotonicModel;
pub use photonic_loss::{LossModel, WaveguideBudget};
pub use thermal::ThermalModel;
pub use wireless::{band_plan, Scenario, Technology, WirelessBand, WirelessModel};
