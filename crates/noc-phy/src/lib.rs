//! # noc-phy — the OWN wireless physical layer (§IV, Figures 3–4)
//!
//! First-order analytic models of the 90–100 GHz OOK transceiver the paper
//! designs in 65 nm CMOS, replacing the authors' circuit-simulator runs
//! (see DESIGN.md §4 for the substitution rationale):
//!
//! * [`linkbudget`] — Friis path loss + OOK receiver sensitivity: required
//!   transmit power vs distance and antenna directivity (**Figure 3**; the
//!   paper's anchor: ≥4 dBm for 50 mm at 0 dBi and 32 Gb/s).
//! * [`oscillator`] — Colpitt oscillator: resonant frequency from the
//!   device capacitances, Leeson phase noise (**Figure 4a**; anchor:
//!   ≈−86 dBc/Hz at 1 MHz offset), and the oscillation PSD.
//! * [`pa`] — one-stage class-AB power amplifier: band-pass gain (peak
//!   3.5 dB at 90 GHz, ~20 GHz bandwidth at 2 dB), Rapp-model compression
//!   (**Figure 4b**; anchor: 1-dB compression ≈5 dBm, 14 mW DC, 7 dBm
//!   saturated RF).
//! * [`lna`] — wideband cascode low-noise amplifier (**Figure 4c**; anchor:
//!   10 dB gain around 90 GHz).
//! * [`transceiver`] — the assembled OOK link: DC power and energy per bit,
//!   cross-checked against the Table III projections in `noc-power`.
//! * [`coding`] — SECDED/Hamming forward error correction: post-FEC BER
//!   from the raw link BER, rate overhead, and net coding gain on the OOK
//!   curve, so coded and uncoded links can be compared per band.
//!
//! ```
//! use noc_phy::{ClassAbPa, LinkBudget};
//!
//! let budget = LinkBudget::default(); // 32 Gb/s at 90 GHz
//! let p = budget.required_tx_power_dbm(50.0, 0.0);
//! assert!(p >= 4.0, "the paper's >=4 dBm at 50 mm");
//!
//! // The 14 mW class-AB PA covers it with 7 dBm saturated output.
//! assert!(ClassAbPa::default().can_drive_dbm(p));
//! ```

#![forbid(unsafe_code)]

pub mod coding;
pub mod geometry;
pub mod interference;
pub mod linkbudget;
pub mod lna;
pub mod oscillator;
pub mod pa;
pub mod transceiver;

pub use coding::{LinkCoding, SecdedCode};
pub use geometry::{Floorplan, Point};
pub use interference::{sir, validate_own_reuse, SdmLink, SirReport};
pub use linkbudget::LinkBudget;
pub use lna::Lna;
pub use oscillator::ColpittOscillator;
pub use pa::ClassAbPa;
pub use transceiver::OokTransceiver;
