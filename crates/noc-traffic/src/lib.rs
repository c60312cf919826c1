//! # noc-traffic — synthetic traffic generation
//!
//! The paper evaluates OWN and its baselines exclusively on synthetic traffic
//! (§V): uniform random (UN), bit-reversal (BR), matrix transpose (MT),
//! perfect shuffle (PS) and neighbor (NBR). This crate implements those
//! patterns plus two extras used for stress-testing (hotspot and a seeded
//! random permutation), and a Bernoulli injection process that offers a
//! configurable load in flits/core/cycle.
//!
//! ```
//! use noc_core::rng::ChaCha8;
//! use noc_traffic::TrafficPattern;
//!
//! let mut rng = ChaCha8::seed_from_u64(1);
//! // Bit reversal on 256 cores: core 1 talks to core 128.
//! assert_eq!(TrafficPattern::BitReversal.dest(1, 256, &mut rng), 128);
//! // Uniform never self-addresses.
//! for _ in 0..100 {
//!     assert_ne!(TrafficPattern::Uniform.dest(7, 64, &mut rng), 7);
//! }
//! ```

#![forbid(unsafe_code)]

pub mod injector;
pub mod pattern;
pub mod trace;

pub use injector::BernoulliInjector;
pub use pattern::TrafficPattern;
pub use trace::{Trace, TraceEvent, TraceInjector};
