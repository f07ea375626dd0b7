//! Simulated testbed: the Section VII validation environment.
//!
//! The paper validates bundle charging on a robot car carrying a Powercast
//! TX91501 transmitter, charging six P2110-equipped sensors in a
//! 5 m x 5 m office. Lacking the hardware, this crate substitutes a
//! **discrete-event execution** of a [`bc_core::ChargingPlan`]:
//!
//! * the robot drives leg by leg at the published 0.3 m/s and pays the
//!   published 5.59 J/m movement energy;
//! * while parked it transmits, and every sensor in the room harvests
//!   power according to the quadratic model — including *opportunistic*
//!   harvesting by sensors that are not members of the current stop,
//!   which the planner's accounting ignores (one-to-many charging);
//! * optional multiplicative noise perturbs each harvesting tick to mimic
//!   measurement jitter, with a seeded RNG for reproducibility.
//!
//! The result is a [`RigReport`] with the realized energy ledger
//! and each sensor's harvested energy, which the fig. 16 pipeline and the
//! integration tests compare against the planner's predictions.
//!
//! # Example
//!
//! ```
//! use bc_core::planner::{try_run, Algorithm};
//! use bc_core::PlannerConfig;
//! use bc_testbed::{office_network, TestbedRig};
//!
//! let net = office_network();
//! let cfg = PlannerConfig::paper_testbed(1.2);
//! let plan = try_run(Algorithm::Bc, &net, &cfg).unwrap();
//! let report = TestbedRig::new(&net, &cfg).execute(&plan);
//! assert!(report.all_fully_charged());
//! ```

#![warn(missing_docs)]

pub mod powercast;
pub mod rig;

pub use powercast::{office_network, p2110_harvest_power};
pub use rig::{RigReport, SensorLedger, TestbedRig};
