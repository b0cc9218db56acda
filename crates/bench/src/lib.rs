//! Reproduction harness for every table and figure in the Eleos
//! (EuroSys'17) evaluation.
//!
//! The `repro` binary drives the [`experiments`] modules; [`harness`]
//! holds the shared rig construction, scaling and reporting helpers.
//! See `EXPERIMENTS.md` at the repository root for a captured run
//! annotated against the paper's numbers.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod harness;
