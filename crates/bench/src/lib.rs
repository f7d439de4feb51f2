#![warn(missing_docs)]
//! # bench — experiment drivers for Internet Mobility 4x4
//!
//! One module per paper artifact (see `DESIGN.md` §5 for the experiment
//! index). Each experiment is an ordinary function returning a typed result
//! whose `Display` prints the table/series the paper's figure illustrates;
//! `exp <name>` and `all_experiments` run them from the command line over
//! one table ([`experiments::EXPERIMENTS`]), and the repo
//! benchmark (`benchmark/`, its own package) times them.
//!
//! All experiments are deterministic: fixed seeds, simulated time.

pub mod experiments;
pub mod forced;
pub mod report;
pub mod runbin;
pub mod scale;
pub mod util;

pub use util::Table;
