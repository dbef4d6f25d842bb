//! Fixture simulator crate: holds the simulator's hot module.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
