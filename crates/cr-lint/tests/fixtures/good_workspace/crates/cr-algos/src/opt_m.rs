//! Fixture hot module stand-in: it has no loops, but the scan must find
//! it, as it finds every listed hot module.
