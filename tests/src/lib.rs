//! Integration test support crate (tests live in `tests/tests`).
//!
//! [`enumerate_scoped`] is the independent maximal-biclique enumerator
//! the integration tests use as the oracle for `mbb_core::enumerate`.
//! It lives in this library, not in a module each test binary includes,
//! so its own unit tests run once.

pub mod enumerate_scoped;
