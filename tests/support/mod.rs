//! Shared helpers for the root package's integration tests. Each test
//! binary that declares `mod support;` compiles its own copy.

pub mod scalar;
