//! Known defects of the program that the benchmark's workloads are shaped
//! around. Each test in `tests/` fails until its defect is fixed, so this
//! package is kept apart from the benchmark's own tests:
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/defects/Cargo.toml
//! ```
//!
//! `../README.md` records how each defect shapes a workload.
