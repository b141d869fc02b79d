//! Experiment harness regenerating every table and figure of the
//! paper's evaluation (Section V).
//!
//! The `paper` binary drives the experiments; this library holds the
//! shared machinery (measurement, table formatting, experiment
//! runners). Performance is measured elsewhere, by the `perfbench/`
//! benchmark declared in `BENCHMARK.json`:
//! `cargo run --release --offline --manifest-path perfbench/Cargo.toml
//! --bin benchmark -- --workload all`, and
//! `benchmark --compare a.json b.json` to judge two runs.
//!
//! | Experiment | Paper | Runner |
//! |---|---|---|
//! | GEPC on real datasets | Table VI | [`experiments::table6`] |
//! | GEPC utility/time scalability | Fig. 2 | [`experiments::scaling`] |
//! | GEPC memory scalability | Fig. 3 | [`experiments::scaling`] |
//! | IEP η-De on real datasets | Table VII | [`experiments::table7`] |
//! | IEP ξ-In on real datasets | Table VIII | [`experiments::table8`] |
//! | IEP t^s-t^t on real datasets | Table IX | [`experiments::table9`] |
//! | IEP utility/time scalability | Fig. 4 | [`experiments::iep_scaling`] |
//! | IEP memory scalability | Fig. 5 | [`experiments::iep_scaling`] |
//! | Approximation-ratio ablation | §III analysis | [`experiments::ablation_approx`] |
//! | LP-vs-MW fractional ablation | §III-A | [`experiments::ablation_lp`] |
//! | Step-2 filler ablation | §III framework | [`experiments::ablation_filler`] |
//! | Local-search gain ablation | extension | [`experiments::ablation_local_search`] |
//! | Geography ablation | extension | [`experiments::ablation_geography`] |
//! | Benchmark (batch solve and serving workloads) | — | `perfbench/` package, declared in `BENCHMARK.json` |

// Solver-adjacent code must not panic (uniform workspace gate; the
// epplan-lint `robustness/unwrap` rule enforces the same contract).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod measure;
pub mod ops;
pub mod table;
