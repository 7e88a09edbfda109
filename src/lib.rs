//! # sparseloop
//!
//! Umbrella crate for the Sparseloop (MICRO 2022) reproduction: re-exports
//! every subsystem crate so downstream users need a single dependency.
//! The workspace integration tests and examples live here.
//!
//! See [`core`] (the three-step analytical model and [`core::Model`]),
//! [`mapping`] (mapspaces + the streaming/parallel mapper), [`density`]
//! (statistical density models), [`format`](mod@format) (compressed tensor formats),
//! [`designs`] (paper design points), [`spec`] (the declarative YAML
//! spec front-end), and [`refsim`] (the per-element reference simulator
//! used for validation).

pub use sparseloop_arch as arch;
pub use sparseloop_core as core;
pub use sparseloop_density as density;
pub use sparseloop_designs as designs;
pub use sparseloop_format as format;
pub use sparseloop_mapping as mapping;
pub use sparseloop_refsim as refsim;
pub use sparseloop_spec as spec;
pub use sparseloop_tensor as tensor;
pub use sparseloop_workloads as workloads;
