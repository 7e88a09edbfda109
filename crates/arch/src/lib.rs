//! # sparseloop-arch
//!
//! Architecture specification (Sparseloop §5.1, Fig. 6).
//!
//! An [`Architecture`] is an ordered hierarchy of storage levels —
//! outermost (e.g. DRAM / Backing Storage) first — above a spatial array
//! of compute units. Each storage level carries the hardware attributes
//! the three modeling steps consume: capacity, word width, bandwidth,
//! spatial instance count, and a technology class the energy backend maps
//! to per-action energies.
//!
//! Specifications are plain data structures; the YAML interface the
//! paper's artifact uses lives in the `sparseloop-spec` front-end, which
//! parses into and emits from these types. The programmatic interface is
//! the builder:
//!
//! ```
//! use sparseloop_arch::{ArchitectureBuilder, ComponentClass, ComputeSpec, StorageLevel};
//! let arch = ArchitectureBuilder::new("tiny")
//!     .level(StorageLevel::new("BackingStorage").with_class(ComponentClass::Dram))
//!     .level(
//!         StorageLevel::new("Buffer")
//!             .with_capacity(1024)
//!             .with_instances(4)
//!             .with_bandwidth(2.0),
//!     )
//!     .compute(ComputeSpec::new("MAC", 4))
//!     .build()
//!     .unwrap();
//! arch.validate().unwrap();
//! assert_eq!(arch.levels().len(), 2);
//! ```

pub mod spec;

pub use spec::{
    Architecture, ArchitectureBuilder, ArchitectureError, ComponentClass, ComputeSpec, LevelId,
    StorageLevel,
};
