//! Architecture data structures, builder, and validation.

use std::fmt;

/// Index of a storage level within an [`Architecture`] (0 = outermost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LevelId(pub usize);

/// Technology class of a storage component; the energy backend maps each
/// class (plus attributes) to per-action energies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ComponentClass {
    /// Off-chip DRAM: unbounded capacity, expensive accesses.
    Dram,
    /// On-chip SRAM scratchpad / shared buffer.
    #[default]
    Sram,
    /// Small per-PE register file.
    RegFile,
}

/// One storage level of the hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageLevel {
    /// Human-readable name (e.g. `"BackingStorage"`, `"Buffer"`).
    pub name: String,
    /// Technology class for energy estimation.
    pub class: ComponentClass,
    /// Data capacity in words; `None` = unbounded (typical for DRAM).
    pub capacity_words: Option<u64>,
    /// Word width in bits.
    pub word_bits: u32,
    /// Read+write bandwidth in words per cycle *per instance*;
    /// `None` = unbounded.
    pub bandwidth_words_per_cycle: Option<f64>,
    /// Number of spatial instances of this level.
    pub instances: u64,
    /// Optional dedicated metadata capacity in bits (on top of
    /// `capacity_words`); `None` means metadata shares the data capacity.
    pub metadata_capacity_bits: Option<u64>,
}

fn default_word_bits() -> u32 {
    16
}

fn default_instances() -> u64 {
    1
}

impl StorageLevel {
    /// A new level with the given name and defaults (unbounded capacity,
    /// 16-bit words, one instance, unbounded bandwidth).
    pub fn new(name: impl Into<String>) -> Self {
        StorageLevel {
            name: name.into(),
            class: ComponentClass::Sram,
            capacity_words: None,
            word_bits: default_word_bits(),
            bandwidth_words_per_cycle: None,
            instances: default_instances(),
            metadata_capacity_bits: None,
        }
    }

    /// Builder-style: sets the technology class.
    pub fn with_class(mut self, class: ComponentClass) -> Self {
        self.class = class;
        self
    }

    /// Builder-style: sets the capacity in words.
    pub fn with_capacity(mut self, words: u64) -> Self {
        self.capacity_words = Some(words);
        self
    }

    /// Builder-style: sets the word width in bits.
    pub fn with_word_bits(mut self, bits: u32) -> Self {
        self.word_bits = bits;
        self
    }

    /// Builder-style: sets per-instance bandwidth (words/cycle).
    pub fn with_bandwidth(mut self, words_per_cycle: f64) -> Self {
        self.bandwidth_words_per_cycle = Some(words_per_cycle);
        self
    }

    /// Builder-style: sets the spatial instance count.
    pub fn with_instances(mut self, n: u64) -> Self {
        self.instances = n;
        self
    }
}

/// The compute (innermost) level.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeSpec {
    /// Name, e.g. `"MAC"`.
    pub name: String,
    /// Number of parallel compute units.
    pub instances: u64,
    /// Operand width in bits.
    pub datawidth: u32,
}

impl ComputeSpec {
    /// A compute array with the given parallelism and 16-bit operands.
    pub fn new(name: impl Into<String>, instances: u64) -> Self {
        ComputeSpec {
            name: name.into(),
            instances,
            datawidth: default_word_bits(),
        }
    }
}

/// Errors produced by [`Architecture::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArchitectureError {
    /// The architecture has no storage level.
    NoStorageLevels,
    /// A level has zero instances.
    ZeroInstances(String),
    /// Instance counts must not decrease toward the compute units, and
    /// each level's count must divide its child's.
    BadFanout {
        /// Parent level name.
        parent: String,
        /// Child level name.
        child: String,
    },
    /// Compute instance count is not a multiple of the innermost storage
    /// level's instance count.
    BadComputeFanout,
}

impl fmt::Display for ArchitectureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchitectureError::NoStorageLevels => write!(f, "architecture has no storage levels"),
            ArchitectureError::ZeroInstances(n) => write!(f, "level {n} has zero instances"),
            ArchitectureError::BadFanout { parent, child } => write!(
                f,
                "instance count of {child} must be a positive multiple of {parent}'s"
            ),
            ArchitectureError::BadComputeFanout => write!(
                f,
                "compute instances must be a positive multiple of the innermost storage level's"
            ),
        }
    }
}

impl std::error::Error for ArchitectureError {}

/// A complete accelerator architecture: storage hierarchy plus compute.
#[derive(Debug, Clone, PartialEq)]
pub struct Architecture {
    /// Design name.
    pub name: String,
    /// Storage levels, outermost first.
    levels: Vec<StorageLevel>,
    /// The compute level.
    compute: ComputeSpec,
}

impl Architecture {
    /// Creates an architecture; prefer [`ArchitectureBuilder`] for
    /// incremental construction.
    pub fn new(name: impl Into<String>, levels: Vec<StorageLevel>, compute: ComputeSpec) -> Self {
        Architecture {
            name: name.into(),
            levels,
            compute,
        }
    }

    /// Storage levels, outermost first.
    pub fn levels(&self) -> &[StorageLevel] {
        &self.levels
    }

    /// The storage level with the given id.
    pub fn level(&self, id: LevelId) -> &StorageLevel {
        &self.levels[id.0]
    }

    /// Number of storage levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The compute specification.
    pub fn compute(&self) -> &ComputeSpec {
        &self.compute
    }

    /// Id of the innermost storage level.
    pub fn innermost(&self) -> LevelId {
        LevelId(self.levels.len() - 1)
    }

    /// Looks up a level by name.
    pub fn level_id(&self, name: &str) -> Option<LevelId> {
        self.levels.iter().position(|l| l.name == name).map(LevelId)
    }

    /// Spatial fanout below level `id`: how many instances of the next
    /// level down (or compute units, for the innermost level) each
    /// instance of this level feeds.
    pub fn fanout_below(&self, id: LevelId) -> u64 {
        let this = self.levels[id.0].instances;
        let child = if id.0 + 1 < self.levels.len() {
            self.levels[id.0 + 1].instances
        } else {
            self.compute.instances
        };
        child / this.max(1)
    }

    /// Checks structural invariants.
    ///
    /// # Errors
    /// Returns an [`ArchitectureError`] describing the first violated
    /// invariant: at least one storage level, positive instance counts,
    /// and instance counts forming a divisibility chain toward compute.
    pub fn validate(&self) -> Result<(), ArchitectureError> {
        if self.levels.is_empty() {
            return Err(ArchitectureError::NoStorageLevels);
        }
        for l in &self.levels {
            if l.instances == 0 {
                return Err(ArchitectureError::ZeroInstances(l.name.clone()));
            }
        }
        for w in self.levels.windows(2) {
            if w[1].instances < w[0].instances || w[1].instances % w[0].instances != 0 {
                return Err(ArchitectureError::BadFanout {
                    parent: w[0].name.clone(),
                    child: w[1].name.clone(),
                });
            }
        }
        let innermost = self.levels.last().expect("checked non-empty");
        if self.compute.instances == 0
            || self.compute.instances < innermost.instances
            || !self.compute.instances.is_multiple_of(innermost.instances)
        {
            return Err(ArchitectureError::BadComputeFanout);
        }
        Ok(())
    }
}

/// Incremental builder for [`Architecture`].
///
/// # Example
/// ```
/// use sparseloop_arch::{ArchitectureBuilder, ComponentClass, StorageLevel, ComputeSpec};
/// let arch = ArchitectureBuilder::new("demo")
///     .level(StorageLevel::new("DRAM").with_class(ComponentClass::Dram))
///     .level(StorageLevel::new("Buffer").with_capacity(1024).with_instances(4))
///     .compute(ComputeSpec::new("MAC", 16))
///     .build()
///     .unwrap();
/// assert_eq!(arch.num_levels(), 2);
/// assert_eq!(arch.fanout_below(arch.innermost()), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ArchitectureBuilder {
    name: String,
    levels: Vec<StorageLevel>,
    compute: Option<ComputeSpec>,
}

impl ArchitectureBuilder {
    /// Starts a builder for a design with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ArchitectureBuilder {
            name: name.into(),
            levels: Vec::new(),
            compute: None,
        }
    }

    /// Appends a storage level (added outermost-first).
    pub fn level(mut self, level: StorageLevel) -> Self {
        self.levels.push(level);
        self
    }

    /// Sets the compute level.
    pub fn compute(mut self, compute: ComputeSpec) -> Self {
        self.compute = Some(compute);
        self
    }

    /// Builds and validates the architecture.
    ///
    /// # Errors
    /// Returns the first structural violation found; see
    /// [`Architecture::validate`].
    pub fn build(self) -> Result<Architecture, ArchitectureError> {
        let arch = Architecture::new(
            self.name,
            self.levels,
            self.compute.unwrap_or_else(|| ComputeSpec::new("MAC", 1)),
        );
        arch.validate()?;
        Ok(arch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_level() -> Architecture {
        ArchitectureBuilder::new("t")
            .level(StorageLevel::new("DRAM").with_class(ComponentClass::Dram))
            .level(
                StorageLevel::new("Buf")
                    .with_capacity(256)
                    .with_instances(4),
            )
            .compute(ComputeSpec::new("MAC", 8))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_valid_arch() {
        let a = two_level();
        assert_eq!(a.num_levels(), 2);
        assert_eq!(a.innermost(), LevelId(1));
        assert_eq!(a.level_id("Buf"), Some(LevelId(1)));
        assert_eq!(a.level_id("nope"), None);
    }

    #[test]
    fn fanout_chain() {
        let a = two_level();
        assert_eq!(a.fanout_below(LevelId(0)), 4); // DRAM -> 4 buffers
        assert_eq!(a.fanout_below(LevelId(1)), 2); // each buffer -> 2 MACs
    }

    #[test]
    fn rejects_empty() {
        let r = ArchitectureBuilder::new("x")
            .compute(ComputeSpec::new("MAC", 1))
            .build();
        assert_eq!(r.unwrap_err(), ArchitectureError::NoStorageLevels);
    }

    #[test]
    fn rejects_zero_instances() {
        let r = ArchitectureBuilder::new("x")
            .level(StorageLevel::new("L").with_instances(0))
            .build();
        assert!(matches!(
            r.unwrap_err(),
            ArchitectureError::ZeroInstances(_)
        ));
    }

    #[test]
    fn rejects_bad_fanout() {
        let r = ArchitectureBuilder::new("x")
            .level(StorageLevel::new("A").with_instances(3))
            .level(StorageLevel::new("B").with_instances(4))
            .compute(ComputeSpec::new("MAC", 4))
            .build();
        assert!(matches!(
            r.unwrap_err(),
            ArchitectureError::BadFanout { .. }
        ));
    }

    #[test]
    fn rejects_bad_compute_fanout() {
        let r = ArchitectureBuilder::new("x")
            .level(StorageLevel::new("A").with_instances(4))
            .compute(ComputeSpec::new("MAC", 2))
            .build();
        assert_eq!(r.unwrap_err(), ArchitectureError::BadComputeFanout);
    }

    #[test]
    fn clone_roundtrip() {
        // the YAML roundtrip is covered by sparseloop-spec's tests; here
        // a clone must compare structurally equal.
        let a = two_level();
        let b = a.clone();
        assert_eq!(a, b);
    }

    #[test]
    fn defaults_fill_in() {
        let a = ArchitectureBuilder::new("minimal")
            .level(StorageLevel::new("DRAM").with_class(ComponentClass::Dram))
            .compute(ComputeSpec::new("MAC", 1))
            .build()
            .unwrap();
        assert_eq!(a.level(LevelId(0)).word_bits, 16);
        assert_eq!(a.level(LevelId(0)).instances, 1);
        assert_eq!(a.compute().instances, 1);
        a.validate().unwrap();
    }

    #[test]
    fn error_display_nonempty() {
        let e = ArchitectureError::BadComputeFanout;
        assert!(!e.to_string().is_empty());
    }
}
