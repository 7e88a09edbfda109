//! Per-action energy tables for storage and compute components.

use sparseloop_arch::{ComponentClass, ComputeSpec, StorageLevel};

/// Fraction of a full access's energy consumed by a *gated* action.
///
/// A gated storage access or compute still occupies the cycle and burns
/// control/clock energy, but data paths stay quiescent. 10% is in line
/// with the clock-gating savings Eyeriss reports (~45% PE energy saved at
/// realistic activation sparsity; see the Table 6 validation).
pub const GATED_FRACTION: f64 = 0.1;

/// Reference energies (picojoules) at 16-bit word width, 45 nm-era
/// ratios: MAC = 1, RF = 1, 100 KiB SRAM = 6, DRAM = 200.
const MAC_PJ: f64 = 1.0;
const REGFILE_PJ: f64 = 1.0;
const SRAM_100KB_PJ: f64 = 6.0;
const SRAM_REF_BYTES: f64 = 100.0 * 1024.0;
const DRAM_PJ: f64 = 200.0;

/// Per-action energies (picojoules) for one storage level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActionEnergy {
    /// Energy of one data-word read.
    pub read: f64,
    /// Energy of one data-word write.
    pub write: f64,
    /// Energy of one gated (power-gated but cycle-occupying) access.
    pub gated: f64,
    /// Energy per metadata *bit* transferred.
    pub metadata_per_bit: f64,
    /// Static/idle energy per occupied cycle (kept small; the paper's
    /// analysis is dominated by dynamic energy).
    pub idle_per_cycle: f64,
}

impl ActionEnergy {
    /// Energy for a metadata access of `bits` bits.
    pub fn metadata(&self, bits: f64) -> f64 {
        self.metadata_per_bit * bits
    }
}

/// Per-action energies (picojoules) for the compute level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeEnergy {
    /// One effectual MAC.
    pub mac: f64,
    /// One gated MAC (unit idles for the cycle).
    pub gated: f64,
    /// One intersection-unit decision (coordinate compare), charged per
    /// skipped-or-kept candidate when a skipping SAF is present.
    pub intersection: f64,
}

/// Maps architecture components to per-action energies.
///
/// # Example
/// ```
/// use sparseloop_arch::{ComponentClass, StorageLevel};
/// use sparseloop_energy::EnergyTable;
/// let t = EnergyTable::default_45nm();
/// let dram = t.storage(&StorageLevel::new("DRAM").with_class(ComponentClass::Dram));
/// let rf = t.storage(&StorageLevel::new("RF")
///     .with_class(ComponentClass::RegFile).with_capacity(16));
/// assert!(dram.read > 100.0 * rf.read); // DRAM ≫ register file
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyTable {
    /// Scaling applied to every energy (1.0 = 45 nm reference ratios).
    pub technology_scale: f64,
}

impl Default for EnergyTable {
    fn default() -> Self {
        EnergyTable::default_45nm()
    }
}

impl EnergyTable {
    /// The reference table with 45 nm-era component ratios.
    pub fn default_45nm() -> Self {
        EnergyTable {
            technology_scale: 1.0,
        }
    }

    /// Energy per 16-bit word access for a storage level, before width
    /// scaling.
    fn base_word_energy(&self, level: &StorageLevel) -> f64 {
        match level.class {
            ComponentClass::Dram => DRAM_PJ,
            ComponentClass::RegFile => REGFILE_PJ,
            ComponentClass::Sram => {
                // Square-root capacity scaling anchored at 100 KiB = 6 pJ,
                // floored at register-file cost.
                let bytes = level
                    .capacity_words
                    .map(|w| w as f64 * level.word_bits as f64 / 8.0)
                    .unwrap_or(SRAM_REF_BYTES);
                (SRAM_100KB_PJ * (bytes / SRAM_REF_BYTES).sqrt()).max(REGFILE_PJ)
            }
        }
    }

    /// Per-action energies for a storage level.
    pub fn storage(&self, level: &StorageLevel) -> ActionEnergy {
        let width_scale = level.word_bits as f64 / 16.0;
        let word = self.base_word_energy(level) * width_scale * self.technology_scale;
        ActionEnergy {
            read: word,
            write: word * 1.1, // writes slightly costlier than reads
            gated: word * GATED_FRACTION,
            metadata_per_bit: word / level.word_bits as f64,
            idle_per_cycle: word * 0.001,
        }
    }

    /// Per-action energies for the compute level.
    pub fn compute(&self, compute: &ComputeSpec) -> ComputeEnergy {
        // MAC energy grows roughly quadratically with operand width
        // (multiplier area); normalize at 16-bit = 1 pJ.
        let w = compute.datawidth as f64 / 16.0;
        let mac = MAC_PJ * w * w * self.technology_scale;
        ComputeEnergy {
            mac,
            gated: mac * GATED_FRACTION,
            intersection: 0.05 * mac.max(MAC_PJ * self.technology_scale),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseloop_arch::ComponentClass;

    fn table() -> EnergyTable {
        EnergyTable::default_45nm()
    }

    #[test]
    fn component_ordering() {
        let t = table();
        let dram = t.storage(&StorageLevel::new("d").with_class(ComponentClass::Dram));
        let big_sram = t.storage(
            &StorageLevel::new("s")
                .with_class(ComponentClass::Sram)
                .with_capacity(50 * 1024), // 100 KiB at 16-bit words
        );
        let rf = t.storage(
            &StorageLevel::new("r")
                .with_class(ComponentClass::RegFile)
                .with_capacity(16),
        );
        assert!(dram.read > big_sram.read);
        assert!(big_sram.read > rf.read);
        assert!((dram.read / rf.read - 200.0).abs() < 1.0);
    }

    #[test]
    fn sram_sqrt_scaling() {
        let t = table();
        let small = t.storage(&StorageLevel::new("s").with_capacity(16 * 1024));
        let big = t.storage(&StorageLevel::new("s").with_capacity(64 * 1024));
        // 4x capacity -> ~2x energy
        assert!((big.read / small.read - 2.0).abs() < 0.3);
    }

    #[test]
    fn sram_floor_at_regfile() {
        let t = table();
        let tiny = t.storage(&StorageLevel::new("s").with_capacity(8));
        assert!(tiny.read >= REGFILE_PJ);
    }

    #[test]
    fn gated_is_fraction_of_read() {
        let t = table();
        let s = t.storage(&StorageLevel::new("s").with_capacity(1024));
        assert!((s.gated / s.read - GATED_FRACTION).abs() < 1e-12);
    }

    #[test]
    fn word_width_scales_linearly() {
        let t = table();
        let w16 = t.storage(
            &StorageLevel::new("s")
                .with_capacity(64 * 1024)
                .with_word_bits(16),
        );
        let w32 = t.storage(
            &StorageLevel::new("s")
                .with_capacity(32 * 1024)
                .with_word_bits(32),
        );
        // same byte capacity, doubled width -> doubled per-word energy
        assert!((w32.read / w16.read - 2.0).abs() < 0.01);
    }

    #[test]
    fn metadata_energy_proportional_to_bits() {
        let t = table();
        let s = t.storage(&StorageLevel::new("s").with_capacity(1024));
        assert!((s.metadata(16.0) - s.read).abs() < 1e-12);
        assert!((s.metadata(8.0) - s.read / 2.0).abs() < 1e-12);
    }

    #[test]
    fn compute_width_quadratic() {
        let t = table();
        let m8 = t.compute(&ComputeSpec {
            name: "m".into(),
            instances: 1,
            datawidth: 8,
        });
        let m16 = t.compute(&ComputeSpec {
            name: "m".into(),
            instances: 1,
            datawidth: 16,
        });
        assert!((m16.mac / m8.mac - 4.0).abs() < 1e-9);
    }

    #[test]
    fn technology_scale_applies_everywhere() {
        let t = EnergyTable {
            technology_scale: 0.5,
        };
        let base = table();
        let l = StorageLevel::new("s").with_capacity(1024);
        assert!((t.storage(&l).read / base.storage(&l).read - 0.5).abs() < 1e-12);
        let c = ComputeSpec::new("m", 1);
        assert!((t.compute(&c).mac / base.compute(&c).mac - 0.5).abs() < 1e-12);
    }

    #[test]
    fn intersection_cheaper_than_mac() {
        let t = table();
        let c = t.compute(&ComputeSpec::new("m", 1));
        assert!(c.intersection < c.mac);
    }
}
