//! Sparse acceleration feature (SAF) specification (paper §3, §5.1).
//!
//! The taxonomy classifies all sparsity-aware acceleration techniques into
//! three orthogonal features:
//!
//! * **Representation format** ([`FormatSaf`]) — how a tensor is encoded
//!   at a storage level (compression + metadata).
//! * **Gating** — ineffectual operations keep their cycles but the
//!   hardware idles, saving energy only.
//! * **Skipping** — ineffectual operations are not issued at all, saving
//!   both energy and cycles.
//!
//! Gating/skipping at storage ([`IntersectionSaf`]) is driven by
//! leader-follower or double-sided intersections; at compute
//! ([`ComputeSaf`]) it acts on operand zero checks.

use sparseloop_format::TensorFormat;
use sparseloop_tensor::einsum::TensorId;

/// Whether an elimination saves energy only (gate) or energy and cycles
/// (skip).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActionOpt {
    /// Idle through the cycle: saves energy, not time.
    Gate,
    /// Jump to the next effectual operation: saves energy and time.
    Skip,
}

/// A representation format applied to one tensor at one storage level.
#[derive(Debug, Clone, PartialEq)]
pub struct FormatSaf {
    /// Storage level index (0 = outermost).
    pub level: usize,
    /// The tensor being encoded.
    pub tensor: TensorId,
    /// The hierarchical format.
    pub format: TensorFormat,
}

/// A gating or skipping SAF on a tensor's accesses at one storage level,
/// based on leader-follower intersection. The *target* (follower) tensor's
/// accesses at `level` are eliminated when the mapping-determined leader
/// tile of **any** leader tensor is entirely empty.
///
/// A double-sided intersection `A ↔ B` is expressed as the pair
/// `{target: A, leaders: [B]}` and `{target: B, leaders: [A]}`
/// (paper §5.3.4: `B ↔ A = B ← A + A ← B`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntersectionSaf {
    /// Storage level whose accesses are gated/skipped.
    pub level: usize,
    /// The follower tensor whose accesses get eliminated.
    pub target: TensorId,
    /// Leader tensors checked for emptiness. With several leaders
    /// (`Z ← A & B`), the target access is eliminated when *any* leader
    /// tile is empty (the computation cannot be effectual).
    pub leaders: Vec<TensorId>,
    /// Gate or skip.
    pub action: ActionOpt,
}

/// Gating/skipping applied directly at the compute units: leftover
/// ineffectual computes (operands delivered but at least one is zero) are
/// gated or skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComputeSaf {
    /// Gate or skip the leftover ineffectual computes.
    pub action: ActionOpt,
}

/// The full SAF specification of a design.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SafSpec {
    /// Per-(level, tensor) representation formats; tensors without an
    /// entry at a level are stored uncompressed there.
    pub formats: Vec<FormatSaf>,
    /// Gating/skipping intersections at storage levels.
    pub intersections: Vec<IntersectionSaf>,
    /// Optional gating/skipping at the compute units.
    pub compute: Option<ComputeSaf>,
}

impl SafSpec {
    /// A design with no SAFs at all (a dense accelerator).
    pub fn dense() -> Self {
        SafSpec::default()
    }

    /// Builder-style: adds a representation format.
    pub fn with_format(mut self, level: usize, tensor: TensorId, format: TensorFormat) -> Self {
        self.formats.push(FormatSaf {
            level,
            tensor,
            format,
        });
        self
    }

    /// Builder-style: adds a leader-follower gating SAF
    /// (`Gate target ← leaders`).
    pub fn with_gate(mut self, level: usize, target: TensorId, leaders: Vec<TensorId>) -> Self {
        self.intersections.push(IntersectionSaf {
            level,
            target,
            leaders,
            action: ActionOpt::Gate,
        });
        self
    }

    /// Builder-style: adds a leader-follower skipping SAF
    /// (`Skip target ← leaders`).
    pub fn with_skip(mut self, level: usize, target: TensorId, leaders: Vec<TensorId>) -> Self {
        self.intersections.push(IntersectionSaf {
            level,
            target,
            leaders,
            action: ActionOpt::Skip,
        });
        self
    }

    /// Builder-style: adds a double-sided skipping intersection
    /// (`Skip a ↔ b`) as the pair of leader-follower SAFs.
    pub fn with_double_sided_skip(self, level: usize, a: TensorId, b: TensorId) -> Self {
        self.with_skip(level, a, vec![b])
            .with_skip(level, b, vec![a])
    }

    /// Builder-style: gates leftover ineffectual computes
    /// (`Gate Compute`).
    pub fn with_gate_compute(mut self) -> Self {
        self.compute = Some(ComputeSaf {
            action: ActionOpt::Gate,
        });
        self
    }

    /// Builder-style: skips leftover ineffectual computes
    /// (`Skip Compute`).
    pub fn with_skip_compute(mut self) -> Self {
        self.compute = Some(ComputeSaf {
            action: ActionOpt::Skip,
        });
        self
    }

    /// The format of `tensor` at `level`, if any.
    pub fn format_at(&self, level: usize, tensor: TensorId) -> Option<&TensorFormat> {
        self.formats
            .iter()
            .find(|f| f.level == level && f.tensor == tensor)
            .map(|f| &f.format)
    }

    /// All intersection SAFs targeting `tensor` at `level`.
    pub fn intersections_at(&self, level: usize, tensor: TensorId) -> Vec<&IntersectionSaf> {
        self.intersections_iter(level, tensor).collect()
    }

    /// Like [`intersections_at`](SafSpec::intersections_at), without
    /// materializing the list — the sparse modeling step queries this
    /// per (tensor, level) per candidate on the search hot path.
    pub fn intersections_iter(
        &self,
        level: usize,
        tensor: TensorId,
    ) -> impl Iterator<Item = &IntersectionSaf> {
        self.intersections
            .iter()
            .filter(move |s| s.level == level && s.target == tensor)
    }

    /// Whether any skipping SAF exists anywhere in the design.
    pub fn has_skipping(&self) -> bool {
        self.intersections
            .iter()
            .any(|s| s.action == ActionOpt::Skip)
            || matches!(
                self.compute,
                Some(ComputeSaf {
                    action: ActionOpt::Skip
                })
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_spec_has_nothing() {
        let s = SafSpec::dense();
        assert!(s.formats.is_empty());
        assert!(s.intersections.is_empty());
        assert!(s.compute.is_none());
        assert!(!s.has_skipping());
    }

    #[test]
    fn double_sided_expands_to_pair() {
        let s = SafSpec::dense().with_double_sided_skip(1, TensorId(0), TensorId(1));
        assert_eq!(s.intersections.len(), 2);
        assert_eq!(s.intersections[0].target, TensorId(0));
        assert_eq!(s.intersections[0].leaders, vec![TensorId(1)]);
        assert_eq!(s.intersections[1].target, TensorId(1));
        assert!(s.has_skipping());
    }

    #[test]
    fn format_lookup() {
        let s = SafSpec::dense().with_format(1, TensorId(0), TensorFormat::csr());
        assert!(s.format_at(1, TensorId(0)).is_some());
        assert!(s.format_at(0, TensorId(0)).is_none());
        assert!(s.format_at(1, TensorId(1)).is_none());
    }

    #[test]
    fn intersections_filtered_by_level_and_target() {
        let s = SafSpec::dense()
            .with_skip(0, TensorId(1), vec![TensorId(0)])
            .with_gate(1, TensorId(1), vec![TensorId(0)]);
        assert_eq!(s.intersections_at(0, TensorId(1)).len(), 1);
        assert_eq!(s.intersections_at(1, TensorId(1)).len(), 1);
        assert_eq!(s.intersections_at(1, TensorId(0)).len(), 0);
    }

    #[test]
    fn gate_compute_recorded() {
        let s = SafSpec::dense().with_gate_compute();
        assert_eq!(
            s.compute,
            Some(ComputeSaf {
                action: ActionOpt::Gate
            })
        );
        assert!(!s.has_skipping());
        let s = SafSpec::dense().with_skip_compute();
        assert!(s.has_skipping());
    }
}
