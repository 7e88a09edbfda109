//! # sparseloop-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation (`src/bin/`; the README maps each to its paper figure),
//! plus the `smoke` gate and the `sparseloop` CLI. Speed is measured by
//! slbench (`benchmark/`), not here.
//!
//! Run an experiment with e.g.
//! `cargo run --release -p sparseloop-bench --bin fig01_format_tradeoff`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sparseloop_tensor::einsum::TensorKind;
use sparseloop_tensor::{point::Shape, SparseTensor};
use sparseloop_workloads::Layer;
use std::time::Instant;

/// Nominal host clock used to convert wall time into "host cycles" for
/// the computes-per-host-cycle (CPHC) metric of Table 5. The paper's
/// metric is a ratio of simulated computes to host cycles; the *contrast*
/// between the analytical model and the per-element baseline is
/// frequency-independent.
pub const NOMINAL_HOST_HZ: f64 = 3.0e9;

/// Prints a table header row followed by a separator.
pub fn header(cols: &[&str]) {
    let line: Vec<String> = cols.iter().map(|c| format!("{c:>16}")).collect();
    println!("{}", line.join(" "));
    println!("{}", "-".repeat(17 * cols.len()));
}

/// Prints one row with 16-char right-aligned cells.
pub fn row(cells: &[String]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>16}")).collect();
    println!("{}", line.join(" "));
}

/// Formats a float compactly.
pub fn fnum(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1e5 || x.abs() < 1e-3 {
        format!("{x:.3e}")
    } else if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

/// Relative error in percent.
pub fn rel_err_pct(measured: f64, reference: f64) -> f64 {
    if reference == 0.0 {
        if measured == 0.0 {
            0.0
        } else {
            100.0
        }
    } else {
        (measured - reference).abs() / reference.abs() * 100.0
    }
}

/// Times a closure and returns `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Computes-per-host-cycle from a compute count and wall seconds.
pub fn cphc(computes: f64, seconds: f64) -> f64 {
    computes / (seconds.max(1e-12) * NOMINAL_HOST_HZ)
}

/// Concrete random tensors matching a layer's statistical density specs
/// (inputs drawn uniformly at the spec's nominal density, outputs
/// empty), for driving the per-element reference simulator against the
/// analytical model. Shared by every validation binary.
pub fn concrete_tensors(layer: &Layer, seed: u64) -> Vec<SparseTensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    layer
        .einsum
        .tensors()
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let shape = Shape::new(
                layer
                    .einsum
                    .tensor_shape(sparseloop_tensor::einsum::TensorId(i)),
            );
            if spec.kind == TensorKind::Output {
                SparseTensor::from_triplets(shape, &[])
            } else {
                let d = layer.densities[i].nominal_density(shape.extents());
                SparseTensor::gen_uniform(shape, d, &mut rng)
            }
        })
        .collect()
}

/// Writes a metrics snapshot as Prometheus-style text
/// (`sparseloop stats --metrics-snapshot`), failing the run on I/O
/// errors: an unwritable snapshot is a broken contract, not a warning.
pub fn write_metrics_snapshot(path: &std::path::Path, snap: &sparseloop_obs::MetricsSnapshot) {
    if let Err(e) = std::fs::write(path, snap.render_text()) {
        eprintln!("failed to write metrics snapshot {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("metrics snapshot written to {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_err_basics() {
        assert!((rel_err_pct(110.0, 100.0) - 10.0).abs() < 1e-9);
        assert_eq!(rel_err_pct(0.0, 0.0), 0.0);
        assert_eq!(rel_err_pct(1.0, 0.0), 100.0);
    }

    #[test]
    fn cphc_scales() {
        let fast = cphc(1e9, 0.001);
        let slow = cphc(1e9, 1.0);
        assert!((fast / slow - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn fnum_forms() {
        assert_eq!(fnum(0.0), "0");
        assert!(fnum(1234567.0).contains('e'));
        assert_eq!(fnum(1.5), "1.500");
    }
}
