//! # sparseloop-bench
//!
//! The experiment harness: the paper's tables and figures beside their
//! published values ([`paper`], run as `sparseloop paper <figure>...`),
//! the `smoke` gate and the `sparseloop` CLI. Speed is measured by
//! slbench (`benchmark/`), not here.
//!
//! Run a figure with e.g.
//! `cargo run --release -p sparseloop-bench --bin sparseloop -- paper fig01`.

use std::time::Instant;

pub mod paper;

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

/// Times a closure and returns `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
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
    fn fnum_forms() {
        assert_eq!(fnum(0.0), "0");
        assert!(fnum(1234567.0).contains('e'));
        assert_eq!(fnum(1.5), "1.500");
    }
}
