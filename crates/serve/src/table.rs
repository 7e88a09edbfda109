//! Stats structs and the metric series they publish, paired by one
//! table per struct. Booking, publishing, summing and reconciling a
//! stats struct all walk its table, so a new counter is one new row.

use sparseloop_obs::{Counter, MetricsRegistry};

/// One `u64` counter field of a stats struct `S` and the series it is
/// published as.
pub(crate) struct CounterRow<S> {
    /// Series name.
    pub(crate) name: &'static str,
    /// Series labels.
    pub(crate) labels: &'static [(&'static str, &'static str)],
    /// The field the series counts.
    pub(crate) field: fn(&mut S) -> &mut u64,
}

impl<S: Copy> CounterRow<S> {
    /// The field's value in `stats`.
    pub(crate) fn read(&self, stats: &S) -> u64 {
        let mut copy = *stats;
        *(self.field)(&mut copy)
    }

    /// The row's counter in `reg` (registered at zero on first use).
    pub(crate) fn register(&self, reg: &MetricsRegistry) -> Counter {
        reg.counter(self.name, self.labels)
    }
}

/// A `[CounterRow; N]` with one row per `field => series, [labels];`.
macro_rules! counter_table {
    ($($field:ident => $name:literal, [$($label:expr),*];)*) => {
        [$($crate::table::CounterRow {
            name: $name,
            labels: &[$($label),*],
            field: |s| &mut s.$field,
        }),*]
    };
}
pub(crate) use counter_table;

/// The rows of `table` whose series disagree with `stats`, one line
/// each. `value` looks a series up by name and labels; a missing
/// series is drift, since a publisher registers every row, zeros
/// included.
pub(crate) fn drift<S: Copy>(
    table: &[CounterRow<S>],
    stats: &S,
    value: impl Fn(&str, &[(&str, &str)]) -> Option<f64>,
) -> Vec<String> {
    table
        .iter()
        .filter_map(|row| {
            let want = row.read(stats);
            let got = value(row.name, row.labels);
            (got != Some(want as f64))
                .then(|| format!("{}{:?} = {got:?}, stats say {want}", row.name, row.labels))
        })
        .collect()
}
