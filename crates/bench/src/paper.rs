//! The paper's evaluation, one function per figure or table. Each returns
//! its rows; every number or statement the paper publishes about them is
//! one `PUBLISHED` entry; one renderer prints the rows with a `paper`
//! column and a computed verdict beside them
//! (`sparseloop paper <figure>...`).
//!
//! The model-only figures (fig01, fig09, fig15, fig16, fig17, table7) run
//! in milliseconds and are gated in tier-1 by this module's tests. The
//! figures that run the per-element reference simulator (fig11, fig12,
//! fig13, table5, table6) take 24–366 s each in release, so they are
//! rendered, not gated, until refsim is linear (ROADMAP 16b).

use crate::{fnum, header, row, timed};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparseloop_core::{EvalSession, JobOutcome, Workload};
use sparseloop_density::{ActualData, DensityModel, Uniform};
use sparseloop_designs::scenario::{
    table5_name, Table5Design, Table5Net, FIG13_DENSITIES, FIG15_SPARSITIES, FIG1_DENSITIES,
    TABLE6_DSTC_DENSITIES,
};
use sparseloop_designs::{eyeriss, Experiment, ScenarioOutcome, ScenarioRegistry};
use sparseloop_format::encode::rle_compression_rate;
use sparseloop_format::RankFormat;
use sparseloop_refsim::{RefSim, SimResult};
use sparseloop_tensor::einsum::{TensorId, TensorKind};
use sparseloop_tensor::{point::Shape, Point, SparseTensor};
use sparseloop_workloads::Layer;
use std::sync::Arc;

/// A figure or table: `(id, title, rows)`.
type Figure = (&'static str, &'static str, fn() -> Table);

const FIGURES: [Figure; 11] = [
    ("fig01", "Fig. 1: format trade-off (spMspM 64^3)", fig01),
    ("fig09", "Fig. 9: tile densities, 64x64 at 50%", fig09),
    ("fig11", "Fig. 11: SCNN runtime activity", fig11),
    ("fig12", "Fig. 12: Eyeriss V2 PE latency", fig12),
    ("fig13", "Fig. 13: DSTC normalized latency", fig13),
    ("fig15", "Fig. 15: tensor-core case study", fig15),
    ("fig16", "Fig. 16: bandwidth for ideal speedup", fig16),
    ("fig17", "Fig. 17: co-design EDP (spMspM 256^3)", fig17),
    ("table5", "Table 5: modeling speed (CPHC)", table5),
    ("table6", "Table 6: validation summary", table6),
    ("table7", "Table 7: Eyeriss DRAM compression", table7),
];

/// Every figure `sparseloop paper` reproduces, as `(id, title)`.
pub fn figures() -> impl Iterator<Item = (&'static str, &'static str)> {
    FIGURES.iter().map(|&(id, title, _)| (id, title))
}

/// The numbers and statements the paper publishes about one figure, and
/// where it publishes them.
struct Published {
    figure: &'static str,
    locus: &'static str,
    checks: &'static [Check],
}

enum Check {
    /// `(row, column, printed)`: a number as the paper prints it, compared
    /// with `column` of `row`. Its tolerance is half a unit of the last
    /// printed digit.
    Value(&'static str, &'static str, &'static str),
    /// `(name, statement, predicate)`: a statement, as a predicate over the
    /// figure's rows.
    Claim(&'static str, &'static str, Holds),
}

/// Whether a claim holds, or why the rows it reads failed to evaluate.
type Holds = fn(&Table) -> Result<bool, String>;
use Check::{Claim, Value};

/// Every number and statement the paper publishes about the figures
/// above. No other code prints a paper number.
const PUBLISHED: &[Published] = &[
    Published {
        figure: "fig01",
        locus: "Fig. 1, §2.2",
        checks: &[
            Claim(
                "cp-never-slower",
                "bitmask never speeds up: CP cycles <= BM cycles at every density",
                |t| {
                    let (bm, cp) = (t.values("BM cycles")?, t.values("CP cycles")?);
                    Ok(cp.iter().zip(&bm).all(|(cp, bm)| cp <= bm))
                },
            ),
            Claim(
                "best-depends-on-density",
                "the best design is a function of density: CP has the lower EDP at 0.1, \
                 bitmask the lower energy at 0.9 and 1.0",
                |t| {
                    let cost = |f: &str| t.value("0.1", &format!("{f} energy(pJ)"));
                    let edp = |f: &str| {
                        Ok::<_, String>(t.value("0.1", &format!("{f} cycles"))? * cost(f)?)
                    };
                    Ok(edp("CP")? < edp("BM")?
                        && t.value("0.9", "BM en. adv.")? > 1.0
                        && t.value("1", "BM en. adv.")? > 1.0)
                },
            ),
            Claim(
                "cp-loses-energy",
                "coordinate list loses energy efficiency as tensors densify: \
                 the bitmask energy advantage grows with density",
                |t| Ok(t.values("BM en. adv.")?.windows(2).all(|w| w[0] <= w[1])),
            ),
        ],
    },
    Published {
        figure: "fig09",
        locus: "Fig. 9",
        checks: &[Claim(
            "shape-vs-deviation",
            "a tile's shape varies inversely with the deviation in its density: \
             stddev falls from 1x2 to 1x8 to 2x8 to 8x8",
            |t| Ok(t.values("stddev")?.windows(2).all(|w| w[0] > w[1])),
        )],
    },
    Published {
        figure: "fig11",
        locus: "Fig. 11",
        checks: &[Claim(
            "all-components",
            "<1% error on all components",
            |t| Ok(t.value("worst", "error %")? < 1.0),
        )],
    },
    Published {
        figure: "fig12",
        locus: "Fig. 12",
        checks: &[
            Claim(
                "total",
                ">99% total-cycle accuracy, uniform and actual-data models",
                |t| {
                    let uniform = t.value("total", "uniform err %")?;
                    Ok(uniform.max(t.value("total", "actual err %")?) < 1.0)
                },
            ),
            Claim(
                "uniform-per-layer",
                "the uniform model errs up to ~7% per layer",
                |t| {
                    let layers = t.numbers("uniform err %", |l| l != "total")?;
                    Ok(layers.iter().all(|&e| e <= 7.5))
                },
            ),
        ],
    },
    Published {
        figure: "fig13",
        locus: "Fig. 13",
        checks: &[Claim(
            "average",
            "average error inside Table 6's 0.1%-8% band \
             (the paper's 7.6% is against DSTC's cycle-level simulator)",
            |t| Ok(t.value("average", "error %")? <= 8.0),
        )],
    },
    Published {
        figure: "fig15",
        locus: "Fig. 15, §7.1",
        checks: &[
            Claim(
                "flexible-gains-energy",
                "naive STC-flexible gains energy over STC at 2:6 and 2:8: lower EDP",
                |t| {
                    let edp = |label: &str| t.value(label, "norm EDP");
                    Ok(edp("STC-flexible(2:6)@2:6")? < edp("STC@2:6")?
                        && edp("STC-flexible(2:8)@2:8")? < edp("STC@2:8")?)
                },
            ),
            Claim(
                "dual-restores-speed",
                "dualCompress restores speed without input skipping: \
                 fewer cycles than STC-flexible-rle at 2:4, 2:6 and 2:8",
                |t| {
                    let mut faster = true;
                    for m in [4, 6, 8] {
                        let cycles = |d: &str| t.value(&format!("{d}(2:{m})@2:{m}"), "norm cycles");
                        faster &=
                            cycles("STC-flexible-rle-dualCompress")? < cycles("STC-flexible-rle")?;
                    }
                    Ok(faster)
                },
            ),
            Claim(
                "dstc-cycles-vs-energy",
                "DSTC leads on cycles at every sparsity but pays energy on denser workloads: \
                 the highest EDP on the dense workload",
                |t| {
                    let mut holds = true;
                    for (tag, _) in FIG15_SPARSITIES {
                        let dstc = t.value(&format!("DSTC@{tag}"), "norm cycles")?;
                        let cycles =
                            t.numbers("norm cycles", |l| l.ends_with(&format!("@{tag}")))?;
                        holds &= cycles.iter().all(|&c| dstc <= c);
                    }
                    let dstc = t.value("DSTC@dense", "norm EDP")?;
                    let edps = t.numbers("norm EDP", |l| l.ends_with("@dense"))?;
                    Ok(holds && edps.iter().all(|&e| e <= dstc))
                },
            ),
        ],
    },
    Published {
        figure: "fig16",
        locus: "Fig. 16, §7.1",
        checks: &[
            Claim(
                "inputs-scale",
                "sparser weights demand proportionally more input bandwidth: m/2 x at 2:m",
                |t| {
                    let inputs = t.values("inputs")?;
                    Ok(inputs
                        .iter()
                        .zip([4.0, 6.0, 8.0])
                        .all(|(i, m)| *i == m / 2.0))
                },
            ),
            Claim(
                "meta-grows",
                "metadata width grows with block size: no format's bits shrink from 2:4 \
                 to 2:8, and each is wider at 2:8",
                |t| {
                    let mut grows = true;
                    for column in ["CP meta(bits)", "RLE meta(bits)", "B meta(bits)"] {
                        let bits = t.values(column)?;
                        grows &= bits.windows(2).all(|w| w[0] <= w[1]) && bits[0] < bits[2];
                    }
                    Ok(grows)
                },
            ),
            Claim(
                "rle-below-cp",
                "RLE needs fewer metadata bits than CP at 2:6",
                |t| Ok(t.value("2:6", "RLE meta(bits)")? < t.value("2:6", "CP meta(bits)")?),
            ),
        ],
    },
    Published {
        figure: "fig17",
        locus: "Fig. 17",
        checks: &[
            Claim(
                "abz-hier-never-best",
                "combining more saving features (ReuseABZ.Hierarchical) is never best: \
                 its EDP is never below 0.999x the best other cell's",
                |t| {
                    let hier = t.values("ABZ.Hier")?;
                    let mut best = vec![f64::INFINITY; hier.len()];
                    for cell in ["ABZ.Inner", "AZ.Inner", "AZ.Hier"] {
                        for (b, e) in best.iter_mut().zip(t.values(cell)?) {
                            *b = b.min(e);
                        }
                    }
                    Ok(hier.iter().zip(&best).all(|(h, b)| *h >= 0.999 * b))
                },
            ),
            Claim(
                "best-depends-on-density",
                "the right dataflow-SAF pair depends on sparsity: ReuseAZ.HierarchicalSkip \
                 is best below 6% density, ReuseABZ.InnermostSkip from 6% up",
                |t| {
                    let mut right = true;
                    for d in sparseloop_workloads::spmspm::density_sweep() {
                        let best = if d < 0.06 { "AZ.Hier" } else { "ABZ.Inner" };
                        let edp = |cell| t.value(&format!("{d}"), cell);
                        for cell in FIG17_CELLS {
                            right &= edp(best)? <= edp(cell)?;
                        }
                    }
                    Ok(right)
                },
            ),
        ],
    },
    Published {
        figure: "table5",
        locus: "Table 5",
        checks: &[
            Claim(
                "speedup",
                ">2000x faster than cycle-level simulation (the paper's baseline is STONNE; \
                 ours is refsim's per-element walk, quadratic until ROADMAP 16b)",
                |t| Ok(t.values("vs refsim")?.iter().any(|&s| s > 2000.0)),
            ),
            Claim(
                "baseline-cphc",
                "the cycle-level-style baseline simulates CPHC < 0.5",
                |t| Ok(t.value("refsim baseline", "CPHC")? < 0.5),
            ),
        ],
    },
    Published {
        figure: "table6",
        locus: "Table 6",
        checks: &[
            Claim("SCNN", TABLE6_BAND, |t| in_table6_band(t, "SCNN")),
            Claim("EyerissV2-PE", TABLE6_BAND, |t| {
                in_table6_band(t, "EyerissV2-PE")
            }),
            Claim("DSTC", TABLE6_BAND, |t| in_table6_band(t, "DSTC")),
            Claim("STC", TABLE6_BAND, |t| in_table6_band(t, "STC")),
        ],
    },
    Published {
        figure: "table7",
        locus: "Table 7",
        checks: &[
            Value("conv1", "model rate", "1.2"),
            Value("conv2", "model rate", "1.4"),
            Value("conv3", "model rate", "1.7"),
            Value("conv4", "model rate", "1.9"),
            Value("conv5", "model rate", "1.9"),
            Claim(
                "rates-grow",
                "rates grow with depth as ReLU sparsifies activations (1.2 -> 1.9): \
                 no layer's rate falls by more than half a printed unit (0.05)",
                |t| {
                    Ok(t.values("model rate")?
                        .windows(2)
                        .all(|w| w[1] >= w[0] - 0.05))
                },
            ),
        ],
    },
];

const FIG17_CELLS: [&str; 4] = ["ABZ.Inner", "ABZ.Hier", "AZ.Inner", "AZ.Hier"];

const TABLE6_BAND: &str = "accuracy inside the 92%-100% band (0.1% to 8% average error)";

fn in_table6_band(t: &Table, design: &str) -> Result<bool, String> {
    Ok((92.0..=100.0).contains(&t.value(design, "accuracy %")?))
}

/// The published rows ours reads outside of, each with the ROADMAP item
/// that owns the disagreement. The tier-1 gate requires each of them to
/// read outside, so fixing one fails the gate until it leaves this list.
const KNOWN_OUTSIDE: &[(&str, &str, &str)] = &[
    ("fig12", "total", "16c"),
    ("fig12", "uniform-per-layer", "16c"),
    ("fig15", "flexible-gains-energy", "17d"),
    ("fig16", "rle-below-cp", "17b"),
    ("table6", "EyerissV2-PE", "16c"),
];

/// What the paper publishes about figure `id`.
fn published(id: &str) -> &'static Published {
    let found = PUBLISHED.iter().find(|p| p.figure == id);
    found.expect("every figure has published checks")
}

impl Check {
    fn row(&self) -> &'static str {
        match *self {
            Value(row, ..) | Claim(row, ..) => row,
        }
    }

    /// `Ok(true)` inside the paper, `Ok(false)` outside, `Err` when the
    /// rows it reads failed to evaluate.
    fn verdict(&self, t: &Table) -> Result<bool, String> {
        match *self {
            Value(row, column, printed) => {
                let (paper, tolerance) = value_and_tolerance(printed);
                Ok((t.value(row, column)? - paper).abs() <= tolerance)
            }
            Claim(_, _, holds) => holds(t),
        }
    }
}

/// The ROADMAP item that owns row `row` of figure `id` reading outside.
fn known_outside(id: &str, row: &str) -> Option<&'static str> {
    let known = KNOWN_OUTSIDE.iter().find(|k| k.0 == id && k.1 == row);
    known.map(|k| k.2)
}

/// A printed number and half a unit of its last digit.
fn value_and_tolerance(printed: &str) -> (f64, f64) {
    let value = printed.parse().expect("published values parse");
    let decimals = printed.split_once('.').map_or(0, |(_, frac)| frac.len());
    (value, 0.5 * 10f64.powi(-(decimals as i32)))
}

/// One printed cell, and the number behind it when it has one: checks
/// read the number, not the rounded text.
type Cell = (String, Option<f64>);

/// `x` printed by [`fnum`].
fn num(x: f64) -> Cell {
    (fnum(x), Some(x))
}

/// `x` printed with `digits` decimals, then `unit`.
fn fix(x: f64, digits: usize, unit: &str) -> Cell {
    (format!("{x:.digits$}{unit}"), Some(x))
}

fn text(s: &str) -> Cell {
    (s.to_string(), None)
}

/// One row: its label (the first column) and its cells, or why the
/// experiment behind it failed.
struct Row {
    label: String,
    cells: Result<Vec<Cell>, String>,
}

/// A figure's rows under its column headers (the first names the labels).
struct Table {
    columns: Vec<&'static str>,
    rows: Vec<Row>,
}

impl Table {
    fn new(columns: &[&'static str]) -> Self {
        let columns = columns.to_vec();
        Table {
            columns,
            rows: Vec::new(),
        }
    }

    fn row(&mut self, label: impl Into<String>, cells: impl FnOnce() -> Result<Vec<Cell>, String>) {
        let (label, cells) = (label.into(), cells());
        self.rows.push(Row { label, cells });
    }

    /// The numbers under `column` of the rows whose label `keep` accepts,
    /// skipping rows with no number there.
    fn numbers(&self, column: &str, keep: impl Fn(&str) -> bool) -> Result<Vec<f64>, String> {
        let i = self.columns[1..].iter().position(|c| *c == column);
        let i = i.ok_or_else(|| format!("no column {column:?}"))?;
        let mut out = Vec::new();
        for r in self.rows.iter().filter(|r| keep(&r.label)) {
            let cells = r.cells.as_ref().map_err(|e| format!("{}: {e}", r.label))?;
            out.extend(cells.get(i).and_then(|c| c.1));
        }
        Ok(out)
    }

    /// The numbers under `column`, one per row that has one there.
    fn values(&self, column: &str) -> Result<Vec<f64>, String> {
        self.numbers(column, |_| true)
    }

    /// The number under `column` in row `label`.
    fn value(&self, label: &str, column: &str) -> Result<f64, String> {
        let found = self.numbers(column, |l| l == label)?;
        found
            .first()
            .copied()
            .ok_or_else(|| format!("no number at {label:?}, {column:?}"))
    }
}

/// Runs figure `id` and prints its rows, each published value with its
/// verdict, and its claims with theirs. Returns whether every row and
/// check evaluated: a verdict that reads outside still evaluated. `None`
/// for an unknown id.
pub fn print(id: &str) -> Option<bool> {
    let &(_, title, rows) = FIGURES.iter().find(|f| f.0 == id)?;
    let t = rows();
    let published = published(id);
    let verdicts: Vec<_> = published
        .checks
        .iter()
        .map(|c| (c, c.verdict(&t)))
        .collect();
    let verdict_text = |c: &Check, v: &Result<bool, String>| match (v, known_outside(id, c.row())) {
        (Ok(true), _) => "inside".to_string(),
        (Ok(false), Some(item)) => format!("outside ({item})"),
        (Ok(false), None) => "outside".to_string(),
        (Err(e), _) => format!("failed: {e}"),
    };
    println!("== {id} — {title} (paper: {}) ==\n", published.locus);
    header(&[&t.columns[..], &["paper", "verdict"]].concat());
    for r in &t.rows {
        let mut cells = vec![r.label.clone()];
        match &r.cells {
            Ok(values) => cells.extend(values.iter().map(|c| c.0.clone())),
            Err(e) => cells.push(format!("failed: {e}")),
        }
        cells.resize(t.columns.len(), String::new());
        for (c, v) in &verdicts {
            if let Value(row, _, printed) = c {
                if *row == r.label {
                    let (_, tolerance) = value_and_tolerance(printed);
                    cells.extend([format!("{printed} ±{tolerance}"), verdict_text(c, v)]);
                }
            }
        }
        row(&cells);
    }
    println!("\nclaims:");
    for (c, v) in &verdicts {
        if let Claim(name, text, _) = c {
            println!("{:>16} {name}: {text}", verdict_text(c, v));
        }
    }
    println!();
    Some(t.rows.iter().all(|r| r.cells.is_ok()) && verdicts.iter().all(|(_, v)| v.is_ok()))
}

/// Nominal host clock used to convert wall time into "host cycles" for
/// the computes-per-host-cycle (CPHC) metric of Table 5. The paper's
/// metric is a ratio of simulated computes to host cycles; the *contrast*
/// between the analytical model and the per-element baseline is
/// frequency-independent.
const NOMINAL_HOST_HZ: f64 = 3.0e9;

/// Relative error in percent.
fn rel_err_pct(measured: f64, reference: f64) -> f64 {
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

/// Computes-per-host-cycle from a compute count and wall seconds.
fn cphc(computes: f64, seconds: f64) -> f64 {
    computes / (seconds.max(1e-12) * NOMINAL_HOST_HZ)
}

/// Runs registered scenario `name` on `session`.
fn scenario(name: &str, session: &EvalSession) -> ScenarioOutcome {
    ScenarioRegistry::standard().expect(name).run(session, None)
}

/// The experiment labelled `label` and its outcome, or why it has none.
fn outcome<'a>(
    out: &'a ScenarioOutcome,
    label: &str,
) -> Result<(&'a Experiment, &'a JobOutcome), String> {
    let i = out.experiments.iter().position(|e| e.label == label);
    let i = i.ok_or_else(|| format!("no experiment {label:?}"))?;
    let res = out.results[i]
        .as_ref()
        .map_err(|e| format!("{label}: {e}"))?;
    Ok((&out.experiments[i], res))
}

/// Concrete random tensors matching a layer's statistical density specs
/// (inputs drawn uniformly at the spec's nominal density, outputs empty).
fn concrete_tensors(layer: &Layer, seed: u64) -> Vec<SparseTensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    let einsum = &layer.einsum;
    let tensors = einsum.tensors().iter().enumerate();
    tensors
        .map(|(i, spec)| {
            let shape = Shape::new(einsum.tensor_shape(TensorId(i)));
            if spec.kind == TensorKind::Output {
                SparseTensor::from_triplets(shape, &[])
            } else {
                let d = layer.densities[i].nominal_density(shape.extents());
                SparseTensor::gen_uniform(shape, d, &mut rng)
            }
        })
        .collect()
}

/// Runs the per-element reference simulator on an experiment's winner
/// over tensors drawn from `seed`. Returns its counts, the seconds the
/// simulation took, and the tensors.
fn simulate(exp: &Experiment, res: &JobOutcome, seed: u64) -> (SimResult, f64, Vec<SparseTensor>) {
    let tensors = concrete_tensors(&exp.layer, seed);
    let (e, d) = (&exp.layer.einsum, &exp.design);
    let (sim, seconds) = timed(|| RefSim::new(e, &d.arch, &res.mapping, &d.safs, &tensors).run());
    (sim, seconds, tensors)
}

fn fig01() -> Table {
    let out = scenario("fig1_format_tradeoff", &EvalSession::new());
    let mut t = Table::new(&[
        "density",
        "BM cycles",
        "CP cycles",
        "BM energy(pJ)",
        "CP energy(pJ)",
        "CP speedup",
        "BM en. adv.",
    ]);
    for d in FIG1_DENSITIES {
        t.row(format!("{d}"), || {
            let bm = &outcome(&out, &format!("Bitmask@{d}"))?.1.eval;
            let cp = &outcome(&out, &format!("CoordinateList@{d}"))?.1.eval;
            let (speedup, advantage) = (bm.cycles / cp.cycles, cp.energy_pj / bm.energy_pj);
            let mut cells = [bm.cycles, cp.cycles, bm.energy_pj, cp.energy_pj]
                .map(num)
                .to_vec();
            cells.extend([fix(speedup, 2, "x"), fix(advantage, 2, "x")]);
            Ok(cells)
        });
    }
    t
}

/// Fig. 9 buckets the occupancy distribution of tiles of four shapes.
fn fig09() -> Table {
    let m = Uniform::new(vec![64, 64], 0.5);
    let mut t = Table::new(&[
        "tile",
        "P(d=0)",
        "P(0<d<=.25)",
        "P(.25<d<=.5)",
        "P(.5<d<=.75)",
        "P(d>.75)",
        "stddev",
    ]);
    for (name, shape) in [
        ("1x2", [1, 2]),
        ("1x8", [1, 8]),
        ("2x8", [2, 8]),
        ("8x8", [8, 8]),
    ] {
        let s: u64 = shape.iter().product();
        // mass per bucket d = 0, (0, .25], (.25, .5], (.5, .75], (.75, 1]
        let mut buckets = [0.0f64; 5];
        let (mut mean, mut m2) = (0.0, 0.0);
        for (occ, p) in m.occupancy_distribution(&shape) {
            let d = occ as f64 / s as f64;
            buckets[(d * 4.0).ceil() as usize] += p;
            mean += d * p;
            m2 += d * d * p;
        }
        let stddev = (m2 - mean * mean).max(0.0).sqrt();
        let cells = buckets.into_iter().chain([stddev]).map(|p| fix(p, 4, ""));
        t.row(name, || Ok(cells.collect()));
    }
    t
}

/// Fig. 11 compares the uniform model's per-component counts with the
/// actual-data reference simulator's.
fn fig11() -> Table {
    let out = scenario("fig11_scnn_validation", &EvalSession::new());
    let mut t = Table::new(&["component", "analytical", "simulated", "error %"]);
    let (exp, res) = match outcome(&out, "SCNN@conv3") {
        Ok(pair) => pair,
        Err(e) => {
            t.row("SCNN@conv3", || Err(e));
            return t;
        }
    };
    let (arch, straf) = (&exp.design.arch, &res.eval.sparse);
    let (sim, _, _) = simulate(exp, res, 0x5C44);
    let mut compare = |label: String, ana: f64, simv: f64| {
        let err = rel_err_pct(ana, simv);
        t.row(label, || Ok(vec![num(ana), num(simv), fix(err, 2, "")]));
    };
    for (ti, spec) in exp.layer.einsum.tensors().iter().enumerate() {
        for lvl in 0..arch.num_levels() {
            let Some(e) = straf.get(TensorId(ti), lvl) else {
                continue;
            };
            let sc = sim.level(TensorId(ti), lvl);
            let (ana, simv) = if spec.kind == TensorKind::Output {
                (e.updates.actual, sc.updates_actual)
            } else {
                (e.reads.actual, sc.reads_actual)
            };
            if ana != 0.0 || simv != 0.0 {
                compare(
                    format!("{}@{}", spec.name, arch.levels()[lvl].name),
                    ana,
                    simv,
                );
            }
        }
    }
    compare(
        "Compute".into(),
        straf.compute.ops.actual,
        sim.computes_actual,
    );
    let worst = t
        .values("error %")
        .map(|e| e.into_iter().fold(0.0, f64::max));
    t.row("worst", || Ok(vec![text(""), text(""), fix(worst?, 2, "")]));
    t
}

/// Fig. 12 compares the uniform and the actual-data density models'
/// cycles with the actual-data reference simulator's, per layer and in
/// total.
fn fig12() -> Table {
    let session = EvalSession::new();
    let out = scenario("fig12_eyerissv2_validation", &session);
    let mut t = Table::new(&[
        "layer",
        "sim cycles",
        "uniform",
        "uniform err %",
        "actual-data",
        "actual err %",
    ]);
    let cells = |sim: f64, uni: f64, act: f64| {
        let err = |model| fix(rel_err_pct(model, sim), 2, "");
        vec![num(sim), num(uni), err(uni), num(act), err(act)]
    };
    // seeds are tied to each experiment's stable registry position, so
    // one failing layer cannot shift the tensors (and numbers) of the
    // rows after it
    for (idx, (exp, res)) in out.experiments.iter().zip(&out.results).enumerate() {
        t.row(exp.layer.name.clone(), || {
            let res = res.as_ref().map_err(|e| e.to_string())?;
            let (sim, _, tensors) = simulate(exp, res, 0xE2 + idx as u64);
            let models = tensors
                .into_iter()
                .map(|t| Arc::new(ActualData::new(t)) as _);
            let w_act = Workload::with_models(exp.layer.einsum.clone(), models.collect());
            let (arch, safs) = (exp.design.arch.clone(), exp.design.safs.clone());
            let act = session.model(w_act, arch, safs).evaluate(&res.mapping);
            let act = act.map_err(|e| format!("actual-data model: {e}"))?;
            Ok(cells(sim.cycles, res.eval.cycles, act.cycles))
        });
    }
    let total = |column| t.values(column).map(|v| v.into_iter().sum::<f64>());
    let totals = (total("sim cycles"), total("uniform"), total("actual-data"));
    t.row("total", || Ok(cells(totals.0?, totals.1?, totals.2?)));
    t
}

/// Fig. 13 compares the model's latency with the reference simulator's,
/// each normalized to its own densest point.
fn fig13() -> Table {
    let out = scenario("fig13_dstc_validation", &EvalSession::new());
    let mut t = Table::new(&["density", "model (norm)", "sim (norm)", "error %"]);
    let mut base = None;
    for (seed_off, d) in FIG13_DENSITIES.into_iter().enumerate() {
        t.row(format!("{d}"), || {
            let (exp, res) = outcome(&out, &format!("DSTC@{d}"))?;
            let (sim, _, _) = simulate(exp, res, 0xD57C + seed_off as u64);
            let (bm, bs) = *base.get_or_insert((res.eval.cycles, sim.cycles));
            let (nm, ns) = (res.eval.cycles / bm, sim.cycles / bs);
            Ok(vec![
                fix(nm, 4, ""),
                fix(ns, 4, ""),
                fix(rel_err_pct(nm, ns), 2, ""),
            ])
        });
    }
    let avg = t
        .values("error %")
        .map(|e| e.iter().sum::<f64>() / e.len() as f64);
    t.row("average", || Ok(vec![text(""), text(""), fix(avg?, 2, "")]));
    t
}

fn fig15() -> Table {
    let out = scenario("fig15_stc_case_study", &EvalSession::new());
    let mut t = Table::new(&["design@sparsity", "norm cycles", "norm EDP"]);
    let base = outcome(&out, "STC@dense").map(|(_, res)| &res.eval);
    for (tag, _) in FIG15_SPARSITIES {
        let suffix = format!("@{tag}");
        for exp in out
            .experiments
            .iter()
            .filter(|e| e.label.ends_with(&suffix))
        {
            t.row(exp.label.clone(), || {
                let base = base.as_ref().map_err(|e| format!("baseline {e}"))?;
                let res = &outcome(&out, &exp.label)?.1.eval;
                let (cycles, edp) = (res.cycles / base.cycles, res.edp / base.edp);
                Ok(vec![fix(cycles, 3, ""), fix(edp, 3, "")])
            });
        }
    }
    t
}

/// Fig. 16's bandwidths are the hand formulas (inputs at `m/2 x` the
/// nonzero weights); its metadata widths are the format model's, per
/// nonzero of one 2:m fiber holding 2 nonzeros.
fn fig16() -> Table {
    let mut t = Table::new(&[
        "ratio",
        "weights",
        "inputs",
        "CP meta(bits)",
        "RLE meta(bits)",
        "B meta(bits)",
    ]);
    for m in [4u64, 6, 8] {
        let bits = |f: RankFormat| fix(f.metadata_bits(1.0, m, 2.0, 0) / 2.0, 0, "");
        let formats = [RankFormat::cp(), RankFormat::rle(), RankFormat::Bitmask].map(bits);
        let bandwidths = [fix(1.0, 1, "x"), fix(m as f64 / 2.0, 1, "x")];
        t.row(format!("2:{m}"), || {
            Ok(bandwidths.into_iter().chain(formats).collect())
        });
    }
    t
}

fn fig17() -> Table {
    let out = scenario("fig17_codesign_study", &EvalSession::new());
    let mut t = Table::new(&[
        "density",
        "ABZ.Inner",
        "ABZ.Hier",
        "AZ.Inner",
        "AZ.Hier",
        "best",
    ]);
    for d in sparseloop_workloads::spmspm::density_sweep() {
        t.row(format!("{d}"), || {
            let edp = |cell| Ok::<_, String>(outcome(&out, &format!("{cell}@{d}"))?.1.eval.edp);
            let edps = FIG17_CELLS
                .map(edp)
                .into_iter()
                .collect::<Result<Vec<_>, _>>()?;
            let best = (0..4).min_by(|&a, &b| edps[a].total_cmp(&edps[b]));
            let mut cells: Vec<Cell> = edps.iter().map(|e| fix(e / edps[0], 3, "")).collect();
            cells.push(text(FIG17_CELLS[best.expect("four cells")]));
            Ok(cells)
        });
    }
    t
}

/// Table 5 runs every row's scenario on a fresh session, so each row
/// starts from cold caches and its timing does not depend on the order.
fn table5() -> Table {
    let registry = ScenarioRegistry::standard();
    let run = |name: &str| registry.expect(name).run(&EvalSession::new(), None);
    let mut rows = Vec::new();
    for design in Table5Design::ALL {
        for net in Table5Net::ALL {
            let out = run(&table5_name(design, net));
            let label = format!("{}/{}", design.name(), net.name());
            rows.push((label, cphc(out.modeled_computes(), out.wall_seconds)));
        }
    }
    // the per-element baseline on a scaled workload: CPHC << 1
    let base = run("table5_refsim_baseline");
    let baseline = match base.succeeded().next() {
        Some((exp, res)) => {
            let (sim, seconds, _) = simulate(exp, res, 1);
            Ok(cphc(sim.computes_total(), seconds))
        }
        None => Err("the baseline search found no mapping".to_string()),
    };
    let mut t = Table::new(&["scenario", "CPHC", "vs refsim"]);
    for (label, v) in rows {
        t.row(label, || {
            Ok(vec![num(v), fix(v / baseline.clone()?, 0, "x")])
        });
    }
    t.row("refsim baseline", || {
        Ok(vec![num(baseline?), fix(1.0, 0, "x")])
    });
    t
}

/// Table 6 re-runs compact versions of the per-design validations and
/// reports each design's accuracy against the actual-data reference.
fn table6() -> Table {
    let out = scenario("table6_validation_summary", &EvalSession::new());
    let mut t = Table::new(&["design", "output", "accuracy %"]);
    let accuracy = |output, err: f64| Ok(vec![text(output), fix(100.0 - err, 1, "")]);
    // runtime activities, with the compute count as the proxy
    t.row("SCNN", || {
        let (exp, res) = outcome(&out, "SCNN@conv3")?;
        let (sim, _, _) = simulate(exp, res, 11);
        let err = rel_err_pct(res.eval.sparse.compute.ops.actual, sim.computes_actual);
        accuracy("runtime activities", err)
    });
    t.row("EyerissV2-PE", || {
        let (exp, res) = outcome(&out, "EyerissV2-PE@pw1")?;
        let (sim, _, _) = simulate(exp, res, 12);
        accuracy(
            "processing latency",
            rel_err_pct(res.eval.cycles, sim.cycles),
        )
    });
    // normalized latency across densities
    t.row("DSTC", || {
        let mut errs = Vec::new();
        let mut base = None;
        for d in TABLE6_DSTC_DENSITIES {
            let (exp, res) = outcome(&out, &format!("DSTC@{d}"))?;
            let (sim, _, _) = simulate(exp, res, 13);
            let (bm, bs) = *base.get_or_insert((res.eval.cycles, sim.cycles));
            errs.push(rel_err_pct(res.eval.cycles / bm, sim.cycles / bs));
        }
        accuracy(
            "processing latency",
            errs.iter().sum::<f64>() / errs.len() as f64,
        )
    });
    // 2:4 structure is deterministic: exactly 2x
    t.row("STC", || {
        let sparse = &outcome(&out, "STC@2:4")?.1.eval;
        let dense = &outcome(&out, "STC@dense")?.1.eval;
        let speedup = dense.uarch.compute_cycles / sparse.uarch.compute_cycles;
        accuracy("2:4 speedup (=2x)", rel_err_pct(speedup, 2.0))
    });
    t
}

/// Table 7 compares actual-data RLE encoding (Eyeriss-style 5-bit runs,
/// 16-bit values, run-length overflow padding) with the Eyeriss design's
/// DRAM activation format model, at each layer's published post-ReLU
/// output density.
fn table7() -> Table {
    let fmt = eyeriss::dram_rlc_format();
    let out = scenario("table7_eyeriss_rlc", &EvalSession::new());
    let mut t = Table::new(&["layer", "density", "actual rate", "model rate"]);
    let mut rng = StdRng::seed_from_u64(0xE1E);
    let (run_bits, value_bits) = (eyeriss::DRAM_RLC_RUN_BITS, eyeriss::DRAM_RLC_VALUE_BITS);
    for (exp, res) in out.experiments.iter().zip(&out.results) {
        let einsum = &exp.layer.einsum;
        let o = einsum
            .tensors()
            .iter()
            .position(|t| t.kind == TensorKind::Output);
        let o = o.expect("conv layer has an output");
        let d = exp.layer.densities[o].nominal_density(&einsum.tensor_shape(TensorId(o)));
        // an activation-map-sized stream, drawn whether or not the
        // experiment evaluated, so a failed layer cannot shift the rows
        // after it
        let len = 64 * 1024u64;
        let stream = SparseTensor::gen_uniform(Shape::new(vec![len]), d, &mut rng);
        t.row(exp.layer.name.trim_end_matches("-scaled"), || {
            let energy = res.as_ref().map_err(|e| e.to_string())?.eval.energy_pj;
            if energy <= 0.0 {
                return Err(format!("non-positive energy {energy}"));
            }
            let present = |i| f64::from(u8::from(stream.is_nonzero(&Point::new(vec![i]))));
            let values: Vec<f64> = (0..len).map(present).collect();
            let actual = rle_compression_rate(&values, run_bits, value_bits);
            let model = fmt.analyze(&[len], &Uniform::new(vec![len], d));
            let model = model.compression_rate(len as f64, value_bits);
            Ok(vec![fix(d, 2, ""), fix(actual, 2, ""), fix(model, 2, "")])
        });
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tier-1 gate: every published row of a model-only figure reads
    /// inside, except the [`KNOWN_OUTSIDE`] rows, which must read outside.
    fn gate(id: &str) {
        let t = (FIGURES.iter().find(|f| f.0 == id).expect("known figure").2)();
        for r in &t.rows {
            assert!(
                r.cells.is_ok(),
                "{id} row {}: {:?}",
                r.label,
                r.cells.as_ref().err()
            );
        }
        for c in published(id).checks {
            let want = known_outside(id, c.row()).is_none();
            assert_eq!(c.verdict(&t), Ok(want), "{id} row {}", c.row());
        }
    }

    #[test]
    fn gate_fig01() {
        gate("fig01");
    }

    #[test]
    fn gate_fig09() {
        gate("fig09");
    }

    #[test]
    fn gate_fig15() {
        gate("fig15");
    }

    #[test]
    fn gate_fig16() {
        gate("fig16");
    }

    #[test]
    fn gate_fig17() {
        gate("fig17");
    }

    #[test]
    fn gate_table7() {
        gate("table7");
    }

    #[test]
    fn every_figure_and_known_outside_row_is_published() {
        assert_eq!(PUBLISHED.len(), FIGURES.len());
        for (id, _, _) in FIGURES {
            assert!(!published(id).checks.is_empty(), "{id}");
        }
        for (id, row, _) in KNOWN_OUTSIDE {
            let checks = published(id).checks;
            assert!(checks.iter().any(|c| c.row() == *row), "{id} {row}");
        }
    }

    #[test]
    fn a_failed_row_fails_every_check_that_reads_it() {
        let mut t = Table::new(&["layer", "model rate"]);
        t.row("conv1", || Ok(vec![fix(1.21, 2, "")]));
        t.row("conv2", || Err("no valid mapping".into()));
        assert_eq!(Value("conv1", "model rate", "1.2").verdict(&t), Ok(true));
        assert!(Value("conv2", "model rate", "1.4").verdict(&t).is_err());
        assert!(t.values("model rate").is_err());
    }

    #[test]
    fn tolerance_is_half_the_printed_unit() {
        assert_eq!(value_and_tolerance("1.2"), (1.2, 0.05));
        assert_eq!(value_and_tolerance("7"), (7.0, 0.5));
    }

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
}
