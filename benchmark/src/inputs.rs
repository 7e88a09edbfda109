//! Seeded input generation: the request list of a workload, the order of
//! each pass, and the concrete tensors of the accuracy set.
//!
//! Equal seeds give byte-identical spec text, orders and tensors; the
//! program under test only ever sees the generated inputs (emitted spec
//! text or registry scenarios), never the seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparseloop_density::DensityModelSpec;
use sparseloop_designs::scenario::{table5_name, Table5Design, Table5Net};
use sparseloop_designs::{fig1, Experiment, Scenario, ScenarioRegistry};
use sparseloop_mapping::Mapspace;
use sparseloop_tensor::einsum::{TensorId, TensorKind};
use sparseloop_tensor::{point::Shape, SparseTensor};
use sparseloop_workloads::{spmspm, Layer};

/// Which scenarios a workload requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestSet {
    /// The 12 `table5_<design>_<net>` search scenarios plus the tail.
    Table5AndTail,
    /// The 9 other registry scenarios (84 pinned-mapping experiments and
    /// a few small searches).
    Fixed9,
    /// All 21 paper scenarios plus the tail.
    AllAndTail,
}

/// Dimension sizes the tail draws from.
const TAIL_DIMS: [u64; 5] = [32, 48, 64, 96, 128];
/// Operand density range of the tail (log-uniform).
const TAIL_DENSITY: (f64, f64) = (0.02, 0.6);
/// Synthetic scenarios per seed.
pub const TAIL_SCENARIOS: usize = 4;

// Independent RNG streams of one seed (so adding a draw to one stream
// never shifts another).
const STREAM_TAIL: u64 = 0x7A11_5EED_0000_0001;
const STREAM_ORDER: u64 = 0x7A11_5EED_0000_0002;
const STREAM_TENSORS: u64 = 0x7A11_5EED_0000_0003;

/// The seeded synthetic tail: spMspM searches on the two Fig. 1 designs,
/// shapes and densities no paper scenario uses — so a claim made on the
/// paper's scenarios can be re-checked on inputs nobody tuned for.
pub fn tail_scenarios(seed: u64) -> Vec<Scenario> {
    let mut rng = StdRng::seed_from_u64(seed ^ STREAM_TAIL);
    (0..TAIL_SCENARIOS)
        .map(|i| {
            let mut dim = || TAIL_DIMS[rng.gen_range(0..TAIL_DIMS.len())];
            let (m, n, k) = (dim(), dim(), dim());
            let mut density = || {
                let (lo, hi) = TAIL_DENSITY;
                lo * (hi / lo).powf(rng.gen::<f64>())
            };
            let (da, db) = (density(), density());
            Scenario::new(
                format!("tail{i}_spmspm_{m}x{n}x{k}"),
                format!("Synthetic tail {i}: spMspM {m}x{n}x{k} at densities {da:.4}/{db:.4}"),
                move || {
                    let layer = spmspm(m, n, k, da, db);
                    [
                        fig1::bitmask_design(&layer.einsum),
                        fig1::coordinate_list_design(&layer.einsum),
                    ]
                    .into_iter()
                    .map(|design| {
                        let space = Mapspace::all_temporal(&layer.einsum, &design.arch)
                            .with_spatial_dims(1, vec![layer.einsum.dim_id("n").expect("matmul")]);
                        Experiment::search(
                            format!("{}@{}", design.name, layer.name),
                            design,
                            layer.clone(),
                            space,
                        )
                    })
                    .collect()
                },
            )
        })
        .collect()
}

/// The 12 Table 5 scenario names.
fn table5_names() -> Vec<String> {
    Table5Design::ALL
        .into_iter()
        .flat_map(|d| Table5Net::ALL.into_iter().map(move |n| table5_name(d, n)))
        .collect()
}

impl RequestSet {
    /// Whether the set requests the paper scenario `name`.
    fn holds(self, name: &str, table5: &[String]) -> bool {
        let is_table5 = table5.iter().any(|t| t == name);
        match self {
            RequestSet::Table5AndTail => is_table5,
            RequestSet::Fixed9 => !is_table5,
            RequestSet::AllAndTail => true,
        }
    }
}

/// One request of a workload.
pub struct Request {
    /// The scenario's name.
    pub name: String,
    /// Whether this is a paper scenario (eligible for the pinned-winner
    /// reference) or a seeded tail scenario.
    pub paper: bool,
    /// The scenario as emitted spec text — what every workload but
    /// `eval_fixed` submits.
    pub spec: String,
    /// Position of the scenario in the inputs' registry.
    index: usize,
}

/// The generated inputs of one workload at one seed.
pub struct Inputs {
    /// The standard registry extended with this seed's tail.
    registry: ScenarioRegistry,
    /// The request list, paper scenarios first, in registry order.
    pub requests: Vec<Request>,
}

impl Inputs {
    /// Builds the registry and the tail and emits every request's spec.
    pub fn build(set: RequestSet, seed: u64) -> Inputs {
        let mut registry = ScenarioRegistry::standard();
        let paper = registry.scenarios().len();
        if set != RequestSet::Fixed9 {
            for scenario in tail_scenarios(seed) {
                registry
                    .push(scenario)
                    .expect("tail names do not collide with the registry");
            }
        }
        let table5 = table5_names();
        let requests = registry
            .scenarios()
            .iter()
            .enumerate()
            .filter(|(i, s)| *i >= paper || set.holds(s.name(), &table5))
            .map(|(index, scenario)| Request {
                name: scenario.name().to_string(),
                paper: index < paper,
                spec: sparseloop_spec::emit_scenario(scenario),
                index,
            })
            .collect();
        Inputs { registry, requests }
    }

    /// The scenario behind a request — what `eval_fixed` runs and what the
    /// verifier derives the reference answer from.
    pub fn scenario(&self, request: &Request) -> &Scenario {
        &self.registry.scenarios()[request.index]
    }
}

/// The request order of pass `pass`: a seeded Fisher–Yates shuffle of
/// `0..n`.
pub fn pass_order(n: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ STREAM_ORDER ^ pass.wrapping_mul(0x9E37_79B9));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    order
}

/// Concrete tensors matching a layer's density specs: n:m structured
/// inputs drawn block by block, every other input drawn uniformly at its
/// spec's nominal density, outputs empty. Case `case` of seed `seed`
/// always draws the same tensors.
pub fn actual_tensors(layer: &Layer, seed: u64, case: u64) -> Vec<SparseTensor> {
    let mut rng = StdRng::seed_from_u64(seed ^ STREAM_TENSORS ^ case.wrapping_mul(0x9E37_79B9));
    layer
        .einsum
        .tensors()
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let shape = Shape::new(layer.einsum.tensor_shape(TensorId(i)));
            if spec.kind == TensorKind::Output {
                SparseTensor::from_triplets(shape, &[])
            } else if let DensityModelSpec::FixedStructured { n, m, axis } = layer.densities[i] {
                SparseTensor::gen_structured(shape, n, m, axis, &mut rng)
            } else {
                let density = layer.densities[i].nominal_density(shape.extents());
                SparseTensor::gen_uniform(shape, density, &mut rng)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_texts(set: RequestSet, seed: u64) -> Vec<String> {
        Inputs::build(set, seed)
            .requests
            .into_iter()
            .map(|r| r.spec)
            .collect()
    }

    #[test]
    fn request_sets_partition_the_registry() {
        let names = |set| -> Vec<String> {
            let inputs = Inputs::build(set, 1);
            inputs.requests.iter().map(|r| r.name.clone()).collect()
        };
        let (table5, fixed, all) = (
            names(RequestSet::Table5AndTail),
            names(RequestSet::Fixed9),
            names(RequestSet::AllAndTail),
        );
        assert_eq!(table5.len(), 12 + TAIL_SCENARIOS);
        assert_eq!(fixed.len(), 9);
        assert_eq!(all.len(), 21 + TAIL_SCENARIOS);
        assert!(table5[..12].iter().all(|n| n.starts_with("table5_")));
        assert!(fixed.iter().all(|n| !table5.contains(n)));
        assert!(fixed.contains(&"table5_refsim_baseline".to_string()));
        // the tail is flagged, the paper scenarios are not
        let inputs = Inputs::build(RequestSet::AllAndTail, 1);
        assert_eq!(inputs.requests.iter().filter(|r| r.paper).count(), 21);
        for r in &inputs.requests {
            assert_eq!(inputs.scenario(r).name(), r.name);
        }
    }

    #[test]
    fn equal_seeds_give_byte_identical_inputs() {
        assert_eq!(
            spec_texts(RequestSet::Table5AndTail, 7),
            spec_texts(RequestSet::Table5AndTail, 7)
        );
        assert_eq!(pass_order(25, 7, 3), pass_order(25, 7, 3));
        let layer = spmspm(16, 16, 16, 0.3, 0.5);
        assert_eq!(actual_tensors(&layer, 7, 2), actual_tensors(&layer, 7, 2));
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        let (a, b) = (
            spec_texts(RequestSet::Table5AndTail, 7),
            spec_texts(RequestSet::Table5AndTail, 8),
        );
        // the paper scenarios do not depend on the seed; the tail does
        assert_eq!(a[..12], b[..12]);
        assert_ne!(a[12..], b[12..]);
        assert_ne!(pass_order(25, 7, 3), pass_order(25, 8, 3));
        assert_ne!(pass_order(25, 7, 3), pass_order(25, 7, 4));
        let layer = spmspm(16, 16, 16, 0.3, 0.5);
        assert_ne!(actual_tensors(&layer, 7, 2), actual_tensors(&layer, 8, 2));
        assert_ne!(actual_tensors(&layer, 7, 2), actual_tensors(&layer, 7, 3));
    }

    #[test]
    fn every_tail_search_finds_a_winner() {
        // `ok_share` must not depend on the seed: the tail only ever adds
        // experiments that succeed
        for seed in 0..12 {
            for scenario in tail_scenarios(seed) {
                let outcome = scenario.run(&sparseloop_core::EvalSession::new(), None);
                assert!(
                    outcome.results.iter().all(Result::is_ok),
                    "seed {seed}: {} has an experiment without a winner",
                    scenario.name()
                );
            }
        }
    }

    #[test]
    fn pass_order_is_a_permutation() {
        let mut order = pass_order(25, 1, 0);
        order.sort_unstable();
        assert_eq!(order, (0..25).collect::<Vec<_>>());
        assert!(pass_order(0, 1, 0).is_empty());
    }

    #[test]
    fn tail_stays_in_its_declared_ranges_and_compiles() {
        for seed in 0..20 {
            for scenario in tail_scenarios(seed) {
                let experiments = scenario.experiments();
                assert_eq!(experiments.len(), 2);
                for exp in &experiments {
                    for (i, d) in exp.layer.einsum.dims().iter().enumerate() {
                        assert!(TAIL_DIMS.contains(&d.bound), "dim {i} = {}", d.bound);
                    }
                    for operand in &exp.layer.densities[..2] {
                        match operand {
                            DensityModelSpec::Uniform { density } => {
                                assert!((0.02..=0.6).contains(density), "{density}")
                            }
                            other => panic!("tail operand is {other:?}"),
                        }
                    }
                }
                let text = sparseloop_spec::emit_scenario(&scenario);
                let compiled = sparseloop_spec::compile_str(&text).expect("tail spec compiles");
                assert_eq!(compiled.name, scenario.name());
            }
        }
    }
}
