//! The scenario registry: every paper experiment as one declarative
//! (design, workload, mapping-policy) description.
//!
//! A [`Scenario`] names a complete experiment — which [`DesignPoint`]s
//! run which [`Layer`]s under which [`MappingPolicy`] — and
//! [`ScenarioRegistry::standard`] enumerates all of the paper's
//! evaluations (Fig. 1, Figs. 11–17, Table 5 rows, Table 6, Table 7) by
//! name. The bench binaries shrink to "look up scenario, run, print":
//! none of them assembles architecture/SAF/mapspace glue inline anymore,
//! and every run flows through one [`EvalSession`] so format and density
//! aggregates are shared across layers, candidates and design variants.
//!
//! Adding an experiment is three steps: write a builder function
//! returning a [`Scenario`], register it in
//! [`ScenarioRegistry::standard`], and (optionally) give it a binary
//! that post-processes the [`ScenarioOutcome`]. The `smoke` binary's
//! `scenario`, `spec` and `serve` phases pick up new scenarios
//! automatically.

use crate::common::{conv_mapspace, matmul_mapping_2level, matmul_mapping_3level, DesignPoint};
use crate::{dstc, eyeriss, eyeriss_v2, fig1, fig17, scnn, stc};
use sparseloop_core::{
    EvalJob, EvalSession, JobError, JobOutcome, LocalShards, Objective, ShardExecutor, Workload,
};
use sparseloop_density::DensityModelSpec;
use sparseloop_mapping::{Mapping, Mapspace, SearchStats};
use sparseloop_tensor::einsum::Einsum;
use sparseloop_workloads::{
    alexnet, bert_base, mobilenet_v1, resnet50, spmspm, vgg16, Layer, Network,
};
use std::time::Instant;

pub use crate::common::DEFAULT_MAPPER;

/// How an [`Experiment`] obtains its mapping — the core layer's
/// [`JobPlan`](sparseloop_core::JobPlan) under its registry-facing name (one enum, no conversion
/// layer to keep in sync).
pub use sparseloop_core::JobPlan as MappingPolicy;

/// One fully-bound experiment unit: a design evaluating one layer.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Row label, `"<design>@<variant>"` by convention.
    pub label: String,
    /// The design point (architecture + SAFs bound to the layer).
    pub design: DesignPoint,
    /// The workload layer.
    pub layer: Layer,
    /// Fixed mapping or search.
    pub policy: MappingPolicy,
    /// Whether an empty outcome is a failure. Defaults to `true`; the
    /// Table 5 timing rows mark deep layers
    /// [`optional`](Experiment::optional) because the *default search*
    /// may come back empty on the PE-scale designs (the paper's CPHC
    /// metric simply excludes them). That is not a proof of
    /// infeasibility: a probe found 2 100–2 895 valid mappings on each
    /// of `table5_eyerissv2pe_vgg16` conv6–conv10, which the default
    /// search misses. ROADMAP 18b (in-space samples) and 2b (emptiness
    /// as a proof) are the way to retire the flag.
    pub required: bool,
}

impl Experiment {
    /// A fixed-mapping experiment.
    pub fn fixed(label: impl Into<String>, design: DesignPoint, layer: Layer, m: Mapping) -> Self {
        Experiment {
            label: label.into(),
            design,
            layer,
            policy: MappingPolicy::Fixed(m),
            required: true,
        }
    }

    /// A default-mapper EDP search experiment over `space`.
    pub fn search(
        label: impl Into<String>,
        design: DesignPoint,
        layer: Layer,
        space: Mapspace,
    ) -> Self {
        Experiment {
            label: label.into(),
            design,
            layer,
            policy: MappingPolicy::Search {
                space,
                mapper: DEFAULT_MAPPER,
                objective: Objective::Edp,
            },
            required: true,
        }
    }

    /// Marks an empty outcome as acceptable for this experiment.
    pub fn optional(mut self) -> Self {
        self.required = false;
        self
    }

    /// The core-layer batch job this experiment compiles to.
    pub fn job(&self) -> EvalJob {
        EvalJob {
            workload: Workload::new(self.layer.einsum.clone(), self.layer.densities.clone()),
            arch: self.design.arch.clone(),
            safs: self.design.safs.clone(),
            plan: self.policy.clone(),
        }
    }
}

/// A named, registered experiment: builds its [`Experiment`] list on
/// demand (construction is cheap; evaluation happens in
/// [`Scenario::run`]).
pub struct Scenario {
    name: String,
    title: String,
    build: Box<dyn Fn() -> Vec<Experiment> + Send + Sync>,
}

impl Scenario {
    /// Registers a scenario under `name`.
    pub fn new(
        name: impl Into<String>,
        title: impl Into<String>,
        build: impl Fn() -> Vec<Experiment> + Send + Sync + 'static,
    ) -> Self {
        Scenario {
            name: name.into(),
            title: title.into(),
            build: Box::new(build),
        }
    }

    /// The lookup key.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Human-readable description.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Materializes the experiment list.
    pub fn experiments(&self) -> Vec<Experiment> {
        (self.build)()
    }

    /// Runs every experiment through `session`'s shared caches (see
    /// [`EvalSession::search_batch`]), timing the whole batch. Each
    /// search experiment walks its candidate stream in `shards` shards
    /// (`None`: one consumer); results are bit-identical at any count.
    pub fn run(&self, session: &EvalSession, shards: Option<usize>) -> ScenarioOutcome {
        self.run_on(session, &LocalShards(shards.unwrap_or(1)), None)
    }

    /// Runs every experiment through the batch driver
    /// ([`EvalSession::run_batch`]) with `executor` walking the search
    /// shards, timing the whole batch. Once the optional `cancel` probe
    /// fires, remaining experiments resolve to [`JobError::Canceled`]
    /// instead of running. Experiments that do run stay bit-identical
    /// to [`run`](Scenario::run) — whichever executor walked them.
    pub fn run_on(
        &self,
        session: &EvalSession,
        executor: &dyn ShardExecutor,
        cancel: Option<&(dyn Fn() -> bool + Sync)>,
    ) -> ScenarioOutcome {
        let experiments = self.experiments();
        let jobs: Vec<EvalJob> = experiments.iter().map(Experiment::job).collect();
        let start = Instant::now();
        let results = session.run_batch(&jobs, executor, cancel);
        ScenarioOutcome {
            name: self.name.clone(),
            experiments,
            results,
            wall_seconds: start.elapsed().as_secs_f64(),
        }
    }
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .field("title", &self.title)
            .finish()
    }
}

/// The result of one [`Scenario::run`]: experiments and their outcomes,
/// index-aligned.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// The scenario's registry name.
    pub name: String,
    /// The experiments that ran.
    pub experiments: Vec<Experiment>,
    /// Per-experiment outcome; an `Err` preserves *why* a fixed mapping
    /// failed to evaluate or that a search found no valid candidate.
    pub results: Vec<Result<JobOutcome, JobError>>,
    /// Wall time of the whole batch.
    pub wall_seconds: f64,
}

impl ScenarioOutcome {
    /// Looks an outcome up by experiment label.
    pub fn result(&self, label: &str) -> Option<&JobOutcome> {
        self.experiments
            .iter()
            .position(|e| e.label == label)
            .and_then(|i| self.results[i].as_ref().ok())
    }

    /// `(experiment, outcome)` pairs for the experiments that succeeded.
    pub fn succeeded(&self) -> impl Iterator<Item = (&Experiment, &JobOutcome)> {
        self.experiments
            .iter()
            .zip(&self.results)
            .filter_map(|(e, r)| r.as_ref().ok().map(|r| (e, r)))
    }

    /// Summed search counters across experiments — including fruitless
    /// searches (their streams were walked too, and the throughput
    /// record should not jump when an experiment flips between
    /// succeeding and failing).
    pub fn total_stats(&self) -> SearchStats {
        let mut total = SearchStats::default();
        for r in &self.results {
            match r {
                Ok(outcome) => total.absorb(&outcome.stats),
                Err(JobError::NoValidCandidate { stats }) => total.absorb(stats),
                Err(JobError::Eval(_)) | Err(JobError::Canceled) => {}
            }
        }
        total
    }

    /// Dense computes of the layers whose experiments succeeded (the
    /// numerator of Table 5's computes-per-host-cycle metric).
    pub fn modeled_computes(&self) -> f64 {
        self.succeeded()
            .map(|(e, _)| e.layer.computes() as f64)
            .sum()
    }

    /// Mappings drawn from candidate streams per wall second.
    pub fn mappings_per_sec(&self) -> f64 {
        self.total_stats().generated as f64 / self.wall_seconds.max(1e-12)
    }
}

/// The registry of all paper experiments.
#[derive(Debug)]
pub struct ScenarioRegistry {
    scenarios: Vec<Scenario>,
}

impl ScenarioRegistry {
    /// A registry over caller-supplied scenarios (the serving layer
    /// accepts custom registries; most callers want
    /// [`standard`](ScenarioRegistry::standard)).
    pub fn new(scenarios: Vec<Scenario>) -> Self {
        ScenarioRegistry { scenarios }
    }

    /// All experiments of the paper's evaluation, by name:
    /// `fig1_format_tradeoff`, `fig11_scnn_validation`,
    /// `fig12_eyerissv2_validation`, `fig13_dstc_validation`,
    /// `fig15_stc_case_study`, `fig17_codesign_study`,
    /// `table5_<design>_<net>` (12 rows), `table6_validation_summary`,
    /// `table7_eyeriss_rlc`.
    pub fn standard() -> Self {
        let mut scenarios = vec![
            fig1_scenario(),
            fig11_scenario(),
            fig12_scenario(),
            fig13_scenario(),
            fig15_scenario(),
            fig17_scenario(),
        ];
        for design in Table5Design::ALL {
            for net in Table5Net::ALL {
                scenarios.push(table5_scenario(design, net));
            }
        }
        scenarios.push(table5_baseline_scenario());
        scenarios.push(table6_scenario());
        scenarios.push(table7_scenario());
        ScenarioRegistry { scenarios }
    }

    /// Looks a scenario up by name.
    pub fn get(&self, name: &str) -> Option<&Scenario> {
        self.scenarios.iter().find(|s| s.name() == name)
    }

    /// Registers another scenario; used by the spec front-end's
    /// `with_specs` to extend a registry with spec-file scenarios.
    ///
    /// # Errors
    /// Returns the scenario back when its name is already registered
    /// (names are the lookup keys; silently shadowing one would make
    /// results depend on registration order).
    pub fn push(&mut self, scenario: Scenario) -> Result<(), Scenario> {
        if self.get(scenario.name()).is_some() {
            return Err(scenario);
        }
        self.scenarios.push(scenario);
        Ok(())
    }

    /// Like [`get`](ScenarioRegistry::get) but panics with the available
    /// names on a miss — the bench binaries' lookup.
    pub fn expect(&self, name: &str) -> &Scenario {
        self.get(name)
            .unwrap_or_else(|| panic!("no scenario named {name:?}; registered: {:?}", self.names()))
    }

    /// All registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.scenarios.iter().map(|s| s.name()).collect()
    }

    /// The registered scenarios.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }
}

/// The operand densities Fig. 1 sweeps.
pub const FIG1_DENSITIES: [f64; 9] = [0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 1.0];

fn fig1_scenario() -> Scenario {
    Scenario::new(
        "fig1_format_tradeoff",
        "Fig. 1: bitmask vs coordinate-list across spMspM densities",
        || {
            let mut out = Vec::new();
            for d in FIG1_DENSITIES {
                let l = spmspm(64, 64, 64, d, d);
                let m = matmul_mapping_2level(&l.einsum, 16, 8);
                out.push(Experiment::fixed(
                    format!("Bitmask@{d}"),
                    fig1::bitmask_design(&l.einsum),
                    l.clone(),
                    m.clone(),
                ));
                out.push(Experiment::fixed(
                    format!("CoordinateList@{d}"),
                    fig1::coordinate_list_design(&l.einsum),
                    l,
                    m,
                ));
            }
            out
        },
    )
}

/// The Fig. 11 validation layer: scaled AlexNet conv3 with 35%-dense
/// weights (shared by the scenario and the refsim half of the binary).
pub fn fig11_layer() -> Layer {
    let mut layer = alexnet().layers[2].scaled_to(300_000);
    layer.densities[0] = DensityModelSpec::Uniform { density: 0.35 };
    layer
}

fn fig11_scenario() -> Scenario {
    Scenario::new(
        "fig11_scnn_validation",
        "Fig. 11: SCNN per-component runtime activity (scaled AlexNet conv3)",
        || {
            let layer = fig11_layer();
            let dp = scnn::design(&layer.einsum);
            // single-PE (temporal-only) space: Fig. 11 validates one PE
            let space = Mapspace::all_temporal(&layer.einsum, &dp.arch);
            vec![Experiment::search("SCNN@conv3", dp, layer, space)]
        },
    )
}

/// The MobileNet layers Fig. 12 validates (every fifth, scaled).
pub fn fig12_layers() -> Vec<Layer> {
    mobilenet_v1()
        .layers
        .iter()
        .skip(1)
        .step_by(5)
        .take(5)
        .map(|l| l.scaled_to(120_000))
        .collect()
}

fn fig12_scenario() -> Scenario {
    Scenario::new(
        "fig12_eyerissv2_validation",
        "Fig. 12: Eyeriss V2 PE latency (scaled MobileNet layers)",
        || {
            fig12_layers()
                .into_iter()
                .map(|layer| {
                    let dp = eyeriss_v2::design(&layer.einsum);
                    let space = Mapspace::all_temporal(&layer.einsum, &dp.arch);
                    Experiment::search(format!("EyerissV2-PE@{}", layer.name), dp, layer, space)
                })
                .collect()
        },
    )
}

/// The operand densities Fig. 13 sweeps (densest first: the first row is
/// the normalization baseline).
pub const FIG13_DENSITIES: [f64; 10] = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1];

/// The single-PE (temporal-only) DSTC validation mapping.
pub fn fig13_mapping(e: &Einsum) -> Mapping {
    matmul_mapping_3level(e, 1, 8, 16, 4, true)
}

fn fig13_scenario() -> Scenario {
    Scenario::new(
        "fig13_dstc_validation",
        "Fig. 13: DSTC normalized latency vs operand density (matmul 32^3)",
        || {
            FIG13_DENSITIES
                .iter()
                .map(|&d| {
                    let l = spmspm(32, 32, 32, d, d);
                    let dp = dstc::design(&l.einsum);
                    let m = fig13_mapping(&l.einsum);
                    Experiment::fixed(format!("DSTC@{d}"), dp, l, m)
                })
                .collect()
        },
    )
}

/// Fig. 15's ResNet50 res4a-like implicit GEMM
/// (M=256, N=14*14→192, K=64*9=576) at the given structured-sparsity
/// block (`None` = dense weights) and input density.
pub fn fig15_layer(m_block: Option<u64>, input_density: f64) -> Layer {
    let e = Einsum::matmul(256, 192, 576).with_name("res4a_gemm");
    let weights = match m_block {
        None => DensityModelSpec::Dense,
        Some(m) => DensityModelSpec::FixedStructured { n: 2, m, axis: 1 },
    };
    let inputs = if input_density >= 1.0 {
        DensityModelSpec::Dense
    } else {
        DensityModelSpec::Uniform {
            density: input_density,
        }
    };
    Layer {
        name: "res4a".into(),
        einsum: e,
        densities: vec![weights, inputs, DensityModelSpec::Dense],
    }
}

/// The sparsity grid Fig. 15 sweeps: `(row tag, block size)`.
pub const FIG15_SPARSITIES: [(&str, Option<u64>); 4] = [
    ("dense", None),
    ("2:4", Some(4)),
    ("2:6", Some(6)),
    ("2:8", Some(8)),
];

/// Fig. 15's input density.
pub const FIG15_INPUT_DENSITY: f64 = 0.45;

fn fig15_scenario() -> Scenario {
    Scenario::new(
        "fig15_stc_case_study",
        "Fig. 15: next-generation sparse-tensor-core case study",
        || {
            let dense = fig15_layer(None, FIG15_INPUT_DENSITY);
            let stc_map = stc::mapping(&dense.einsum);
            let dstc_map = dstc::mapping(&dense.einsum);
            let mut out = Vec::new();
            for (tag, mb) in FIG15_SPARSITIES {
                let l = fig15_layer(mb, FIG15_INPUT_DENSITY);
                // STC can only exploit 2:4; on other ratios it treats
                // weights as unstructured-dense streams — the flexible
                // variants bind their selection logic to the actual block
                let m_block = mb.unwrap_or(4);
                let designs: Vec<(DesignPoint, &Mapping)> = vec![
                    (dstc::design(&l.einsum), &dstc_map),
                    (stc::stc(&l.einsum), &stc_map),
                    (stc::stc_flexible(&l.einsum, m_block), &stc_map),
                    (stc::stc_flexible_rle(&l.einsum, m_block), &stc_map),
                    (stc::stc_flexible_rle_dual(&l.einsum, m_block), &stc_map),
                ];
                for (dp, map) in designs {
                    out.push(Experiment::fixed(
                        format!("{}@{tag}", dp.name),
                        dp,
                        l.clone(),
                        map.clone(),
                    ));
                }
            }
            out
        },
    )
}

fn fig17_scenario() -> Scenario {
    Scenario::new(
        "fig17_codesign_study",
        "Fig. 17: dataflow x SAF co-design grid across spMspM densities",
        || {
            let grid = [
                (
                    fig17::Dataflow::ReuseAbz,
                    fig17::SafChoice::InnermostSkip,
                    "ABZ.Inner",
                ),
                (
                    fig17::Dataflow::ReuseAbz,
                    fig17::SafChoice::HierarchicalSkip,
                    "ABZ.Hier",
                ),
                (
                    fig17::Dataflow::ReuseAz,
                    fig17::SafChoice::InnermostSkip,
                    "AZ.Inner",
                ),
                (
                    fig17::Dataflow::ReuseAz,
                    fig17::SafChoice::HierarchicalSkip,
                    "AZ.Hier",
                ),
            ];
            let mut out = Vec::new();
            for d in sparseloop_workloads::spmspm::density_sweep() {
                let l = spmspm(256, 256, 256, d, d);
                for (df, saf, cell) in grid {
                    out.push(Experiment::fixed(
                        format!("{cell}@{d}"),
                        fig17::design(&l.einsum, df, saf),
                        l.clone(),
                        fig17::mapping(&l.einsum, df),
                    ));
                }
            }
            out
        },
    )
}

/// The designs Table 5 times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table5Design {
    /// Eyeriss (conv layers; Fig. 1 bitmask on matmul layers).
    Eyeriss,
    /// Eyeriss V2 PE (coordinate-list fallback on matmul layers).
    EyerissV2Pe,
    /// SCNN (coordinate-list fallback on matmul layers).
    Scnn,
}

impl Table5Design {
    /// All rows, in the paper's order.
    pub const ALL: [Table5Design; 3] = [
        Table5Design::Eyeriss,
        Table5Design::EyerissV2Pe,
        Table5Design::Scnn,
    ];

    /// Display / registry name fragment.
    pub fn name(self) -> &'static str {
        match self {
            Table5Design::Eyeriss => "Eyeriss",
            Table5Design::EyerissV2Pe => "EyerissV2-PE",
            Table5Design::Scnn => "SCNN",
        }
    }

    fn key(self) -> &'static str {
        match self {
            Table5Design::Eyeriss => "eyeriss",
            Table5Design::EyerissV2Pe => "eyerissv2pe",
            Table5Design::Scnn => "scnn",
        }
    }

    /// Binds the design to a layer's Einsum; matmul workloads (BERT) run
    /// on the designs' matmul-compatible Fig. 1 counterparts, since the
    /// conv designs bind SAFs per conv tensor name.
    pub fn design_for(self, e: &Einsum) -> DesignPoint {
        let is_conv = e.tensor_id("Weights").is_some();
        match (self, is_conv) {
            (Table5Design::Eyeriss, true) => eyeriss::design(e),
            (Table5Design::Eyeriss, false) => fig1::bitmask_design(e),
            (Table5Design::EyerissV2Pe, true) => eyeriss_v2::design(e),
            (Table5Design::Scnn, true) => scnn::design(e),
            (_, false) => fig1::coordinate_list_design(e),
        }
    }
}

/// The networks Table 5 times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table5Net {
    /// ResNet50.
    ResNet50,
    /// BERT-base at sequence length 512.
    BertBase,
    /// VGG16.
    Vgg16,
    /// AlexNet.
    AlexNet,
}

impl Table5Net {
    /// All columns, in the paper's order.
    pub const ALL: [Table5Net; 4] = [
        Table5Net::ResNet50,
        Table5Net::BertBase,
        Table5Net::Vgg16,
        Table5Net::AlexNet,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Table5Net::ResNet50 => "ResNet50",
            Table5Net::BertBase => "BERT-base",
            Table5Net::Vgg16 => "VGG16",
            Table5Net::AlexNet => "AlexNet",
        }
    }

    fn key(self) -> &'static str {
        match self {
            Table5Net::ResNet50 => "resnet50",
            Table5Net::BertBase => "bert",
            Table5Net::Vgg16 => "vgg16",
            Table5Net::AlexNet => "alexnet",
        }
    }

    /// Instantiates the network.
    pub fn network(self) -> Network {
        match self {
            Table5Net::ResNet50 => resnet50(),
            Table5Net::BertBase => bert_base(512),
            Table5Net::Vgg16 => vgg16(),
            Table5Net::AlexNet => alexnet(),
        }
    }
}

/// The registry name of one Table 5 row (`table5_<design>_<net>`).
pub fn table5_name(design: Table5Design, net: Table5Net) -> String {
    format!("table5_{}_{}", design.key(), net.key())
}

fn table5_scenario(design: Table5Design, net: Table5Net) -> Scenario {
    Scenario::new(
        table5_name(design, net),
        format!("Table 5 row: {} on {}", design.name(), net.name()),
        move || {
            net.network()
                .layers
                .into_iter()
                .map(|layer| {
                    let dp = design.design_for(&layer.einsum);
                    let spatial_level = dp.arch.num_levels() - 1;
                    let space = conv_mapspace(&layer.einsum, &dp.arch, spatial_level);
                    Experiment::search(
                        format!("{}@{}", design.name(), layer.name),
                        dp,
                        layer,
                        space,
                    )
                    .optional()
                })
                .collect()
        },
    )
}

fn table5_baseline_scenario() -> Scenario {
    Scenario::new(
        "table5_refsim_baseline",
        "Table 5 baseline: the layer the per-element reference simulator walks",
        || {
            // scaled so the simulator's every-compute walk stays tractable
            let layer = alexnet().layers[2].scaled_to(200_000);
            let dp = eyeriss::design(&layer.einsum);
            let space = conv_mapspace(&layer.einsum, &dp.arch, 2);
            vec![Experiment::search(
                format!("Eyeriss@{}", layer.name),
                dp,
                layer,
                space,
            )]
        },
    )
}

/// The Table 6 STC rows' matmul and structured/dense layers.
pub fn table6_stc_layers() -> (Layer, Layer) {
    let e = Einsum::matmul(64, 64, 64);
    let sparse = Layer {
        name: "stc".into(),
        einsum: e.clone(),
        densities: vec![
            DensityModelSpec::FixedStructured {
                n: 2,
                m: 4,
                axis: 1,
            },
            DensityModelSpec::Dense,
            DensityModelSpec::Dense,
        ],
    };
    let dense = Layer {
        name: "stc-dense".into(),
        einsum: e,
        densities: vec![DensityModelSpec::Dense; 3],
    };
    (sparse, dense)
}

/// The densities of Table 6's DSTC latency rows.
pub const TABLE6_DSTC_DENSITIES: [f64; 3] = [1.0, 0.6, 0.3];

fn table6_scenario() -> Scenario {
    Scenario::new(
        "table6_validation_summary",
        "Table 6: per-design validation summary",
        || {
            let mut out = Vec::new();
            // SCNN: runtime activities on scaled AlexNet conv3
            {
                let mut layer = alexnet().layers[2].scaled_to(200_000);
                layer.densities[0] = DensityModelSpec::Uniform { density: 0.35 };
                let dp = scnn::design(&layer.einsum);
                let space = Mapspace::all_temporal(&layer.einsum, &dp.arch);
                out.push(Experiment::search("SCNN@conv3", dp, layer, space));
            }
            // Eyeriss V2 PE: processing latency on a MobileNet layer
            {
                let layer = mobilenet_v1().layers[2].scaled_to(120_000);
                let dp = eyeriss_v2::design(&layer.einsum);
                let space = Mapspace::all_temporal(&layer.einsum, &dp.arch);
                out.push(Experiment::search("EyerissV2-PE@pw1", dp, layer, space));
            }
            // DSTC: normalized latency across densities
            for d in TABLE6_DSTC_DENSITIES {
                let l = spmspm(32, 32, 32, d, d);
                let dp = dstc::design(&l.einsum);
                let m = fig13_mapping(&l.einsum);
                out.push(Experiment::fixed(format!("DSTC@{d}"), dp, l, m));
            }
            // STC: deterministic 2x on 2:4 (sparse vs dense)
            {
                let (sparse, dense) = table6_stc_layers();
                let dp = stc::stc(&sparse.einsum);
                let m = stc::mapping(&sparse.einsum);
                out.push(Experiment::fixed("STC@2:4", dp.clone(), sparse, m.clone()));
                out.push(Experiment::fixed("STC@dense", dp, dense, m));
            }
            out
        },
    )
}

fn table7_scenario() -> Scenario {
    Scenario::new(
        "table7_eyeriss_rlc",
        "Table 7: Eyeriss DRAM RLC compression on AlexNet activations",
        || {
            // one experiment per conv layer whose output activations the
            // table compresses, with the published post-ReLU *output*
            // density bound into the layer — the table7 binary reads the
            // densities back from these experiments and compares actual
            // RLC encoding against eyeriss::dram_rlc_format()'s model
            alexnet()
                .layers
                .into_iter()
                .zip(sparseloop_workloads::dnn::alexnet_output_densities())
                .map(|(mut layer, (_, out_density))| {
                    let out = layer
                        .einsum
                        .tensors()
                        .iter()
                        .position(|t| t.kind == sparseloop_tensor::einsum::TensorKind::Output)
                        .expect("conv layer has an output");
                    layer.densities[out] = DensityModelSpec::Uniform {
                        density: out_density,
                    };
                    let layer = layer.scaled_to(100_000);
                    let dp = eyeriss::design(&layer.einsum);
                    let spatial_level = dp.arch.num_levels() - 1;
                    let space = conv_mapspace(&layer.einsum, &dp.arch, spatial_level);
                    Experiment::search(format!("Eyeriss@{}", layer.name), dp, layer, space)
                })
                .collect()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_nonempty() {
        let reg = ScenarioRegistry::standard();
        let names = reg.names();
        assert!(names.len() >= 20, "expected all paper experiments");
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate scenario names");
    }

    #[test]
    fn every_scenario_builds_experiments() {
        let reg = ScenarioRegistry::standard();
        for sc in reg.scenarios() {
            let exps = sc.experiments();
            assert!(!exps.is_empty(), "{} has no experiments", sc.name());
            // labels are unique within a scenario (binaries look rows up
            // by label)
            let mut labels: Vec<&str> = exps.iter().map(|e| e.label.as_str()).collect();
            labels.sort_unstable();
            let n = labels.len();
            labels.dedup();
            assert_eq!(labels.len(), n, "{} has duplicate labels", sc.name());
        }
    }

    #[test]
    fn lookup_by_name_works() {
        let reg = ScenarioRegistry::standard();
        assert!(reg.get("fig1_format_tradeoff").is_some());
        assert!(reg
            .get(&table5_name(Table5Design::Scnn, Table5Net::AlexNet))
            .is_some());
        assert!(reg.get("nope").is_none());
    }

    #[test]
    fn fig1_scenario_runs_and_reproduces_the_crossover() {
        let session = EvalSession::new();
        let out = ScenarioRegistry::standard()
            .expect("fig1_format_tradeoff")
            .run(&session, Some(2));
        assert!(out.results.iter().all(|r| r.is_ok()));
        // sparse regime: coordinate list wins EDP
        let bm = out.result("Bitmask@0.1").unwrap();
        let cl = out.result("CoordinateList@0.1").unwrap();
        assert!(cl.eval.edp < bm.eval.edp);
        // the session interned shared statistics across the sweep
        assert!(session.stats().format.hits > 0);
    }

    #[test]
    fn fig1_energy_crossover_shape_is_locked() {
        // The figure's claim is *relative*: CP more energy-efficient
        // when sparse, bitmask when dense, with one crossover between.
        // This pins the shape so arch tweaks (e.g. buffer sizing, whose
        // energy scales with sqrt(capacity)) cannot silently move it.
        let session = EvalSession::new();
        let out = ScenarioRegistry::standard()
            .expect("fig1_format_tradeoff")
            .run(&session, Some(2));
        let advantage = |d: f64| {
            let bm = out.result(&format!("Bitmask@{d}")).unwrap();
            let cl = out.result(&format!("CoordinateList@{d}")).unwrap();
            cl.eval.energy_pj / bm.eval.energy_pj
        };
        // CP wins energy at the sparse end, bitmask at the dense end
        assert!(advantage(0.05) < 1.0 && advantage(0.1) < 1.0);
        assert!(advantage(0.9) > 1.0 && advantage(1.0) > 1.0);
        // monotone advantage along the sweep -> exactly one crossover
        let ratios: Vec<f64> = FIG1_DENSITIES.iter().map(|&d| advantage(d)).collect();
        assert!(
            ratios.windows(2).all(|w| w[0] <= w[1] + 1e-9),
            "bitmask energy advantage must grow with density: {ratios:?}"
        );
        // bitmask never speeds up: CP cycles <= BM cycles everywhere
        for &d in &FIG1_DENSITIES {
            let bm = out.result(&format!("Bitmask@{d}")).unwrap();
            let cl = out.result(&format!("CoordinateList@{d}")).unwrap();
            assert!(cl.eval.cycles <= bm.eval.cycles + 1e-9);
        }
    }

    #[test]
    fn total_stats_counts_fruitless_searches() {
        // a search with no valid candidate still walked its stream; a
        // failed fixed mapping and a canceled job streamed nothing
        let walked = |generated, pruned, invalid| SearchStats {
            generated,
            pruned,
            evaluated: 0,
            invalid,
        };
        let outcome = ScenarioOutcome {
            name: "t".into(),
            experiments: Vec::new(),
            results: vec![
                Err(JobError::NoValidCandidate {
                    stats: walked(5, 2, 3),
                }),
                Err(JobError::NoValidCandidate {
                    stats: walked(4, 4, 0),
                }),
                Err(JobError::Canceled),
            ],
            wall_seconds: 1.0,
        };
        assert_eq!(outcome.total_stats(), walked(9, 6, 3));
        assert_eq!(outcome.mappings_per_sec(), 9.0);
    }

    #[test]
    fn fixed_policy_matches_direct_evaluation() {
        let session = EvalSession::new();
        let sc = ScenarioRegistry::standard();
        let out = sc.expect("fig13_dstc_validation").run(&session, None);
        for (exp, res) in out.succeeded() {
            let direct = exp
                .design
                .evaluate(&exp.layer, &res.mapping)
                .expect("fixed mapping evaluates");
            assert_eq!(direct.cycles, res.eval.cycles, "{}", exp.label);
            assert_eq!(direct.energy_pj, res.eval.energy_pj, "{}", exp.label);
        }
    }
}
