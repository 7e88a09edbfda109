//! Compiles parsed spec documents into runnable scenarios.
//!
//! The compiler walks the [`yaml`](crate::yaml) node tree and builds the
//! existing model types — [`Architecture`], [`Layer`], [`SafSpec`],
//! [`Mapping`]/[`Mapspace`], composed into [`DesignPoint`] /
//! [`Experiment`] / [`Scenario`] — validating as it goes. Every failure
//! is a [`SpecError`] carrying the offending line:column and a source
//! excerpt; nothing in here panics on malformed input.

use crate::error::SpecError;
use crate::yaml::{MapEntry, Node, Span, Value};
use sparseloop_arch::{Architecture, ComputeSpec, StorageLevel};
use sparseloop_core::{ActionOpt, Objective, SafSpec};
use sparseloop_designs::scenario::MappingPolicy;
use sparseloop_designs::{DesignPoint, Experiment, Scenario};
use sparseloop_format::{FormatLevel, RankFormat, TensorFormat};
use sparseloop_mapping::{Loop, Mapper, Mapping, Mapspace};
use sparseloop_tensor::einsum::{
    Dim, DimId, Einsum, ProjectionTerm, RankProjection, TensorKind, TensorSpec,
};
use sparseloop_workloads::Layer;
use std::collections::HashMap;

use sparseloop_density::DensityModelSpec;

/// A fully compiled spec document: the scenario identity plus its
/// materialized experiment list.
#[derive(Debug, Clone)]
pub struct CompiledScenario {
    /// Registry name.
    pub name: String,
    /// Human-readable title.
    pub title: String,
    /// The experiments, in document order.
    pub experiments: Vec<Experiment>,
}

impl CompiledScenario {
    /// Wraps the compiled experiments as a registry [`Scenario`] (the
    /// build closure clones the compiled list).
    pub fn into_scenario(self) -> Scenario {
        let CompiledScenario {
            name,
            title,
            experiments,
        } = self;
        Scenario::new(name, title, move || experiments.clone())
    }
}

/// Parses and compiles a spec document from text.
///
/// # Errors
/// Returns a positioned [`SpecError`] on the first parse or compile
/// problem.
pub fn compile_str(source: &str) -> Result<CompiledScenario, SpecError> {
    let doc = crate::yaml::parse_document(source).map_err(|e| SpecError::from_parse(e, source))?;
    Compiler { source }.compile(&doc)
}

struct Compiler<'a> {
    source: &'a str,
}

/// A design definition before its SAFs are bound to a concrete workload
/// (SAF tensor references are *names*; ids depend on the experiment's
/// einsum).
struct DesignDef {
    point_name: String,
    arch: Architecture,
    formats: Vec<(usize, Spanned<String>, TensorFormat)>,
    actions: Vec<ActionDef>,
    compute: Option<ActionOpt>,
}

/// One gating/skipping SAF with unresolved tensor names.
struct ActionDef {
    level: usize,
    action: ActionOpt,
    target: Spanned<String>,
    leaders: Vec<Spanned<String>>,
}

struct Spanned<T> {
    value: T,
    span: Span,
}

impl<'a> Compiler<'a> {
    fn err(&self, span: Span, message: impl Into<String>) -> SpecError {
        SpecError::new(span, message, self.source)
    }

    fn compile(&self, doc: &Node) -> Result<CompiledScenario, SpecError> {
        let root = self.map(doc, "document root")?;
        self.deny_unknown(
            root,
            &[
                "spec_version",
                "scenario",
                "designs",
                "workloads",
                "experiments",
            ],
        )?;
        if let Some(v) = self.get(root, "spec_version") {
            let version = self.u64_value(v)?;
            if version != 1 {
                return Err(self.err(
                    v.span,
                    format!("unsupported spec_version {version} (expected 1)"),
                ));
            }
        }
        let scenario = self.map(self.req(root, doc.span, "scenario")?, "scenario")?;
        self.deny_unknown(scenario, &["name", "title"])?;
        let name = self
            .str_value(self.req(scenario, doc.span, "name")?)?
            .to_string();
        let title = match self.get(scenario, "title") {
            Some(t) => self.str_value(t)?.to_string(),
            None => name.clone(),
        };

        let mut designs: HashMap<String, DesignDef> = HashMap::new();
        for node in self.seq(self.req(root, doc.span, "designs")?, "designs")? {
            let (key, def) = self.compile_design(node)?;
            if designs.insert(key.value.clone(), def).is_some() {
                return Err(self.err(key.span, format!("duplicate design name {:?}", key.value)));
            }
        }

        let mut workloads: HashMap<String, Layer> = HashMap::new();
        for node in self.seq(self.req(root, doc.span, "workloads")?, "workloads")? {
            let (key, layer) = self.compile_workload(node)?;
            if workloads.insert(key.value.clone(), layer).is_some() {
                return Err(self.err(key.span, format!("duplicate workload name {:?}", key.value)));
            }
        }

        let mut experiments = Vec::new();
        for node in self.seq(self.req(root, doc.span, "experiments")?, "experiments")? {
            experiments.push(self.compile_experiment(node, &designs, &workloads)?);
        }
        if experiments.is_empty() {
            return Err(self.err(doc.span, "spec defines no experiments"));
        }
        let mut labels: Vec<&str> = experiments.iter().map(|e| e.label.as_str()).collect();
        labels.sort_unstable();
        if let Some(w) = labels.windows(2).find(|w| w[0] == w[1]) {
            return Err(self.err(doc.span, format!("duplicate experiment label {:?}", w[0])));
        }
        Ok(CompiledScenario {
            name,
            title,
            experiments,
        })
    }

    // ---- designs ---------------------------------------------------------

    fn compile_design(&self, node: &Node) -> Result<(Spanned<String>, DesignDef), SpecError> {
        let m = self.map(node, "design")?;
        self.deny_unknown(
            m,
            &[
                "name",
                "design_name",
                "architecture",
                "sparse_optimizations",
            ],
        )?;
        let name_node = self.req(m, node.span, "name")?;
        let name = Spanned {
            value: self.str_value(name_node)?.to_string(),
            span: name_node.span,
        };
        let point_name = match self.get(m, "design_name") {
            Some(n) => self.str_value(n)?.to_string(),
            None => name.value.clone(),
        };
        let arch = self.compile_architecture(self.req(m, node.span, "architecture")?)?;
        let mut formats = Vec::new();
        let mut actions = Vec::new();
        let mut compute = None;
        if let Some(safs_node) = self.get(m, "sparse_optimizations") {
            let safs = self.map(safs_node, "sparse_optimizations")?;
            self.deny_unknown(safs, &["formats", "actions", "compute"])?;
            if let Some(fmts) = self.get(safs, "formats") {
                for f in self.seq(fmts, "formats")? {
                    let fm = self.map(f, "format entry")?;
                    self.deny_unknown(fm, &["level", "tensor", "format"])?;
                    let level = self.usize_value(self.req(fm, f.span, "level")?)?;
                    self.check_level(level, &arch, self.req(fm, f.span, "level")?.span)?;
                    let tensor_node = self.req(fm, f.span, "tensor")?;
                    let tensor = Spanned {
                        value: self.str_value(tensor_node)?.to_string(),
                        span: tensor_node.span,
                    };
                    let fmt_node = self.req(fm, f.span, "format")?;
                    let fmt = parse_tensor_format(self.str_value(fmt_node)?)
                        .map_err(|e| self.err(fmt_node.span, e))?;
                    formats.push((level, tensor, fmt));
                }
            }
            if let Some(acts) = self.get(safs, "actions") {
                for a in self.seq(acts, "actions")? {
                    let am = self.map(a, "action entry")?;
                    self.deny_unknown(am, &["level", "action", "target", "leaders"])?;
                    let level = self.usize_value(self.req(am, a.span, "level")?)?;
                    self.check_level(level, &arch, self.req(am, a.span, "level")?.span)?;
                    let action = self.action_value(self.req(am, a.span, "action")?)?;
                    let target_node = self.req(am, a.span, "target")?;
                    let target = Spanned {
                        value: self.str_value(target_node)?.to_string(),
                        span: target_node.span,
                    };
                    let mut leaders = Vec::new();
                    for l in self.seq(self.req(am, a.span, "leaders")?, "leaders")? {
                        leaders.push(Spanned {
                            value: self.str_value(l)?.to_string(),
                            span: l.span,
                        });
                    }
                    if leaders.is_empty() {
                        return Err(self.err(a.span, "an action needs at least one leader tensor"));
                    }
                    actions.push(ActionDef {
                        level,
                        action,
                        target,
                        leaders,
                    });
                }
            }
            if let Some(c) = self.get(safs, "compute") {
                compute = Some(self.action_value(c)?);
            }
        }
        Ok((
            name,
            DesignDef {
                point_name,
                arch,
                formats,
                actions,
                compute,
            },
        ))
    }

    fn check_level(&self, level: usize, arch: &Architecture, span: Span) -> Result<(), SpecError> {
        if level >= arch.num_levels() {
            return Err(self.err(
                span,
                format!(
                    "storage level {level} out of range (architecture {:?} has {} levels)",
                    arch.name,
                    arch.num_levels()
                ),
            ));
        }
        Ok(())
    }

    fn compile_architecture(&self, node: &Node) -> Result<Architecture, SpecError> {
        let m = self.map(node, "architecture")?;
        self.deny_unknown(m, &["name", "levels", "compute"])?;
        let name = self.str_value(self.req(m, node.span, "name")?)?.to_string();
        let mut levels = Vec::new();
        for l in self.seq(self.req(m, node.span, "levels")?, "levels")? {
            levels.push(self.compile_storage_level(l)?);
        }
        let compute_node = self.req(m, node.span, "compute")?;
        let cm = self.map(compute_node, "compute")?;
        self.deny_unknown(cm, &["name", "instances", "datawidth"])?;
        let mut compute = ComputeSpec::new(
            self.str_value(self.req(cm, compute_node.span, "name")?)?,
            match self.get(cm, "instances") {
                Some(v) => self.u64_value(v)?,
                None => 1,
            },
        );
        if let Some(v) = self.get(cm, "datawidth") {
            compute.datawidth = self.u32_value(v)?;
        }
        let arch = Architecture::new(name, levels, compute);
        arch.validate()
            .map_err(|e| self.err(node.span, format!("invalid architecture: {e}")))?;
        Ok(arch)
    }

    fn compile_storage_level(&self, node: &Node) -> Result<StorageLevel, SpecError> {
        let m = self.map(node, "storage level")?;
        self.deny_unknown(
            m,
            &[
                "name",
                "class",
                "capacity_words",
                "word_bits",
                "bandwidth",
                "instances",
                "metadata_capacity_bits",
            ],
        )?;
        let mut level = StorageLevel::new(self.str_value(self.req(m, node.span, "name")?)?);
        if let Some(c) = self.get(m, "class") {
            level.class = match self.str_value(c)? {
                "dram" => sparseloop_arch::ComponentClass::Dram,
                "sram" => sparseloop_arch::ComponentClass::Sram,
                "regfile" => sparseloop_arch::ComponentClass::RegFile,
                other => {
                    return Err(self.err(
                        c.span,
                        format!(
                            "unknown component class {other:?} (expected dram, sram or regfile)"
                        ),
                    ))
                }
            };
        }
        if let Some(v) = self.get(m, "capacity_words") {
            level.capacity_words = Some(self.u64_value(v)?);
        }
        if let Some(v) = self.get(m, "word_bits") {
            level.word_bits = self.u32_value(v)?;
        }
        if let Some(v) = self.get(m, "bandwidth") {
            level.bandwidth_words_per_cycle = Some(self.f64_value(v)?);
        }
        if let Some(v) = self.get(m, "instances") {
            level.instances = self.u64_value(v)?;
        }
        if let Some(v) = self.get(m, "metadata_capacity_bits") {
            level.metadata_capacity_bits = Some(self.u64_value(v)?);
        }
        Ok(level)
    }

    // ---- workloads -------------------------------------------------------

    fn compile_workload(&self, node: &Node) -> Result<(Spanned<String>, Layer), SpecError> {
        let m = self.map(node, "workload")?;
        self.deny_unknown(m, &["name", "layer", "einsum", "densities"])?;
        let name_node = self.req(m, node.span, "name")?;
        let name = Spanned {
            value: self.str_value(name_node)?.to_string(),
            span: name_node.span,
        };
        let layer_name = match self.get(m, "layer") {
            Some(n) => self.str_value(n)?.to_string(),
            None => name.value.clone(),
        };
        let einsum = self.compile_einsum(self.req(m, node.span, "einsum")?)?;
        let densities_node = self.req(m, node.span, "densities")?;
        let dm = self.map(densities_node, "densities")?;
        let mut densities: Vec<Option<DensityModelSpec>> = vec![None; einsum.tensors().len()];
        for entry in dm {
            let Some(tid) = einsum.tensor_id(&entry.key) else {
                return Err(self.err(
                    entry.key_span,
                    format!(
                        "density for unknown tensor {:?} (workload tensors: {})",
                        entry.key,
                        tensor_names(&einsum)
                    ),
                ));
            };
            if densities[tid.0].is_some() {
                return Err(self.err(
                    entry.key_span,
                    format!("duplicate density for tensor {:?}", entry.key),
                ));
            }
            densities[tid.0] = Some(self.compile_density(&entry.value, &einsum, tid.0)?);
        }
        let mut specs = Vec::with_capacity(densities.len());
        for (i, d) in densities.into_iter().enumerate() {
            match d {
                Some(spec) => specs.push(spec),
                None => {
                    return Err(self.err(
                        densities_node.span,
                        format!("missing density for tensor {:?}", einsum.tensors()[i].name),
                    ))
                }
            }
        }
        Ok((
            name,
            Layer {
                name: layer_name,
                einsum,
                densities: specs,
            },
        ))
    }

    fn compile_einsum(&self, node: &Node) -> Result<Einsum, SpecError> {
        let m = self.map(node, "einsum")?;
        self.deny_unknown(m, &["name", "dims", "tensors"])?;
        let name = self.str_value(self.req(m, node.span, "name")?)?.to_string();
        let dims_node = self.req(m, node.span, "dims")?;
        let dims_map = self.map(dims_node, "dims")?;
        let mut dims = Vec::new();
        let mut dim_ids: HashMap<&str, DimId> = HashMap::new();
        for entry in dims_map {
            let bound = self.u64_value(&entry.value)?;
            if bound == 0 {
                return Err(self.err(entry.value.span, "dimension bounds must be positive"));
            }
            if dim_ids
                .insert(entry.key.as_str(), DimId(dims.len()))
                .is_some()
            {
                return Err(self.err(
                    entry.key_span,
                    format!("duplicate dimension {:?}", entry.key),
                ));
            }
            dims.push(Dim {
                name: entry.key.clone(),
                bound,
            });
        }
        if dims.is_empty() {
            return Err(self.err(dims_node.span, "einsum needs at least one dimension"));
        }
        let mut tensors = Vec::new();
        let mut tensor_names_seen: Vec<String> = Vec::new();
        for t in self.seq(self.req(m, node.span, "tensors")?, "tensors")? {
            let tm = self.map(t, "tensor")?;
            self.deny_unknown(tm, &["name", "kind", "projection"])?;
            let tname_node = self.req(tm, t.span, "name")?;
            let tname = self.str_value(tname_node)?.to_string();
            if tensor_names_seen.contains(&tname) {
                return Err(self.err(tname_node.span, format!("duplicate tensor name {tname:?}")));
            }
            tensor_names_seen.push(tname.clone());
            let kind_node = self.req(tm, t.span, "kind")?;
            let kind = match self.str_value(kind_node)? {
                "input" => TensorKind::Input,
                "output" => TensorKind::Output,
                other => {
                    return Err(self.err(
                        kind_node.span,
                        format!("unknown tensor kind {other:?} (expected input or output)"),
                    ))
                }
            };
            let mut ranks = Vec::new();
            for r in self.seq(self.req(tm, t.span, "projection")?, "projection")? {
                let text = self.str_value(r)?;
                ranks.push(parse_projection(text, &dim_ids).map_err(|e| self.err(r.span, e))?);
            }
            tensors.push(TensorSpec {
                name: tname,
                kind,
                ranks,
            });
        }
        if tensors.is_empty() {
            return Err(self.err(node.span, "einsum needs at least one tensor"));
        }
        Ok(Einsum::new(name, dims, tensors))
    }

    fn compile_density(
        &self,
        node: &Node,
        einsum: &Einsum,
        tensor: usize,
    ) -> Result<DensityModelSpec, SpecError> {
        if let Value::Scalar(s) = &node.value {
            if s == "dense" {
                return Ok(DensityModelSpec::Dense);
            }
            return Err(self.err(
                node.span,
                format!("unknown density shorthand {s:?} (expected dense or a mapping)"),
            ));
        }
        let m = self.map(node, "density")?;
        let dist_node = self.req(m, node.span, "distribution")?;
        match self.str_value(dist_node)? {
            "dense" => {
                self.deny_unknown(m, &["distribution"])?;
                Ok(DensityModelSpec::Dense)
            }
            "uniform" => {
                self.deny_unknown(m, &["distribution", "density"])?;
                let d_node = self.req(m, node.span, "density")?;
                let density = self.f64_value(d_node)?;
                if !(0.0..=1.0).contains(&density) {
                    return Err(self.err(
                        d_node.span,
                        format!("density {density} out of range (must be within [0, 1])"),
                    ));
                }
                Ok(DensityModelSpec::Uniform { density })
            }
            "fixed_structured" => {
                self.deny_unknown(m, &["distribution", "n", "m", "axis"])?;
                let n = self.u64_value(self.req(m, node.span, "n")?)?;
                let block_node = self.req(m, node.span, "m")?;
                let block = self.u64_value(block_node)?;
                if n > block || block == 0 {
                    return Err(self.err(
                        block_node.span,
                        format!("invalid n:m structure {n}:{block} (need 0 < n <= m)"),
                    ));
                }
                let axis_node = self.req(m, node.span, "axis")?;
                let axis = self.usize_value(axis_node)?;
                let rank = einsum.tensors()[tensor].ranks.len().max(1);
                if axis >= rank {
                    return Err(self.err(
                        axis_node.span,
                        format!("axis {axis} out of range (tensor has {rank} ranks)"),
                    ));
                }
                Ok(DensityModelSpec::FixedStructured { n, m: block, axis })
            }
            "banded" => {
                self.deny_unknown(m, &["distribution", "half_width", "fill"])?;
                let rank = einsum.tensors()[tensor].ranks.len();
                if rank != 2 {
                    return Err(self.err(
                        node.span,
                        format!("banded density requires a matrix tensor (this one has {rank} ranks)"),
                    ));
                }
                let half_width = self.u64_value(self.req(m, node.span, "half_width")?)?;
                let fill_node = self.req(m, node.span, "fill")?;
                let fill = self.f64_value(fill_node)?;
                if !(0.0..=1.0).contains(&fill) {
                    return Err(self.err(
                        fill_node.span,
                        format!("fill {fill} out of range (must be within [0, 1])"),
                    ));
                }
                Ok(DensityModelSpec::Banded { half_width, fill })
            }
            other => Err(self.err(
                dist_node.span,
                format!(
                    "unknown distribution {other:?} (expected dense, uniform, fixed_structured or banded)"
                ),
            )),
        }
    }

    // ---- experiments -----------------------------------------------------

    fn compile_experiment(
        &self,
        node: &Node,
        designs: &HashMap<String, DesignDef>,
        workloads: &HashMap<String, Layer>,
    ) -> Result<Experiment, SpecError> {
        let m = self.map(node, "experiment")?;
        self.deny_unknown(
            m,
            &[
                "label", "design", "workload", "mapping", "search", "optional",
            ],
        )?;
        let label = self
            .str_value(self.req(m, node.span, "label")?)?
            .to_string();
        let design_node = self.req(m, node.span, "design")?;
        let design_name = self.str_value(design_node)?;
        let Some(def) = designs.get(design_name) else {
            return Err(self.err(
                design_node.span,
                format!("unknown design {design_name:?} (not in the designs section)"),
            ));
        };
        let workload_node = self.req(m, node.span, "workload")?;
        let workload_name = self.str_value(workload_node)?;
        let Some(layer) = workloads.get(workload_name) else {
            return Err(self.err(
                workload_node.span,
                format!("unknown workload {workload_name:?} (not in the workloads section)"),
            ));
        };
        let layer = layer.clone();
        let safs = self.bind_safs(def, &layer.einsum)?;
        let design = DesignPoint {
            name: def.point_name.clone(),
            arch: def.arch.clone(),
            safs,
        };
        let policy = match (self.get(m, "mapping"), self.get(m, "search")) {
            (Some(fixed), None) => {
                MappingPolicy::Fixed(self.compile_mapping(fixed, &layer.einsum, &def.arch)?)
            }
            (None, Some(search)) => self.compile_search(search, &layer.einsum, &def.arch)?,
            (Some(_), Some(_)) => {
                return Err(self.err(
                    node.span,
                    "experiment has both 'mapping' and 'search' (exactly one required)",
                ))
            }
            (None, None) => {
                return Err(self.err(
                    node.span,
                    "experiment needs a 'mapping' (fixed) or 'search' (mapper) section",
                ))
            }
        };
        let required = match self.get(m, "optional") {
            Some(v) => !self.bool_value(v)?,
            None => true,
        };
        Ok(Experiment {
            label,
            design,
            layer,
            policy,
            required,
        })
    }

    /// Resolves a design's SAF tensor names against a concrete einsum.
    fn bind_safs(&self, def: &DesignDef, einsum: &Einsum) -> Result<SafSpec, SpecError> {
        let resolve = |name: &Spanned<String>| {
            einsum.tensor_id(&name.value).ok_or_else(|| {
                self.err(
                    name.span,
                    format!(
                        "SAF references tensor {:?}, which the workload does not have (tensors: {})",
                        name.value,
                        tensor_names(einsum)
                    ),
                )
            })
        };
        let mut safs = SafSpec::dense();
        for (level, tensor, fmt) in &def.formats {
            safs = safs.with_format(*level, resolve(tensor)?, fmt.clone());
        }
        for a in &def.actions {
            let target = resolve(&a.target)?;
            let leaders = a
                .leaders
                .iter()
                .map(resolve)
                .collect::<Result<Vec<_>, _>>()?;
            safs = match a.action {
                ActionOpt::Gate => safs.with_gate(a.level, target, leaders),
                ActionOpt::Skip => safs.with_skip(a.level, target, leaders),
            };
        }
        match def.compute {
            Some(ActionOpt::Gate) => safs = safs.with_gate_compute(),
            Some(ActionOpt::Skip) => safs = safs.with_skip_compute(),
            None => {}
        }
        Ok(safs)
    }

    fn compile_mapping(
        &self,
        node: &Node,
        einsum: &Einsum,
        arch: &Architecture,
    ) -> Result<Mapping, SpecError> {
        let m = self.map(node, "mapping")?;
        self.deny_unknown(m, &["nests", "bypass"])?;
        let nests_node = self.req(m, node.span, "nests")?;
        let nest_nodes = self.seq(nests_node, "nests")?;
        if nest_nodes.len() != arch.num_levels() {
            return Err(self.err(
                nests_node.span,
                format!(
                    "mapping has {} level nests but the architecture has {} storage levels",
                    nest_nodes.len(),
                    arch.num_levels()
                ),
            ));
        }
        let mut nests = Vec::with_capacity(nest_nodes.len());
        for level in nest_nodes {
            let mut loops = Vec::new();
            for l in self.seq(level, "loop nest")? {
                let text = self.str_value(l)?;
                loops.push(parse_loop(text, einsum).map_err(|e| self.err(l.span, e))?);
            }
            nests.push(loops);
        }
        let mut keep = vec![vec![true; einsum.tensors().len()]; arch.num_levels()];
        if let Some(bypass) = self.get(m, "bypass") {
            for (level, tensor) in self.compile_bypass(bypass, einsum, arch)? {
                keep[level][tensor] = false;
            }
        }
        let mapping = Mapping::new(nests, keep);
        mapping
            .validate(einsum, arch)
            .map_err(|e| self.err(node.span, format!("invalid mapping: {e}")))?;
        Ok(mapping)
    }

    fn compile_bypass(
        &self,
        node: &Node,
        einsum: &Einsum,
        arch: &Architecture,
    ) -> Result<Vec<(usize, usize)>, SpecError> {
        let mut out = Vec::new();
        for b in self.seq(node, "bypass")? {
            let bm = self.map(b, "bypass entry")?;
            self.deny_unknown(bm, &["level", "tensor"])?;
            let level_node = self.req(bm, b.span, "level")?;
            let level = self.usize_value(level_node)?;
            self.check_level(level, arch, level_node.span)?;
            let tensor_node = self.req(bm, b.span, "tensor")?;
            let tname = self.str_value(tensor_node)?;
            let Some(tid) = einsum.tensor_id(tname) else {
                return Err(self.err(
                    tensor_node.span,
                    format!(
                        "bypass references unknown tensor {tname:?} (tensors: {})",
                        tensor_names(einsum)
                    ),
                ));
            };
            out.push((level, tid.0));
        }
        Ok(out)
    }

    fn compile_search(
        &self,
        node: &Node,
        einsum: &Einsum,
        arch: &Architecture,
    ) -> Result<MappingPolicy, SpecError> {
        let m = self.map(node, "search")?;
        self.deny_unknown(m, &["objective", "mapper", "mapspace"])?;
        let objective = match self.get(m, "objective") {
            Some(o) => match self.str_value(o)? {
                "edp" => Objective::Edp,
                "latency" => Objective::Latency,
                "energy" => Objective::Energy,
                other => {
                    return Err(self.err(
                        o.span,
                        format!("unknown objective {other:?} (expected edp, latency or energy)"),
                    ))
                }
            },
            None => Objective::Edp,
        };
        let mapper = self.compile_mapper(self.req(m, node.span, "mapper")?)?;
        let space = self.compile_mapspace(self.req(m, node.span, "mapspace")?, einsum, arch)?;
        Ok(MappingPolicy::Search {
            space,
            mapper,
            objective,
        })
    }

    fn compile_mapper(&self, node: &Node) -> Result<Mapper, SpecError> {
        let m = self.map(node, "mapper")?;
        let strategy_node = self.req(m, node.span, "strategy")?;
        match self.str_value(strategy_node)? {
            "exhaustive" => {
                self.deny_unknown(m, &["strategy", "limit"])?;
                Ok(Mapper::Exhaustive {
                    limit: self.usize_value(self.req(m, node.span, "limit")?)?,
                })
            }
            "random" => {
                self.deny_unknown(m, &["strategy", "samples", "seed"])?;
                Ok(Mapper::Random {
                    samples: self.usize_value(self.req(m, node.span, "samples")?)?,
                    seed: self.u64_value(self.req(m, node.span, "seed")?)?,
                })
            }
            "hybrid" => {
                self.deny_unknown(m, &["strategy", "enumerate", "samples", "seed"])?;
                Ok(Mapper::Hybrid {
                    enumerate: self.usize_value(self.req(m, node.span, "enumerate")?)?,
                    samples: self.usize_value(self.req(m, node.span, "samples")?)?,
                    seed: self.u64_value(self.req(m, node.span, "seed")?)?,
                })
            }
            other => Err(self.err(
                strategy_node.span,
                format!(
                    "unknown mapper strategy {other:?} (expected exhaustive, random or hybrid)"
                ),
            )),
        }
    }

    fn compile_mapspace(
        &self,
        node: &Node,
        einsum: &Einsum,
        arch: &Architecture,
    ) -> Result<Mapspace, SpecError> {
        let m = self.map(node, "mapspace")?;
        self.deny_unknown(m, &["temporal_order", "spatial_dims", "bypass"])?;
        let mut space = Mapspace::all_temporal(einsum, arch);
        let dim_list = |node: &Node| -> Result<Vec<DimId>, SpecError> {
            let mut dims = Vec::new();
            for d in self.seq(node, "dimension list")? {
                let name = self.str_value(d)?;
                let Some(id) = einsum.dim_id(name) else {
                    return Err(self.err(
                        d.span,
                        format!("unknown dimension {name:?} (dims: {})", dim_names(einsum)),
                    ));
                };
                if dims.contains(&id) {
                    // a level's loops of one kind are a permutation
                    return Err(self.err(
                        d.span,
                        format!("dimension {name:?} listed twice on one level"),
                    ));
                }
                dims.push(id);
            }
            Ok(dims)
        };
        let per_level = |key: &str| -> Result<Option<Vec<Vec<DimId>>>, SpecError> {
            let Some(list_node) = self.get(m, key) else {
                return Ok(None);
            };
            let levels = self.seq(list_node, key)?;
            if levels.len() != arch.num_levels() {
                return Err(self.err(
                    list_node.span,
                    format!(
                        "{key} has {} levels but the architecture has {}",
                        levels.len(),
                        arch.num_levels()
                    ),
                ));
            }
            levels
                .iter()
                .map(&dim_list)
                .collect::<Result<Vec<_>, _>>()
                .map(Some)
        };
        if let Some(orders) = per_level("temporal_order")? {
            for (l, dims) in orders.into_iter().enumerate() {
                space = space.with_temporal_order(l, dims);
            }
        }
        if let Some(spatials) = per_level("spatial_dims")? {
            for (l, dims) in spatials.into_iter().enumerate() {
                space = space.with_spatial_dims(l, dims);
            }
        }
        if let Some(bypass) = self.get(m, "bypass") {
            for (level, tensor) in self.compile_bypass(bypass, einsum, arch)? {
                space = space.with_bypass(level, sparseloop_tensor::einsum::TensorId(tensor));
            }
        }
        Ok(space)
    }

    // ---- node access helpers ---------------------------------------------

    fn map<'n>(&self, node: &'n Node, what: &str) -> Result<&'n [MapEntry], SpecError> {
        match &node.value {
            Value::Map(entries) => Ok(entries),
            other => Err(self.err(
                node.span,
                format!("expected {what} to be a mapping, found {}", other.kind()),
            )),
        }
    }

    fn seq<'n>(&self, node: &'n Node, what: &str) -> Result<&'n [Node], SpecError> {
        match &node.value {
            Value::Seq(items) => Ok(items),
            other => Err(self.err(
                node.span,
                format!("expected {what} to be a sequence, found {}", other.kind()),
            )),
        }
    }

    fn get<'n>(&self, entries: &'n [MapEntry], key: &str) -> Option<&'n Node> {
        entries.iter().find(|e| e.key == key).map(|e| &e.value)
    }

    fn req<'n>(
        &self,
        entries: &'n [MapEntry],
        span: Span,
        key: &str,
    ) -> Result<&'n Node, SpecError> {
        self.get(entries, key)
            .ok_or_else(|| self.err(span, format!("missing required key {key:?}")))
    }

    fn deny_unknown(&self, entries: &[MapEntry], allowed: &[&str]) -> Result<(), SpecError> {
        for e in entries {
            if !allowed.contains(&e.key.as_str()) {
                return Err(self.err(
                    e.key_span,
                    format!(
                        "unknown key {:?} (expected one of: {})",
                        e.key,
                        allowed.join(", ")
                    ),
                ));
            }
        }
        Ok(())
    }

    fn str_value<'n>(&self, node: &'n Node) -> Result<&'n str, SpecError> {
        match &node.value {
            Value::Scalar(s) => Ok(s),
            other => Err(self.err(
                node.span,
                format!("expected a string, found {}", other.kind()),
            )),
        }
    }

    fn u64_value(&self, node: &Node) -> Result<u64, SpecError> {
        let s = self.str_value(node)?;
        s.parse::<u64>().map_err(|_| {
            self.err(
                node.span,
                format!("expected a non-negative integer, found {s:?}"),
            )
        })
    }

    fn usize_value(&self, node: &Node) -> Result<usize, SpecError> {
        Ok(self.u64_value(node)? as usize)
    }

    fn u32_value(&self, node: &Node) -> Result<u32, SpecError> {
        let v = self.u64_value(node)?;
        u32::try_from(v)
            .map_err(|_| self.err(node.span, format!("value {v} does not fit in 32 bits")))
    }

    fn f64_value(&self, node: &Node) -> Result<f64, SpecError> {
        let s = self.str_value(node)?;
        let v = s
            .parse::<f64>()
            .map_err(|_| self.err(node.span, format!("expected a number, found {s:?}")))?;
        if !v.is_finite() {
            return Err(self.err(node.span, format!("expected a finite number, found {s:?}")));
        }
        Ok(v)
    }

    fn bool_value(&self, node: &Node) -> Result<bool, SpecError> {
        match self.str_value(node)? {
            "true" => Ok(true),
            "false" => Ok(false),
            other => Err(self.err(
                node.span,
                format!("expected true or false, found {other:?}"),
            )),
        }
    }

    fn action_value(&self, node: &Node) -> Result<ActionOpt, SpecError> {
        match self.str_value(node)? {
            "gate" => Ok(ActionOpt::Gate),
            "skip" => Ok(ActionOpt::Skip),
            other => Err(self.err(
                node.span,
                format!("unknown action {other:?} (expected gate or skip)"),
            )),
        }
    }
}

fn tensor_names(einsum: &Einsum) -> String {
    einsum
        .tensors()
        .iter()
        .map(|t| t.name.as_str())
        .collect::<Vec<_>>()
        .join(", ")
}

fn dim_names(einsum: &Einsum) -> String {
    einsum
        .dims()
        .iter()
        .map(|d| d.name.as_str())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Parses the loop DSL: `for <dim> in <bound>` /
/// `parallel-for <dim> in <bound>`.
fn parse_loop(text: &str, einsum: &Einsum) -> Result<Loop, String> {
    let tokens: Vec<&str> = text.split_whitespace().collect();
    let (spatial, rest) = match tokens.as_slice() {
        ["for", rest @ ..] => (false, rest),
        ["parallel-for", rest @ ..] => (true, rest),
        _ => {
            return Err(format!(
                "expected 'for <dim> in <bound>' or 'parallel-for <dim> in <bound>', found {text:?}"
            ))
        }
    };
    let [dim_name, "in", bound_text] = rest else {
        return Err(format!(
            "expected '<dim> in <bound>' after the loop keyword, found {text:?}"
        ));
    };
    let dim = einsum.dim_id(dim_name).ok_or_else(|| {
        format!(
            "unknown dimension {dim_name:?} (dims: {})",
            dim_names(einsum)
        )
    })?;
    let bound: u64 = bound_text
        .parse()
        .map_err(|_| format!("loop bound {bound_text:?} is not an integer"))?;
    if bound == 0 {
        return Err("loop bounds must be positive".to_string());
    }
    Ok(if spatial {
        Loop::spatial(dim, bound)
    } else {
        Loop::temporal(dim, bound)
    })
}

/// Parses a projection rank: terms of `dim` or `coef*dim` joined by `+`
/// (e.g. `m`, `4*p + r`).
fn parse_projection(text: &str, dims: &HashMap<&str, DimId>) -> Result<RankProjection, String> {
    let mut terms = Vec::new();
    for raw in text.split('+') {
        let term = raw.trim();
        if term.is_empty() {
            return Err(format!("empty projection term in {text:?}"));
        }
        let (coef, dim_name) = match term.split_once('*') {
            Some((c, d)) => {
                let coef: u64 = c
                    .trim()
                    .parse()
                    .map_err(|_| format!("stride {:?} is not an integer", c.trim()))?;
                (coef, d.trim())
            }
            None => (1, term),
        };
        if coef == 0 {
            return Err(format!("stride must be positive in {text:?}"));
        }
        let Some(&dim) = dims.get(dim_name) else {
            return Err(format!(
                "unknown dimension {dim_name:?} in projection {text:?}"
            ));
        };
        terms.push(ProjectionTerm { dim, coef });
    }
    Ok(RankProjection { terms })
}

/// Parses the format DSL: per-level `U | B | CP | RLE | UOP`, an optional
/// explicit bit width `(bits)`, and an optional flattening `^ranks`,
/// joined by `-` (e.g. `UOP-CP`, `CP^2`, `B-RLE(5)`).
pub(crate) fn parse_tensor_format(text: &str) -> Result<TensorFormat, String> {
    let mut levels = Vec::new();
    for part in text.split('-') {
        let part = part.trim();
        if part.is_empty() {
            return Err(format!("empty format level in {text:?}"));
        }
        let (head, flattened) = match part.split_once('^') {
            Some((h, r)) => {
                let ranks: usize = r
                    .parse()
                    .map_err(|_| format!("flattening {r:?} is not an integer"))?;
                if ranks == 0 {
                    return Err("flattening must cover at least one rank".to_string());
                }
                (h, ranks)
            }
            None => (part, 1),
        };
        let (name, bits) = match head.split_once('(') {
            Some((n, rest)) => {
                let Some(bits_text) = rest.strip_suffix(')') else {
                    return Err(format!("unclosed bit width in {head:?}"));
                };
                let bits: u32 = bits_text
                    .parse()
                    .map_err(|_| format!("bit width {bits_text:?} is not an integer"))?;
                (n, Some(bits))
            }
            None => (head, None),
        };
        let format = match (name, bits) {
            ("U", None) => RankFormat::Uncompressed,
            ("B", None) => RankFormat::Bitmask,
            ("CP", bits) => RankFormat::CoordinatePayload { coord_bits: bits },
            ("RLE", bits) => RankFormat::RunLength { run_bits: bits },
            ("UOP", bits) => RankFormat::OffsetPairs { offset_bits: bits },
            ("U" | "B", Some(_)) => {
                return Err(format!("{name} takes no explicit bit width"));
            }
            _ => {
                return Err(format!(
                    "unknown rank format {name:?} (expected U, B, CP, RLE or UOP)"
                ))
            }
        };
        levels.push(FormatLevel {
            format,
            flattened_ranks: flattened,
        });
    }
    if levels.is_empty() {
        return Err("format needs at least one level".to_string());
    }
    Ok(TensorFormat::new(levels))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI: &str = r#"
scenario:
  name: mini
  title: "A tiny spec"
designs:
  - name: demo
    architecture:
      name: demo-arch
      levels:
        - {name: DRAM, class: dram}
        - {name: Buf, capacity_words: 2048, instances: 1}
      compute: {name: MAC, instances: 4}
    sparse_optimizations:
      formats:
        - {level: 0, tensor: A, format: CP^2}
      actions:
        - {level: 1, action: skip, target: A, leaders: [B]}
      compute: gate
workloads:
  - name: tiny
    einsum:
      name: matmul
      dims: {m: 4, n: 4, k: 8}
      tensors:
        - {name: A, kind: input, projection: [m, k]}
        - {name: B, kind: input, projection: [k, n]}
        - {name: Z, kind: output, projection: [m, n]}
    densities:
      A: {distribution: uniform, density: 0.5}
      B: dense
      Z: dense
experiments:
  - label: "demo@tiny"
    design: demo
    workload: tiny
    mapping:
      nests:
        - [for m in 4, for n in 2]
        - [parallel-for n in 2, for k in 8]
  - label: "demo@tiny-search"
    design: demo
    workload: tiny
    search:
      objective: edp
      mapper: {strategy: hybrid, enumerate: 16, samples: 4, seed: 7}
      mapspace:
        temporal_order:
          - [m, n, k]
          - [m, n, k]
        spatial_dims:
          - []
          - [n]
"#;

    #[test]
    fn mini_spec_compiles() {
        let c = compile_str(MINI).unwrap();
        assert_eq!(c.name, "mini");
        assert_eq!(c.experiments.len(), 2);
        let e = &c.experiments[0];
        assert_eq!(e.design.arch.num_levels(), 2);
        assert_eq!(e.layer.einsum.num_computes(), 4 * 4 * 8);
        assert!(e.design.safs.has_skipping());
        assert!(matches!(e.policy, MappingPolicy::Fixed(_)));
        assert!(matches!(
            c.experiments[1].policy,
            MappingPolicy::Search { .. }
        ));
    }

    #[test]
    fn mini_spec_runs() {
        let session = sparseloop_core::EvalSession::new();
        let out = compile_str(MINI)
            .unwrap()
            .into_scenario()
            .run(&session, None);
        assert!(out.results.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn unknown_key_is_positioned() {
        let bad = MINI.replace("compute: gate", "compuet: gate");
        let e = compile_str(&bad).unwrap_err();
        assert!(e.message.contains("unknown key \"compuet\""), "{e}");
        assert!(e.context.contains("compuet"), "{e}");
    }

    #[test]
    fn out_of_range_density_is_rejected() {
        let bad = MINI.replace("density: 0.5", "density: 1.5");
        let e = compile_str(&bad).unwrap_err();
        assert!(e.message.contains("out of range"), "{e}");
        assert!(e.context.contains("1.5"), "{e}");
    }

    #[test]
    fn wrong_type_is_rejected() {
        let bad = MINI.replace("instances: 4}", "instances: lots}");
        let e = compile_str(&bad).unwrap_err();
        assert!(e.message.contains("integer"), "{e}");
    }

    #[test]
    fn bad_indent_is_rejected() {
        let bad = MINI.replace("      name: matmul", "       name: matmul");
        let e = compile_str(&bad).unwrap_err();
        assert!(e.message.contains("indent"), "{e}");
    }

    #[test]
    fn unknown_tensor_in_saf_is_rejected() {
        let bad = MINI.replace("target: A", "target: Q");
        let e = compile_str(&bad).unwrap_err();
        assert!(e.message.contains("\"Q\""), "{e}");
        assert!(e.message.contains("tensors: A, B, Z"), "{e}");
    }

    #[test]
    fn invalid_mapping_is_rejected() {
        let bad = MINI.replace("for k in 8]", "for k in 4]");
        let e = compile_str(&bad).unwrap_err();
        assert!(e.message.contains("invalid mapping"), "{e}");
    }

    #[test]
    fn dimension_listed_twice_on_a_level_is_positioned() {
        // Buf's temporal_order row, then its spatial_dims row
        for (from, to) in [
            (
                "- [m, n, k]\n        spatial",
                "- [m, n, m]\n        spatial",
            ),
            ("- [n]\n", "- [n, m, m]\n"),
        ] {
            let bad = MINI.replacen(from, to, 1);
            assert_ne!(bad, MINI, "{from}");
            // the offending entry: the row's second `m`
            let at = bad.find(to).unwrap() + to.find("m]").unwrap();
            let line = bad[..at].matches('\n').count() + 1;
            let col = at - bad[..at].rfind('\n').unwrap();
            let e = compile_str(&bad).unwrap_err();
            assert!(e.message.contains("listed twice"), "{e}");
            assert_eq!((e.span.line, e.span.col), (line, col), "{e}");
        }
    }

    #[test]
    fn format_dsl_round_trips() {
        for (text, display) in [
            ("UOP-CP", "UOP-CP"),
            ("CP^2", "CP^2"),
            ("B-RLE", "B-RLE"),
            ("U-U", "U-U"),
            ("CP(2)", "CP"),
            ("RLE(5)", "RLE"),
        ] {
            let f = parse_tensor_format(text).unwrap();
            assert_eq!(f.to_string(), display, "{text}");
        }
        assert_eq!(
            parse_tensor_format("CP(2)").unwrap().levels()[0].format,
            RankFormat::CoordinatePayload {
                coord_bits: Some(2)
            }
        );
        assert!(parse_tensor_format("XY").is_err());
        assert!(parse_tensor_format("B(3)").is_err());
    }

    #[test]
    fn projection_dsl() {
        let mut dims = HashMap::new();
        dims.insert("p", DimId(0));
        dims.insert("r", DimId(1));
        let pr = parse_projection("4*p + r", &dims).unwrap();
        assert_eq!(pr.terms.len(), 2);
        assert_eq!(pr.terms[0].coef, 4);
        assert_eq!(pr.terms[1].dim, DimId(1));
        assert!(parse_projection("q", &dims).is_err());
        assert!(parse_projection("0*p", &dims).is_err());
    }
}
