//! Serializes scenarios back into spec documents.
//!
//! [`emit_scenario`] is the inverse of
//! [`compile_str`](crate::compile_str): the emitted text parses and
//! compiles back into a scenario whose [`ScenarioOutcome`] is
//! bit-identical to the original's (the `spec_roundtrip` tests and the
//! smoke binaries hold this for every registered scenario). Identical
//! designs and workloads are interned into the document's `designs:` /
//! `workloads:` sections once and referenced by name, so a sweep over
//! one design does not repeat its architecture per experiment.
//!
//! [`ScenarioOutcome`]: sparseloop_designs::ScenarioOutcome

use sparseloop_arch::{Architecture, ComponentClass, StorageLevel};
use sparseloop_core::{ActionOpt, Objective, SafSpec};
use sparseloop_designs::scenario::MappingPolicy;
use sparseloop_designs::{Experiment, Scenario};
use sparseloop_format::{RankFormat, TensorFormat};
use sparseloop_mapping::{LoopKind, Mapper, Mapping, Mapspace};
use sparseloop_tensor::einsum::{Einsum, TensorKind};
use sparseloop_workloads::Layer;
use std::collections::HashMap;
use std::fmt::Write;

/// Emits a scenario (materializing its experiments) as a spec document.
pub fn emit_scenario(scenario: &Scenario) -> String {
    emit_experiments(scenario.name(), scenario.title(), &scenario.experiments())
}

/// Emits an experiment list under a scenario name/title as a spec
/// document.
pub fn emit_experiments(name: &str, title: &str, experiments: &[Experiment]) -> String {
    let mut designs = Interner::new();
    let mut workloads = Interner::new();
    let mut rows = Vec::with_capacity(experiments.len());
    for exp in experiments {
        let design_ref = designs.intern(
            &exp.design.name,
            design_body(&exp.design.arch, &exp.design.safs, &exp.layer.einsum),
        );
        let workload_ref = workloads.intern(&exp.layer.name, workload_body(&exp.layer));
        rows.push((design_ref, workload_ref));
    }

    let mut out = String::new();
    out.push_str("# Sparseloop scenario spec (generated by `sparseloop emit`)\n");
    out.push_str("spec_version: 1\n");
    out.push_str("scenario:\n");
    let _ = writeln!(out, "  name: {}", scalar(name));
    let _ = writeln!(out, "  title: {}", scalar(title));
    out.push_str("designs:\n");
    for (entry_name, base_name, body) in designs.entries() {
        let _ = writeln!(out, "  - name: {}", scalar(entry_name));
        if entry_name != base_name {
            let _ = writeln!(out, "    design_name: {}", scalar(base_name));
        }
        out.push_str(body);
    }
    out.push_str("workloads:\n");
    for (entry_name, base_name, body) in workloads.entries() {
        let _ = writeln!(out, "  - name: {}", scalar(entry_name));
        if entry_name != base_name {
            let _ = writeln!(out, "    layer: {}", scalar(base_name));
        }
        out.push_str(body);
    }
    out.push_str("experiments:\n");
    for (exp, (design_ref, workload_ref)) in experiments.iter().zip(&rows) {
        let _ = writeln!(out, "  - label: {}", scalar(&exp.label));
        let _ = writeln!(out, "    design: {}", scalar(design_ref));
        let _ = writeln!(out, "    workload: {}", scalar(workload_ref));
        match &exp.policy {
            MappingPolicy::Fixed(mapping) => {
                out.push_str("    mapping:\n");
                emit_mapping(&mut out, mapping, &exp.layer.einsum, "      ");
            }
            MappingPolicy::Search {
                space,
                mapper,
                objective,
            } => {
                out.push_str("    search:\n");
                let _ = writeln!(out, "      objective: {}", objective_name(*objective));
                let _ = writeln!(out, "      mapper: {}", mapper_flow(mapper));
                out.push_str("      mapspace:\n");
                emit_mapspace(&mut out, space, &exp.layer.einsum, "        ");
            }
        }
        if !exp.required {
            out.push_str("    optional: true\n");
        }
    }
    out
}

/// Content-addressed name interning for the designs/workloads sections.
struct Interner {
    /// `(entry name, base name, body)` in first-use order.
    entries: Vec<(String, String, String)>,
    /// body + base name -> index into `entries`.
    by_content: HashMap<String, usize>,
}

impl Interner {
    fn new() -> Self {
        Interner {
            entries: Vec::new(),
            by_content: HashMap::new(),
        }
    }

    /// Returns the entry name for this body, creating a numbered variant
    /// of `base` when an entry with the same name has different content.
    fn intern(&mut self, base: &str, body: String) -> String {
        let content_key = format!("{base}\u{0}{body}");
        if let Some(&i) = self.by_content.get(&content_key) {
            return self.entries[i].0.clone();
        }
        let mut name = base.to_string();
        let mut n = 1usize;
        while self.entries.iter().any(|(e, _, _)| *e == name) {
            n += 1;
            name = format!("{base}-{n}");
        }
        self.by_content.insert(content_key, self.entries.len());
        self.entries.push((name.clone(), base.to_string(), body));
        name
    }

    fn entries(&self) -> impl Iterator<Item = (&str, &str, &str)> {
        self.entries
            .iter()
            .map(|(name, base, body)| (name.as_str(), base.as_str(), body.as_str()))
    }
}

/// A design entry's body (everything but its `name:`/`design_name:`
/// lines), at the designs-section item indent.
fn design_body(arch: &Architecture, safs: &SafSpec, einsum: &Einsum) -> String {
    let mut out = String::new();
    out.push_str("    architecture:\n");
    let _ = writeln!(out, "      name: {}", scalar(&arch.name));
    out.push_str("      levels:\n");
    for level in arch.levels() {
        let _ = writeln!(out, "        - {}", level_flow(level));
    }
    let compute = arch.compute();
    // the compiler fills omitted fields from ComputeSpec::new — derive
    // the omission threshold from the same constructor, not a literal
    let compute_defaults = sparseloop_arch::ComputeSpec::new("", 1);
    let mut fields = vec![format!("name: {}", scalar(&compute.name))];
    if compute.instances != 1 {
        fields.push(format!("instances: {}", compute.instances));
    }
    if compute.datawidth != compute_defaults.datawidth {
        fields.push(format!("datawidth: {}", compute.datawidth));
    }
    let _ = writeln!(out, "      compute: {{{}}}", fields.join(", "));
    if !safs.formats.is_empty() || !safs.intersections.is_empty() || safs.compute.is_some() {
        out.push_str("    sparse_optimizations:\n");
        if !safs.formats.is_empty() {
            out.push_str("      formats:\n");
            for f in &safs.formats {
                let _ = writeln!(
                    out,
                    "        - {{level: {}, tensor: {}, format: {}}}",
                    f.level,
                    scalar(&einsum.tensor(f.tensor).name),
                    format_dsl(&f.format)
                );
            }
        }
        if !safs.intersections.is_empty() {
            out.push_str("      actions:\n");
            for s in &safs.intersections {
                let leaders: Vec<String> = s
                    .leaders
                    .iter()
                    .map(|&t| scalar(&einsum.tensor(t).name))
                    .collect();
                let _ = writeln!(
                    out,
                    "        - {{level: {}, action: {}, target: {}, leaders: [{}]}}",
                    s.level,
                    action_name(s.action),
                    scalar(&einsum.tensor(s.target).name),
                    leaders.join(", ")
                );
            }
        }
        if let Some(c) = &safs.compute {
            let _ = writeln!(out, "      compute: {}", action_name(c.action));
        }
    }
    out
}

/// A storage level as a flow mapping, defaults omitted. The compiler
/// starts from `StorageLevel::new` and overwrites present fields, so
/// "default" here is defined by that same constructor — a changed arch
/// default can never silently diverge emit from compile.
fn level_flow(level: &StorageLevel) -> String {
    let defaults = StorageLevel::new("");
    let mut fields = vec![format!("name: {}", scalar(&level.name))];
    match level.class {
        ComponentClass::Sram => {}
        ComponentClass::Dram => fields.push("class: dram".to_string()),
        ComponentClass::RegFile => fields.push("class: regfile".to_string()),
    }
    if let Some(c) = level.capacity_words {
        fields.push(format!("capacity_words: {c}"));
    }
    if level.word_bits != defaults.word_bits {
        fields.push(format!("word_bits: {}", level.word_bits));
    }
    if let Some(b) = level.bandwidth_words_per_cycle {
        fields.push(format!("bandwidth: {}", float(b)));
    }
    if level.instances != defaults.instances {
        fields.push(format!("instances: {}", level.instances));
    }
    if let Some(m) = level.metadata_capacity_bits {
        fields.push(format!("metadata_capacity_bits: {m}"));
    }
    format!("{{{}}}", fields.join(", "))
}

/// A workload entry's body (everything but its `name:`/`layer:` lines).
fn workload_body(layer: &Layer) -> String {
    let mut out = String::new();
    let einsum = &layer.einsum;
    out.push_str("    einsum:\n");
    let _ = writeln!(out, "      name: {}", scalar(einsum.name()));
    let dims: Vec<String> = einsum
        .dims()
        .iter()
        .map(|d| format!("{}: {}", scalar(&d.name), d.bound))
        .collect();
    let _ = writeln!(out, "      dims: {{{}}}", dims.join(", "));
    out.push_str("      tensors:\n");
    for t in einsum.tensors() {
        let kind = match t.kind {
            TensorKind::Input => "input",
            TensorKind::Output => "output",
        };
        let ranks: Vec<String> = t.ranks.iter().map(|r| projection_dsl(r, einsum)).collect();
        let _ = writeln!(
            out,
            "        - {{name: {}, kind: {kind}, projection: [{}]}}",
            scalar(&t.name),
            ranks.join(", ")
        );
    }
    out.push_str("    densities:\n");
    for (t, spec) in einsum.tensors().iter().zip(&layer.densities) {
        let _ = writeln!(out, "      {}: {}", scalar(&t.name), density_flow(spec));
    }
    out
}

fn density_flow(spec: &sparseloop_density::DensityModelSpec) -> String {
    use sparseloop_density::DensityModelSpec as D;
    match spec {
        D::Dense => "dense".to_string(),
        D::Uniform { density } => {
            format!("{{distribution: uniform, density: {}}}", float(*density))
        }
        D::FixedStructured { n, m, axis } => {
            format!("{{distribution: fixed_structured, n: {n}, m: {m}, axis: {axis}}}")
        }
        D::Banded { half_width, fill } => format!(
            "{{distribution: banded, half_width: {half_width}, fill: {}}}",
            float(*fill)
        ),
    }
}

fn emit_mapping(out: &mut String, mapping: &Mapping, einsum: &Einsum, indent: &str) {
    let _ = writeln!(out, "{indent}nests:");
    for nest in mapping.nests() {
        let loops: Vec<String> = nest.iter().map(|l| loop_dsl(l, einsum)).collect();
        let _ = writeln!(out, "{indent}  - [{}]", loops.join(", "));
    }
    let bypassed: Vec<(usize, usize)> = mapping
        .keep_matrix()
        .iter()
        .enumerate()
        .flat_map(|(l, keeps)| {
            keeps
                .iter()
                .enumerate()
                .filter(|(_, &kept)| !kept)
                .map(move |(t, _)| (l, t))
        })
        .collect();
    if !bypassed.is_empty() {
        let _ = writeln!(out, "{indent}bypass:");
        for (l, t) in bypassed {
            let _ = writeln!(
                out,
                "{indent}  - {{level: {l}, tensor: {}}}",
                scalar(&einsum.tensors()[t].name)
            );
        }
    }
}

fn emit_mapspace(out: &mut String, space: &Mapspace, einsum: &Einsum, indent: &str) {
    let dim_list = |dims: &[sparseloop_tensor::einsum::DimId]| -> String {
        let names: Vec<String> = dims
            .iter()
            .map(|d| scalar(&einsum.dims()[d.0].name))
            .collect();
        format!("[{}]", names.join(", "))
    };
    let _ = writeln!(out, "{indent}temporal_order:");
    for dims in space.temporal_order() {
        let _ = writeln!(out, "{indent}  - {}", dim_list(dims));
    }
    let _ = writeln!(out, "{indent}spatial_dims:");
    for dims in space.spatial_dims() {
        let _ = writeln!(out, "{indent}  - {}", dim_list(dims));
    }
    let bypasses = space.bypasses();
    if !bypasses.is_empty() {
        let _ = writeln!(out, "{indent}bypass:");
        for (l, t) in bypasses {
            let _ = writeln!(
                out,
                "{indent}  - {{level: {l}, tensor: {}}}",
                scalar(&einsum.tensor(t).name)
            );
        }
    }
}

fn mapper_flow(mapper: &Mapper) -> String {
    match *mapper {
        Mapper::Exhaustive { limit } => format!("{{strategy: exhaustive, limit: {limit}}}"),
        Mapper::Random { samples, seed } => {
            format!("{{strategy: random, samples: {samples}, seed: {seed}}}")
        }
        Mapper::Hybrid {
            enumerate,
            samples,
            seed,
        } => format!(
            "{{strategy: hybrid, enumerate: {enumerate}, samples: {samples}, seed: {seed}}}"
        ),
    }
}

fn objective_name(objective: Objective) -> &'static str {
    match objective {
        Objective::Edp => "edp",
        Objective::Latency => "latency",
        Objective::Energy => "energy",
    }
}

fn action_name(action: ActionOpt) -> &'static str {
    match action {
        ActionOpt::Gate => "gate",
        ActionOpt::Skip => "skip",
    }
}

fn loop_dsl(l: &sparseloop_mapping::Loop, einsum: &Einsum) -> String {
    let kw = match l.kind {
        LoopKind::Temporal => "for",
        LoopKind::Spatial => "parallel-for",
    };
    format!("{kw} {} in {}", einsum.dims()[l.dim.0].name, l.bound)
}

fn projection_dsl(r: &sparseloop_tensor::einsum::RankProjection, einsum: &Einsum) -> String {
    let terms: Vec<String> = r
        .terms
        .iter()
        .map(|t| {
            let name = &einsum.dims()[t.dim.0].name;
            if t.coef == 1 {
                name.clone()
            } else {
                format!("{}*{name}", t.coef)
            }
        })
        .collect();
    terms.join(" + ")
}

/// The format DSL (inverse of the compiler's `parse_tensor_format`):
/// per-level short name, explicit bit width, flattening.
fn format_dsl(format: &TensorFormat) -> String {
    let mut out = String::new();
    for (i, level) in format.levels().iter().enumerate() {
        if i > 0 {
            out.push('-');
        }
        out.push_str(level.format.short_name());
        let bits = match level.format {
            RankFormat::Uncompressed | RankFormat::Bitmask => None,
            RankFormat::CoordinatePayload { coord_bits } => coord_bits,
            RankFormat::RunLength { run_bits } => run_bits,
            RankFormat::OffsetPairs { offset_bits } => offset_bits,
        };
        if let Some(b) = bits {
            let _ = write!(out, "({b})");
        }
        if level.flattened_ranks > 1 {
            let _ = write!(out, "^{}", level.flattened_ranks);
        }
    }
    out
}

/// Exact shortest decimal representation (Rust's float Display round
/// trips bit-exactly through `str::parse::<f64>`).
fn float(v: f64) -> String {
    format!("{v}")
}

/// Renders a string as a spec scalar, double-quoting when plain form
/// would be ambiguous to the parser.
fn scalar(s: &str) -> String {
    let needs_quotes = s.is_empty()
        || s.starts_with(' ')
        || s.ends_with(' ')
        || s == "-"
        || s.starts_with("- ")
        || matches!(s, "true" | "false" | "null" | "~" | "dense")
        || s.chars().any(|c| {
            matches!(
                c,
                ':' | '#' | ',' | '[' | ']' | '{' | '}' | '"' | '\'' | '\n' | '\t' | '*' | '&'
            )
        });
    if !needs_quotes {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_str;
    use sparseloop_designs::ScenarioRegistry;

    #[test]
    fn scalar_quoting() {
        assert_eq!(scalar("plain-name"), "plain-name");
        assert_eq!(scalar("Bitmask@0.05"), "Bitmask@0.05");
        assert_eq!(scalar("STC@2:4"), "\"STC@2:4\"");
        assert_eq!(scalar("Fig. 1: stuff"), "\"Fig. 1: stuff\"");
        assert_eq!(scalar(""), "\"\"");
        assert_eq!(scalar("a\"b"), "\"a\\\"b\"");
        assert_eq!(scalar("dense"), "\"dense\"");
    }

    #[test]
    fn float_display_round_trips() {
        for v in [0.05, 0.1, 1.0, 0.0001, 0.45, 1.5e-7, 16.0, 50.0] {
            let text = float(v);
            assert_eq!(
                text.parse::<f64>().unwrap().to_bits(),
                v.to_bits(),
                "{text}"
            );
        }
    }

    #[test]
    fn fig1_scenario_emits_and_recompiles() {
        let registry = ScenarioRegistry::standard();
        let scenario = registry.expect("fig1_format_tradeoff");
        let text = emit_scenario(scenario);
        let compiled = compile_str(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
        assert_eq!(compiled.name, scenario.name());
        assert_eq!(compiled.title, scenario.title());
        let original = scenario.experiments();
        assert_eq!(compiled.experiments.len(), original.len());
        for (a, b) in original.iter().zip(&compiled.experiments) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.design.arch, b.design.arch);
            assert_eq!(a.design.safs, b.design.safs);
            assert_eq!(a.layer.einsum, b.layer.einsum);
            assert_eq!(a.layer.densities, b.layer.densities);
        }
        // the two fig1 designs are interned once each, not once per row
        assert_eq!(text.matches("architecture:").count(), 2);
    }

    #[test]
    fn emit_is_idempotent_on_fig1() {
        let registry = ScenarioRegistry::standard();
        let scenario = registry.expect("fig1_format_tradeoff");
        let text = emit_scenario(scenario);
        let reparsed = compile_str(&text).unwrap().into_scenario();
        assert_eq!(emit_scenario(&reparsed), text);
    }
}
