//! DNN network definitions: layer shapes plus density presets.

use sparseloop_density::DensityModelSpec;
use sparseloop_tensor::einsum::Einsum;

/// One network layer: the Einsum plus per-tensor density specs (in the
/// Einsum's tensor order).
#[derive(Debug, Clone)]
pub struct Layer {
    /// Layer name (e.g. `"conv2"`).
    pub name: String,
    /// The layer's tensor algorithm.
    pub einsum: Einsum,
    /// Density spec per tensor, aligned with `einsum.tensors()`.
    pub densities: Vec<DensityModelSpec>,
}

impl Layer {
    /// Dense compute operations in this layer.
    pub fn computes(&self) -> u64 {
        self.einsum.num_computes()
    }

    /// A scaled-down copy whose compute count is at most `cap`,
    /// shrinking the largest dimensions first (used for actual-data
    /// validation runs where the reference simulator walks every point).
    pub fn scaled_to(&self, cap: u64) -> Layer {
        let mut bounds = self.einsum.bounds();
        while bounds.iter().product::<u64>() > cap {
            // halve the largest even bound; if none, halve largest
            let (idx, _) = bounds
                .iter()
                .enumerate()
                .max_by_key(|(_, &b)| b)
                .expect("non-empty bounds");
            if bounds[idx] <= 1 {
                break;
            }
            bounds[idx] = (bounds[idx] / 2).max(1);
        }
        Layer {
            name: format!("{}-scaled", self.name),
            einsum: self.einsum.with_bounds(&bounds),
            densities: self.densities.clone(),
        }
    }
}

/// A named list of layers.
#[derive(Debug, Clone)]
pub struct Network {
    /// Network name.
    pub name: String,
    /// The layers in execution order.
    pub layers: Vec<Layer>,
}

/// Builds a conv layer with weight density `wd` and input density `id`
/// (uniform models; outputs dense).
#[allow(clippy::too_many_arguments)]
fn conv(
    name: &str,
    m: u64,
    c: u64,
    p: u64,
    q: u64,
    r: u64,
    s: u64,
    stride: u64,
    wd: f64,
    id: f64,
) -> Layer {
    let einsum = Einsum::conv2d(1, m, c, p, q, r, s, stride).with_name(name);
    let densities = vec![
        density(wd), // Weights
        density(id), // Inputs
        DensityModelSpec::Dense,
    ];
    Layer {
        name: name.to_string(),
        einsum,
        densities,
    }
}

/// Builds a matmul layer (BERT-style) with the given operand densities.
fn matmul(name: &str, m: u64, n: u64, k: u64, da: f64, db: f64) -> Layer {
    let einsum = Einsum::matmul(m, n, k).with_name(name);
    Layer {
        name: name.to_string(),
        einsum,
        densities: vec![density(da), density(db), DensityModelSpec::Dense],
    }
}

fn density(d: f64) -> DensityModelSpec {
    if d >= 1.0 {
        DensityModelSpec::Dense
    } else {
        DensityModelSpec::Uniform { density: d }
    }
}

/// AlexNet's five conv layers (batch 1).
///
/// Activation densities fall with depth after ReLU — the published
/// pattern behind Eyeriss' per-layer DRAM compression rates (Table 7).
pub fn alexnet() -> Network {
    Network {
        name: "AlexNet".into(),
        layers: vec![
            conv("conv1", 96, 3, 55, 55, 11, 11, 4, 1.0, 1.0),
            conv("conv2", 256, 96, 27, 27, 5, 5, 1, 1.0, 0.75),
            conv("conv3", 384, 256, 13, 13, 3, 3, 1, 1.0, 0.55),
            conv("conv4", 384, 384, 13, 13, 3, 3, 1, 1.0, 0.45),
            conv("conv5", 256, 384, 13, 13, 3, 3, 1, 1.0, 0.45),
        ],
    }
}

/// Per-layer *output* activation densities used for the Table 7
/// compression-rate experiment (post-ReLU density of each conv's output,
/// following the monotone published trend).
pub fn alexnet_output_densities() -> Vec<(String, f64)> {
    vec![
        ("conv1".into(), 0.63),
        ("conv2".into(), 0.54),
        ("conv3".into(), 0.45),
        ("conv4".into(), 0.40),
        ("conv5".into(), 0.40),
    ]
}

/// VGG16's thirteen conv layers (batch 1), activations sparsifying with
/// depth.
pub fn vgg16() -> Network {
    let cfg: [(u64, u64, u64, f64); 13] = [
        // (M, C, P=Q, input density)
        (64, 3, 224, 1.0),
        (64, 64, 224, 0.6),
        (128, 64, 112, 0.7),
        (128, 128, 112, 0.55),
        (256, 128, 56, 0.55),
        (256, 256, 56, 0.45),
        (256, 256, 56, 0.4),
        (512, 256, 28, 0.45),
        (512, 512, 28, 0.35),
        (512, 512, 28, 0.3),
        (512, 512, 14, 0.4),
        (512, 512, 14, 0.35),
        (512, 512, 14, 0.3),
    ];
    Network {
        name: "VGG16".into(),
        layers: cfg
            .iter()
            .enumerate()
            .map(|(i, &(m, c, p, id))| {
                conv(&format!("conv{}", i + 1), m, c, p, p, 3, 3, 1, 1.0, id)
            })
            .collect(),
    }
}

/// Representative ResNet50 layers: the stem plus one bottleneck
/// (1x1 → 3x3 → 1x1) per stage — the layer set Fig. 15's case study
/// sweeps. `weight_density` prunes the weights (1.0 = unpruned).
pub fn resnet50_pruned(weight_density: f64) -> Network {
    let wd = weight_density;
    Network {
        name: format!("ResNet50(w={wd})"),
        layers: vec![
            conv("conv1", 64, 3, 112, 112, 7, 7, 2, wd, 1.0),
            // stage 1 bottleneck
            conv("res2a_1x1a", 64, 64, 56, 56, 1, 1, 1, wd, 0.55),
            conv("res2a_3x3", 64, 64, 56, 56, 3, 3, 1, wd, 0.5),
            conv("res2a_1x1b", 256, 64, 56, 56, 1, 1, 1, wd, 0.5),
            // stage 2
            conv("res3a_3x3", 128, 128, 28, 28, 3, 3, 1, wd, 0.45),
            // stage 3
            conv("res4a_3x3", 256, 256, 14, 14, 3, 3, 1, wd, 0.4),
            // stage 4
            conv("res5a_3x3", 512, 512, 7, 7, 3, 3, 1, wd, 0.35),
        ],
    }
}

/// Unpruned ResNet50 (dense weights, ReLU-sparse activations).
pub fn resnet50() -> Network {
    resnet50_pruned(1.0)
}

/// MobileNetV1 (batch 1): alternating depthwise / pointwise layers —
/// the workload of the Eyeriss V2 PE validation (Fig. 12).
pub fn mobilenet_v1() -> Network {
    let mut layers = vec![conv("conv1", 32, 3, 112, 112, 3, 3, 2, 1.0, 1.0)];
    // (channels in, channels out, spatial, input density) per dw/pw pair
    let cfg: [(u64, u64, u64, f64); 13] = [
        (32, 64, 112, 0.6),
        (64, 128, 56, 0.55),
        (128, 128, 56, 0.5),
        (128, 256, 28, 0.5),
        (256, 256, 28, 0.45),
        (256, 512, 14, 0.45),
        (512, 512, 14, 0.4),
        (512, 512, 14, 0.4),
        (512, 512, 14, 0.4),
        (512, 512, 14, 0.4),
        (512, 512, 14, 0.35),
        (512, 1024, 7, 0.35),
        (1024, 1024, 7, 0.3),
    ];
    for (i, &(cin, cout, sp, id)) in cfg.iter().enumerate() {
        // depthwise 3x3 (weights moderately sparse after pruning)
        let dw =
            Einsum::depthwise_conv2d(1, cin, sp, sp, 3, 3, 1).with_name(format!("dw{}", i + 1));
        layers.push(Layer {
            name: format!("dw{}", i + 1),
            einsum: dw,
            densities: vec![density(0.7), density(id), DensityModelSpec::Dense],
        });
        // pointwise 1x1
        layers.push(conv(
            &format!("pw{}", i + 1),
            cout,
            cin,
            sp,
            sp,
            1,
            1,
            1,
            0.6,
            id,
        ));
    }
    Network {
        name: "MobileNetV1".into(),
        layers,
    }
}

/// BERT-base encoder layer matmuls at the given sequence length
/// (weights dense unless pruned; activations dense — the "BERT-like
/// networks with dense input activations" case in §7.1.1).
pub fn bert_base(seq: u64) -> Network {
    let h = 768;
    Network {
        name: format!("BERT-base(seq={seq})"),
        layers: vec![
            matmul("qkv_proj", 3 * h, seq, h, 1.0, 1.0),
            matmul("attn_scores", seq, seq, 64, 1.0, 1.0),
            matmul("attn_context", seq, 64, seq, 0.35, 1.0), // softmax sparsity
            matmul("attn_out", h, seq, h, 1.0, 1.0),
            matmul("ffn1", 4 * h, seq, h, 1.0, 0.5), // GeLU-ish activation sparsity
            matmul("ffn2", h, seq, 4 * h, 1.0, 0.45),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alexnet_shapes() {
        let net = alexnet();
        assert_eq!(net.layers.len(), 5);
        // conv1 MACs: 96*3*55*55*11*11 = 105,415,200
        assert_eq!(net.layers[0].computes(), 105_415_200);
        // conv3 weights shape
        let w = net.layers[2].einsum.tensor_id("Weights").unwrap();
        assert_eq!(net.layers[2].einsum.tensor_shape(w), vec![384, 256, 3, 3]);
    }

    #[test]
    fn vgg_and_resnet_layer_counts() {
        assert_eq!(vgg16().layers.len(), 13);
        assert_eq!(resnet50().layers.len(), 7);
    }

    #[test]
    fn mobilenet_alternates_dw_pw() {
        let net = mobilenet_v1();
        assert_eq!(net.layers.len(), 1 + 13 * 2);
        assert!(net.layers[1].name.starts_with("dw"));
        assert!(net.layers[2].name.starts_with("pw"));
        // depthwise layers have no output-channel (m) dimension
        assert_eq!(net.layers[1].einsum.dims().len(), 6);
    }

    #[test]
    fn bert_matmul_shapes() {
        let net = bert_base(512);
        let qkv = &net.layers[0];
        let a = qkv.einsum.tensor_id("A").unwrap();
        assert_eq!(qkv.einsum.tensor_shape(a), vec![3 * 768, 768]);
    }

    #[test]
    fn densities_align_with_tensors() {
        for net in [
            alexnet(),
            vgg16(),
            resnet50(),
            mobilenet_v1(),
            bert_base(128),
        ] {
            for l in &net.layers {
                assert_eq!(
                    l.densities.len(),
                    l.einsum.tensors().len(),
                    "{}/{}",
                    net.name,
                    l.name
                );
            }
        }
    }

    #[test]
    fn scaled_to_respects_cap() {
        let l = alexnet().layers[1].clone();
        let small = l.scaled_to(100_000);
        assert!(small.computes() <= 100_000);
        assert!(small.computes() > 0);
        // tensor structure preserved
        assert_eq!(small.einsum.tensors().len(), 3);
    }

    #[test]
    fn pruned_resnet_density_applied() {
        let net = resnet50_pruned(0.5);
        match &net.layers[0].densities[0] {
            DensityModelSpec::Uniform { density } => assert_eq!(*density, 0.5),
            other => panic!("expected uniform, got {other:?}"),
        }
    }

    #[test]
    fn output_densities_monotone_nonincreasing() {
        let d = alexnet_output_densities();
        for w in d.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }
}
