//! # sparseloop-workloads
//!
//! DNN and sparse-tensor-algebra workload library for the Sparseloop
//! reproduction.
//!
//! The paper evaluates on AlexNet, VGG16, ResNet50, MobileNetV1 and
//! BERT-base (Table 5, Figs. 12/13/15) plus parameterized spMspM kernels
//! (Figs. 1/17). This crate provides those layer shapes as Einsums with
//! per-layer density presets.
//!
//! **Substitution note:** pruned-checkpoint and activation
//! sparsity data are not available offline; per-layer densities are
//! drawn from published sparsity tables (ReLU activation density falling
//! with depth, pruned-weight densities per pruning ratio) and are plainly
//! marked below. Sparseloop's statistical models consume only
//! (shape, density, distribution), so matched statistics exercise the
//! identical code paths.

pub mod dnn;
pub mod spmspm;

pub use dnn::{alexnet, bert_base, mobilenet_v1, resnet50, vgg16, Layer, Network};
pub use spmspm::{spmspm, spmspm_workload};
