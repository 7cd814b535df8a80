//! Byte-level known-answer tests (KATs) for every frame the collectives
//! and the net protocol put on the wire.
//!
//! Each case pins the exact length and the 64-bit FNV-1a of one frame
//! built from fixed inputs: one frame of each `collectives::wire` kind,
//! the adaptive dense↔sparse switch under both settings, the frame that
//! wins `compress_update`'s size contest under top-k + quantization, and
//! `net::encode_msg` of `Assign`, `Ops { SgdPass }` and
//! `OpDone { Model }` under both switches. The inputs include `-0.0` and
//! a subnormal, so a codec that normalizes either one changes a pinned
//! hash. A mismatch here means the bytes on the wire changed: that is a
//! format break and must be versioned, not slipped in.

use mllib_star::collectives::wire::{self, FrameSwitch};
use mllib_star::collectives::{compress_update, CompressionConfig, Sparsifier};
use mllib_star::core::{OpResult, WorkerOp};
use mllib_star::glm::{LearningRate, Loss, Regularizer};
use mllib_star::linalg::{DenseVector, SparseVector};
use mllib_star::net::{encode_msg, AssignedRow, Msg};

/// The smallest positive subnormal `f64`.
const SUBNORMAL: f64 = 4.9e-324;

/// A dense vector with a negative zero, a subnormal, and a wide range.
fn dense() -> DenseVector {
    DenseVector::from_vec(vec![1.5, -0.0, 0.0, SUBNORMAL, -3.25, 1e3, -7.0e-3, 0.0])
}

/// A sparse vector storing a negative zero and a subnormal.
fn sparse() -> SparseVector {
    SparseVector::new(10, vec![0, 3, 7, 9], vec![-0.0, 2.5, SUBNORMAL, -1.0e-3])
        .expect("fixed sparse vector is valid")
}

/// A mostly-zero model, so the adaptive switch picks the sparse frame.
fn sparse_model() -> DenseVector {
    let mut v = DenseVector::zeros(32);
    v.set(1, -0.0);
    v.set(5, SUBNORMAL);
    v.set(20, 1.5);
    v.set(31, -2.0);
    v
}

/// A 64-dimensional update whose top-3 survivors ship quantized.
fn update() -> DenseVector {
    let mut v = DenseVector::zeros(64);
    v.set(2, -0.0);
    v.set(9, SUBNORMAL);
    v.set(10, 0.75);
    v.set(17, -4.5);
    v.set(40, 0.125);
    v.set(63, 3.0);
    v
}

fn assign(switch: FrameSwitch) -> Msg {
    Msg::Assign {
        worker: 1,
        dim: 10,
        loss: Loss::Logistic,
        reg: Regularizer::L2 { lambda: 0.125 },
        lr: LearningRate::InvT {
            eta0: 1.0,
            decay: 0.01,
        },
        switch,
        rows: vec![
            AssignedRow {
                global: 4,
                label: 1.0,
                row: sparse(),
            },
            AssignedRow {
                global: 9,
                label: -1.0,
                row: SparseVector::empty(10),
            },
        ],
    }
}

fn ops() -> Msg {
    Msg::Ops {
        batch: 3,
        ops: vec![WorkerOp::SgdPass {
            w: sparse_model(),
            order: vec![2, 0, 1],
            t0: 17,
        }],
    }
}

fn op_done() -> Msg {
    Msg::OpDone {
        batch: 3,
        compute_nanos: 123_456,
        results: vec![OpResult::Model {
            w: sparse_model(),
            t: 20,
        }],
    }
}

/// Every pinned frame, by name.
fn frames() -> Vec<(&'static str, Vec<u8>)> {
    let topk_quant = CompressionConfig {
        switch: FrameSwitch::Adaptive,
        sparsifier: Sparsifier::TopK { k: 3 },
        quantize: true,
        error_feedback: true,
    };
    let mut out = vec![
        ("dense", wire::encode_dense(&dense()).to_vec()),
        ("sparse", wire::encode_sparse(&sparse()).to_vec()),
        ("qdense", wire::encode_qdense(&dense()).to_vec()),
        ("qsparse", wire::encode_qsparse(&sparse()).to_vec()),
        (
            "adaptive/dense",
            wire::encode_adaptive(&sparse_model(), FrameSwitch::Dense).to_vec(),
        ),
        (
            "adaptive/adaptive",
            wire::encode_adaptive(&sparse_model(), FrameSwitch::Adaptive).to_vec(),
        ),
        (
            "compress_update/topk3+quant",
            compress_update(&update(), &topk_quant).frame.to_vec(),
        ),
    ];
    let (dense_sw, adaptive_sw) = (FrameSwitch::Dense, FrameSwitch::Adaptive);
    let msgs = [
        ("msg/assign/dense", assign(dense_sw), dense_sw),
        ("msg/assign/adaptive", assign(adaptive_sw), adaptive_sw),
        ("msg/ops/dense", ops(), dense_sw),
        ("msg/ops/adaptive", ops(), adaptive_sw),
        ("msg/op_done/dense", op_done(), dense_sw),
        ("msg/op_done/adaptive", op_done(), adaptive_sw),
    ];
    for (name, msg, switch) in msgs {
        out.push((name, encode_msg(&msg, switch)));
    }
    out
}

/// `(name, length, FNV-1a)` of every frame.
const PINNED: &[(&str, usize, u64)] = &[
    ("dense", 80, 0xef6e3a27131431c7),
    ("sparse", 64, 0x532f5834484628bb),
    ("qdense", 40, 0x20ba04e421a723bc),
    ("qsparse", 52, 0x3acf5d62b3c66091),
    ("adaptive/dense", 272, 0xb05d91bb56b2d7c8),
    ("adaptive/adaptive", 64, 0x4965fe77a9a613b0),
    ("compress_update/topk3+quant", 47, 0x1805f6bccc4d6200),
    ("msg/assign/dense", 189, 0x4fd0b0e5242472a7),
    ("msg/assign/adaptive", 189, 0x11cb221748a28603),
    ("msg/ops/dense", 350, 0xa85b8e3b0edbcfdd),
    ("msg/ops/adaptive", 142, 0x5344c20ca34cda11),
    ("msg/op_done/dense", 338, 0xeecda0db08b6c64c),
    ("msg/op_done/adaptive", 130, 0x792a012fc17dcd17),
];

#[test]
fn every_frame_matches_its_pinned_length_and_hash() {
    let got: Vec<(&str, usize, u64)> = frames()
        .iter()
        .map(|(name, frame)| (*name, frame.len(), fnv1a(frame)))
        .collect();
    assert_eq!(got, PINNED, "wire bytes drifted");
}

/// Published-vector FNV-1a (64-bit), reimplemented independently of
/// `mlstar-codec` so the KAT does not assume the code under test.
// lint:allow(duplicate_hash_impl): KAT must not trust mlstar-codec's own hash
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64; // lint:allow(duplicate_hash_impl): KAT must not trust mlstar-codec's own hash
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
