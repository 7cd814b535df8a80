//! Wire encoding for vectors crossing the (simulated) network.
//!
//! The frame-length functions ([`encoded_dense_len`],
//! [`encoded_sparse_len`], [`encoded_qdense_len`],
//! [`encoded_qsparse_len`]) are the one definition of each kind's size.
//! The crate root re-exports them as [`crate::dense_bytes`],
//! [`crate::sparse_bytes`], [`crate::quantized_dense_bytes`] and
//! [`crate::quantized_sparse_bytes`], and the collectives charge
//! simulated time from them, so the size model is the exact length of
//! these frames (16-byte header + packed little-endian payload). Frames
//! are built and parsed with `mlstar_codec`'s [`Writer`] and [`Reader`],
//! the same codec as every other format in the workspace.
//!
//! Layout (all little-endian; `pad` and `reserved` must be zero):
//!
//! ```text
//! dense:   magic u32 | kind=1 u8 | pad [u8;3] | dim u32 | reserved u32 | dim × f64
//! sparse:  magic u32 | kind=2 u8 | pad [u8;3] | dim u32 | nnz u32      | nnz × u32 | nnz × f64
//! qdense:  magic u32 | kind=3 u8 | pad [u8;3] | dim u32 | reserved u32 | lo f64 | hi f64 | dim × u8
//! qsparse: magic u32 | kind=4 u8 | pad [u8;3] | dim u32 | nnz u32      | lo f64 | hi f64 | nnz × u32 | nnz × u8
//! ```
//!
//! The quantized kinds store each value as one of 256 evenly spaced
//! levels over `[lo, hi]` (`level = round((x − lo)/step)` with
//! `step = (hi − lo)/255`, decoded as `lo + level·step`), so the
//! round-trip error per coordinate is at most `step/2`. Compression with
//! error feedback ([`crate::compress_update`]) re-injects that rounding
//! error into the next round's update.
//!
//! [`encode_adaptive`] / [`decode_adaptive`] implement the *lossless*
//! per-payload dense↔sparse switch used by the real transport
//! (`net::protocol`): the encoder picks whichever of the two exact
//! encodings is smaller by actual encoded length, and the decoder
//! dispatches on the frame's kind byte. Lossy kinds never travel through
//! the adaptive path — they are produced only inside the compressed
//! collectives, where the error-feedback accumulators live.

use mlstar_codec::{CodecError, Reader, Writer};
use mlstar_linalg::{DenseVector, LinalgError, SparseVector};

/// `"MLS*"` — the frame magic.
pub const WIRE_MAGIC: u32 = 0x4D4C_532A;

/// Kind byte of a dense frame.
pub const KIND_DENSE: u8 = 1;
/// Kind byte of a sparse frame.
pub const KIND_SPARSE: u8 = 2;
/// Kind byte of an 8-bit quantized dense frame.
pub const KIND_QDENSE: u8 = 3;
/// Kind byte of an 8-bit quantized sparse frame.
pub const KIND_QSPARSE: u8 = 4;

const HEADER_LEN: usize = 16;
/// Quantization resolution: 256 levels → 255 steps across `[lo, hi]`.
const QUANT_STEPS: f64 = 255.0;

/// Errors produced when decoding a wire frame.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The frame does not start with [`WIRE_MAGIC`].
    BadMagic(u32),
    /// Unknown payload kind byte.
    BadKind(u8),
    /// The frame is shorter than its header declares.
    Truncated {
        /// Bytes expected from the header.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The frame is longer than its header declares (trailing garbage).
    TrailingBytes {
        /// Bytes expected from the header.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// A pad or reserved field holds a nonzero value. Reserved space must
    /// stay zero so a future format revision can repurpose it without
    /// old decoders silently misreading new frames.
    ReservedNonzero {
        /// Byte offset of the offending field within the frame.
        offset: usize,
        /// The nonzero value found there.
        value: u32,
    },
    /// A sparse header declares more entries than the vector has
    /// coordinates — rejected before any payload allocation.
    NnzExceedsDim {
        /// Declared entry count.
        nnz: usize,
        /// Declared dimension.
        dim: usize,
    },
    /// A quantized frame's `[lo, hi]` range is non-finite, inverted, or
    /// too wide for a finite quantization step.
    BadQuantRange {
        /// Declared lower bound.
        lo: f64,
        /// Declared upper bound.
        hi: f64,
    },
    /// The payload violates a vector invariant (unsorted indices, NaN…).
    Invalid(LinalgError),
    /// The payload ended inside a field. Every decoder checks the frame
    /// length before reading the payload, so this is unreachable for a
    /// frame that passed that check; it exists so a decoder bug surfaces
    /// as an error, never as a panic.
    Overrun(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad wire magic {m:#010x}"),
            WireError::BadKind(k) => write!(f, "unknown payload kind {k}"),
            WireError::Truncated { expected, actual } => {
                write!(
                    f,
                    "truncated frame: expected {expected} bytes, got {actual}"
                )
            }
            WireError::TrailingBytes { expected, actual } => {
                write!(
                    f,
                    "over-long frame: expected {expected} bytes, got {actual} (trailing garbage)"
                )
            }
            WireError::ReservedNonzero { offset, value } => {
                write!(f, "reserved field at byte {offset} is nonzero ({value})")
            }
            WireError::NnzExceedsDim { nnz, dim } => {
                write!(f, "sparse header declares {nnz} entries in dimension {dim}")
            }
            WireError::BadQuantRange { lo, hi } => {
                write!(f, "invalid quantization range [{lo}, {hi}]")
            }
            WireError::Invalid(e) => write!(f, "invalid payload: {e}"),
            WireError::Overrun(why) => write!(f, "payload overrun: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Overrun(e.to_string())
    }
}

/// Exact encoded length of a dense vector. The crate root re-exports it
/// as [`crate::dense_bytes`], the size the collectives charge for.
pub fn encoded_dense_len(dim: usize) -> usize {
    HEADER_LEN + dim * 8
}

/// Exact encoded length of a sparse vector, re-exported as
/// [`crate::sparse_bytes`].
pub fn encoded_sparse_len(nnz: usize) -> usize {
    HEADER_LEN + nnz * 12
}

/// Exact encoded length of a quantized dense vector, re-exported as
/// [`crate::quantized_dense_bytes`].
pub fn encoded_qdense_len(dim: usize) -> usize {
    HEADER_LEN + 16 + dim
}

/// Exact encoded length of a quantized sparse vector, re-exported as
/// [`crate::quantized_sparse_bytes`].
pub fn encoded_qsparse_len(nnz: usize) -> usize {
    HEADER_LEN + 16 + nnz * 5
}

/// Exact-vs-declared length check shared by every decoder: short frames
/// are [`WireError::Truncated`], over-long frames are
/// [`WireError::TrailingBytes`].
fn check_len(expected: usize, actual: usize) -> Result<(), WireError> {
    match actual.cmp(&expected) {
        std::cmp::Ordering::Less => Err(WireError::Truncated { expected, actual }),
        std::cmp::Ordering::Greater => Err(WireError::TrailingBytes { expected, actual }),
        std::cmp::Ordering::Equal => Ok(()),
    }
}

/// Writes the 16-byte header.
fn put_header(w: &mut Writer, kind: u8, dim: u32, aux: u32) {
    w.put_u32(WIRE_MAGIC);
    w.put_u8(kind);
    w.put_u8(0);
    w.put_u8(0);
    w.put_u8(0);
    w.put_u32(dim);
    w.put_u32(aux);
}

/// Parses and validates the 16-byte header (magic, zero pad), returning
/// `(kind, dim, aux)` and a reader positioned at the payload.
fn decode_header(frame: &[u8]) -> Result<(u8, usize, usize, Reader<'_>), WireError> {
    if frame.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            expected: HEADER_LEN,
            actual: frame.len(),
        });
    }
    let mut r = Reader::new(frame);
    let magic = r.u32()?;
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let kind = r.u8()?;
    let pad0 = r.u8()?;
    let pad1 = r.u8()?;
    let pad2 = r.u8()?;
    if pad0 != 0 || pad1 != 0 || pad2 != 0 {
        return Err(WireError::ReservedNonzero {
            offset: 5,
            value: u32::from_le_bytes([pad0, pad1, pad2, 0]),
        });
    }
    let dim = r.u32()? as usize;
    let aux = r.u32()? as usize;
    Ok((kind, dim, aux, r))
}

/// Encodes a dense vector.
///
/// # Panics
///
/// Panics if `dim > u32::MAX` (the wire format's limit).
pub fn encode_dense(v: &DenseVector) -> Vec<u8> {
    assert!(v.dim() <= u32::MAX as usize, "dimension exceeds wire limit");
    let mut w = Writer::with_capacity(encoded_dense_len(v.dim()));
    put_header(&mut w, KIND_DENSE, v.dim() as u32, 0);
    for &x in v.as_slice() {
        w.put_f64(x);
    }
    w.into_payload()
}

/// Encodes a sparse vector.
///
/// # Panics
///
/// Panics if `dim` or `nnz` exceeds `u32::MAX`.
pub fn encode_sparse(v: &SparseVector) -> Vec<u8> {
    assert!(v.dim() <= u32::MAX as usize, "dimension exceeds wire limit");
    assert!(v.nnz() <= u32::MAX as usize, "nnz exceeds wire limit");
    let mut w = Writer::with_capacity(encoded_sparse_len(v.nnz()));
    put_header(&mut w, KIND_SPARSE, v.dim() as u32, v.nnz() as u32);
    for &i in v.indices() {
        w.put_u32(i);
    }
    for &x in v.values() {
        w.put_f64(x);
    }
    w.into_payload()
}

/// Encodes a dense vector with 8-bit linear quantization over its value
/// range.
///
/// # Panics
///
/// Panics if `dim > u32::MAX` or the values are not [`quantizable`]
/// (quantization has no representation for NaN/∞, nor a finite step
/// across a range wider than `f64::MAX`).
pub fn encode_qdense(v: &DenseVector) -> Vec<u8> {
    assert!(v.dim() <= u32::MAX as usize, "dimension exceeds wire limit");
    assert!(
        quantizable(v.as_slice()),
        "quantization requires finite values with a finite range"
    );
    let (lo, hi) = value_range(v.as_slice());
    let step = quant_step(lo, hi);
    let mut w = Writer::with_capacity(encoded_qdense_len(v.dim()));
    put_header(&mut w, KIND_QDENSE, v.dim() as u32, 0);
    w.put_f64(lo);
    w.put_f64(hi);
    for &x in v.as_slice() {
        w.put_u8(quant_level(x, lo, step));
    }
    w.into_payload()
}

/// Encodes a sparse vector with 8-bit linear quantization over its
/// stored-value range.
///
/// # Panics
///
/// Panics if `dim` or `nnz` exceeds `u32::MAX`, or the stored values are
/// not [`quantizable`] (they are finite by the [`SparseVector`]
/// invariant, but their range may still be too wide).
pub fn encode_qsparse(v: &SparseVector) -> Vec<u8> {
    assert!(v.dim() <= u32::MAX as usize, "dimension exceeds wire limit");
    assert!(v.nnz() <= u32::MAX as usize, "nnz exceeds wire limit");
    assert!(
        quantizable(v.values()),
        "quantization requires a finite range"
    );
    let (lo, hi) = value_range(v.values());
    let step = quant_step(lo, hi);
    let mut w = Writer::with_capacity(encoded_qsparse_len(v.nnz()));
    put_header(&mut w, KIND_QSPARSE, v.dim() as u32, v.nnz() as u32);
    w.put_f64(lo);
    w.put_f64(hi);
    for &i in v.indices() {
        w.put_u32(i);
    }
    for &x in v.values() {
        w.put_u8(quant_level(x, lo, step));
    }
    w.into_payload()
}

/// Decodes a dense vector frame, rejecting a nonzero reserved word.
pub fn decode_dense(frame: &[u8]) -> Result<DenseVector, WireError> {
    let (kind, dim, aux, mut r) = decode_header(frame)?;
    if kind != KIND_DENSE {
        return Err(WireError::BadKind(kind));
    }
    if aux != 0 {
        return Err(WireError::ReservedNonzero {
            offset: 12,
            value: aux as u32,
        });
    }
    check_len(encoded_dense_len(dim), frame.len())?;
    let mut values = Vec::with_capacity(dim);
    for _ in 0..dim {
        values.push(r.f64()?);
    }
    Ok(DenseVector::from_vec(values))
}

/// Decodes a sparse vector frame, validating all sparse invariants.
pub fn decode_sparse(frame: &[u8]) -> Result<SparseVector, WireError> {
    let (kind, dim, nnz, mut r) = decode_header(frame)?;
    if kind != KIND_SPARSE {
        return Err(WireError::BadKind(kind));
    }
    if nnz > dim {
        return Err(WireError::NnzExceedsDim { nnz, dim });
    }
    check_len(encoded_sparse_len(nnz), frame.len())?;
    let mut indices = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        indices.push(r.u32()?);
    }
    let mut values = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        values.push(r.f64()?);
    }
    SparseVector::new(dim, indices, values).map_err(WireError::Invalid)
}

/// Decodes a quantized dense frame back to the dequantized values.
pub fn decode_qdense(frame: &[u8]) -> Result<DenseVector, WireError> {
    let (kind, dim, aux, mut r) = decode_header(frame)?;
    if kind != KIND_QDENSE {
        return Err(WireError::BadKind(kind));
    }
    if aux != 0 {
        return Err(WireError::ReservedNonzero {
            offset: 12,
            value: aux as u32,
        });
    }
    check_len(encoded_qdense_len(dim), frame.len())?;
    let lo = r.f64()?;
    let hi = r.f64()?;
    let step = checked_quant_step(lo, hi)?;
    let mut values = Vec::with_capacity(dim);
    for _ in 0..dim {
        values.push(dequant(r.u8()?, lo, step));
    }
    Ok(DenseVector::from_vec(values))
}

/// Decodes a quantized sparse frame back to the dequantized values,
/// validating all sparse invariants.
pub fn decode_qsparse(frame: &[u8]) -> Result<SparseVector, WireError> {
    let (kind, dim, nnz, mut r) = decode_header(frame)?;
    if kind != KIND_QSPARSE {
        return Err(WireError::BadKind(kind));
    }
    if nnz > dim {
        return Err(WireError::NnzExceedsDim { nnz, dim });
    }
    check_len(encoded_qsparse_len(nnz), frame.len())?;
    let lo = r.f64()?;
    let hi = r.f64()?;
    let step = checked_quant_step(lo, hi)?;
    let mut indices = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        indices.push(r.u32()?);
    }
    let mut values = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        values.push(dequant(r.u8()?, lo, step));
    }
    SparseVector::new(dim, indices, values).map_err(WireError::Invalid)
}

/// Encodes a vector for the real wire path: losslessly, as whichever of
/// the dense / exact-sparse frames is smaller by actual encoded length
/// (only when `switch` allows the sparse form). Non-finite vectors fall
/// back to the dense frame, which represents every bit pattern.
pub fn encode_adaptive(v: &DenseVector, switch: FrameSwitch) -> Vec<u8> {
    match sparse_candidate(v, switch) {
        Some(s) => encode_sparse(&s),
        None => encode_dense(v),
    }
}

/// Decodes either frame kind produced by [`encode_adaptive`].
pub fn decode_adaptive(frame: &[u8]) -> Result<DenseVector, WireError> {
    match frame_kind(frame) {
        Some(KIND_SPARSE) => Ok(materialize_exact(&decode_sparse(frame)?)),
        _ => decode_dense(frame),
    }
}

/// Materializes a sparse vector bit-exactly: stored values are written
/// verbatim, so a `-0.0` entry survives (unlike
/// [`SparseVector::to_dense`], whose `axpy` normalizes `0 + (-0.0)` to
/// `+0.0`). This keeps the adaptive dense↔sparse round trip lossless
/// down to the bit pattern.
pub(crate) fn materialize_exact(s: &SparseVector) -> DenseVector {
    let mut d = DenseVector::zeros(s.dim());
    for (i, x) in s.iter() {
        d.set(i, x);
    }
    d
}

/// Peeks at a frame's kind byte without consuming anything. `None` if the
/// frame is shorter than a header.
pub fn frame_kind(frame: &[u8]) -> Option<u8> {
    if frame.len() < HEADER_LEN {
        return None;
    }
    Some(frame[4])
}

/// Per-payload dense↔sparse switch for the real wire path
/// ([`encode_adaptive`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrameSwitch {
    /// Always ship the dense frame (the legacy format; bit-compatible
    /// with every pre-compression decoder).
    #[default]
    Dense,
    /// Per payload, ship the exact sparse frame whenever it is strictly
    /// smaller than the dense frame by actual encoded length.
    Adaptive,
}

/// The exact sparse form of `v`, iff the switch allows it, it is strictly
/// smaller on the wire, and `v` is representable (finite).
fn sparse_candidate(v: &DenseVector, switch: FrameSwitch) -> Option<SparseVector> {
    if switch != FrameSwitch::Adaptive {
        return None;
    }
    let s = v.to_sparse().ok()?;
    if encoded_sparse_len(s.nnz()) < encoded_dense_len(v.dim()) {
        Some(s)
    } else {
        None
    }
}

/// `(min, max)` over `values`; `(0, 0)` when empty.
fn value_range(values: &[f64]) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &x in values {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    if lo > hi {
        (0.0, 0.0)
    } else {
        (lo, hi)
    }
}

/// Quantization step for a `[lo, hi]` range: 255 steps across it, `0` for
/// a degenerate (constant) range.
fn quant_step(lo: f64, hi: f64) -> f64 {
    (hi - lo) / QUANT_STEPS
}

/// [`quant_step`] with wire-side validation of an untrusted range: both
/// bounds finite, `lo ≤ hi`, and a finite step. A finite range wider
/// than `f64::MAX` (e.g. `[-1e308, 1e308]`) has an infinite step, which
/// would dequantize every level to NaN.
fn checked_quant_step(lo: f64, hi: f64) -> Result<f64, WireError> {
    let step = quant_step(lo, hi);
    if !lo.is_finite() || !hi.is_finite() || lo > hi || !step.is_finite() {
        return Err(WireError::BadQuantRange { lo, hi });
    }
    Ok(step)
}

/// Whether `values` can travel in a quantized frame: all finite, with a
/// range narrow enough for a finite quantization step. Callers that
/// choose a frame kind ([`crate::compress_update`]) gate on this and
/// fall back to an exact frame otherwise.
pub fn quantizable(values: &[f64]) -> bool {
    let (lo, hi) = value_range(values);
    values.iter().all(|x| x.is_finite()) && checked_quant_step(lo, hi).is_ok()
}

/// Nearest quantization level for `x` (deterministic `round`, saturating
/// into `0..=255`).
fn quant_level(x: f64, lo: f64, step: f64) -> u8 {
    if step > 0.0 {
        ((x - lo) / step).round() as u8
    } else {
        0
    }
}

/// Reconstructs the value of a quantization level.
fn dequant(level: u8, lo: f64, step: f64) -> f64 {
    lo + f64::from(level) * step
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_roundtrip() {
        let v = DenseVector::from_vec(vec![1.5, -2.0, 0.0, f64::MIN_POSITIVE]);
        let frame = encode_dense(&v);
        assert_eq!(frame.len(), encoded_dense_len(4));
        let back = decode_dense(&frame).unwrap();
        assert_eq!(back.as_slice(), v.as_slice());
    }

    #[test]
    fn sparse_roundtrip() {
        let v = SparseVector::from_pairs(1000, &[(3, 1.0), (999, -0.25)]).unwrap();
        let frame = encode_sparse(&v);
        assert_eq!(frame.len(), encoded_sparse_len(2));
        let back = decode_sparse(&frame).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn quantized_dense_roundtrip_is_within_half_a_step() {
        let v = DenseVector::from_vec(vec![-3.0, -1.25, 0.0, 0.5, 2.0, 7.5]);
        let frame = encode_qdense(&v);
        assert_eq!(frame.len(), encoded_qdense_len(6));
        let back = decode_qdense(&frame).unwrap();
        let step = (7.5 - (-3.0)) / 255.0;
        for (i, &x) in v.as_slice().iter().enumerate() {
            assert!(
                (back.get(i) - x).abs() <= step * 0.5 + 1e-12,
                "coord {i}: {x} decoded as {}",
                back.get(i)
            );
        }
    }

    #[test]
    fn quantized_sparse_roundtrip_preserves_indices() {
        let v = SparseVector::from_pairs(500, &[(2, -1.0), (40, 0.25), (499, 3.0)]).unwrap();
        let frame = encode_qsparse(&v);
        assert_eq!(frame.len(), encoded_qsparse_len(3));
        let back = decode_qsparse(&frame).unwrap();
        assert_eq!(back.indices(), v.indices());
        let step = (3.0 - (-1.0)) / 255.0;
        for ((_, want), (_, got)) in v.iter().zip(back.iter()) {
            assert!((want - got).abs() <= step * 0.5 + 1e-12);
        }
    }

    #[test]
    fn constant_vector_quantizes_exactly() {
        let v = DenseVector::filled(9, 4.25);
        let back = decode_qdense(&encode_qdense(&v)).unwrap();
        assert_eq!(back.as_slice(), v.as_slice());
    }

    #[test]
    fn adaptive_picks_the_cheaper_encoding() {
        // 2 nonzeros in 100 dims: sparse wins.
        let mut v = DenseVector::zeros(100);
        v.set(3, 1.0);
        v.set(64, -2.0);
        let frame = encode_adaptive(&v, FrameSwitch::Adaptive);
        assert_eq!(frame_kind(&frame), Some(KIND_SPARSE));
        assert_eq!(frame.len(), encoded_sparse_len(2));
        assert_eq!(decode_adaptive(&frame).unwrap().as_slice(), v.as_slice());

        // Dense vector: dense frame wins.
        let dense = DenseVector::filled(100, 1.0);
        let frame = encode_adaptive(&dense, FrameSwitch::Adaptive);
        assert_eq!(frame_kind(&frame), Some(KIND_DENSE));
        assert_eq!(frame.len(), encoded_dense_len(100));
        assert_eq!(
            decode_adaptive(&frame).unwrap().as_slice(),
            dense.as_slice()
        );
    }

    #[test]
    fn adaptive_forced_dense_matches_legacy_frames() {
        let mut v = DenseVector::zeros(50);
        v.set(7, 2.5);
        let forced = encode_adaptive(&v, FrameSwitch::Dense);
        assert_eq!(forced, encode_dense(&v));
    }

    #[test]
    fn adaptive_roundtrip_is_bit_exact_including_negative_zero() {
        let mut v = DenseVector::zeros(40);
        v.set(1, -0.0);
        v.set(5, 1.5);
        let frame = encode_adaptive(&v, FrameSwitch::Adaptive);
        assert_eq!(frame_kind(&frame), Some(KIND_SPARSE));
        let back = decode_adaptive(&frame).unwrap();
        let want: Vec<u64> = v.as_slice().iter().map(|x| x.to_bits()).collect();
        let got: Vec<u64> = back.as_slice().iter().map(|x| x.to_bits()).collect();
        assert_eq!(want, got, "-0.0 must survive the sparse round trip");
    }

    #[test]
    fn adaptive_falls_back_to_dense_for_non_finite() {
        let mut v = DenseVector::zeros(64);
        v.set(0, f64::INFINITY);
        let frame = encode_adaptive(&v, FrameSwitch::Adaptive);
        assert_eq!(frame_kind(&frame), Some(KIND_DENSE));
        let back = decode_adaptive(&frame).unwrap();
        assert!(back.get(0).is_infinite());
    }

    #[test]
    fn rejects_bad_magic_and_kind() {
        let v = DenseVector::zeros(2);
        let frame = encode_dense(&v);
        let mut corrupted = frame.clone();
        corrupted[0] ^= 0xFF;
        assert!(matches!(
            decode_dense(&corrupted),
            Err(WireError::BadMagic(_))
        ));
        // Dense frame through the sparse decoder.
        assert!(matches!(
            decode_sparse(&frame),
            Err(WireError::BadKind(KIND_DENSE))
        ));
        // Quantized frames through the wrong decoders.
        let q = encode_qdense(&v);
        assert!(matches!(
            decode_qsparse(&q),
            Err(WireError::BadKind(KIND_QDENSE))
        ));
        assert!(matches!(
            decode_dense(&q),
            Err(WireError::BadKind(KIND_QDENSE))
        ));
    }

    #[test]
    fn rejects_truncated_frames() {
        let v = DenseVector::zeros(8);
        let frame = encode_dense(&v);
        let short = &frame[..frame.len() - 4];
        assert!(matches!(
            decode_dense(short),
            Err(WireError::Truncated { .. })
        ));
        let tiny = [1u8, 2, 3];
        assert!(matches!(
            decode_dense(&tiny),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn rejects_over_long_frames_as_trailing_bytes() {
        let v = DenseVector::zeros(4);
        let mut padded = encode_dense(&v);
        padded.push(0xAB);
        let err = decode_dense(&padded).unwrap_err();
        assert!(
            matches!(
                err,
                WireError::TrailingBytes {
                    expected: 48,
                    actual: 49
                }
            ),
            "got {err:?}"
        );

        let s = SparseVector::from_pairs(10, &[(1, 1.0)]).unwrap();
        let mut padded = encode_sparse(&s);
        padded.extend_from_slice(&[0, 0, 0]);
        assert!(matches!(
            decode_sparse(&padded),
            Err(WireError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn rejects_nonzero_reserved_word() {
        let v = DenseVector::zeros(2);
        let mut bytes = encode_dense(&v);
        bytes[12] = 1; // reserved u32 at offset 12
        assert!(matches!(
            decode_dense(&bytes),
            Err(WireError::ReservedNonzero { offset: 12, .. })
        ));
        let mut bytes = encode_dense(&v);
        bytes[6] = 9; // pad byte
        assert!(matches!(
            decode_dense(&bytes),
            Err(WireError::ReservedNonzero { offset: 5, .. })
        ));
    }

    #[test]
    fn rejects_nnz_exceeding_dim_before_allocation() {
        let s = SparseVector::from_pairs(4, &[(0, 1.0), (3, 2.0)]).unwrap();
        let mut bytes = encode_sparse(&s);
        // Rewrite nnz (offset 12) to a huge count; the typed error must
        // surface before any length/alloc logic touches it.
        bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_sparse(&bytes),
            Err(WireError::NnzExceedsDim { dim: 4, .. })
        ));
    }

    #[test]
    fn rejects_bad_quantization_range() {
        let v = DenseVector::from_vec(vec![1.0, 2.0]);
        let mut bytes = encode_qdense(&v);
        // lo (offset 16) := NaN.
        bytes[16..24].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(matches!(
            decode_qdense(&bytes),
            Err(WireError::BadQuantRange { .. })
        ));
        // lo > hi.
        let mut bytes = encode_qdense(&v);
        bytes[16..24].copy_from_slice(&5.0f64.to_bits().to_le_bytes());
        assert!(matches!(
            decode_qdense(&bytes),
            Err(WireError::BadQuantRange { lo, hi }) if lo > hi
        ));
        // A finite range whose width overflows: `hi − lo = ∞`, so every
        // level would dequantize to NaN.
        let mut bytes = encode_qdense(&v);
        bytes[16..24].copy_from_slice(&(-1e308f64).to_bits().to_le_bytes());
        bytes[24..32].copy_from_slice(&1e308f64.to_bits().to_le_bytes());
        assert!(matches!(
            decode_qdense(&bytes),
            Err(WireError::BadQuantRange { lo, hi }) if lo.is_finite() && hi.is_finite()
        ));
        let s = SparseVector::from_pairs(4, &[(0, 1.0), (3, 2.0)]).unwrap();
        let mut bytes = encode_qsparse(&s);
        bytes[16..24].copy_from_slice(&(-1e308f64).to_bits().to_le_bytes());
        bytes[24..32].copy_from_slice(&1e308f64.to_bits().to_le_bytes());
        assert!(matches!(
            decode_qsparse(&bytes),
            Err(WireError::BadQuantRange { .. })
        ));
    }

    #[test]
    fn quantizable_needs_finite_values_and_a_finite_step() {
        assert!(quantizable(&[-3.0, 0.5, 7.0]));
        assert!(quantizable(&[]));
        assert!(quantizable(&[f64::MAX, f64::MAX]));
        assert!(!quantizable(&[-1e308, 0.5, 1e308]));
        assert!(!quantizable(&[1.0, f64::NAN]));
        assert!(!quantizable(&[f64::NEG_INFINITY, 1.0]));
    }

    #[test]
    #[should_panic(expected = "finite range")]
    fn encoder_refuses_an_overflowing_range() {
        let _ = encode_qdense(&DenseVector::from_vec(vec![-1e308, 0.5, 1e308]));
    }

    #[test]
    fn reader_overrun_is_an_error_not_a_panic() {
        // `check_len` guards every payload read, so reach the overrun
        // through the header reader's own conversion.
        let err = WireError::from(Reader::new(&[1, 2]).u32().unwrap_err());
        assert!(matches!(err, WireError::Overrun(_)), "got {err:?}");
        assert!(err.to_string().contains("overrun"));
    }

    #[test]
    fn rejects_invalid_sparse_payload() {
        // Hand-craft a frame with unsorted indices.
        let good = SparseVector::from_pairs(10, &[(1, 1.0), (5, 2.0)]).unwrap();
        let frame = encode_sparse(&good);
        let mut bytes = frame.to_vec();
        // Swap the two index words (offsets 16..20 and 20..24).
        bytes.swap(16, 20);
        bytes.swap(17, 21);
        bytes.swap(18, 22);
        bytes.swap(19, 23);
        assert!(matches!(decode_sparse(&bytes), Err(WireError::Invalid(_))));
    }

    #[test]
    fn error_messages_render() {
        let e = WireError::BadMagic(7);
        assert!(e.to_string().contains("magic"));
        let e = WireError::Truncated {
            expected: 10,
            actual: 3,
        };
        assert!(e.to_string().contains("10"));
        let e = WireError::TrailingBytes {
            expected: 10,
            actual: 12,
        };
        assert!(e.to_string().contains("trailing"));
        let e = WireError::ReservedNonzero {
            offset: 12,
            value: 3,
        };
        assert!(e.to_string().contains("12"));
        let e = WireError::NnzExceedsDim { nnz: 9, dim: 4 };
        assert!(e.to_string().contains('9'));
        let e = WireError::BadQuantRange { lo: 2.0, hi: 1.0 };
        assert!(e.to_string().contains("range"));
        let e = WireError::BadKind(9);
        assert!(e.to_string().contains('9'));
    }

    #[test]
    fn empty_vectors_encode() {
        let d = decode_dense(&encode_dense(&DenseVector::zeros(0))).unwrap();
        assert_eq!(d.dim(), 0);
        let s = decode_sparse(&encode_sparse(&SparseVector::empty(5))).unwrap();
        assert_eq!(s.dim(), 5);
        assert_eq!(s.nnz(), 0);
        let q = decode_qdense(&encode_qdense(&DenseVector::zeros(0))).unwrap();
        assert_eq!(q.dim(), 0);
        let qs = decode_qsparse(&encode_qsparse(&SparseVector::empty(3))).unwrap();
        assert_eq!(qs.nnz(), 0);
    }
}
