//@ path: crates/collectives/src/wire.rs
//@ expect: codec_symmetry

//! Two broken model-frame pairs over the `codec::{Writer, Reader}`
//! prims: `put_update`/`get_update` drift on the loop-guard width (u32
//! count written, u64 count read), and `encode_range`/`decode_range`
//! read the flag byte before the bounds the writer put after them.

use mlstar_codec::{CodecError, Reader, Writer};

pub fn put_update(w: &mut Writer, indices: &[u32], values: &[f64]) {
    w.put_u32(indices.len() as u32);
    for &i in indices {
        w.put_u32(i);
    }
    for &x in values {
        w.put_f64(x);
    }
}

pub fn get_update(frame: &[u8]) -> Result<(Vec<u32>, Vec<f64>), CodecError> {
    let mut r = Reader::new(frame);
    // Width drift: the count was written as u32.
    let nnz = r.u64()? as usize;
    let mut indices = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        indices.push(r.u32()?);
    }
    let mut values = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        values.push(r.f64()?);
    }
    Ok((indices, values))
}

pub fn encode_range(w: &mut Writer, lo: f64, hi: f64, clamped: bool) {
    w.put_f64(lo);
    w.put_f64(hi);
    w.put_u8(u8::from(clamped));
}

pub fn decode_range(r: &mut Reader<'_>) -> Result<(f64, f64, bool), CodecError> {
    // Swapped: reads the flag byte before the bounds.
    let clamped = r.u8()? != 0;
    let lo = r.f64()?;
    let hi = r.f64()?;
    Ok((lo, hi, clamped))
}
