//@ path: crates/collectives/src/wire.rs
//@ expect:

//! A symmetric model-frame pair over the `codec::{Writer, Reader}`
//! prims, shaped like the real `collectives::wire` codec: a shared
//! header helper inlined on both sides, effect-free validation branches,
//! and an adaptive dense↔sparse dispatch whose arms share the hoisted
//! header prefix — the writer's `if` over the encoding choice and the
//! reader's `match` over the kind byte normalize to the same branch node.

use mlstar_codec::{CodecError, Reader, Writer};

const DEMO_MAGIC: u32 = 0x4D4C_5344;

fn put_head(w: &mut Writer, kind: u8, dim: u32) {
    w.put_u32(DEMO_MAGIC);
    w.put_u8(kind);
    w.put_u32(dim);
}

fn read_head(r: &mut Reader<'_>) -> Result<Option<(u8, u32)>, CodecError> {
    if r.remaining() < 9 {
        return Ok(None);
    }
    let magic = r.u32()?;
    if magic != DEMO_MAGIC {
        return Ok(None);
    }
    let kind = r.u8()?;
    let dim = r.u32()?;
    Ok(Some((kind, dim)))
}

pub fn encode_vals(v: &[f64], sparse: bool) -> Vec<u8> {
    let mut w = Writer::new();
    if sparse {
        put_head(&mut w, 2, v.len() as u32);
        for (i, &x) in v.iter().enumerate() {
            w.put_u32(i as u32);
            w.put_f64(x);
        }
    } else {
        put_head(&mut w, 1, v.len() as u32);
        for &x in v {
            w.put_f64(x);
        }
    }
    w.into_payload()
}

pub fn decode_vals(frame: &[u8]) -> Result<Option<Vec<f64>>, CodecError> {
    let mut r = Reader::new(frame);
    let Some((kind, dim)) = read_head(&mut r)? else {
        return Ok(None);
    };
    let mut out = vec![0.0; dim as usize];
    match kind {
        1 => {
            for x in out.iter_mut() {
                *x = r.f64()?;
            }
        }
        2 => {
            for _ in 0..dim {
                let i = r.u32()? as usize;
                out[i] = r.f64()?;
            }
        }
        _ => return Ok(None),
    }
    Ok(Some(out))
}
