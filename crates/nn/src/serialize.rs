//! Parameter serialization and network state copies.
//!
//! Networks are rebuilt from their architecture (code) and re-filled with
//! parameters; only the flat parameter tensors are stored. The same
//! mechanism implements Double-DQN target-network synchronization: read the
//! online network's state, load it into the target network.

use crate::layers::Layer;

/// Extracts every parameter tensor, followed by every state buffer
/// (batch-norm running statistics), in visit order.
pub fn state(net: &mut dyn Layer) -> Vec<Vec<f32>> {
    let mut out = Vec::new();
    net.visit_params(&mut |p| out.push(p.data.clone()));
    net.visit_buffers(&mut |b| out.push(b.clone()));
    out
}

/// Loads tensors produced by [`state`] back into a network of the same
/// architecture (parameters first, then buffers).
///
/// # Errors
///
/// Fails if the tensor count or any tensor length differs.
pub fn load_state(net: &mut dyn Layer, state: &[Vec<f32>]) -> Result<(), String> {
    let mut idx = 0usize;
    let mut error: Option<String> = None;
    {
        let mut fill = |dst: &mut [f32]| {
            if error.is_some() {
                return;
            }
            match state.get(idx) {
                Some(s) if s.len() == dst.len() => dst.copy_from_slice(s),
                Some(s) => {
                    error = Some(format!(
                        "tensor {idx}: expected {} values, got {}",
                        dst.len(),
                        s.len()
                    ))
                }
                None => error = Some(format!("missing tensor {idx}")),
            }
            idx += 1;
        };
        net.visit_params(&mut |p| fill(&mut p.data));
        net.visit_buffers(&mut |b| fill(b));
    }
    if let Some(e) = error {
        return Err(e);
    }
    let expected = idx;
    if state.len() != expected {
        return Err(format!(
            "state has {} tensors, network expects {expected}",
            state.len()
        ));
    }
    Ok(())
}

/// Encodes a network's parameters as little-endian bytes.
pub fn to_bytes(net: &mut dyn Layer) -> Vec<u8> {
    let tensors = state(net);
    let mut out = Vec::new();
    out.extend_from_slice(&(tensors.len() as u32).to_le_bytes());
    for t in &tensors {
        out.extend_from_slice(&(t.len() as u32).to_le_bytes());
        for v in t {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

/// Decodes parameters encoded by [`to_bytes`] into a network.
///
/// # Errors
///
/// Fails on truncated input or architecture mismatch.
pub fn from_bytes(net: &mut dyn Layer, bytes: &[u8]) -> Result<(), String> {
    let mut cur = 0usize;
    let read_u32 = |cur: &mut usize| -> Result<u32, String> {
        let end = *cur + 4;
        let s = bytes.get(*cur..end).ok_or("truncated state")?;
        *cur = end;
        Ok(u32::from_le_bytes(s.try_into().unwrap()))
    };
    let count = read_u32(&mut cur)? as usize;
    let mut tensors = Vec::with_capacity(count);
    for _ in 0..count {
        let len = read_u32(&mut cur)? as usize;
        let mut t = Vec::with_capacity(len);
        for _ in 0..len {
            let end = cur + 4;
            let s = bytes.get(cur..end).ok_or("truncated tensor data")?;
            cur = end;
            t.push(f32::from_le_bytes(s.try_into().unwrap()));
        }
        tensors.push(t);
    }
    load_state(net, &tensors)
}

/// A 64-bit FNV-1a digest over parameter tensors, for cheap integrity
/// checks of checkpointed network state (two identical states always agree;
/// any flipped bit almost surely disagrees).
pub fn digest(tensors: &[Vec<f32>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |byte: u8| {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for t in tensors {
        for b in (t.len() as u64).to_le_bytes() {
            mix(b);
        }
        for v in t {
            for b in v.to_le_bytes() {
                mix(b);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Conv2d;
    use crate::tensor::Tensor;

    /// A 3×3 convolution: two parameter tensors (weight, bias).
    fn build() -> Conv2d {
        Conv2d::new(2, 4, 3, 1)
    }

    #[test]
    fn state_roundtrip_preserves_outputs() {
        let mut a = build();
        let mut b = Conv2d::new(2, 4, 3, 99);
        let x = Tensor::ones([1, 2, 4, 4]);
        assert_ne!(a.forward(&x, false).data(), b.forward(&x, false).data());
        let s = state(&mut a);
        load_state(&mut b, &s).unwrap();
        assert_eq!(a.forward(&x, false).data(), b.forward(&x, false).data());
    }

    #[test]
    fn bytes_roundtrip() {
        let mut a = build();
        let bytes = to_bytes(&mut a);
        let mut b = build();
        b.visit_params(&mut |p| p.data.iter_mut().for_each(|v| *v = 0.0));
        from_bytes(&mut b, &bytes).unwrap();
        let x = Tensor::ones([1, 2, 3, 3]);
        assert_eq!(a.forward(&x, false).data(), b.forward(&x, false).data());
    }

    #[test]
    fn mismatched_architecture_errors() {
        let mut a = build();
        let s = state(&mut a);
        let mut tiny = Conv2d::new(1, 1, 1, 0);
        assert!(load_state(&mut tiny, &s).is_err());
    }

    #[test]
    fn digest_distinguishes_states() {
        let mut a = build();
        let s = state(&mut a);
        let d = digest(&s);
        assert_eq!(d, digest(&s), "digest is deterministic");
        let mut tweaked = s.clone();
        tweaked[0][0] += 1.0;
        assert_ne!(d, digest(&tweaked));
        // Tensor boundaries matter: [[x],[y]] != [[x,y]].
        let split = vec![vec![1.0f32], vec![2.0]];
        let joined = vec![vec![1.0f32, 2.0]];
        assert_ne!(digest(&split), digest(&joined));
    }

    #[test]
    fn truncated_bytes_error() {
        let mut a = build();
        let mut bytes = to_bytes(&mut a);
        bytes.truncate(bytes.len() / 2);
        let mut b = build();
        assert!(from_bytes(&mut b, &bytes).is_err());
    }
}
