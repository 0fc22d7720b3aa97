//! Checkpointing: save/load a whole [`ParamStore`] as a binary blob.
//!
//! Layout (format version 2, the only one accepted): magic `b"ATNN"`,
//! `u32` version, `u64` slot count, `u64` total scalar count, `u64` FNV-1a
//! checksum of the payload, then per slot a length-prefixed UTF-8 name
//! followed by an `atnn-tensor` matrix record. The checksum catches
//! truncated or bit-flipped blobs *before* any weight is overwritten; the
//! slot/scalar counts catch architecture drift cheaply, and the per-slot
//! name/shape comparison catches it precisely.

use std::fmt;

use atnn_autograd::ParamStore;
use atnn_tensor::{decode_matrix, encode_matrix, TensorError};
use bytes::{Buf, BufMut, Bytes, BytesMut};

const MAGIC: &[u8; 4] = b"ATNN";
/// The checkpoint format: counts + checksum header.
const VERSION: u32 = 2;

/// Errors from checkpoint (de)serialization.
#[derive(Debug)]
pub enum NnError {
    /// The buffer is not a valid checkpoint.
    Corrupt(&'static str),
    /// The payload bytes do not hash to the checksum in the header.
    Checksum {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the payload actually present.
        actual: u64,
    },
    /// The checkpoint does not describe the same architecture as the store.
    Mismatch(String),
    /// A matrix record failed to decode.
    Tensor(TensorError),
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            NnError::Checksum { expected, actual } => {
                write!(
                    f,
                    "checkpoint checksum mismatch: header {expected:#018x}, payload {actual:#018x}"
                )
            }
            NnError::Mismatch(msg) => write!(f, "checkpoint/store mismatch: {msg}"),
            NnError::Tensor(e) => write!(f, "checkpoint tensor error: {e}"),
        }
    }
}

impl std::error::Error for NnError {}

impl From<TensorError> for NnError {
    fn from(e: TensorError) -> Self {
        NnError::Tensor(e)
    }
}

/// 64-bit FNV-1a over `bytes` — tiny, dependency-free, and plenty to catch
/// truncation and bit rot (this is an integrity check, not a security one).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Serializes every parameter of `store` (values only; gradients are
/// transient state and are not persisted).
pub fn save_store(store: &ParamStore) -> Bytes {
    let mut payload = BytesMut::new();
    for id in store.all_ids() {
        let name = store.name(id).as_bytes();
        payload.put_u32_le(name.len() as u32);
        payload.put_slice(name);
        encode_matrix(store.value(id), &mut payload);
    }
    let mut buf = BytesMut::with_capacity(4 + 4 + 8 + 8 + 8 + payload.len());
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u64_le(store.len() as u64);
    buf.put_u64_le(store.num_scalars() as u64);
    buf.put_u64_le(fnv1a64(&payload));
    buf.put_slice(&payload);
    buf.freeze()
}

/// Restores parameter values into an existing store built by the same
/// model-construction code.
///
/// # Errors
/// Fails when the buffer is corrupt (bad magic/version, truncation,
/// checksum mismatch) or when the slot names/shapes do not match the store
/// exactly. The store is untouched on any header or checksum failure.
pub fn load_store(store: &mut ParamStore, mut buf: Bytes) -> Result<(), NnError> {
    if buf.remaining() < 8 {
        return Err(NnError::Corrupt("header truncated"));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(NnError::Corrupt("bad magic"));
    }
    if buf.get_u32_le() != VERSION {
        return Err(NnError::Corrupt("unsupported version"));
    }
    if buf.remaining() < 24 {
        return Err(NnError::Corrupt("header truncated"));
    }
    let count = buf.get_u64_le() as usize;
    let scalars = buf.get_u64_le() as usize;
    let expected = buf.get_u64_le();
    let actual = fnv1a64(&buf);
    if actual != expected {
        return Err(NnError::Checksum { expected, actual });
    }
    if scalars != store.num_scalars() {
        return Err(NnError::Mismatch(format!(
            "checkpoint has {scalars} scalars, store has {}",
            store.num_scalars()
        )));
    }
    if count != store.len() {
        return Err(NnError::Mismatch(format!(
            "checkpoint has {count} params, store has {}",
            store.len()
        )));
    }
    for id in store.all_ids() {
        if buf.remaining() < 4 {
            return Err(NnError::Corrupt("name length truncated"));
        }
        let name_len = buf.get_u32_le() as usize;
        if buf.remaining() < name_len {
            return Err(NnError::Corrupt("name truncated"));
        }
        let mut name = vec![0u8; name_len];
        buf.copy_to_slice(&mut name);
        let name = String::from_utf8(name).map_err(|_| NnError::Corrupt("name not UTF-8"))?;
        if name != store.name(id) {
            return Err(NnError::Mismatch(format!(
                "slot {}: checkpoint '{name}' vs store '{}'",
                id.index(),
                store.name(id)
            )));
        }
        let m = decode_matrix(&mut buf)?;
        if m.shape() != store.value(id).shape() {
            return Err(NnError::Mismatch(format!(
                "slot '{name}': checkpoint {:?} vs store {:?}",
                m.shape(),
                store.value(id).shape()
            )));
        }
        *store.value_mut(id) = m;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, Mlp};
    use atnn_tensor::{Init, Matrix, Rng64};

    fn build_store(seed: u64) -> (ParamStore, Mlp) {
        let mut store = ParamStore::new();
        let mut rng = Rng64::seed_from_u64(seed);
        let mlp = Mlp::new(&mut store, &mut rng, "net", &[3, 5, 2], Activation::Relu);
        (store, mlp)
    }

    /// Re-encodes a current blob in the retired v1 layout (no scalar
    /// count, no checksum) — the format the first builds wrote to disk.
    fn downgrade_to_v1(blob: &Bytes) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(1);
        buf.put_slice(&blob[8..16]); // slot count
        buf.put_slice(&blob[32..]); // payload, skipping scalar count + checksum
        buf.freeze()
    }

    #[test]
    fn roundtrip_restores_values() {
        let (store_a, mlp) = build_store(1);
        let blob = save_store(&store_a);
        // Same architecture, different random init.
        let (mut store_b, _) = build_store(2);
        assert_ne!(
            store_a.value(mlp.params()[0]).as_slice(),
            store_b.value(mlp.params()[0]).as_slice()
        );
        load_store(&mut store_b, blob).unwrap();
        for id in store_a.all_ids() {
            assert_eq!(store_a.value(id), store_b.value(id));
        }
    }

    /// The v1 loader wrote slots as it parsed them, with no checksum in
    /// front; a v1 blob must now be refused by its version, whole or
    /// truncated, before a single weight changes.
    #[test]
    fn v1_blob_is_rejected_and_leaves_the_store_unchanged() {
        let (store_a, _) = build_store(1);
        let v1 = downgrade_to_v1(&save_store(&store_a));
        let (mut store_b, _) = build_store(2);
        let before = save_store(&store_b);
        for cut in [v1.len(), v1.len() - 1, 9] {
            assert!(
                matches!(
                    load_store(&mut store_b, v1.slice(0..cut)),
                    Err(NnError::Corrupt("unsupported version"))
                ),
                "cut={cut}"
            );
            assert_eq!(save_store(&store_b), before, "cut={cut}: a rejected load wrote weights");
        }
    }

    #[test]
    fn bit_flip_is_caught_by_checksum_before_any_write() {
        let (store_a, _) = build_store(1);
        let blob = save_store(&store_a);
        let mut bytes: Vec<u8> = blob.as_ref().to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40; // corrupt one weight byte
        let (mut store_b, mlp) = build_store(2);
        let before = store_b.value(mlp.params()[0]).clone();
        match load_store(&mut store_b, Bytes::from(bytes)) {
            Err(NnError::Checksum { expected, actual }) => assert_ne!(expected, actual),
            other => panic!("expected checksum error, got {other:?}"),
        }
        assert_eq!(store_b.value(mlp.params()[0]), &before, "store must be untouched");
    }

    #[test]
    fn scalar_count_mismatch_is_rejected() {
        let (store_a, _) = build_store(1);
        let blob = save_store(&store_a);
        // Same slot count, different widths: [3,5,2] vs [4,4,2] is 3 slots
        // either way but different scalar totals... build explicitly:
        let mut store_c = ParamStore::new();
        let mut rng = Rng64::seed_from_u64(3);
        let _ = Mlp::new(&mut store_c, &mut rng, "net", &[4, 6, 2], Activation::Relu);
        assert!(matches!(load_store(&mut store_c, blob), Err(NnError::Mismatch(_))));
    }

    #[test]
    fn mismatched_architecture_is_rejected() {
        let (store_a, _) = build_store(1);
        let blob = save_store(&store_a);
        // A different architecture with the same number of slots but
        // different shapes.
        let mut store_c = ParamStore::new();
        let mut rng = Rng64::seed_from_u64(3);
        let _ = Mlp::new(&mut store_c, &mut rng, "net", &[4, 6, 2], Activation::Relu);
        assert!(matches!(load_store(&mut store_c, blob.clone()), Err(NnError::Mismatch(_))));
        // Different slot count.
        let mut store_d = ParamStore::new();
        store_d.add("only", Matrix::zeros(1, 1));
        assert!(matches!(load_store(&mut store_d, blob), Err(NnError::Mismatch(_))));
    }

    #[test]
    fn renamed_param_is_rejected() {
        let mut store_a = ParamStore::new();
        store_a.add("alpha", Matrix::full(1, 1, 7.0));
        let blob = save_store(&store_a);
        let mut store_b = ParamStore::new();
        store_b.add("beta", Matrix::zeros(1, 1));
        assert!(matches!(load_store(&mut store_b, blob), Err(NnError::Mismatch(_))));
    }

    #[test]
    fn corrupt_buffers_are_rejected() {
        let mut store = ParamStore::new();
        store.add("w", Matrix::zeros(2, 2));
        let blob = save_store(&store);
        for cut in [0usize, 3, 9, 17, 31, blob.len() - 1] {
            let mut fresh = ParamStore::new();
            fresh.add("w", Matrix::zeros(2, 2));
            assert!(load_store(&mut fresh, blob.slice(0..cut)).is_err(), "cut={cut}");
        }
        let mut fresh = ParamStore::new();
        fresh.add("w", Matrix::zeros(2, 2));
        assert!(load_store(&mut fresh, Bytes::from_static(b"XXXXxxxxyyyyzzzz")).is_err());
    }

    #[test]
    fn unknown_future_version_is_rejected() {
        let (store_a, _) = build_store(1);
        let mut bytes = save_store(&store_a).as_ref().to_vec();
        bytes[4] = 99; // version field
        let (mut store_b, _) = build_store(2);
        assert!(matches!(
            load_store(&mut store_b, Bytes::from(bytes)),
            Err(NnError::Corrupt("unsupported version"))
        ));
    }

    #[test]
    fn gradients_are_not_persisted() {
        let mut store = ParamStore::new();
        let p = store.add("w", Init::Normal(1.0).sample(2, 2, &mut Rng64::seed_from_u64(5)));
        store.grad_mut(p).set(0, 0, 123.0);
        let blob = save_store(&store);
        let mut fresh = ParamStore::new();
        let q = fresh.add("w", Matrix::zeros(2, 2));
        load_store(&mut fresh, blob).unwrap();
        assert_eq!(fresh.grad(q).get(0, 0), 0.0);
        assert_eq!(fresh.value(q), store.value(p));
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
