//! The versioned on-disk serving artifact.
//!
//! A training job packages everything a serving replica needs into one
//! self-describing blob: the simulator configuration (the feature store the
//! model was fit against — regenerating it is deterministic in the seed),
//! the model configuration, the checkpoint weights, and the frozen
//! [`PopularityIndex`] (mean user vector + bias, the paper's §IV-D O(1)
//! cold-path state). The layout is little-endian:
//!
//! ```text
//! magic  b"ATNNART1"                      (8 bytes)
//! format version  u32                     (3; any other is rejected)
//! payload checksum  u64                   (FNV-1a over everything below)
//! model version  u64                      (publisher's monotonically
//!                                          increasing tag; shown by the
//!                                          serve Health/Stats endpoints)
//! TmallConfig | AtnnConfig | weights blob | index
//! has_ann  u8
//! ann blob  u64 length + bytes            (present iff has_ann == 1)
//! has_quant  u8
//! quant checksum  u64 + quant len  u64    (present iff has_quant == 1)
//! cold ATQ8 blob | warm ATQ8 blob
//! ```
//!
//! The checksum is verified before anything is parsed, so a truncated or
//! bit-flipped artifact is rejected up front with [`ArtifactError`] instead
//! of instantiating a model from garbage. The weights blob is the
//! [`atnn_nn::save_store`] checkpoint, which carries its own header and
//! checksum — defense in depth for the largest section.
//!
//! The *optional* ann section is a serialized retrieval index (the
//! `atnn-ann` IVF blob, itself magic'd, versioned and checksummed). It is
//! opaque at this layer — the serving snapshot validates it against the
//! embeddings it computes at load and silently rebuilds when the blob is
//! absent or stale.
//!
//! The *optional* quant section holds the int8 cold/warm serving tables
//! ([`atnn_tensor::QuantizedMatrix`] `ATQ8` blobs) the publisher quantized
//! at publish time, behind their own FNV-1a section checksum. A replica
//! that adopts the section serves bit-identically to the publisher's
//! quantized snapshot; one that ignores it falls back to the f32 weights,
//! from which the same tables can be re-quantized deterministically.

use std::fmt;
use std::path::Path;

use atnn_data::tmall::{TmallConfig, TmallDataset};
use atnn_nn::{fnv1a64, NnError};
use atnn_tensor::QuantizedMatrix;
use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::config::{AdversarialMode, AtnnConfig};
use crate::model::Atnn;
use crate::popularity::PopularityIndex;

const MAGIC: &[u8; 8] = b"ATNNART1";
const VERSION: u32 = 3;

/// Errors from artifact (de)serialization and instantiation.
#[derive(Debug)]
pub enum ArtifactError {
    /// Reading or writing the artifact file failed.
    Io(std::io::Error),
    /// The buffer is not a valid artifact.
    Corrupt(&'static str),
    /// The payload bytes do not hash to the checksum in the header.
    Checksum {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the payload actually present.
        actual: u64,
    },
    /// The embedded weights blob failed to load into the rebuilt model.
    Weights(NnError),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact io error: {e}"),
            ArtifactError::Corrupt(msg) => write!(f, "corrupt artifact: {msg}"),
            ArtifactError::Checksum { expected, actual } => {
                write!(
                    f,
                    "artifact checksum mismatch: header {expected:#018x}, payload {actual:#018x}"
                )
            }
            ArtifactError::Weights(e) => write!(f, "artifact weights error: {e}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

impl From<NnError> for ArtifactError {
    fn from(e: NnError) -> Self {
        ArtifactError::Weights(e)
    }
}

/// The int8 serving tables a publisher quantized at publish time,
/// persisted so every replica adopts the *same* codes instead of each
/// re-quantizing (deterministic either way; adoption also skips the
/// arithmetic).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantTables {
    /// Quantized generator (cold-path) item vectors, row id == item id.
    pub cold: QuantizedMatrix,
    /// Quantized full-encoder (warm-path) item vectors.
    pub warm: QuantizedMatrix,
}

/// Everything a serving replica needs, as one persistable value.
#[derive(Debug, Clone)]
pub struct ModelArtifact {
    /// Publisher's version tag (monotone across publishes).
    pub model_version: u64,
    /// Configuration of the dataset / feature store the model was fit on.
    pub data_config: TmallConfig,
    /// Model architecture + hyper-parameters.
    pub model_config: AtnnConfig,
    /// Checkpoint blob from [`Atnn::save`].
    pub weights: Bytes,
    /// The frozen O(1) serving index.
    pub index: PopularityIndex,
    /// Optional serialized ANN retrieval index (opaque at this layer).
    pub ann: Option<Bytes>,
    /// Optional int8 serving tables.
    pub quant: Option<QuantTables>,
}

/// A [`ModelArtifact`] instantiated back into live objects.
#[derive(Debug)]
pub struct InstantiatedModel {
    /// The regenerated feature store.
    pub data: TmallDataset,
    /// The model with the artifact's weights restored.
    pub model: Atnn,
    /// The O(1) serving index.
    pub index: PopularityIndex,
    /// The artifact's model version tag.
    pub version: u64,
}

impl ModelArtifact {
    /// Captures a trained model + index into an artifact.
    pub fn capture(
        model: &Atnn,
        data_config: &TmallConfig,
        index: &PopularityIndex,
        model_version: u64,
    ) -> Self {
        ModelArtifact {
            model_version,
            data_config: data_config.clone(),
            model_config: model.config().clone(),
            weights: model.save(),
            index: index.clone(),
            ann: None,
            quant: None,
        }
    }

    /// Attaches a serialized ANN retrieval index to the artifact, so a
    /// serving replica can adopt it instead of rebuilding at load.
    pub fn with_ann(mut self, ann: Bytes) -> Self {
        self.ann = Some(ann);
        self
    }

    /// The persisted ANN index section, if any.
    pub fn ann(&self) -> Option<&[u8]> {
        self.ann.as_deref()
    }

    /// Attaches publish-time int8 serving tables. A loading replica that
    /// sees them serves quantized, bit-identical to the publisher.
    pub fn with_quant(mut self, cold: QuantizedMatrix, warm: QuantizedMatrix) -> Self {
        self.quant = Some(QuantTables { cold, warm });
        self
    }

    /// The persisted quantized serving tables, if any.
    pub fn quant(&self) -> Option<&QuantTables> {
        self.quant.as_ref()
    }

    /// Serializes the artifact (header + checksummed payload).
    pub fn encode(&self) -> Bytes {
        let mut payload = BytesMut::new();
        payload.put_u64_le(self.model_version);
        encode_tmall_config(&self.data_config, &mut payload);
        encode_atnn_config(&self.model_config, &mut payload);
        payload.put_u64_le(self.weights.len() as u64);
        payload.put_slice(&self.weights);
        payload.put_u32_le(self.index.mean_user_vec().len() as u32);
        for &v in self.index.mean_user_vec() {
            payload.put_f32_le(v);
        }
        payload.put_f32_le(self.index.bias());
        match &self.ann {
            Some(ann) => {
                payload.put_u8(1);
                payload.put_u64_le(ann.len() as u64);
                payload.put_slice(ann);
            }
            None => payload.put_u8(0),
        }
        match &self.quant {
            Some(q) => {
                payload.put_u8(1);
                let mut section = BytesMut::new();
                q.cold.encode_into(&mut section);
                q.warm.encode_into(&mut section);
                payload.put_u64_le(fnv1a64(&section));
                payload.put_u64_le(section.len() as u64);
                payload.put_slice(&section);
            }
            None => payload.put_u8(0),
        }

        let mut buf = BytesMut::with_capacity(8 + 4 + 8 + payload.len());
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u64_le(fnv1a64(&payload));
        buf.put_slice(&payload);
        buf.freeze()
    }

    /// Parses and integrity-checks an encoded artifact.
    pub fn decode(mut buf: Bytes) -> Result<Self, ArtifactError> {
        if buf.remaining() < 8 + 4 + 8 {
            return Err(ArtifactError::Corrupt("header truncated"));
        }
        let mut magic = [0u8; 8];
        buf.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(ArtifactError::Corrupt("bad magic"));
        }
        if buf.get_u32_le() != VERSION {
            return Err(ArtifactError::Corrupt("unsupported version"));
        }
        let expected = buf.get_u64_le();
        let actual = fnv1a64(&buf);
        if actual != expected {
            return Err(ArtifactError::Checksum { expected, actual });
        }

        let model_version = read_u64(&mut buf)?;
        let data_config = decode_tmall_config(&mut buf)?;
        let model_config = decode_atnn_config(&mut buf)?;
        let weights = read_blob(&mut buf, "weights truncated")?;
        let dim = read_u32(&mut buf)? as usize;
        if dim == 0 || buf.remaining() < dim * 4 + 4 {
            return Err(ArtifactError::Corrupt("index truncated"));
        }
        let mut mean = Vec::with_capacity(dim);
        for _ in 0..dim {
            mean.push(buf.get_f32_le());
        }
        let bias = buf.get_f32_le();
        let ann = if read_bool(&mut buf)? {
            Some(read_blob(&mut buf, "ann blob truncated")?)
        } else {
            None
        };
        let quant = if read_bool(&mut buf)? {
            let section_sum = read_u64(&mut buf)?;
            let mut section = read_blob(&mut buf, "quant section truncated")?;
            if fnv1a64(&section) != section_sum {
                return Err(ArtifactError::Corrupt("quant section checksum mismatch"));
            }
            let cold = QuantizedMatrix::decode(&mut section)
                .map_err(|_| ArtifactError::Corrupt("bad quant cold table"))?;
            let warm = QuantizedMatrix::decode(&mut section)
                .map_err(|_| ArtifactError::Corrupt("bad quant warm table"))?;
            if section.remaining() != 0 {
                return Err(ArtifactError::Corrupt("quant section trailing bytes"));
            }
            Some(QuantTables { cold, warm })
        } else {
            None
        };
        if buf.remaining() != 0 {
            return Err(ArtifactError::Corrupt("trailing bytes"));
        }
        Ok(ModelArtifact {
            model_version,
            data_config,
            model_config,
            weights,
            index: PopularityIndex::from_parts(mean, bias),
            ann,
            quant,
        })
    }

    /// Writes the encoded artifact to `path` atomically: the bytes land in
    /// a sibling temp file first and are renamed into place, so a reader
    /// (or a crash) never observes a half-written artifact.
    pub fn save_to(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        let path = path.as_ref();
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.encode().as_ref())?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads and decodes an artifact file.
    pub fn load_from(path: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        let bytes = std::fs::read(path)?;
        Self::decode(Bytes::from(bytes))
    }

    /// Rebuilds the live objects: regenerates the dataset (deterministic in
    /// its seed), constructs the model from the stored configuration, and
    /// restores the checkpoint weights.
    pub fn instantiate(&self) -> Result<InstantiatedModel, ArtifactError> {
        let data = TmallDataset::generate(self.data_config.clone());
        let mut model = Atnn::new(self.model_config.clone(), &data);
        model.load(self.weights.clone())?;
        Ok(InstantiatedModel {
            data,
            model,
            index: self.index.clone(),
            version: self.model_version,
        })
    }
}

fn read_u32(buf: &mut Bytes) -> Result<u32, ArtifactError> {
    if buf.remaining() < 4 {
        return Err(ArtifactError::Corrupt("field truncated"));
    }
    Ok(buf.get_u32_le())
}

fn read_u64(buf: &mut Bytes) -> Result<u64, ArtifactError> {
    if buf.remaining() < 8 {
        return Err(ArtifactError::Corrupt("field truncated"));
    }
    Ok(buf.get_u64_le())
}

/// A `u64` length followed by that many bytes, shared with `buf`.
fn read_blob(buf: &mut Bytes, truncated: &'static str) -> Result<Bytes, ArtifactError> {
    let len = read_u64(buf)? as usize;
    if buf.remaining() < len {
        return Err(ArtifactError::Corrupt(truncated));
    }
    let blob = buf.slice(0..len);
    buf.advance(len);
    Ok(blob)
}

fn read_f32(buf: &mut Bytes) -> Result<f32, ArtifactError> {
    Ok(f32::from_bits(read_u32(buf)?))
}

fn read_bool(buf: &mut Bytes) -> Result<bool, ArtifactError> {
    if buf.remaining() < 1 {
        return Err(ArtifactError::Corrupt("field truncated"));
    }
    match buf.get_u8() {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(ArtifactError::Corrupt("bad bool")),
    }
}

fn put_dims(dims: &[usize], buf: &mut BytesMut) {
    buf.put_u32_le(dims.len() as u32);
    for &d in dims {
        buf.put_u64_le(d as u64);
    }
}

fn read_dims(buf: &mut Bytes) -> Result<Vec<usize>, ArtifactError> {
    let n = read_u32(buf)? as usize;
    if n > 1024 {
        return Err(ArtifactError::Corrupt("implausible dims length"));
    }
    let mut dims = Vec::with_capacity(n);
    for _ in 0..n {
        dims.push(read_u64(buf)? as usize);
    }
    Ok(dims)
}

fn encode_tmall_config(cfg: &TmallConfig, buf: &mut BytesMut) {
    buf.put_u64_le(cfg.num_users as u64);
    buf.put_u64_le(cfg.num_items as u64);
    buf.put_u64_le(cfg.num_interactions as u64);
    buf.put_u64_le(cfg.latent_dim as u64);
    buf.put_f32_le(cfg.profile_noise);
    buf.put_f32_le(cfg.profile_flip_prob);
    buf.put_f32_le(cfg.stats_noise);
    buf.put_f32_le(cfg.affinity_weight);
    buf.put_f32_le(cfg.quality_weight);
    buf.put_f32_le(cfg.interaction_strength);
    buf.put_f32_le(cfg.bias);
    buf.put_u8(cfg.include_ids as u8);
    buf.put_u64_le(cfg.id_hash_buckets as u64);
    buf.put_u64_le(cfg.seed);
}

fn decode_tmall_config(buf: &mut Bytes) -> Result<TmallConfig, ArtifactError> {
    Ok(TmallConfig {
        num_users: read_u64(buf)? as usize,
        num_items: read_u64(buf)? as usize,
        num_interactions: read_u64(buf)? as usize,
        latent_dim: read_u64(buf)? as usize,
        profile_noise: read_f32(buf)?,
        profile_flip_prob: read_f32(buf)?,
        stats_noise: read_f32(buf)?,
        affinity_weight: read_f32(buf)?,
        quality_weight: read_f32(buf)?,
        interaction_strength: read_f32(buf)?,
        bias: read_f32(buf)?,
        include_ids: read_bool(buf)?,
        id_hash_buckets: read_u64(buf)? as usize,
        seed: read_u64(buf)?,
    })
}

fn encode_atnn_config(cfg: &AtnnConfig, buf: &mut BytesMut) {
    buf.put_u64_le(cfg.vec_dim as u64);
    put_dims(&cfg.deep_dims, buf);
    buf.put_u64_le(cfg.cross_depth as u64);
    buf.put_u8(cfg.use_cross as u8);
    buf.put_u8(match cfg.adversarial {
        AdversarialMode::None => 0,
        AdversarialMode::Similarity => 1,
        AdversarialMode::LearnedDiscriminator => 2,
    });
    buf.put_u8(cfg.shared_embeddings as u8);
    buf.put_f32_le(cfg.lambda);
    put_dims(&cfg.disc_dims, buf);
    buf.put_u64_le(cfg.max_embed_dim as u64);
    buf.put_f32_le(cfg.dropout);
    buf.put_f32_le(cfg.learning_rate);
    buf.put_f32_le(cfg.grad_clip);
    buf.put_u64_le(cfg.seed);
}

fn decode_atnn_config(buf: &mut Bytes) -> Result<AtnnConfig, ArtifactError> {
    let vec_dim = read_u64(buf)? as usize;
    let deep_dims = read_dims(buf)?;
    let cross_depth = read_u64(buf)? as usize;
    let use_cross = read_bool(buf)?;
    if buf.remaining() < 1 {
        return Err(ArtifactError::Corrupt("field truncated"));
    }
    let adversarial = match buf.get_u8() {
        0 => AdversarialMode::None,
        1 => AdversarialMode::Similarity,
        2 => AdversarialMode::LearnedDiscriminator,
        _ => return Err(ArtifactError::Corrupt("bad adversarial mode")),
    };
    Ok(AtnnConfig {
        vec_dim,
        deep_dims,
        cross_depth,
        use_cross,
        adversarial,
        shared_embeddings: read_bool(buf)?,
        lambda: read_f32(buf)?,
        disc_dims: read_dims(buf)?,
        max_embed_dim: read_u64(buf)? as usize,
        dropout: read_f32(buf)?,
        learning_rate: read_f32(buf)?,
        grad_clip: read_f32(buf)?,
        seed: read_u64(buf)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{CtrTrainer, TrainOptions};
    use atnn_data::tmall::TmallConfig;

    fn trained() -> (Atnn, TmallDataset, TmallConfig) {
        let cfg = TmallConfig {
            num_users: 80,
            num_items: 160,
            num_interactions: 1_500,
            ..TmallConfig::tiny()
        };
        let data = TmallDataset::generate(cfg.clone());
        let mut model = Atnn::new(AtnnConfig::scaled(), &data);
        CtrTrainer::new(TrainOptions { epochs: 1, ..Default::default() })
            .train(&mut model, &data, None)
            .unwrap();
        (model, data, cfg)
    }

    fn capture(model: &Atnn, data: &TmallDataset, cfg: &TmallConfig) -> ModelArtifact {
        let group: Vec<u32> = (0..40).collect();
        let index = PopularityIndex::build(model, data, &group);
        ModelArtifact::capture(model, cfg, &index, 3)
    }

    #[test]
    fn encode_decode_roundtrip_is_lossless() {
        let (model, data, cfg) = trained();
        let artifact = capture(&model, &data, &cfg);
        let back = ModelArtifact::decode(artifact.encode()).unwrap();
        assert_eq!(back.model_version, 3);
        assert_eq!(back.data_config, cfg);
        assert_eq!(back.model_config, *model.config());
        assert_eq!(back.weights, artifact.weights);
        assert_eq!(back.index, artifact.index);
    }

    #[test]
    fn instantiate_reproduces_predictions_bit_for_bit() {
        let (model, data, cfg) = trained();
        let artifact = capture(&model, &data, &cfg);
        let items: Vec<u32> = (0..30).collect();
        let expected = artifact.index.score_new_arrivals(&model, &data, &items);

        let live = ModelArtifact::decode(artifact.encode()).unwrap().instantiate().unwrap();
        let got = live.index.score_new_arrivals(&live.model, &live.data, &items);
        assert_eq!(got, expected, "artifact roundtrip must be bit-identical");
        assert_eq!(live.version, 3);
    }

    #[test]
    fn file_roundtrip_and_atomic_save() {
        let (model, data, cfg) = trained();
        let artifact = capture(&model, &data, &cfg);
        let path =
            std::env::temp_dir().join(format!("atnn_artifact_test_{}.atnn", std::process::id()));
        artifact.save_to(&path).unwrap();
        assert!(!path.with_extension("tmp").exists(), "temp file must be renamed away");
        let back = ModelArtifact::load_from(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(back.index, artifact.index);
        assert_eq!(back.weights, artifact.weights);
    }

    #[test]
    fn ann_section_round_trips_and_v1_artifacts_are_rejected() {
        let (model, data, cfg) = trained();
        let artifact = capture(&model, &data, &cfg);

        // The ann blob is opaque at this layer; any bytes must survive.
        let blob = Bytes::from_static(b"ATNNIVF1-opaque-test-bytes");
        let back = ModelArtifact::decode(artifact.clone().with_ann(blob.clone()).encode()).unwrap();
        assert_eq!(back.ann(), Some(blob.as_ref()));
        assert_eq!(back.index, artifact.index);
        assert_eq!(back.weights, artifact.weights);

        // A version-1 artifact was the same payload minus the quant and
        // ann sections: drop the trailing has_quant and has_ann flags,
        // patch the format version down and recompute the checksum. The
        // format is retired, so the blob must be refused by its version.
        let v3 = artifact.encode();
        let mut v1 = v3.as_ref().to_vec();
        assert_eq!(v1.pop(), Some(0), "a v3 artifact without quant ends with has_quant = 0");
        assert_eq!(v1.pop(), Some(0), "...preceded by has_ann = 0 when ann is absent");
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        let checksum = fnv1a64(&v1[20..]);
        v1[12..20].copy_from_slice(&checksum.to_le_bytes());
        assert!(matches!(
            ModelArtifact::decode(Bytes::from(v1)),
            Err(ArtifactError::Corrupt("unsupported version"))
        ));
    }

    #[test]
    fn quant_section_round_trips_and_v2_artifacts_are_rejected() {
        use atnn_tensor::{Matrix, QuantizedMatrix};
        let (model, data, cfg) = trained();
        let artifact = capture(&model, &data, &cfg);

        // Quantized tables survive an encode/decode round trip exactly.
        let cold = QuantizedMatrix::from_matrix(&Matrix::from_fn(6, 4, |i, j| {
            (i as f32 - 2.5) * 0.3 + j as f32 * 0.01
        }));
        let warm = QuantizedMatrix::from_matrix(&Matrix::from_fn(6, 4, |i, j| {
            (j as f32 - 1.5) * 0.2 - i as f32 * 0.05
        }));
        let quantized = artifact.clone().with_quant(cold.clone(), warm.clone());
        let back = ModelArtifact::decode(quantized.encode()).unwrap();
        let q = back.quant().expect("quant section survives");
        assert_eq!(q.cold, cold);
        assert_eq!(q.warm, warm);
        assert_eq!(back.weights, artifact.weights);

        // A corrupted quant section is rejected by its own checksum even
        // before the table blobs are parsed.
        let blob = quantized.encode();
        let mut flipped = blob.as_ref().to_vec();
        let n = flipped.len();
        flipped[n - 3] ^= 0x01;
        // Fix up the outer payload checksum so only the section sum trips.
        let checksum = fnv1a64(&flipped[20..]);
        flipped[12..20].copy_from_slice(&checksum.to_le_bytes());
        assert!(matches!(
            ModelArtifact::decode(Bytes::from(flipped)),
            Err(ArtifactError::Corrupt("quant section checksum mismatch"))
        ));

        // A pre-quantization version-2 artifact (ann section, no quant
        // section) — drop the trailing has_quant flag, patch the format
        // version down and recompute the checksum — is refused by its
        // version like any other retired format.
        let ann_blob = Bytes::from_static(b"ATNNIVF1-opaque-test-bytes");
        let v3 = artifact.clone().with_ann(ann_blob).encode();
        let mut v2 = v3.as_ref().to_vec();
        assert_eq!(v2.pop(), Some(0), "a v3 artifact without quant ends with has_quant = 0");
        v2[8..12].copy_from_slice(&2u32.to_le_bytes());
        let checksum = fnv1a64(&v2[20..]);
        v2[12..20].copy_from_slice(&checksum.to_le_bytes());
        assert!(matches!(
            ModelArtifact::decode(Bytes::from(v2)),
            Err(ArtifactError::Corrupt("unsupported version"))
        ));
    }

    #[test]
    fn corruption_and_truncation_are_rejected() {
        let (model, data, cfg) = trained();
        let blob = capture(&model, &data, &cfg).encode();
        // Bit flip in the payload: checksum catches it.
        let mut flipped = blob.as_ref().to_vec();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        assert!(matches!(
            ModelArtifact::decode(Bytes::from(flipped)),
            Err(ArtifactError::Checksum { .. })
        ));
        // Truncations at every region boundary.
        for cut in [0usize, 7, 11, 19, 40, blob.len() - 1] {
            assert!(ModelArtifact::decode(blob.slice(0..cut)).is_err(), "cut={cut}");
        }
        // Wrong magic.
        let mut bad = blob.as_ref().to_vec();
        bad[0] = b'X';
        assert!(matches!(
            ModelArtifact::decode(Bytes::from(bad)),
            Err(ArtifactError::Corrupt("bad magic"))
        ));
    }
}
