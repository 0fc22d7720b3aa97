//! Int8 row quantization for serving-time embedding tables.
//!
//! A [`QuantizedMatrix`] stores each row of an `n x d` f32 matrix as `d`
//! signed bytes plus a per-row affine code `(scale, zero_point)`:
//!
//! ```text
//!   value[j] ~= scale * (q[j] + 128 - nzp)        q[j] in [-128, 127]
//! ```
//!
//! where `nzp in [0, 255]` is the *negated* zero point (stored as one
//! byte). The code range always covers zero, so all-equal and all-zero
//! rows round-trip exactly and sparse dot products against padded
//! queries stay well-behaved. Per row the footprint is `d + 5` bytes
//! (`d` codes + `f32` scale + `u8` nzp) versus `4d` for f32 — 3.7× at
//! d=64, 3.9× at the paper's d=128.
//!
//! Scores are computed without dequantizing: the f32 query is quantized
//! once (symmetric, per-query scale) into a [`PreparedQuery`], and each
//! row dot becomes one int8×int8→i32 kernel call ([`dot_i8`], scalar
//! reference + AVX2 routed by backend selection (see [`crate::backend`]),
//! bit-identical — integer arithmetic is exact) plus two multiplies:
//!
//! ```text
//!   dot(row, query) ~= scale * qscale * (Σ q[j]·p[j]  +  off · Σ p[j])
//! ```
//!
//! with `off = 128 - nzp` hoisted out of the sum via the precomputed
//! query element sum. The quantize→dequantize error is at most
//! `scale / 2` per element (proptested), which bounds the dot error by
//! `(scale/2)·‖query‖₁ + (qscale/2)·‖row‖₁`; quantized retrieval is
//! therefore *toleranced*, not bit-identical, against the f32 path.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::backend::{self, MicroArch};
use crate::{Matrix, Result, TensorError};

const MAGIC: &[u8; 4] = b"ATQ8";
const VERSION: u32 = 1;

/// An `n x d` matrix of int8 row codes with per-row affine parameters.
///
/// Rows are quantized as *residuals* against a shared f32 **anchor** row
/// (one `d`-vector for the whole table — amortized to nothing):
/// `value[j] ~= anchor[j] + scale * (q[j] + 128 - nzp)`. Trained
/// embedding tables carry strong shared components (e.g. a popularity
/// bias direction several units long while per-item variation is
/// fractional); anchoring at the column means shrinks each row's value
/// range and therefore its scale — directly tightening the `scale/2`
/// error bound where it matters for rank stability.
/// [`QuantizedMatrix::from_matrix`] anchors at the column means;
/// [`QuantizedMatrix::new`] uses a zero anchor (plain affine rows).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    anchor: Vec<f32>,
    data: Vec<i8>,
    scales: Vec<f32>,
    /// Negated zero point per row: `zero_point = -(nzp as i32)`.
    nzps: Vec<u8>,
}

/// A query vector quantized once for repeated row dots.
///
/// Two symmetric int8 codes: a coarse part (`value ~= hi_scale * hi[j]`)
/// and a residual part covering what the coarse code dropped
/// (`residual ~= lo_scale * lo[j]`, `lo_scale = hi_scale / 254`). The
/// pair reconstructs the query to within `hi_scale / 508 ≈ max|v| /
/// 64516` per element, so quantized-dot error is dominated by the *row*
/// codes, not the query — at the cost of two int8 kernel calls per row
/// instead of one. Element sums of both parts are precomputed so each
/// row's zero-point correction folds into two multiplies.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedQuery {
    hi: Vec<i8>,
    lo: Vec<i8>,
    hi_scale: f32,
    lo_scale: f32,
    hi_sum: i32,
    lo_sum: i32,
    /// `dot(anchor, query)` of the table the query was prepared against
    /// — the exact f32 contribution of the shared anchor row, added to
    /// every row dot.
    base: f32,
}

impl PreparedQuery {
    fn build(query: &[f32], base: f32) -> Self {
        let max_abs = query.iter().filter(|v| v.is_finite()).fold(0.0f32, |m, &v| m.max(v.abs()));
        if max_abs <= 0.0 || !max_abs.is_finite() {
            let n = query.len();
            return Self {
                hi: vec![0; n],
                lo: vec![0; n],
                hi_scale: 0.0,
                lo_scale: 0.0,
                hi_sum: 0,
                lo_sum: 0,
                base,
            };
        }
        let hi_scale = max_abs / 127.0;
        let lo_scale = hi_scale / 254.0;
        let mut hi = Vec::with_capacity(query.len());
        let mut lo = Vec::with_capacity(query.len());
        let (mut hi_sum, mut lo_sum) = (0i32, 0i32);
        for &v in query {
            let v = if v.is_finite() { v } else { 0.0 };
            let h = (v / hi_scale).round().clamp(-127.0, 127.0) as i32;
            let r = v - hi_scale * h as f32;
            let l = (r / lo_scale).round().clamp(-127.0, 127.0) as i32;
            hi_sum += h;
            lo_sum += l;
            hi.push(h as i8);
            lo.push(l as i8);
        }
        Self { hi, lo, hi_scale, lo_scale, hi_sum, lo_sum, base }
    }

    /// Query dimensionality.
    pub fn dim(&self) -> usize {
        self.hi.len()
    }

    /// The coarse code scale (0.0 for an all-zero query).
    pub fn scale(&self) -> f32 {
        self.hi_scale
    }
}

impl QuantizedMatrix {
    /// An empty table of width `cols` with a **zero anchor** (plain
    /// per-row affine codes); grow it with [`QuantizedMatrix::push_row`]
    /// (streaming build — the f32 source never needs to be resident all
    /// at once).
    pub fn new(cols: usize) -> Self {
        Self::with_anchor(vec![0.0; cols])
    }

    /// An empty table quantizing rows as residuals against `anchor`
    /// (typically the column means of the source table — see the type
    /// docs). Non-finite anchor entries are treated as 0.
    pub fn with_anchor(mut anchor: Vec<f32>) -> Self {
        for a in anchor.iter_mut() {
            if !a.is_finite() {
                *a = 0.0;
            }
        }
        let cols = anchor.len();
        Self { rows: 0, cols, anchor, data: Vec::new(), scales: Vec::new(), nzps: Vec::new() }
    }

    /// Quantizes every row of `m`, anchored at `m`'s column means.
    pub fn from_matrix(m: &Matrix) -> Self {
        let (n, d) = m.shape();
        let mut acc = vec![0.0f64; d];
        for row in m.iter_rows() {
            for (a, &v) in acc.iter_mut().zip(row) {
                if v.is_finite() {
                    *a += f64::from(v);
                }
            }
        }
        let anchor: Vec<f32> = acc.iter().map(|&a| (a / n.max(1) as f64) as f32).collect();
        let mut out = Self::with_anchor(anchor);
        out.data.reserve(m.len());
        out.scales.reserve(n);
        out.nzps.reserve(n);
        for row in m.iter_rows() {
            out.push_row(row);
        }
        out
    }

    /// Appends one quantized row.
    ///
    /// The affine code is chosen so the representable range covers both
    /// the row's value range and zero: `scale = (max' - min') / 255`
    /// with `min' = min(min, 0)`, `max' = max(max, 0)`, and the zero
    /// point is the integer nearest `min'/scale`. Codes are computed as
    /// `round(clamp(v/scale - zp, 0, 255)) - 128`, which keeps the
    /// per-element reconstruction error at most `scale / 2` with no
    /// clamp overshoot. Non-finite inputs are treated as 0.
    ///
    /// # Panics
    /// Panics on a width mismatch.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols, "quantized row width mismatch");
        let start = self.data.len();
        self.data.resize(start + self.cols, 0);
        let (scale, nzp) = quantize_row_into(&self.anchor, row, &mut self.data[start..]);
        self.scales.push(scale);
        self.nzps.push(nzp);
        self.rows += 1;
    }

    /// Re-quantizes row `i` in place from its new f32 values, against the
    /// table's **existing** anchor. The affine code is row-local — it
    /// depends only on `row` and the (shared, unchanged) anchor — so the
    /// result is bit-identical to what [`QuantizedMatrix::push_row`]
    /// would have produced for the same values at build time. This is
    /// what makes delta re-quantization exact: updating the rows of a
    /// changed set reproduces, code for code, a full streaming rebuild
    /// over the updated source (with the anchor held fixed).
    ///
    /// # Panics
    /// Panics on a width mismatch or a row index out of range.
    pub fn requantize_row(&mut self, i: usize, row: &[f32]) {
        assert_eq!(row.len(), self.cols, "quantized row width mismatch");
        assert!(i < self.rows, "requantize_row: row {i} out of range ({} rows)", self.rows);
        let start = i * self.cols;
        let (scale, nzp) =
            quantize_row_into(&self.anchor, row, &mut self.data[start..start + self.cols]);
        self.scales[i] = scale;
        self.nzps[i] = nzp;
    }

    /// An exact copy of rows `start..end` (codes, scales, zero points)
    /// sharing this table's anchor values. No re-quantization happens —
    /// concatenating slices reproduces the source table bit for bit.
    ///
    /// # Panics
    /// Panics when `start > end` or `end > rows`.
    pub fn slice_rows(&self, start: usize, end: usize) -> QuantizedMatrix {
        assert!(start <= end && end <= self.rows, "slice_rows range out of bounds");
        QuantizedMatrix {
            rows: end - start,
            cols: self.cols,
            anchor: self.anchor.clone(),
            data: self.data[start * self.cols..end * self.cols].to_vec(),
            scales: self.scales[start..end].to_vec(),
            nzps: self.nzps[start..end].to_vec(),
        }
    }

    /// Appends every row of `other` (codes copied verbatim). Both tables
    /// must share the same width and bit-identical anchors — appending
    /// re-quantizes nothing, so mixed anchors would silently corrupt the
    /// reconstruction.
    ///
    /// # Panics
    /// Panics on a width or anchor mismatch.
    pub fn append_rows(&mut self, other: &QuantizedMatrix) {
        assert_eq!(self.cols, other.cols, "append_rows width mismatch");
        assert!(
            self.anchor.iter().zip(&other.anchor).all(|(a, b)| a.to_bits() == b.to_bits()),
            "append_rows anchor mismatch"
        );
        self.data.extend_from_slice(&other.data);
        self.scales.extend_from_slice(&other.scales);
        self.nzps.extend_from_slice(&other.nzps);
        self.rows += other.rows;
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Raw int8 codes of row `i`.
    pub fn row_data(&self, i: usize) -> &[i8] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Affine scale of row `i`.
    pub fn row_scale(&self, i: usize) -> f32 {
        self.scales[i]
    }

    /// The additive code offset of row `i`: `value = scale * (code + off)`.
    pub fn row_offset(&self, i: usize) -> i32 {
        128 - self.nzps[i] as i32
    }

    /// The shared anchor row.
    pub fn anchor(&self) -> &[f32] {
        &self.anchor
    }

    /// Resident bytes of the quantized table (codes + per-row params +
    /// the shared anchor row).
    pub fn storage_bytes(&self) -> usize {
        self.data.len() + self.scales.len() * 4 + self.nzps.len() + self.anchor.len() * 4
    }

    /// Bytes the same table occupies as dense f32.
    pub fn f32_bytes(&self) -> usize {
        self.rows * self.cols * 4
    }

    /// Reconstructs row `i` into `out` (`out.len() == cols`).
    pub fn dequantize_row_into(&self, i: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.cols, "dequantize width mismatch");
        let s = self.scales[i];
        let off = self.row_offset(i);
        for ((o, &c), &a) in out.iter_mut().zip(self.row_data(i)).zip(&self.anchor) {
            *o = a + s * (c as i32 + off) as f32;
        }
    }

    /// Reconstructs the full table as f32 (tests and fallbacks; the
    /// serving paths never materialize this).
    pub fn dequantize(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            self.dequantize_row_into(i, m.row_mut(i));
        }
        m
    }

    /// Quantizes `query` for repeated row dots against **this** table —
    /// the prepared query carries the exact f32 `dot(anchor, query)`
    /// base term, so it must not be reused against a table with a
    /// different anchor ([`QuantizedMatrix::dot_prepared`] checks the
    /// width; the anchor pairing is the caller's contract).
    pub fn prepare(&self, query: &[f32]) -> PreparedQuery {
        assert_eq!(query.len(), self.cols, "query width mismatch");
        let base = self
            .anchor
            .iter()
            .zip(query)
            .map(|(&a, &q)| if q.is_finite() { a * q } else { 0.0 })
            .sum();
        PreparedQuery::build(query, base)
    }

    /// Approximate `dot(row i, query)` via two int8 kernel calls (the
    /// query's coarse and residual codes) plus the exact anchor term.
    /// Backend selection is resolved once for both kernel calls.
    pub fn dot_prepared(&self, i: usize, query: &PreparedQuery) -> f32 {
        debug_assert_eq!(query.dim(), self.cols, "prepared query width mismatch");
        if query.hi_scale == 0.0 {
            return query.base;
        }
        let arch = backend::current_arch();
        let row = self.row_data(i);
        let off = self.row_offset(i);
        let hi = dot_i8_arch(row, &query.hi, arch) + off * query.hi_sum;
        let lo = dot_i8_arch(row, &query.lo, arch) + off * query.lo_sum;
        query.base + self.scales[i] * (query.hi_scale * hi as f32 + query.lo_scale * lo as f32)
    }

    /// Appends the binary encoding (magic `ATQ8`, version, shape, anchor,
    /// codes, scales, nzps — all little-endian) to `buf`.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        buf.reserve(
            4 + 4
                + 16
                + self.anchor.len() * 4
                + self.data.len()
                + self.scales.len() * 4
                + self.nzps.len(),
        );
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u64_le(self.rows as u64);
        buf.put_u64_le(self.cols as u64);
        for &a in &self.anchor {
            buf.put_f32_le(a);
        }
        for &c in &self.data {
            buf.put_u8(c as u8);
        }
        for &s in &self.scales {
            buf.put_f32_le(s);
        }
        buf.put_slice(&self.nzps);
    }

    /// Decodes one quantized table from the front of `buf`, advancing it.
    ///
    /// # Errors
    /// Returns [`TensorError::Corrupt`] on bad magic/version, a
    /// truncated buffer, or a non-positive/non-finite stored scale.
    pub fn decode(buf: &mut Bytes) -> Result<Self> {
        if buf.remaining() < 4 + 4 + 16 {
            return Err(TensorError::Corrupt("quant header truncated"));
        }
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(TensorError::Corrupt("bad quant magic"));
        }
        if buf.get_u32_le() != VERSION {
            return Err(TensorError::Corrupt("unsupported quant version"));
        }
        let rows = buf.get_u64_le() as usize;
        let cols = buf.get_u64_le() as usize;
        // Anchor (4·cols) + codes (rows·cols) + scales (4·rows) + nzps (rows).
        // The shape is outside input: a sum that wrapped would pass the
        // truncation check and size the allocations below from garbage.
        let n = rows.checked_mul(cols);
        let payload =
            n.and_then(|n| n.checked_add(cols.checked_mul(4)?)?.checked_add(rows.checked_mul(5)?));
        let (Some(n), Some(payload)) = (n, payload) else {
            return Err(TensorError::Corrupt("quant shape overflow"));
        };
        if buf.remaining() < payload {
            return Err(TensorError::Corrupt("quant payload truncated"));
        }
        let mut anchor = Vec::with_capacity(cols);
        for _ in 0..cols {
            let a = buf.get_f32_le();
            if !a.is_finite() {
                return Err(TensorError::Corrupt("quant anchor out of range"));
            }
            anchor.push(a);
        }
        let mut data = vec![0i8; n];
        for c in data.iter_mut() {
            *c = buf.get_u8() as i8;
        }
        let mut scales = Vec::with_capacity(rows);
        for _ in 0..rows {
            let s = buf.get_f32_le();
            if s <= 0.0 || !s.is_finite() {
                return Err(TensorError::Corrupt("quant scale out of range"));
            }
            scales.push(s);
        }
        let mut nzps = vec![0u8; rows];
        buf.copy_to_slice(&mut nzps);
        Ok(Self { rows, cols, anchor, data, scales, nzps })
    }
}

/// The per-row affine code: residuals against `anchor`, range covering
/// zero (`scale = (max' - min') / 255`, zero point nearest `min'/scale`),
/// codes `round(clamp(v/scale - zp, 0, 255)) - 128`. Shared by
/// [`QuantizedMatrix::push_row`] (append) and
/// [`QuantizedMatrix::requantize_row`] (in-place) so both produce
/// bit-identical codes for the same values. Non-finite inputs are 0.
fn quantize_row_into(anchor: &[f32], row: &[f32], codes: &mut [i8]) -> (f32, u8) {
    let resid = |v: f32, a: f32| if v.is_finite() { v - a } else { 0.0 };
    let mut lo = 0.0f32;
    let mut hi = 0.0f32;
    for (&v, &a) in row.iter().zip(anchor) {
        let r = resid(v, a);
        lo = lo.min(r);
        hi = hi.max(r);
    }
    let mut scale = (hi - lo) / 255.0;
    if scale <= 0.0 || !scale.is_finite() {
        // Degenerate row (all residuals zero / non-finite): any
        // positive scale reproduces it exactly through code 0.
        scale = 1.0;
    }
    let zp = (lo / scale).round() as i32; // in [-255, 0]
    let nzp = (-zp).clamp(0, 255) as u8;
    for ((&v, &a), c) in row.iter().zip(anchor).zip(codes.iter_mut()) {
        let u = (resid(v, a) / scale - zp as f32).clamp(0.0, 255.0);
        *c = (u.round() as i32 - 128) as i8;
    }
    (scale, nzp)
}

/// Exact int8×int8→i32 dot product, dispatched by backend selection: the
/// scalar backend runs the reference kernel, everything else the AVX2
/// kernel when the cached capability probe allows it. Integer arithmetic:
/// the paths are bit-identical by construction (and pinned by test), so
/// even the fast-math backend serves exact int8 dots.
///
/// # Panics
/// Panics on a length mismatch.
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    dot_i8_arch(a, b, backend::current_arch())
}

/// [`dot_i8`] with the backend resolution hoisted out — callers issuing
/// several dots per logical op (e.g. [`QuantizedMatrix::dot_prepared`])
/// resolve once.
fn dot_i8_arch(a: &[i8], b: &[i8], arch: MicroArch) -> i32 {
    assert_eq!(a.len(), b.len(), "dot_i8 length mismatch");
    #[cfg(target_arch = "x86_64")]
    if a.len() >= 16 && arch != MicroArch::Scalar {
        // SAFETY: the Avx2/FastMath arch variants only resolve when the
        // capability probe reported AVX2; lengths are equal.
        return unsafe { dot_i8_avx2(a, b) };
    }
    let _ = arch;
    dot_i8_scalar(a, b)
}

/// Scalar reference kernel (the oracle the SIMD path must match).
pub fn dot_i8_scalar(a: &[i8], b: &[i8]) -> i32 {
    a.iter().zip(b).map(|(&x, &y)| x as i32 * y as i32).sum()
}

/// AVX2 kernel: 16 codes per iteration — sign-extend i8→i16, multiply-
/// accumulate pairs into i32 lanes (`maddubs` needs an unsigned operand,
/// `cvtepi8_epi16` + `madd_epi16` keeps both signed; |±127·±127·2| fits
/// i32 with headroom for any realistic dim).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_i8_avx2(a: &[i8], b: &[i8]) -> i32 {
    use std::arch::x86_64::*;
    let n = a.len();
    let mut acc = _mm256_setzero_si256();
    let mut i = 0;
    while i + 16 <= n {
        let va = _mm_loadu_si128(a.as_ptr().add(i) as *const __m128i);
        let vb = _mm_loadu_si128(b.as_ptr().add(i) as *const __m128i);
        let wa = _mm256_cvtepi8_epi16(va);
        let wb = _mm256_cvtepi8_epi16(vb);
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(wa, wb));
        i += 16;
    }
    let lo = _mm256_castsi256_si128(acc);
    let hi = _mm256_extracti128_si256(acc, 1);
    let s = _mm_add_epi32(lo, hi);
    let s = _mm_add_epi32(s, _mm_unpackhi_epi64(s, s));
    let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b01));
    let mut total = _mm_cvtsi128_si32(s);
    while i < n {
        total += *a.get_unchecked(i) as i32 * *b.get_unchecked(i) as i32;
        i += 1;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng64;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = Rng64::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.normal_with(0.1, 1.3))
    }

    #[test]
    fn round_trip_error_is_within_half_scale() {
        let m = random_matrix(64, 33, 7);
        let q = QuantizedMatrix::from_matrix(&m);
        for i in 0..m.rows() {
            let mut back = vec![0.0; m.cols()];
            q.dequantize_row_into(i, &mut back);
            let tol = q.row_scale(i) * 0.5 * (1.0 + 1e-4);
            for (a, b) in m.row(i).iter().zip(&back) {
                assert!((a - b).abs() <= tol, "row {i}: {a} vs {b} (tol {tol})");
            }
        }
    }

    #[test]
    fn all_equal_and_zero_rows_round_trip_exactly() {
        let m = Matrix::from_rows(&[
            &[5.0f32, 5.0, 5.0, 5.0],
            &[0.0, 0.0, 0.0, 0.0],
            &[-3.25, -3.25, -3.25, -3.25],
        ])
        .unwrap();
        let q = QuantizedMatrix::from_matrix(&m);
        let back = q.dequantize();
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                let (a, b) = (m.get(i, j), back.get(i, j));
                assert!((a - b).abs() <= 1e-5 * a.abs().max(1.0), "({i},{j}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn prepared_dot_tracks_f32_dot() {
        let m = random_matrix(200, 48, 11);
        let mut rng = Rng64::seed_from_u64(99);
        let query: Vec<f32> = (0..48).map(|_| rng.normal()).collect();
        let q = QuantizedMatrix::from_matrix(&m);
        let prep = q.prepare(&query);
        let l1q: f32 = query.iter().map(|v| v.abs()).sum();
        for i in 0..m.rows() {
            let exact = crate::dot(m.row(i), &query);
            let approx = q.dot_prepared(i, &prep);
            let l1r: f32 = m.row(i).iter().map(|v| v.abs()).sum();
            let tol = 0.5 * q.row_scale(i) * l1q + 0.5 * prep.scale() * l1r + 1e-3;
            assert!((exact - approx).abs() <= tol, "row {i}: {exact} vs {approx} (tol {tol})");
        }
    }

    #[test]
    fn zero_query_dots_are_exactly_zero() {
        let m = random_matrix(4, 16, 3);
        let q = QuantizedMatrix::from_matrix(&m);
        let prep = q.prepare(&[0.0; 16]);
        for i in 0..4 {
            assert_eq!(q.dot_prepared(i, &prep), 0.0);
        }
    }

    #[test]
    fn anchoring_shrinks_scales_on_shared_component_tables() {
        // Rows = big shared vector + small per-row noise, the structure
        // trained embedding tables actually have. The anchored codes must
        // carry materially smaller scales (tighter error bounds) than
        // plain affine codes, and the anchored prepared dot must track
        // the exact f32 dot more tightly.
        let mut rng = Rng64::seed_from_u64(17);
        let d = 32;
        let shared: Vec<f32> = (0..d).map(|_| rng.normal_with(0.0, 3.0)).collect();
        let m = Matrix::from_fn(128, d, |_, j| shared[j] + 0.05 * rng_cell(&mut rng));
        fn rng_cell(rng: &mut Rng64) -> f32 {
            rng.normal()
        }
        let anchored = QuantizedMatrix::from_matrix(&m);
        let mut plain = QuantizedMatrix::new(d);
        for row in m.iter_rows() {
            plain.push_row(row);
        }
        let mean = |q: &QuantizedMatrix| {
            (0..q.rows()).map(|i| q.row_scale(i) as f64).sum::<f64>() / q.rows() as f64
        };
        assert!(
            mean(&anchored) < mean(&plain) / 4.0,
            "anchored {} vs plain {}",
            mean(&anchored),
            mean(&plain)
        );
    }

    #[test]
    fn avx2_kernel_matches_scalar_bitwise() {
        let mut rng = Rng64::seed_from_u64(42);
        for len in [1usize, 15, 16, 17, 31, 32, 48, 63, 64, 127, 1000] {
            let a: Vec<i8> = (0..len).map(|_| rng.next_u64() as i8).collect();
            let b: Vec<i8> = (0..len).map(|_| rng.next_u64() as i8).collect();
            assert_eq!(dot_i8(&a, &b), dot_i8_scalar(&a, &b), "len {len}");
        }
        // Saturation corners.
        let a = vec![-128i8; 64];
        let b = vec![-128i8; 64];
        assert_eq!(dot_i8(&a, &b), 64 * 128 * 128);
        let c = vec![127i8; 64];
        assert_eq!(dot_i8(&a, &c), -64 * 128 * 127);
    }

    #[test]
    fn encode_decode_round_trips() {
        let m = random_matrix(17, 9, 5);
        let q = QuantizedMatrix::from_matrix(&m);
        let mut buf = BytesMut::new();
        q.encode_into(&mut buf);
        let mut bytes = buf.freeze();
        let back = QuantizedMatrix::decode(&mut bytes).unwrap();
        assert_eq!(q, back);
        assert_eq!(bytes.remaining(), 0);
    }

    #[test]
    fn decode_rejects_truncation_and_bad_magic() {
        let q = QuantizedMatrix::from_matrix(&random_matrix(3, 4, 1));
        let mut buf = BytesMut::new();
        q.encode_into(&mut buf);
        let full = buf.freeze();
        let mut truncated = full.slice(0..full.len() - 1);
        assert!(QuantizedMatrix::decode(&mut truncated).is_err());
        let mut garbled = BytesMut::from(&full[..]);
        garbled[0] ^= 0xff;
        assert!(QuantizedMatrix::decode(&mut garbled.freeze()).is_err());
    }

    #[test]
    fn decode_rejects_a_header_whose_payload_size_wraps() {
        // rows = 0, cols = 2^62 + 1: `cols * 4` wraps to 4, so an unchecked
        // size sum passes the truncation test against the 64 bytes that
        // follow and the anchor allocation dies with `capacity overflow`.
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u64_le(0);
        buf.put_u64_le((1u64 << 62) + 1);
        buf.put_slice(&[0u8; 64]);
        assert_eq!(buf.len(), 88);
        assert!(matches!(
            QuantizedMatrix::decode(&mut buf.freeze()),
            Err(TensorError::Corrupt("quant shape overflow"))
        ));
    }

    #[test]
    fn requantize_row_matches_a_frozen_anchor_rebuild_bitwise() {
        // Mutate a changed set S of rows, requantize only S in place, and
        // compare against streaming the whole updated matrix through
        // push_row with the *original* anchor held fixed. Row codes are
        // row-local, so the two must agree code for code — the exactness
        // claim delta publishes rely on.
        let m = random_matrix(40, 19, 21);
        let mut q = QuantizedMatrix::from_matrix(&m);
        let mut updated = m.clone();
        let mut rng = Rng64::seed_from_u64(5);
        let changed: Vec<usize> = vec![0, 7, 13, 14, 39];
        for &i in &changed {
            for j in 0..updated.cols() {
                updated.set(i, j, rng.normal_with(-0.2, 2.0));
            }
        }
        for &i in &changed {
            q.requantize_row(i, updated.row(i));
        }
        let mut oracle = QuantizedMatrix::with_anchor(q.anchor().to_vec());
        for row in updated.iter_rows() {
            oracle.push_row(row);
        }
        assert_eq!(q, oracle);
    }

    #[test]
    fn slice_and_append_round_trip_the_table_bitwise() {
        let m = random_matrix(23, 8, 9);
        let q = QuantizedMatrix::from_matrix(&m);
        let mut rebuilt = q.slice_rows(0, 10);
        rebuilt.append_rows(&q.slice_rows(10, 17));
        rebuilt.append_rows(&q.slice_rows(17, 23));
        assert_eq!(q, rebuilt);
        assert_eq!(q.slice_rows(5, 5).rows(), 0);
    }

    #[test]
    fn storage_is_at_least_3_5x_smaller_at_dim_64() {
        let q = QuantizedMatrix::from_matrix(&random_matrix(100, 64, 2));
        let ratio = q.f32_bytes() as f64 / q.storage_bytes() as f64;
        assert!(ratio >= 3.5, "ratio {ratio}");
    }
}
