//! Chunked copy-on-write tables: the one row store, one per precision.
//!
//! A serving snapshot's precomputed item tables are large (rows ==
//! catalogue size) but a delta publish touches only a changed set `S`.
//! Storing the table as row chunks behind `Arc`s lets a delta build
//! *share* every untouched chunk with the previous snapshot and clone
//! only the chunks containing changed rows ([`Arc::make_mut`]): publish
//! cost and publish-time resident growth become `O(|S| + touched
//! chunks)` instead of `O(rows)`.
//!
//! [`CowTable`] holds the mechanics every precision shares — row
//! addressing, clone-on-touch, chunk accounting. The two precisions are
//! its instantiations: [`CowMatrix`] over f32 [`Matrix`] chunks and
//! [`CowQuantMatrix`] over int8 [`QuantizedMatrix`] chunks. A table is
//! either cut into [`COW_CHUNK_ROWS`]-row chunks (what serving publishes)
//! or adopts an existing contiguous `Arc` as its single chunk without
//! copying it (`From<Arc<_>>`), so a contiguous table is just the
//! one-chunk case. Chunking changes layout, never values: row reads are
//! identical either way, and in-place row updates are bit-identical to
//! rebuilding the row from scratch (f32 rows are copied verbatim; int8
//! rows go through [`QuantizedMatrix::requantize_row`], which is
//! row-local against the table's frozen anchor).

use std::sync::Arc;

use crate::quant::{PreparedQuery, QuantizedMatrix};
use crate::Matrix;

/// Rows per chunk. A power of two so row addressing is a shift + mask;
/// at serving dims (16–128 f32 columns) a chunk is 64 KiB–4 MiB — small
/// enough that cloning the touched chunks of a 1%-changed catalogue
/// stays far below a full-table copy, large enough that the `Arc`
/// indirection is amortized over thousands of rows.
pub const COW_CHUNK_ROWS: usize = 1024;

/// Rows stored as chunks of `C` behind `Arc`s. `clone` is `O(chunks)`
/// pointer bumps; writing `k` rows clones only the chunks they land in.
#[derive(Debug, Clone, PartialEq)]
pub struct CowTable<C> {
    rows: usize,
    cols: usize,
    /// Row `i` is local row `i & mask` of chunk `i >> shift`: log2 of
    /// [`COW_CHUNK_ROWS`] and its low-bit mask for a chunked table; a
    /// shift that sends every row to chunk 0 and an all-ones mask for an
    /// adopted one.
    shift: u32,
    mask: usize,
    chunks: Vec<Arc<C>>,
}

/// An f32 table: row reads are bit-identical to the contiguous
/// [`Matrix`] it was chunked from or adopted.
pub type CowMatrix = CowTable<Matrix>;

/// An int8-quantized table. Every chunk carries the same anchor values
/// as the source table (bit-identical), so one [`PreparedQuery`] serves
/// all chunks and in-place row re-quantization against the shared anchor
/// is exact.
pub type CowQuantMatrix = CowTable<QuantizedMatrix>;

impl<C> CowTable<C> {
    /// Cuts `rows` into [`COW_CHUNK_ROWS`]-row chunks (last one partial),
    /// each produced by `chunk(start, end)`.
    ///
    /// # Panics
    /// Panics on an empty table — a zero-row table has no serving use
    /// and would leave no chunk to carry the shared anchor.
    fn chunked(rows: usize, cols: usize, mut chunk: impl FnMut(usize, usize) -> C) -> Self {
        assert!(rows > 0 && cols > 0, "CowTable: empty source table");
        let chunks = (0..rows.div_ceil(COW_CHUNK_ROWS))
            .map(|c| Arc::new(chunk(c * COW_CHUNK_ROWS, ((c + 1) * COW_CHUNK_ROWS).min(rows))))
            .collect();
        let shift = COW_CHUNK_ROWS.trailing_zeros();
        CowTable { rows, cols, shift, mask: COW_CHUNK_ROWS - 1, chunks }
    }

    /// Wraps an existing contiguous table as the single chunk, zero-copy.
    fn adopt(rows: usize, cols: usize, chunk: Arc<C>) -> Self {
        CowTable { rows, cols, shift: usize::BITS - 1, mask: usize::MAX, chunks: vec![chunk] }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Bytes the table occupies (or would occupy) as dense f32.
    pub fn f32_bytes(&self) -> usize {
        self.rows * self.cols * 4
    }

    /// Number of chunks backing the table.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// How many chunks `self` and `other` share by pointer identity —
    /// the copy-on-write savings a delta actually realized.
    pub fn shared_chunks_with(&self, other: &Self) -> usize {
        self.chunks.iter().zip(&other.chunks).filter(|(a, b)| Arc::ptr_eq(a, b)).count()
    }

    /// The chunk holding row `i` and the row's index inside it.
    #[inline]
    fn locate(&self, i: usize) -> (&C, usize) {
        (&self.chunks[i >> self.shift], i & self.mask)
    }
}

impl<C: Clone> CowTable<C> {
    /// Calls `write(chunk, local_row, rows.row(k))` for every `ids[k]`,
    /// cloning only the touched chunks (untouched chunks stay shared with
    /// every other handle to this table, and an adopted chunk's donor
    /// `Arc` is never written through).
    ///
    /// # Panics
    /// Panics on a width mismatch, a length mismatch between `ids` and
    /// `rows`, or an id out of range.
    fn write_rows(&mut self, ids: &[u32], rows: &Matrix, write: impl Fn(&mut C, usize, &[f32])) {
        assert_eq!(rows.cols(), self.cols, "row update width mismatch");
        assert_eq!(rows.rows(), ids.len(), "row update id/row count mismatch");
        for (k, &id) in ids.iter().enumerate() {
            let i = id as usize;
            assert!(i < self.rows, "row update: id {id} out of range ({} rows)", self.rows);
            let chunk = Arc::make_mut(&mut self.chunks[i >> self.shift]);
            write(chunk, i & self.mask, rows.row(k));
        }
    }
}

impl From<Arc<Matrix>> for CowMatrix {
    /// Adopts `m` as the table's single chunk without copying it.
    fn from(m: Arc<Matrix>) -> Self {
        Self::adopt(m.rows(), m.cols(), m)
    }
}

impl CowMatrix {
    /// Chunks `m` (copies once; later clones share the chunks).
    ///
    /// # Panics
    /// Panics on an empty matrix.
    pub fn from_matrix(m: &Matrix) -> Self {
        let cols = m.cols();
        Self::chunked(m.rows(), cols, |start, end| {
            let mut chunk = Matrix::zeros(end - start, cols);
            chunk.as_mut_slice().copy_from_slice(&m.as_slice()[start * cols..end * cols]);
            chunk
        })
    }

    /// Row `i` as a slice — same values, same order as the source matrix.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        let (chunk, r) = self.locate(i);
        chunk.row(r)
    }

    /// Replaces row `ids[k]` with `rows.row(k)` for every `k`, cloning
    /// only the touched chunks.
    ///
    /// # Panics
    /// Panics on a width/length mismatch or an id out of range.
    pub fn update_rows(&mut self, ids: &[u32], rows: &Matrix) {
        self.write_rows(ids, rows, |chunk, r, row| chunk.row_mut(r).copy_from_slice(row));
    }

    /// Materializes the table as one contiguous [`Matrix`] (used when an
    /// index rebuild needs the whole pool; serving never calls this).
    pub fn to_matrix(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        let mut at = 0;
        for chunk in &self.chunks {
            out.as_mut_slice()[at..at + chunk.len()].copy_from_slice(chunk.as_slice());
            at += chunk.len();
        }
        out
    }
}

impl From<Arc<QuantizedMatrix>> for CowQuantMatrix {
    /// Adopts `q` as the table's single chunk without copying it.
    fn from(q: Arc<QuantizedMatrix>) -> Self {
        Self::adopt(q.rows(), q.cols(), q)
    }
}

impl CowQuantMatrix {
    /// Chunks `q` by exact row slices — codes, scales and zero points
    /// are copied verbatim, so reads reproduce the source bit for bit.
    ///
    /// # Panics
    /// Panics on an empty table.
    pub fn from_quantized(q: &QuantizedMatrix) -> Self {
        Self::chunked(q.rows(), q.cols(), |start, end| q.slice_rows(start, end))
    }

    /// Resident bytes across all chunks. Each chunk stores its own copy
    /// of the anchor row, so a chunked table exceeds the contiguous
    /// footprint by `(chunks - 1) × cols × 4` bytes — noise next to the
    /// codes at serving scale.
    pub fn storage_bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.storage_bytes()).sum()
    }

    /// Quantizes `query` against the shared anchor — interchangeable
    /// with [`QuantizedMatrix::prepare`] on the contiguous source table
    /// (the anchors are bit-identical, so the base term matches).
    pub fn prepare(&self, query: &[f32]) -> PreparedQuery {
        self.chunks[0].prepare(query)
    }

    /// Approximate `dot(row i, query)` — delegates to the chunk holding
    /// the row; identical to the contiguous table's result.
    #[inline]
    pub fn dot_prepared(&self, i: usize, query: &PreparedQuery) -> f32 {
        let (chunk, r) = self.locate(i);
        chunk.dot_prepared(r, query)
    }

    /// Reconstructs row `i` into `out`.
    pub fn dequantize_row_into(&self, i: usize, out: &mut [f32]) {
        let (chunk, r) = self.locate(i);
        chunk.dequantize_row_into(r, out);
    }

    /// Re-quantizes row `ids[k]` in place from `rows.row(k)` against the
    /// table's frozen anchor, cloning only the touched chunks. Exact:
    /// bit-identical to a frozen-anchor rebuild of the same rows (see
    /// [`QuantizedMatrix::requantize_row`]).
    ///
    /// # Panics
    /// Panics on a width/length mismatch or an id out of range.
    pub fn requantize_rows(&mut self, ids: &[u32], rows: &Matrix) {
        self.write_rows(ids, rows, |chunk, r, row| chunk.requantize_row(r, row));
    }

    /// Concatenates the chunks back into one contiguous
    /// [`QuantizedMatrix`] (artifact persistence); bit-identical to the
    /// table this was chunked from, with all row updates applied.
    pub fn to_quantized(&self) -> QuantizedMatrix {
        let mut out = (*self.chunks[0]).clone();
        for chunk in &self.chunks[1..] {
            out.append_rows(chunk);
        }
        out
    }

    /// Reconstructs the full table as f32 (drift-triggered index
    /// rebuilds over a quantized pool; serving never calls this).
    pub fn dequantize(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            self.dequantize_row_into(i, out.row_mut(i));
        }
        out
    }
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
    fn chunked_rows_match_the_source_bitwise() {
        // Straddle a chunk boundary: 2.5 chunks.
        let m = random_matrix(2 * COW_CHUNK_ROWS + 512, 7, 3);
        let cow = CowMatrix::from_matrix(&m);
        assert_eq!(cow.chunk_count(), 3);
        for i in [0, 1, COW_CHUNK_ROWS - 1, COW_CHUNK_ROWS, 2 * COW_CHUNK_ROWS + 511] {
            assert_eq!(cow.row(i), m.row(i), "row {i}");
        }
        assert_eq!(cow.to_matrix(), m);
    }

    #[test]
    fn update_rows_clones_only_touched_chunks() {
        let m = random_matrix(3 * COW_CHUNK_ROWS, 5, 9);
        let base = CowMatrix::from_matrix(&m);
        let mut delta = base.clone();
        assert_eq!(delta.shared_chunks_with(&base), 3, "clone shares everything");

        // Touch one row in chunk 0 and one in chunk 2; chunk 1 must stay
        // pointer-shared with the base table.
        let ids = [5u32, (2 * COW_CHUNK_ROWS + 17) as u32];
        let rows = random_matrix(2, 5, 11);
        delta.update_rows(&ids, &rows);
        assert_eq!(delta.shared_chunks_with(&base), 1, "only touched chunks cloned");
        assert_eq!(delta.row(5), rows.row(0));
        assert_eq!(delta.row(2 * COW_CHUNK_ROWS + 17), rows.row(1));
        assert_eq!(base.row(5), m.row(5), "base table unperturbed");

        // The materialized delta equals an eager full copy with the same
        // rows replaced.
        let mut eager = m.clone();
        eager.row_mut(5).copy_from_slice(rows.row(0));
        eager.row_mut(2 * COW_CHUNK_ROWS + 17).copy_from_slice(rows.row(1));
        assert_eq!(delta.to_matrix(), eager);
    }

    #[test]
    fn quant_chunking_preserves_codes_and_dots_bitwise() {
        let m = random_matrix(COW_CHUNK_ROWS + 37, 16, 5);
        let q = QuantizedMatrix::from_matrix(&m);
        let cow = CowQuantMatrix::from_quantized(&q);
        assert_eq!(cow.chunk_count(), 2);
        assert_eq!(cow.to_quantized(), q);

        let mut rng = Rng64::seed_from_u64(77);
        let query: Vec<f32> = (0..16).map(|_| rng.normal()).collect();
        let prep_cow = cow.prepare(&query);
        let prep_src = q.prepare(&query);
        assert_eq!(prep_cow, prep_src, "same anchor, same prepared query");
        for i in [0, COW_CHUNK_ROWS - 1, COW_CHUNK_ROWS, COW_CHUNK_ROWS + 36] {
            assert_eq!(cow.dot_prepared(i, &prep_cow), q.dot_prepared(i, &prep_src), "row {i}");
        }
    }

    #[test]
    fn requantize_rows_is_exact_and_copy_on_write() {
        let m = random_matrix(2 * COW_CHUNK_ROWS, 9, 13);
        let q = QuantizedMatrix::from_matrix(&m);
        let base = CowQuantMatrix::from_quantized(&q);
        let mut delta = base.clone();

        let ids = [3u32, (COW_CHUNK_ROWS + 100) as u32];
        let rows = random_matrix(2, 9, 15);
        delta.requantize_rows(&ids, &rows);
        assert_eq!(delta.shared_chunks_with(&base), 0, "both chunks touched here");

        // Oracle: a frozen-anchor rebuild of the fully updated matrix.
        let mut updated = m.clone();
        updated.row_mut(3).copy_from_slice(rows.row(0));
        updated.row_mut(COW_CHUNK_ROWS + 100).copy_from_slice(rows.row(1));
        let mut oracle = QuantizedMatrix::with_anchor(q.anchor().to_vec());
        for row in updated.iter_rows() {
            oracle.push_row(row);
        }
        assert_eq!(delta.to_quantized(), oracle);
        assert_eq!(base.to_quantized(), q, "base table unperturbed");
    }
}
