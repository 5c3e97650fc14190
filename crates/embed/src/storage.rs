//! Dense embedding storage.
//!
//! An [`EmbeddingTable`] is `rows × dim` of `f32` in one contiguous
//! allocation — the layout used by PS shards, worker caches, and scratch
//! buffers alike. Rows are addressed by a dense local index; the mapping
//! from global [`ParamKey`]s to rows lives with the owner (shard router or
//! cache map).

/// A dense `rows × dim` table of `f32` embeddings.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingTable {
    dim: usize,
    data: Vec<f32>,
}

impl EmbeddingTable {
    /// A zero-initialized table.
    pub fn zeros(rows: usize, dim: usize) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        Self {
            dim,
            data: vec![0.0; rows * dim],
        }
    }

    /// Build from existing data. `data.len()` must be a multiple of `dim`.
    pub fn from_data(dim: usize, data: Vec<f32>) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        assert_eq!(data.len() % dim, 0, "data length must be a multiple of dim");
        Self { dim, data }
    }

    /// Embedding dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Copy `src` into row `i`.
    #[inline]
    pub fn set_row(&mut self, i: usize, src: &[f32]) {
        self.row_mut(i).copy_from_slice(src);
    }

    /// Two distinct mutable rows at once (e.g. head and tail of a triple).
    ///
    /// # Panics
    /// Panics if `i == j`.
    pub fn rows_mut2(&mut self, i: usize, j: usize) -> (&mut [f32], &mut [f32]) {
        assert_ne!(i, j, "rows_mut2 requires distinct rows");
        let dim = self.dim;
        if i < j {
            let (a, b) = self.data.split_at_mut(j * dim);
            (&mut a[i * dim..(i + 1) * dim], &mut b[..dim])
        } else {
            let (a, b) = self.data.split_at_mut(i * dim);
            let second = &mut b[..dim];
            (second, &mut a[j * dim..(j + 1) * dim])
        }
    }

    /// The raw flat buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The raw flat buffer, mutable.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Bytes occupied by one row (the unit metered by the network model).
    #[inline]
    pub fn row_bytes(&self) -> usize {
        self.dim * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape() {
        let t = EmbeddingTable::zeros(3, 4);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.dim(), 4);
        assert!(t.row(2).iter().all(|&v| v == 0.0));
        assert_eq!(t.row_bytes(), 16);
    }

    #[test]
    fn set_and_read_rows() {
        let mut t = EmbeddingTable::zeros(2, 3);
        t.set_row(1, &[1.0, 2.0, 3.0]);
        assert_eq!(t.row(1), &[1.0, 2.0, 3.0]);
        assert_eq!(t.row(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn rows_mut2_returns_correct_rows_either_order() {
        let mut t = EmbeddingTable::zeros(4, 2);
        for i in 0..4 {
            let v = i as f32;
            t.set_row(i, &[v, v]);
        }
        {
            let (a, b) = t.rows_mut2(1, 3);
            assert_eq!(a, &[1.0, 1.0]);
            assert_eq!(b, &[3.0, 3.0]);
            a[0] = 10.0;
            b[0] = 30.0;
        }
        {
            let (a, b) = t.rows_mut2(3, 1);
            assert_eq!(a[0], 30.0);
            assert_eq!(b[0], 10.0);
        }
    }

    #[test]
    #[should_panic(expected = "distinct rows")]
    fn rows_mut2_same_row_panics() {
        let mut t = EmbeddingTable::zeros(2, 2);
        let _ = t.rows_mut2(1, 1);
    }

    #[test]
    fn from_data_validates_multiple() {
        let t = EmbeddingTable::from_data(2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.rows(), 2);
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn from_data_rejects_ragged() {
        let _ = EmbeddingTable::from_data(3, vec![1.0, 2.0]);
    }
}
