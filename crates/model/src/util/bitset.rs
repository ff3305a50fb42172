//! Compact fixed-capacity bit sets, one per row of a [`BitMatrix`].
//!
//! The environment tracks, for every ant, the set of candidate nests the ant
//! *knows* (has visited or been recruited to) in order to enforce the
//! legality of [`go`](crate::Action::Go) calls. Colonies can have tens of
//! thousands of ants, so the knowledge sets are stored as rows of one bit
//! matrix rather than as hash sets.
//!
//! # Examples
//!
//! ```
//! use hh_model::util::BitMatrix;
//!
//! // Two rows (ants) over values 0..100 (nest ids).
//! let mut known = BitMatrix::new(2, 100);
//! known.insert(0, 3);
//! known.insert(0, 97);
//! assert!(known.contains(0, 3));
//! assert!(!known.contains(0, 4));
//! assert!(!known.contains(1, 3), "rows are independent");
//! assert_eq!(known.iter_row(0).collect::<Vec<_>>(), vec![3, 97]);
//! assert_eq!(known.first(0), Some(3));
//! ```

/// Fixed-capacity bit sets stored back to back, one per row, over
/// values in `0..capacity`: the one implementation of the row
/// operations, generic over the words it reads.
///
/// The environment keeps one knowledge set per ant; storing them as
/// separate per-ant sets would mean one heap allocation and one pointer
/// chase per ant — poison for the executor's per-round legality checks
/// and recruitment learning loop. The rows are packed back to back (for
/// `capacity ≤ 64`, one word per ant), so a colony's entire knowledge
/// state is a single cache-friendly allocation, the [`BitMatrix`]; a
/// chunk of ants borrows its rows as a [`RowBandMut`].
pub struct BitRows<W> {
    words: W,
    words_per_row: usize,
    capacity: usize,
}

/// The owning matrix of [`BitRows`]: `rows` sets backed by **one**
/// contiguous `Vec<u64>`.
pub type BitMatrix = BitRows<Vec<u64>>;

/// A mutable view over a contiguous band of [`BitMatrix`] rows.
///
/// Rows are word-aligned (each row owns at least one whole `u64`), so
/// bands over disjoint row ranges never alias: [`RowBandMut::split_at`]
/// partitions a band into two independent bands that can be mutated
/// concurrently. Row indices are band-local (the first row of a band is
/// row 0).
pub type RowBandMut<'a> = BitRows<&'a mut [u64]>;

impl BitMatrix {
    /// Creates `rows` empty sets, each able to hold values in
    /// `0..capacity`.
    #[must_use]
    pub fn new(rows: usize, capacity: usize) -> Self {
        let words_per_row = capacity.div_ceil(64).max(1);
        Self {
            words: vec![0; rows * words_per_row],
            words_per_row,
            capacity,
        }
    }

    /// A mutable view over all rows, splittable into disjoint row bands
    /// for chunked (parallel) processing — see [`RowBandMut`].
    #[must_use]
    pub fn rows_mut(&mut self) -> RowBandMut<'_> {
        BitRows {
            words: &mut self.words,
            words_per_row: self.words_per_row,
            capacity: self.capacity,
        }
    }
}

impl<'a> RowBandMut<'a> {
    /// Splits the band into `[0, row)` and `[row, rows())`.
    ///
    /// # Panics
    ///
    /// Panics if `row > rows()`.
    #[must_use]
    pub fn split_at(self, row: usize) -> (RowBandMut<'a>, RowBandMut<'a>) {
        let (head, tail) = self.words.split_at_mut(row * self.words_per_row);
        let band = |words| BitRows {
            words,
            words_per_row: self.words_per_row,
            capacity: self.capacity,
        };
        (band(head), band(tail))
    }
}

impl<W: std::ops::Deref<Target = [u64]>> BitRows<W> {
    /// The number of rows (sets).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.words.len() / self.words_per_row
    }

    fn row(&self, row: usize) -> &[u64] {
        let start = row * self.words_per_row;
        &self.words[start..start + self.words_per_row]
    }

    /// Returns `true` if row `row` contains `value`. Out-of-range values
    /// are never contained.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[inline]
    #[must_use]
    pub fn contains(&self, row: usize, value: usize) -> bool {
        if value >= self.capacity {
            return false;
        }
        self.words[row * self.words_per_row + value / 64] & (1u64 << (value % 64)) != 0
    }

    /// Inserts `value` into row `row`, returning `true` if it was fresh.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `value >= capacity`.
    #[inline]
    pub fn insert(&mut self, row: usize, value: usize) -> bool
    where
        W: std::ops::DerefMut,
    {
        assert!(
            value < self.capacity,
            "bit row insert out of range: {value} >= {}",
            self.capacity
        );
        let word = &mut self.words[row * self.words_per_row + value / 64];
        let mask = 1u64 << (value % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Returns the smallest value in row `row`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[must_use]
    pub fn first(&self, row: usize) -> Option<usize> {
        self.row(row)
            .iter()
            .enumerate()
            .find(|(_, &word)| word != 0)
            .map(|(w, &word)| w * 64 + word.trailing_zeros() as usize)
    }

    /// Iterates the values of row `row` in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn iter_row(&self, row: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(row).iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(w * 64 + bit)
            })
        })
    }
}

impl<W: std::ops::Deref<Target = [u64]>> std::fmt::Debug for BitRows<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BitRows")
            .field("rows", &self.rows())
            .field("capacity", &self.capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn bit_matrix_rows_are_independent() {
        let mut m = BitMatrix::new(4, 70);
        assert_eq!(m.rows(), 4);
        assert!(m.insert(0, 3));
        assert!(m.insert(0, 65));
        assert!(m.insert(2, 3));
        assert!(!m.insert(0, 3), "double insert reports not-fresh");
        assert!(m.contains(0, 3) && m.contains(0, 65) && m.contains(2, 3));
        assert!(!m.contains(1, 3) && !m.contains(3, 65));
        assert!(!m.contains(0, 500), "out of range is absent");
        assert_eq!(m.first(0), Some(3));
        assert_eq!(m.first(1), None);
        assert_eq!(m.iter_row(0).collect::<Vec<_>>(), vec![3, 65]);
        assert_eq!(m.iter_row(1).count(), 0);
    }

    #[test]
    fn bit_matrix_matches_btreeset_model() {
        // Three rows over three words each, values straddling the word
        // boundaries, each row checked against its own BTreeSet.
        let mut matrix = BitMatrix::new(3, 130);
        let mut model = vec![BTreeSet::new(); 3];
        for (row, value) in [
            (0, 0),
            (0, 63),
            (1, 64),
            (0, 129),
            (2, 7),
            (1, 64),
            (2, 128),
            (0, 64),
        ] {
            assert_eq!(matrix.insert(row, value), model[row].insert(value));
        }
        for (row, set) in model.iter().enumerate() {
            for value in 0..140 {
                assert_eq!(matrix.contains(row, value), set.contains(&value));
            }
            assert_eq!(matrix.first(row), set.first().copied());
            assert_eq!(
                matrix.iter_row(row).collect::<Vec<_>>(),
                set.iter().copied().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_matrix_insert_out_of_range_panics() {
        let mut m = BitMatrix::new(2, 4);
        m.insert(0, 4);
    }
}
