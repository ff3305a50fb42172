//! Small self-contained utility data structures used by the model.

mod bitset;

pub use bitset::{BitMatrix, BitRows, RowBandMut};
