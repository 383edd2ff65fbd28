//! Per-node rows for one contiguous range of node ids.

use crate::ids::NodeId;
use std::ops::{Index, IndexMut, Range};

/// One row per node id in `[lo, hi)`, indexed by [`NodeId`].
///
/// A shard of the windowed executor owns a contiguous id range and keeps
/// rows for that range only. The `id − lo` offset lives here and nowhere
/// else: indexing a node outside the range panics, so a handler that
/// strays onto a row its shard does not own fails loudly instead of
/// reading a stale copy. State every holder legitimately reads for foreign
/// ids (liveness, fault flags, the node → shard map) stays in plain
/// full-size vectors.
#[derive(Clone, Debug)]
pub struct OwnedRows<T> {
    lo: u32,
    rows: Vec<T>,
}

impl<T> OwnedRows<T> {
    /// Rows for the ids in `owned`, each built by `row(id)`.
    pub fn new(owned: Range<u32>, row: impl FnMut(NodeId) -> T) -> Self {
        OwnedRows {
            lo: owned.start,
            rows: owned.map(NodeId).map(row).collect(),
        }
    }

    /// The id range these rows cover.
    pub fn owned(&self) -> Range<u32> {
        self.lo..self.lo + self.rows.len() as u32
    }

    /// Position of `node`'s row, for holders that keep a parallel arena;
    /// panics when the node is outside the owned range.
    #[inline]
    pub fn slot(&self, node: NodeId) -> usize {
        // An id below `lo` wraps to a huge slot and fails the same check.
        let slot = node.0.wrapping_sub(self.lo) as usize;
        if slot >= self.rows.len() {
            not_owned(node, self.owned());
        }
        slot
    }

    /// `node`'s row, or `None` when the node is outside the owned range —
    /// for the few callers that sweep every holder and mean "if held".
    pub fn get_mut(&mut self, node: NodeId) -> Option<&mut T> {
        self.rows.get_mut(node.0.wrapping_sub(self.lo) as usize)
    }

    /// All rows, in id order.
    pub fn as_slice(&self) -> &[T] {
        &self.rows
    }

    /// All rows, in id order, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.rows
    }
}

#[cold]
#[inline(never)]
fn not_owned(node: NodeId, owned: Range<u32>) -> ! {
    panic!("row of {node} is not held here (owned ids {owned:?})")
}

impl<T> Index<NodeId> for OwnedRows<T> {
    type Output = T;
    #[inline]
    fn index(&self, node: NodeId) -> &T {
        let slot = self.slot(node);
        &self.rows[slot]
    }
}

impl<T> IndexMut<NodeId> for OwnedRows<T> {
    #[inline]
    fn index_mut(&mut self, node: NodeId) -> &mut T {
        let slot = self.slot(node);
        &mut self.rows[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_indexed_by_node_id_across_the_owned_range() {
        let mut rows = OwnedRows::new(8..12, |n| n.0 * 10);
        assert_eq!(rows.owned(), 8..12);
        assert_eq!(rows.as_slice(), &[80, 90, 100, 110]);
        assert_eq!(rows[NodeId(8)], 80);
        rows[NodeId(11)] += 1;
        assert_eq!(rows[NodeId(11)], 111);
        assert_eq!(rows.slot(NodeId(10)), 2);
        assert_eq!(rows.get_mut(NodeId(9)), Some(&mut 90));
        assert_eq!(rows.get_mut(NodeId(7)), None);
        assert_eq!(rows.get_mut(NodeId(12)), None);
    }

    #[test]
    #[should_panic(expected = "row of n7 is not held here (owned ids 8..12)")]
    fn a_row_below_the_range_panics() {
        let rows = OwnedRows::new(8..12, |_| 0u8);
        let _ = rows[NodeId(7)];
    }

    #[test]
    #[should_panic(expected = "row of n12 is not held here")]
    fn a_row_past_the_range_panics() {
        let mut rows = OwnedRows::new(8..12, |_| 0u8);
        rows[NodeId(12)] = 1;
    }

    #[test]
    fn an_empty_range_holds_nothing() {
        let mut rows = OwnedRows::new(5..5, |_| 0u8);
        assert!(rows.as_slice().is_empty());
        assert_eq!(rows.get_mut(NodeId(5)), None);
    }
}
