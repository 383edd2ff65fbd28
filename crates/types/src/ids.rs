//! Identifier newtypes.
//!
//! All identifiers are dense `u32`/`u64` indexes assigned by the simulator;
//! newtypes prevent accidentally indexing the wrong table.

use std::fmt;

/// Identifier of a host machine (`p_i` in the paper).
///
/// Node ids are dense indexes into the simulator's node table. A node keeps
/// its id across overlay departures/re-joins triggered by churn; aliveness is
/// tracked separately.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifier of a submitted task (`t_ij`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

/// Identifier of one resource-discovery query.
///
/// A task that retries (e.g. Slack-on-Submission restoring the original
/// expectation vector) issues a new `QueryId` per attempt.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

impl NodeId {
    /// Index into dense per-node tables.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl TaskId {
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl QueryId {
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Debug for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn node_id_roundtrip_and_format() {
        let id = NodeId(42);
        assert_eq!(id.idx(), 42);
        assert_eq!(format!("{id}"), "n42");
        assert_eq!(format!("{id:?}"), "n42");
    }

    #[test]
    fn ids_are_hashable_and_ordered() {
        fn hashable<T: std::hash::Hash>(_: &T) {}
        hashable(&(NodeId(0), TaskId(0), QueryId(0)));
        let mut set = BTreeSet::new();
        set.insert(TaskId(1));
        set.insert(TaskId(1));
        set.insert(TaskId(2));
        assert_eq!(set.len(), 2);
        assert!(QueryId(3) < QueryId(4));
        assert!(NodeId(0) < NodeId(1));
    }

    #[test]
    fn task_and_query_idx() {
        assert_eq!(TaskId(7).idx(), 7);
        assert_eq!(QueryId(9).idx(), 9);
        assert_eq!(format!("{}", TaskId(7)), "t7");
        assert_eq!(format!("{}", QueryId(9)), "q9");
    }
}
