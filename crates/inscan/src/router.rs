//! Stand-in for the removed route cache, kept for the repo benchmark's
//! `inscan.next_hop` kernel alone: no workspace crate uses it. ROADMAP item
//! E(1) points that kernel at [`crate::inscan_next_hop`] and deletes this file.

/// Always zero: there is no cache to hit or miss.
pub struct RouteCacheStats {
    pub hits: u64,
    pub misses: u64,
}

/// A stateless wrapper around [`crate::inscan_next_hop`].
pub struct Router;

impl Router {
    pub fn from_env() -> Self {
        Router
    }
    pub fn next_hop(
        &mut self,
        ov: &soc_can::CanOverlay,
        tables: &crate::IndexTables,
        at: soc_types::NodeId,
        target: &soc_can::Point,
    ) -> Option<soc_types::NodeId> {
        crate::inscan_next_hop(ov, tables, at, target)
    }
    pub fn cache_stats(&self) -> RouteCacheStats {
        RouteCacheStats { hits: 0, misses: 0 }
    }
}
