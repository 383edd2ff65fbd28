//! Bootstrap: the shard decomposition and the coordinator of one run.

use super::coord::Coord;
use super::shard::{Hosts, Shard, ShardCounters};
use super::World;
use crate::defense::{Blacklist, DefenseParams};
use crate::scenario::Scenario;
use soc_can::CanOverlay;
use soc_metrics::TaskTracker;
use soc_net::{FaultPlan, LanTopology, LatencyConfig, MsgStats};
use soc_overlay::{DiscoveryOverlay, Profiler};
use soc_psm::{NodeExec, PsmConfig};
use soc_simcore::{stream_rng, stream_rng_shard, EventQueue, RngStreams};
use soc_types::{NodeId, OwnedRows, ResVec};
use soc_workload::{cmax, WorkloadSource};
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;

/// Extra node-id headroom so churn joins get fresh ids before old ones are
/// recycled (a vacated id re-enters the pool only after the queue drains).
pub(super) fn id_headroom(n: usize) -> usize {
    (n / 4).max(16)
}

/// Most shards a run is cut into. Like `lan_size`, a constant of the
/// simulated model: per-shard RNG streams, id namespaces and workload
/// forks make the cut part of what a fingerprint pins.
const MAX_SHARDS: usize = 8;

/// Build the shard decomposition and the coordinator for one run;
/// `make_proto` is called once per shard with the id range whose rows that
/// shard's protocol instance holds.
///
/// Ordering is load-bearing: the shard count is fixed *before* any
/// per-shard RNG stream is created, and the master streams draw in the
/// exact bootstrap order (capacities → topology → overlay → fault plan).
pub(super) fn bootstrap<'s, P: DiscoveryOverlay>(
    sc: &'s Scenario,
    source: &'s mut dyn WorkloadSource,
    make_proto: impl Fn(Range<u32>) -> P,
    can_dim: usize,
    defense_on: bool,
) -> (Coord<'s>, World, Vec<Shard<P>>) {
    let max_nodes = sc.n_nodes + id_headroom(sc.n_nodes);
    let mut rng_caps = stream_rng(sc.seed, RngStreams::NodeCapacities);
    let mut rng_topo = stream_rng(sc.seed, RngStreams::Topology);
    let mut rng_overlay = stream_rng(sc.seed, RngStreams::Overlay);
    let mut rng_fault = stream_rng(sc.seed, RngStreams::Fault);
    let fault_master = FaultPlan::new(sc.fault, max_nodes, &mut rng_fault);

    let caps: Vec<ResVec> = (0..max_nodes)
        .map(|_| source.node_capacity(&mut rng_caps))
        .collect();
    let avg_cap = {
        let mut acc = ResVec::zeros(caps[0].dim());
        for c in &caps[..sc.n_nodes] {
            acc += *c;
        }
        acc / sc.n_nodes as f64
    };

    let psm_cfg = PsmConfig::default();
    let mut alive = vec![false; max_nodes];
    alive[..sc.n_nodes].fill(true);
    let can = CanOverlay::bootstrap(can_dim, sc.n_nodes, max_nodes, &mut rng_overlay);
    let topo = LanTopology::new(
        max_nodes,
        sc.lan_size,
        LatencyConfig::default(),
        &mut rng_topo,
    );
    let n_lans = topo.n_lans() as usize;
    // The window bound: no cross-shard (= cross-LAN) event can fire sooner
    // than this after its cause.
    let lookahead = topo.min_cross_lan_latency_ms().max(1);

    // Whole-LAN groupings: shard = lan / lans_per_shard. An oracle scan
    // reads every node's executor and an unshardable protocol keeps
    // cross-node state, so either runs one shard that owns every id.
    let s_target = if P::SHARDABLE && !sc.oracle {
        MAX_SHARDS.min(n_lans)
    } else {
        1
    };
    let lans_per_shard = n_lans.div_ceil(s_target);
    let n_shards = (n_lans - 1) / lans_per_shard + 1;
    let shard_of: Vec<usize> = (0..max_nodes)
        .map(|i| topo.lan_of(NodeId(i as u32)) as usize / lans_per_shard)
        .collect();

    let live: Vec<NodeId> = (0..sc.n_nodes).map(|i| NodeId(i as u32)).collect();
    let mut live_pos = vec![usize::MAX; max_nodes];
    for (i, n) in live.iter().enumerate() {
        live_pos[n.idx()] = i;
    }
    let free_ids: VecDeque<NodeId> = (sc.n_nodes..max_nodes).map(|i| NodeId(i as u32)).collect();

    let shards: Vec<Shard<P>> = owned_ranges(&shard_of, n_shards)
        .into_iter()
        .enumerate()
        .map(|(id, ids)| Shard {
            id,
            sc: *sc,
            source: source.fork_shard(id),
            now: 0,
            proto: make_proto(ids.clone()),
            hosts: Hosts {
                execs: OwnedRows::new(ids.clone(), |n| NodeExec::new(caps[n.idx()], psm_cfg)),
                alive: alive.clone(),
                cmax: cmax(),
                fault: fault_master.clone(),
                blacklist: Blacklist::new(ids.clone()),
                defense_on,
            },
            // Grown on demand (≈ 6 events pend per node). A large
            // up-front reservation pins heap the bootstrap would
            // otherwise reuse: 1 << 16 slots per shard cost +35 % peak
            // RSS on the 8-shard n = 10 000 cell.
            queue: EventQueue::new(),
            outbox: Vec::new(),
            pending: BTreeMap::new(),
            fx_buf: Vec::new(),
            fx_next: Vec::new(),
            task_info: BTreeMap::new(),
            comp_sched: OwnedRows::new(ids, |_| None),
            defense: DefenseParams::default(),
            counters: ShardCounters::default(),
            tracker: TaskTracker::new(),
            stats: MsgStats::new(max_nodes),
            avg_cap,
            next_task: 0,
            next_query: 0,
            rng_work: stream_rng_shard(sc.seed, RngStreams::Workload, id),
            rng_proto: stream_rng_shard(sc.seed, RngStreams::Protocol, id),
            rng_net: stream_rng_shard(sc.seed, RngStreams::Network, id),
            rng_dispatch: stream_rng_shard(sc.seed, RngStreams::Dispatch, id),
            rng_fault: stream_rng_shard(sc.seed, RngStreams::Fault, id),
            prof: Profiler::from_env(),
        })
        .collect();

    let coord = Coord {
        sc,
        source,
        cq: EventQueue::with_capacity(1 << 8),
        rng_caps,
        rng_churn: stream_rng(sc.seed, RngStreams::Churn),
        rng_overlay,
        rng_fault,
        fault_master,
        free_ids,
        live,
        live_pos,
        series: Vec::new(),
        checkpoint_resubmits: 0,
        blacklist_peak: 0,
        prof: Profiler::from_env(),
    };
    let world = World {
        can,
        topo,
        shard_of,
        lookahead,
    };
    (coord, world, shards)
}

/// The id range each shard owns. Shards are unions of whole LANs and LANs
/// are consecutive id blocks, so `shard_of` is non-decreasing and every
/// shard's nodes are one contiguous range — what lets a shard keep its
/// per-node tables as [`OwnedRows`].
fn owned_ranges(shard_of: &[usize], n_shards: usize) -> Vec<Range<u32>> {
    assert!(shard_of.is_sorted(), "shards must be contiguous id ranges");
    (0..n_shards)
        .map(|s| {
            let lo = shard_of.partition_point(|&x| x < s);
            let hi = shard_of.partition_point(|&x| x <= s);
            lo as u32..hi as u32
        })
        .collect()
}
