//! Bootstrap: the state of one run.

use super::event::Msgs;
use super::nodes::{Counters, Hosts, Nodes};
use crate::defense::{Blacklist, DefenseParams};
use crate::profile::Profiler;
use crate::rng::{stream_rng, stream_rng_shard, RngStreams};
use crate::scenario::Scenario;
use soc_can::CanOverlay;
use soc_metrics::TaskTracker;
use soc_net::{FaultPlan, LanTopology, LatencyConfig, MsgStats};
use soc_overlay::DiscoveryOverlay;
use soc_psm::{NodeExec, PsmConfig};
use soc_simcore::EventQueue;
use soc_types::{NodeId, ResVec};
use soc_workload::{cmax, WorkloadSource};
use std::collections::{BTreeMap, VecDeque};

/// Extra node-id headroom so churn joins get fresh ids before old ones are
/// recycled (a vacated id re-enters the pool only after the queue drains).
fn id_headroom(n: usize) -> usize {
    (n / 4).max(16)
}

/// Build the state of one run; `make_proto` is handed the id capacity
/// (`n_nodes` plus churn headroom) and builds the protocol instance that
/// holds every id's rows.
///
/// Ordering is load-bearing: the master streams draw in the exact
/// bootstrap order (capacities → topology → overlay → fault plan).
pub(super) fn bootstrap<'s, P: DiscoveryOverlay>(
    sc: &Scenario,
    source: &'s mut dyn WorkloadSource,
    make_proto: impl FnOnce(usize) -> P,
    can_dim: usize,
) -> Nodes<'s, P> {
    let max_nodes = sc.n_nodes + id_headroom(sc.n_nodes);
    let mut rng_caps = stream_rng(sc.seed, RngStreams::NodeCapacities);
    let mut rng_topo = stream_rng(sc.seed, RngStreams::Topology);
    let mut rng_overlay = stream_rng(sc.seed, RngStreams::Overlay);
    let mut rng_fault_plan = stream_rng(sc.seed, RngStreams::Fault);
    let fault = FaultPlan::new(sc.fault, max_nodes, &mut rng_fault_plan);

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

    let live: Vec<NodeId> = (0..sc.n_nodes).map(|i| NodeId(i as u32)).collect();
    let mut live_pos = vec![usize::MAX; max_nodes];
    for (i, n) in live.iter().enumerate() {
        live_pos[n.idx()] = i;
    }
    let free_ids: VecDeque<NodeId> = (sc.n_nodes..max_nodes).map(|i| NodeId(i as u32)).collect();

    // The node-side streams are the derivation every pinned fingerprint
    // was recorded under; no stream may be re-derived.
    let stream = |s| stream_rng_shard(sc.seed, s, 0);
    Nodes {
        sc: *sc,
        can,
        topo,
        source,
        now: 0,
        proto: make_proto(max_nodes),
        hosts: Hosts {
            execs: caps.iter().map(|&c| NodeExec::new(c, psm_cfg)).collect(),
            alive,
            cmax: cmax(),
            fault,
            blacklist: Blacklist::new(max_nodes),
        },
        // Grown on demand (≈ 4.4 events pend per node at the peak). A
        // large up-front reservation pins heap the bootstrap would
        // otherwise reuse.
        queue: EventQueue::new(),
        msgs: Msgs::new(),
        pending: BTreeMap::new(),
        fx_buf: Vec::new(),
        fx_next: Vec::new(),
        task_info: BTreeMap::new(),
        comp_sched: vec![None; max_nodes],
        defense: DefenseParams::default(),
        counters: Counters::default(),
        tracker: TaskTracker::new(),
        stats: MsgStats::new(max_nodes),
        avg_cap,
        next_task: 0,
        next_query: 0,
        rng_work: stream(RngStreams::Workload),
        rng_proto: stream(RngStreams::Protocol),
        rng_net: stream(RngStreams::Network),
        rng_dispatch: stream(RngStreams::Dispatch),
        rng_fault: stream(RngStreams::Fault),
        rng_caps,
        rng_overlay,
        rng_churn: stream_rng(sc.seed, RngStreams::Churn),
        rng_fault_plan,
        live,
        live_pos,
        free_ids,
        checkpoint_resubmits: 0,
        blacklist_peak: 0,
        prof: Profiler::from_env(),
    }
}
