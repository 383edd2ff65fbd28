//! The window loop that pumps the shards, and the merge that closes each
//! window.

use super::coord::Coord;
use super::shard::Shard;
use super::World;
use soc_overlay::DiscoveryOverlay;

/// Run the earliest coordinator event while it is due at or before the
/// earliest shard event (coordinator-first tie-break, so churn/sampling at
/// `t` precede shard events at `t`); otherwise open a window bounded by the
/// lookahead and the next coordinator event, and pump every shard through
/// it in shard order. Either way the outboxes are merged before the next
/// decision. Returns when no event remains at or before the deadline.
pub(super) fn drive<P: DiscoveryOverlay>(
    coord: &mut Coord<'_>,
    world: &mut World,
    shards: &mut [Shard<P>],
) {
    let deadline = coord.sc.duration_ms;
    loop {
        let ws = shards
            .iter()
            .filter_map(|s| s.queue.peek_time())
            .min()
            .filter(|&t| t <= deadline);
        let tc = coord.cq.peek_time().filter(|&t| t <= deadline);
        match (ws, tc) {
            (None, None) => break,
            (ws, Some(t)) if ws.is_none_or(|w| t <= w) => {
                let (at, ev) = coord.cq.pop_until(t).expect("peeked coordinator event");
                debug_assert_eq!(at, t);
                coord.handle_coev(world, shards, t, ev);
            }
            (ws, tc) => {
                let w = ws.expect("a shard event exists on this branch");
                let mut wb = deadline + 1;
                if shards.len() > 1 {
                    wb = wb.min(w + world.lookahead);
                }
                if let Some(t) = tc {
                    wb = wb.min(t);
                }
                // Progress: wb ≥ w + 1 always (lookahead ≥ 1, tc > w here,
                // w ≤ deadline), so the earliest event is inside the window.
                for s in shards.iter_mut() {
                    s.pump(wb, world);
                }
            }
        }
        merge_outboxes(shards);
    }
}

/// Drain every outbox straight into the target queues: sender shards in
/// index order, each outbox in emission order. No sort is needed. Queue
/// order is `(time, insertion seq)` and `seq` only breaks ties at equal
/// `time`, so this insertion order pops exactly as the batch stably sorted
/// by time would — a pure function of the buffered events. The target
/// queues' clocks trail every fire time (lookahead rule), so `schedule_at`
/// never clamps.
pub(super) fn merge_outboxes<P: DiscoveryOverlay>(shards: &mut [Shard<P>]) {
    for sender in 0..shards.len() {
        if shards[sender].outbox.is_empty() {
            continue;
        }
        let mut outbox = std::mem::take(&mut shards[sender].outbox);
        for (at, tgt, ev) in outbox.drain(..) {
            shards[tgt].queue.schedule_at(at, ev);
        }
        // Hand the emptied buffer back so its capacity is reused.
        shards[sender].outbox = outbox;
    }
}
