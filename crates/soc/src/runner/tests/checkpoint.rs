use crate::report::RunReport;
use crate::scenario::{ProtocolChoice, Scenario};

fn churny(seed: u64, ckpt: bool) -> RunReport {
    let mut sc = Scenario::quick(ProtocolChoice::Hid)
        .nodes(120)
        .hours(2)
        .churn(0.75)
        .seed(seed);
    sc.checkpointing = ckpt;
    sc.run()
}

#[test]
fn checkpointing_recovers_churned_tasks() {
    let plain = churny(21, false);
    let ckpt = churny(21, true);
    assert_eq!(plain.checkpoint_resubmits, 0);
    assert!(
        ckpt.checkpoint_resubmits > 0,
        "churn at 75% must trigger resubmissions"
    );
    // Recovered residual work means strictly fewer killed tasks.
    assert!(
        ckpt.killed < plain.killed.max(1),
        "checkpointing should reduce kills: {} vs {}",
        ckpt.killed,
        plain.killed
    );
    ckpt.series
        .last()
        .map(|p| assert!(p.generated > 0))
        .unwrap();
}

#[test]
fn checkpointing_preserves_conservation() {
    let r = churny(22, true);
    assert!(
        r.finished + r.failed + r.killed + r.rejected <= r.generated,
        "conservation with resubmissions"
    );
}
