//! Test trees may draw the test stream.

#[test]
fn probe_draws() {
    let _ = stream_rng(1, RngStreams::Test(0));
}
