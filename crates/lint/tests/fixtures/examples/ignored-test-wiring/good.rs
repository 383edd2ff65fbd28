// An #[ignore] suite is fine once the CI nightly cron runs it — via
// `cargo tier2` or by this file's stem — so it actually runs somewhere.
#[test]
fn smoke_t_ratio() {
    run_smoke();
}
