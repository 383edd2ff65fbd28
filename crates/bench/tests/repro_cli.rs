//! `repro scenario` refuses a file its parser rejects: exit 2, the
//! parser's error on stderr, and nothing run.

#[test]
fn repro_refuses_a_scenario_file_the_parser_rejects() {
    let dir = env!("CARGO_TARGET_TMPDIR");
    for (name, body, complaint) in [
        (
            "lan0",
            "[scenario]\nprotocol = hid\nnodes = 50\nhours = 1\nlan_size = 0\n",
            "lan_size: must be ≥ 1",
        ),
        (
            "corners",
            "[scenario]\nprotocol = hid\n\n[demand]\nmodel = hotspot\ncorners = 4294967297\n",
            "line 6: corners: must be ≤ 4294967295, got 4294967297",
        ),
        (
            // Each demand draw walks the corner ranks: refused, not run.
            "corners-1e8",
            "[scenario]\nprotocol = hid\nnodes = 50\nhours = 1\n\n[demand]\nmodel = hotspot\ncorners = 100000000\n",
            "hotspot: corners must be ≤ 1024, got 100000000",
        ),
        (
            "timeout0",
            "[scenario]\nprotocol = hid\nnodes = 50\nhours = 1\nquery_timeout_ms = 0\n",
            "query_timeout_ms: must be ≥ 1",
        ),
    ] {
        let path = format!("{dir}/{name}.scn");
        std::fs::write(&path, body).expect("write the scenario file");
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["scenario", &path])
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(out.stdout.is_empty(), "{name}: nothing may run");
        assert!(stderr.contains(complaint), "{name}: {stderr}");
    }
}
