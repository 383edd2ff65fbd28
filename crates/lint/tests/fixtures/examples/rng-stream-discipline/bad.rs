pub fn jitter_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ 0x9e3779b9)
}

pub fn probe_rng(seed: u64) -> SmallRng {
    stream_rng(seed, RngStreams::Test(0))
}
