//! A stream named outside its owner crate, and a clock-seeded RNG whose
//! one pragma names both rules the line fires.

pub fn borrowed(seed: u64) -> SmallRng {
    // soc-lint: allow(rng-stream-discipline) -- fixture: a probe that reads the runner's stream on purpose
    stream_rng(seed, RngStreams::Workload)
}

pub fn clock_seeded() -> SmallRng {
    // soc-lint: allow(no-wall-clock, rng-stream-discipline) -- fixture: one pragma may name every rule its line fires
    SmallRng::seed_from_u64(SystemTime::UNIX_EPOCH.elapsed().unwrap().as_nanos() as u64)
}
