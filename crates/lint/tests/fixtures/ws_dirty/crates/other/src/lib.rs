//! Names streams it does not own: every stream belongs to crate `soc`,
//! and `Test` belongs to test code.

pub fn poach(seed: u64) -> SmallRng {
    stream_rng(seed, RngStreams::Alpha)
}

pub fn probe(seed: u64) -> SmallRng {
    stream_rng(seed, RngStreams::Test(0))
}
