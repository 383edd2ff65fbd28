//! Drawing a stream from its owner crate, `soc`, lints clean.

pub fn draw(seed: u64) -> SmallRng {
    stream_rng(seed, RngStreams::Alpha)
}
