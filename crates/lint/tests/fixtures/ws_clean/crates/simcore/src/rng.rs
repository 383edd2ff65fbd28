//! The stream registry names every stream outside crate `soc`, and is
//! exempt from the ownership clause.

pub enum RngStreams {
    Alpha,
    Test(u16),
}

impl RngStreams {
    fn id(self) -> u64 {
        match self {
            RngStreams::Alpha => 1,
            RngStreams::Test(k) => 1000 + k as u64,
        }
    }
}
