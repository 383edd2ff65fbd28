pub struct Scratch {
    buf: Vec<u64>,
}

impl Scratch {
    // Owned state, passed explicitly: it is built with the run and
    // dropped with it.
    pub fn push(&mut self, v: u64) {
        self.buf.push(v);
    }
}
