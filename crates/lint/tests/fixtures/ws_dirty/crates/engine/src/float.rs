//! Float reductions over unordered sources: each walks a Hash{Map,Set},
//! so the total's bits depend on the process's iteration order.

pub fn total_load(load: &HashMap<u64, f64>) -> f64 {
    load.values().sum()
}

pub fn folded(set: &HashSet<u64>) -> f64 {
    set.iter().fold(0.0, |a, b| a + *b as f64)
}

pub fn accum(load: &HashMap<u64, f64>) -> f64 {
    let mut total: f64 = 0.0;
    for (_, v) in load.iter() {
        total += *v;
    }
    total
}
