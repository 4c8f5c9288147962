//! Fixture: entropy-seeded randomness.

pub fn naughty_random() -> u64 {
    let mut r = rand::thread_rng();
    r.gen()
}

pub fn naughty_fill(r: &mut OsRng) -> u64 {
    r.next_u64()
}
