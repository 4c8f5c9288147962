//! Fixture: unordered iteration in sim code.

use std::collections::HashMap;

pub fn naughty_iter(m: &HashMap<u64, u64>) -> u64 {
    m.values().sum()
}

pub fn naughty_len<'a>(m: &'a HashMap<u8, u8>) -> usize {
    m.len()
}

pub fn naughty_after_keywords() -> usize {
    for _ in HashMap::<u8, u8>::new() {}
    return HashMap::<u8, u8>::new().len();
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    fn in_tests_is_fine() {
        let _ok: HashSet<u64> = HashSet::new();
    }
}
