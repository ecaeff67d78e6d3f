//! `never_called` is named in this comment and in a string in
//! `tests/callers.rs`; neither counts as a reference.

pub fn never_called() -> u32 {
    1
}

// detlint: allow(dead-pub) — fixture: the embedding API of an out-of-tree plugin
pub fn plugin_entry() -> u32 {
    2
}

pub fn used_by_tests_elsewhere() -> u32 {
    3
}

fn private_helper() -> u32 {
    never_called() + used_by_tests_elsewhere()
}
