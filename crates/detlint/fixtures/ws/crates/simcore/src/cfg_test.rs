pub fn shipped() -> u32 {
    1
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn order_does_not_matter_here() {
        let m: HashMap<u32, u32> = HashMap::new();
        for (_, v) in &m {
            let _ = v;
        }
        let _ = std::time::Instant::now();
    }

    #[test]
    fn a_test_block_reference_counts() {
        assert_eq!(crate::dead_pub::used_by_tests_elsewhere(), 3);
    }
}
