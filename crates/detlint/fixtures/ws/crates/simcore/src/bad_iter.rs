use simcore::IdMap;

pub struct Registry {
    pub loads: IdMap<u32, u64>,
}

impl Registry {
    pub fn bad_sum(&self) -> u64 {
        let mut total = 0;
        for (_, v) in &self.loads {
            total += v;
        }
        total
    }

    pub fn waived_sum(&self) -> u64 {
        // detlint: allow(unordered-iter) — commutative sum; order is irrelevant
        self.loads.values().sum()
    }
}
