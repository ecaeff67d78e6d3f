use simcore::IdMap;

pub struct FleetRegistry {
    pub hosts: IdMap<u32, Vec<u32>>,
}

impl FleetRegistry {
    pub fn bad_pick_host(&self, model: u32) -> u32 {
        self.hosts.get(&model).unwrap()[0]
    }

    pub fn bad_multicast_order(&self) -> usize {
        let mut n = 0;
        for (_, tes) in &self.hosts {
            n += tes.len();
        }
        n
    }

    pub fn replica_count(&self) -> usize {
        // detlint: allow(unordered-iter) — commutative count; order is irrelevant
        self.hosts.values().map(Vec::len).sum()
    }
}
