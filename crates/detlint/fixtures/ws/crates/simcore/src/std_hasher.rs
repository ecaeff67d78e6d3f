use simcore::IdMap;

pub struct Tables {
    pub by_id: IdMap<u64, u32>,
    pub by_ticket: std::collections::HashMap<u64, u32>,
    // detlint: allow(std-hasher) — fixture: keys are client-chosen strings
    pub by_name: std::collections::HashMap<String, u64>,
}

impl Tables {
    pub fn bad_name_order(&self) -> Vec<u64> {
        self.by_name.values().copied().collect()
    }
}
