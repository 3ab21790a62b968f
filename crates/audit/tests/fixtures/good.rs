// audit:hot-path: a slot lookup per packet (fixture)
//! Known-good fixture: a hot file with no finding. It allocates only
//! in its constructor, keeps ordered containers only in tests, and
//! mentions the hazards only in comments and strings.
//!
//! A BTreeMap in a doc comment is not state, nor is `format!` here.

pub struct Table {
    slots: Vec<u64>,
}

impl Table {
    pub fn with_capacity(n: usize) -> Self {
        Table {
            slots: Vec::with_capacity(n),
        }
    }

    pub fn describe() -> &'static str {
        "holds no BTreeMap and calls no format! or Vec::new per lookup"
    }

    pub fn get(&self, slot: usize) -> Option<u64> {
        // A slot index is O(1); a BTreeMap here would be O(log n).
        self.slots.get(slot).copied()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    #[test]
    fn tests_may_keep_ordered_state_and_allocate() {
        let mut names = BTreeMap::new();
        names.insert(1u32, format!("slot {}", 1));
        assert_eq!(names.len(), 1);
    }
}
