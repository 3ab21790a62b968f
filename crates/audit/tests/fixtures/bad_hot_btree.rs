// audit:hot-path: a route lookup per packet (fixture)
//! Trips `hot-btree-lookup`: ordered-container state declared in a
//! file that carries a hot-path marker (line 1).

use std::collections::{BTreeMap, BTreeSet};

pub struct RouteTable {
    routes: BTreeMap<u32, u32>,
    dirty: BTreeSet<u32>,
}

#[cfg(test)]
mod tests {
    // Test-only counts stay ordered for readable assertions; the rule
    // must not fire here even in a hot file.
    use std::collections::BTreeMap;

    fn counts() -> BTreeMap<u32, u32> {
        BTreeMap::new()
    }
}
