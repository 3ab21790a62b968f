//! Fixture: hash-order iteration reaching order-sensitive sinks;
//! `hash-container` rejects each declaration that feeds one.

fn schedules_in_hash_order(world: &mut World) {
    let peers: HashMap<u64, Peer> = build_peers();
    for (id, peer) in peers.iter() {
        world.schedule_after(peer.delay, id);
    }
}

fn records_in_hash_order(stats: &mut Stats) {
    let samples: HashSet<u64> = live_samples();
    let mut total = 0u64;
    for v in samples.iter() {
        total += v;
    }
    stats.counter_add(total);
}

fn sorted_first_is_fine(world: &mut World) {
    let order: Vec<u64> = sorted_ids();
    for id in &order {
        world.schedule_after(base_delay(), id);
    }
}
