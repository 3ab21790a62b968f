// audit:hot-path: a forwarding decision per packet (fixture)
//! Fixture: allocation in the steady-state path of a hot file.

struct Router {
    name: String,
    scratch: Vec<u64>,
}

impl Router {
    fn new() -> Self {
        Router {
            name: String::new(),
            scratch: Vec::with_capacity(64),
        }
    }

    fn forward(&mut self, pkt: &Packet) -> u64 {
        let mut route = Vec::new();
        let tag = format!("{}:{}", pkt.src, pkt.dst);
        let copy = pkt.payload.to_vec();
        let label = self.name.clone();
        route.push(pkt.dst);
        tag.len() as u64 + copy.len() as u64 + label.len() as u64
    }
}
