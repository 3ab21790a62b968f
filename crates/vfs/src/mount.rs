// audit:hot-path: every PVFS guest block crosses the mount here, as a proxy run or an RPC
//! Mounts: a client-side view of a remote (or loopback) NFS server,
//! optionally through a PVFS proxy.
//!
//! The transport presets mirror the paper's three deployment points:
//!
//! * [`Transport::local`] — same-host kernel RPC (Table 2 "DiskFS"
//!   comparisons use no NFS at all; `local` is used when a VFS is
//!   mounted from the host's own exports).
//! * [`Transport::loopback`] — the paper's "LoopbackNFS": a loopback-
//!   mounted NFS partition, i.e. full RPC stack but no wire.
//! * [`Transport::lan`] / [`Transport::wan`] — campus and
//!   Florida↔Northwestern paths (Table 1's PVFS experiment).
//!
//! A guest run crosses the mount as a run. [`Mount::read_range`] serves
//! the whole blocks the proxy holds in a row as one hit step, and
//! [`Mount::write_zero_blocks`] puts as many blocks into write-behind
//! per step as the buffer has room for. Each returns exactly what one
//! [`Mount::request`] per block would: the same completion times,
//! results, RPCs, proxy counts and cache state.

use gridvm_simcore::server::Pipe;
use gridvm_simcore::time::{SimDuration, SimTime};
use gridvm_simcore::units::Bandwidth;

use crate::protocol::{zero_block, NfsError, NfsRequest, NfsResponse, NFS_BLOCK};
use crate::proxy::VfsProxy;

use gridvm_simcore::metrics::Counter;

/// RPC round-trips to the NFS server (hot: one per uncached block).
static RPC_ROUND_TRIPS: Counter = Counter::new("vfs.rpc_round_trips");
use crate::server::NfsServer;

/// A bidirectional RPC transport with per-call stack overhead.
#[derive(Clone, Debug)]
pub struct Transport {
    pipe: Pipe,
    per_rpc: SimDuration,
    label: &'static str,
}

impl Transport {
    /// Same-host RPC: microsecond-scale, memory-speed.
    pub fn local() -> Self {
        Transport {
            pipe: Pipe::new(
                SimDuration::from_micros(5),
                Bandwidth::from_mib_per_sec(400.0),
            ),
            per_rpc: SimDuration::from_micros(15),
            label: "local",
        }
    }

    /// Loopback NFS: the full client/server RPC stack with no wire.
    /// Calibrated so an 8 KiB cold read costs ≈ 1 ms of stack time on
    /// period hardware.
    pub fn loopback() -> Self {
        Transport {
            pipe: Pipe::new(
                SimDuration::from_micros(50),
                Bandwidth::from_mib_per_sec(200.0),
            ),
            per_rpc: SimDuration::from_micros(800),
            label: "loopback",
        }
    }

    /// Switched 100 Mbit/s campus LAN.
    pub fn lan() -> Self {
        Transport {
            pipe: Pipe::new(
                SimDuration::from_micros(300),
                Bandwidth::from_mbit_per_sec(100.0),
            ),
            per_rpc: SimDuration::from_micros(400),
            label: "lan",
        }
    }

    /// Wide-area path (the paper's UF↔Northwestern link): ~35 ms RTT,
    /// ~20 Mbit/s achievable.
    pub fn wan() -> Self {
        Transport {
            pipe: Pipe::new(
                SimDuration::from_millis(17),
                Bandwidth::from_mbit_per_sec(20.0),
            ),
            per_rpc: SimDuration::from_micros(400),
            label: "wan",
        }
    }

    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Adds `extra` to the per-RPC stack overhead (fault injection: a
    /// latency spike on the NFS/proxy path). Every subsequent RPC —
    /// and [`round_trip_estimate`](Transport::round_trip_estimate) —
    /// pays the surcharge; the deltas accumulate. To clear a spike,
    /// rebuild the transport.
    pub fn add_rpc_latency(&mut self, extra: SimDuration) {
        self.per_rpc += extra;
    }

    /// The current per-RPC stack overhead.
    pub fn per_rpc(&self) -> SimDuration {
        self.per_rpc
    }

    /// An unloaded small-RPC round-trip estimate (two wire
    /// traversals plus stack overhead) — used for mount handshakes
    /// and other control traffic.
    pub fn round_trip_estimate(&self) -> SimDuration {
        self.pipe.latency() * 2 + self.per_rpc
    }

    /// The round-trip cost of carrying `req` and its response across
    /// this transport, starting at `now` (request and response each
    /// traverse the pipe; stack overhead charged per call).
    fn round_trip(&mut self, now: SimTime, req: &NfsRequest, resp_size: u64) -> SimTime {
        let sent = self.pipe.send(now, req.wire_size());
        let back = self.pipe.send(
            sent.finish,
            gridvm_simcore::units::ByteSize::from_bytes(resp_size),
        );
        back.finish + self.per_rpc
    }
}

/// A mounted file system: transport + optional proxy + server.
///
/// The mount owns its server in this simulation; multi-client
/// sharing is modeled at the experiment layer by routing through the
/// same server object where needed.
///
/// ```
/// use gridvm_storage::disk::{DiskModel, DiskProfile};
/// use gridvm_vfs::mount::{Mount, Transport};
/// use gridvm_vfs::server::NfsServer;
/// use gridvm_simcore::time::SimTime;
///
/// let server = NfsServer::new(DiskModel::new(DiskProfile::ide_2003()));
/// let mut mount = Mount::new(Transport::lan(), server, None);
/// let root = mount.server().fs().root();
/// let (done, fh) = mount.create(SimTime::ZERO, root, "results");
/// assert!(fh.is_ok());
/// assert!(done > SimTime::ZERO);
/// ```
pub struct Mount {
    transport: Transport,
    proxy: Option<VfsProxy>,
    server: NfsServer,
    rpcs_sent: u64,
    /// The proxy's prefetch ranges for the current miss, reused
    /// across requests.
    prefetch: Vec<(u64, u64)>,
}

impl std::fmt::Debug for Mount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mount")
            .field("transport", &self.transport.label)
            .field("proxied", &self.proxy.is_some())
            .field("rpcs_sent", &self.rpcs_sent)
            .finish()
    }
}

impl Mount {
    /// Creates a mount over `transport` to `server`, optionally
    /// through `proxy`.
    pub fn new(transport: Transport, server: NfsServer, proxy: Option<VfsProxy>) -> Self {
        Mount {
            transport,
            proxy,
            server,
            rpcs_sent: 0,
            prefetch: Vec::new(),
        }
    }

    /// The server behind this mount.
    pub fn server(&self) -> &NfsServer {
        &self.server
    }

    /// The proxy, if one is configured.
    pub fn proxy(&self) -> Option<&VfsProxy> {
        self.proxy.as_ref()
    }

    /// RPCs that actually crossed the transport (proxy hits excluded).
    pub fn rpcs_sent(&self) -> u64 {
        self.rpcs_sent
    }

    /// Issues one protocol request at `now`, returning completion
    /// time and result. Reads and writes may be absorbed by the
    /// proxy.
    pub fn request(
        &mut self,
        now: SimTime,
        req: NfsRequest,
    ) -> (SimTime, Result<NfsResponse, NfsError>) {
        // Proxy fast paths: the request's blocks are a run, served by
        // the proxy's one hit path and one write-behind path, which
        // `read_range` and `write_zero_blocks` take with longer runs.
        if let Some(proxy) = &mut self.proxy {
            match &req {
                NfsRequest::Read { fh, offset, len } => {
                    if let Some(hit_time) = proxy.try_read_hit(*fh, *offset, *len, now) {
                        // Data still comes from the (consistent)
                        // server file system; the proxy only absorbs
                        // the timing.
                        let data =
                            self.server
                                .fs()
                                .read(*fh, *offset, (*len).min(NFS_BLOCK.as_u64()));
                        return (hit_time, data.map(NfsResponse::Data));
                    }
                }
                NfsRequest::Write { fh, offset, data } => {
                    if let Some(done) = proxy.try_buffer_write(*fh, *offset, data.len() as u64, now)
                    {
                        // Write-behind: apply to the server state now
                        // (simulation keeps one canonical FS), but
                        // the client continues immediately; the wire
                        // cost is paid by the background flusher.
                        let r = self
                            .server
                            .fs_mut()
                            .write(*fh, *offset, data, now)
                            .and_then(|()| self.server.fs().getattr(*fh))
                            .map(NfsResponse::Written);
                        return (done, r);
                    }
                }
                _ => {}
            }
        }
        // Full RPC to the server.
        self.rpcs_sent += 1;
        RPC_ROUND_TRIPS.add(1);
        let (server_done, result) = self.server.handle(now, req.clone());
        let resp_size = match &result {
            Ok(r) => r.wire_size().as_u64(),
            Err(_) => 160,
        };
        let done = self
            .transport
            .round_trip(server_done.max(now), &req, resp_size);
        // Feed the proxy's caches and prefetcher.
        if let Some(proxy) = &mut self.proxy {
            if let (NfsRequest::Read { fh, offset, len }, Ok(_)) = (&req, &result) {
                proxy.note_read_miss(*fh, *offset, *len, &mut self.prefetch);
                for &(pf_offset, pf_len) in &self.prefetch {
                    // Prefetches run in the background against the
                    // server and do not delay the foreground reply.
                    let pf = NfsRequest::Read {
                        fh: *fh,
                        offset: pf_offset,
                        len: pf_len,
                    };
                    self.rpcs_sent += 1;
                    RPC_ROUND_TRIPS.add(1);
                    let _ = self.server.handle(done, pf);
                    proxy.install(*fh, pf_offset, pf_len);
                }
            }
        }
        (done, result)
    }

    /// Reads an arbitrary byte range by issuing as many block RPCs as
    /// needed; returns the final completion time and total bytes
    /// actually read.
    ///
    /// The blocks the proxy holds go as runs: at an aligned cursor,
    /// every whole block below the end of the file and of the range
    /// that the proxy holds in a row is served as one
    /// [`VfsProxy::hit_run`], exactly as that many one-block READs
    /// that each hit. The block after such a run goes as one READ
    /// through [`request`](Mount::request), and so does every block
    /// without a proxy.
    pub fn read_range(
        &mut self,
        now: SimTime,
        fh: crate::fs::FileHandle,
        offset: u64,
        len: u64,
    ) -> (SimTime, Result<u64, NfsError>) {
        let bs = NFS_BLOCK.as_u64();
        let mut t = now;
        let mut read = 0u64;
        let mut cursor = offset;
        let end = offset + len;
        while cursor < end {
            let hits = self.cached_whole_blocks(fh, cursor, end);
            if hits > 0 {
                let proxy = self.proxy.as_mut().expect("only a proxy holds blocks");
                let run_end = cursor + hits * bs;
                t = proxy.hit_run(fh, cursor / bs, hits, run_end, t);
                read += hits * bs;
                cursor = run_end;
                if cursor == end {
                    break;
                }
            }
            let chunk = (end - cursor).min(bs);
            let (done, r) = self.request(
                t,
                NfsRequest::Read {
                    fh,
                    offset: cursor,
                    len: chunk,
                },
            );
            t = done;
            match r {
                Ok(NfsResponse::Data(d)) => {
                    read += d.len() as u64;
                    if (d.len() as u64) < chunk {
                        break; // EOF
                    }
                }
                Ok(other) => unreachable!("read returned {other:?}"),
                Err(e) => return (t, Err(e)),
            }
            cursor += chunk;
        }
        (t, Ok(read))
    }

    /// How many whole blocks from `cursor` on, below both `end` and
    /// the end of `fh`, the proxy holds in a row: none at an unaligned
    /// cursor, without a proxy, or when `fh` is not a readable file
    /// (its READ then reports the error).
    fn cached_whole_blocks(&self, fh: crate::fs::FileHandle, cursor: u64, end: u64) -> u64 {
        let bs = NFS_BLOCK.as_u64();
        let Some(proxy) = &self.proxy else {
            return 0;
        };
        if !cursor.is_multiple_of(bs) {
            return 0;
        }
        let Ok(attr) = self.server.fs().getattr(fh) else {
            return 0;
        };
        let below = end.min(attr.size).saturating_sub(cursor) / bs;
        proxy.resident_run(fh, cursor / bs, below)
    }

    /// Writes zeros over whole blocks `first..first + count` of `fh`,
    /// the shape of a guest write run, whose content no model reads;
    /// returns the completion time. The outcome is that of one WRITE of
    /// [`zero_block`] per block through [`request`](Mount::request),
    /// stopping at the first that fails, but each step absorbs as many
    /// blocks as the proxy's write-behind buffer has room for
    /// ([`VfsProxy::write_behind`]). A block that finds the buffer full
    /// goes as its own WRITE, which stands for the flush; so does every
    /// block without a proxy.
    pub fn write_zero_blocks(
        &mut self,
        now: SimTime,
        fh: crate::fs::FileHandle,
        first: u64,
        count: u64,
    ) -> (SimTime, Result<(), NfsError>) {
        let mut t = now;
        let mut block = first;
        let end = first + count;
        while block < end {
            let room = self.proxy.as_ref().map_or(0, VfsProxy::write_room);
            let n = room.min(end - block);
            if n == 0 {
                let (done, r) = self.request(
                    t,
                    NfsRequest::Write {
                        fh,
                        offset: block * NFS_BLOCK.as_u64(),
                        data: zero_block(),
                    },
                );
                t = done;
                if let Err(e) = r {
                    return (t, Err(e));
                }
                block += 1;
                continue;
            }
            let proxy = self.proxy.as_mut().expect("room is a proxy's");
            // One WRITE per block would write block `i` of the run at
            // `t + hit_cost × i`, so the file keeps the last one's time.
            let last = t + proxy.config().hit_cost * (n - 1);
            match self.server.fs_mut().write_zero_blocks(fh, block, n, last) {
                Ok(()) => {
                    t = proxy.write_behind(fh, block, n, t);
                    block += n;
                }
                Err(e) => {
                    // The first block's WRITE enters the buffer, then
                    // fails at the file system.
                    t = proxy.write_behind(fh, block, 1, t);
                    return (t, Err(e));
                }
            }
        }
        (t, Ok(()))
    }

    /// Writes an arbitrary byte range in block-sized RPCs; returns
    /// completion time.
    pub fn write_range(
        &mut self,
        now: SimTime,
        fh: crate::fs::FileHandle,
        offset: u64,
        data: &[u8],
    ) -> (SimTime, Result<(), NfsError>) {
        let mut t = now;
        let mut cursor = 0usize;
        while cursor < data.len() {
            let chunk = (data.len() - cursor).min(NFS_BLOCK.as_u64() as usize);
            let payload = bytes::Bytes::copy_from_slice(&data[cursor..cursor + chunk]);
            let (done, r) = self.request(
                t,
                NfsRequest::Write {
                    fh,
                    offset: offset + cursor as u64,
                    data: payload,
                },
            );
            t = done;
            if let Err(e) = r {
                return (t, Err(e));
            }
            cursor += chunk;
        }
        (t, Ok(()))
    }

    /// Convenience: `Create` returning the new handle.
    pub fn create(
        &mut self,
        now: SimTime,
        dir: crate::fs::FileHandle,
        name: &str,
    ) -> (SimTime, Result<crate::fs::FileHandle, NfsError>) {
        let (t, r) = self.request(
            now,
            NfsRequest::Create {
                dir,
                // audit:allow(alloc-in-hot): a CREATE is a control RPC, once per file; the request owns its name by protocol contract
                name: name.to_owned(),
            },
        );
        let h = r.map(|resp| match resp {
            NfsResponse::Handle(h, _) => h,
            other => unreachable!("create returned {other:?}"),
        });
        (t, h)
    }

    /// Convenience: `Lookup` returning the handle.
    pub fn lookup(
        &mut self,
        now: SimTime,
        dir: crate::fs::FileHandle,
        name: &str,
    ) -> (SimTime, Result<crate::fs::FileHandle, NfsError>) {
        let (t, r) = self.request(
            now,
            NfsRequest::Lookup {
                dir,
                // audit:allow(alloc-in-hot): a LOOKUP is a control RPC, once per file; the request owns its name by protocol contract
                name: name.to_owned(),
            },
        );
        let h = r.map(|resp| match resp {
            NfsResponse::Handle(h, _) => h,
            other => unreachable!("lookup returned {other:?}"),
        });
        (t, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proxy::ProxyConfig;
    use gridvm_simcore::units::ByteSize;
    use gridvm_storage::disk::{DiskModel, DiskProfile};

    fn mount(transport: Transport, proxy: Option<VfsProxy>) -> Mount {
        let mut server = NfsServer::new(DiskModel::new(DiskProfile::ide_2003()));
        let root = server.fs().root();
        server
            .fs_mut()
            .create_synthetic(root, "big", ByteSize::from_mib(16), 11, SimTime::ZERO)
            .unwrap();
        Mount::new(transport, server, proxy)
    }

    #[test]
    fn wan_reads_cost_rtt_per_rpc() {
        let mut m = mount(Transport::wan(), None);
        let root = m.server().fs().root();
        let (_, fh) = m.lookup(SimTime::ZERO, root, "big");
        let fh = fh.unwrap();
        let (done, n) = m.read_range(SimTime::from_secs(1), fh, 0, 64 * 1024);
        assert_eq!(n.unwrap(), 64 * 1024);
        let elapsed = done.duration_since(SimTime::from_secs(1)).as_secs_f64();
        // 8 RPCs, each ~2*17ms latency + transfer: > 0.27 s, < 1 s.
        assert!((0.25..1.0).contains(&elapsed), "WAN 64KiB read {elapsed}s");
    }

    #[test]
    fn latency_spike_surcharges_every_rpc() {
        let spike = SimDuration::from_millis(40);
        let mut plain = Transport::lan();
        let base_rtt = plain.round_trip_estimate();
        plain.add_rpc_latency(spike);
        assert_eq!(plain.round_trip_estimate(), base_rtt + spike);
        assert_eq!(plain.per_rpc(), SimDuration::from_micros(400) + spike);

        let run = |t: Transport| {
            let mut m = mount(t, None);
            let root = m.server().fs().root();
            let (_, fh) = m.lookup(SimTime::ZERO, root, "big");
            let (done, _) = m.read_range(SimTime::from_secs(1), fh.unwrap(), 0, 64 * 1024);
            done.duration_since(SimTime::from_secs(1))
        };
        let mut spiked = Transport::lan();
        spiked.add_rpc_latency(spike);
        let extra = run(spiked).saturating_sub(run(Transport::lan()));
        // lookup + 8 data RPCs each pay the 40 ms surcharge.
        assert!(
            extra >= spike * 8,
            "expected ≥8 surcharged RPCs, got {extra}"
        );
    }

    #[test]
    fn local_reads_are_orders_of_magnitude_faster_than_wan() {
        let run = |t: Transport| {
            let mut m = mount(t, None);
            let root = m.server().fs().root();
            let (_, fh) = m.lookup(SimTime::ZERO, root, "big");
            let (done, _) = m.read_range(SimTime::from_secs(1), fh.unwrap(), 0, 128 * 1024);
            done.duration_since(SimTime::from_secs(1))
        };
        let local = run(Transport::local());
        let wan = run(Transport::wan());
        assert!(
            wan.as_secs_f64() > 5.0 * local.as_secs_f64(),
            "local {local} vs wan {wan}"
        );
    }

    #[test]
    fn proxy_absorbs_repeat_reads() {
        let proxy = VfsProxy::new(ProxyConfig::default());
        let mut m = mount(Transport::wan(), Some(proxy));
        let root = m.server().fs().root();
        let (_, fh) = m.lookup(SimTime::ZERO, root, "big");
        let fh = fh.unwrap();
        let (t1, _) = m.read_range(SimTime::from_secs(1), fh, 0, 32 * 1024);
        let rpcs_after_first = m.rpcs_sent();
        let (t2, _) = m.read_range(t1, fh, 0, 32 * 1024);
        assert_eq!(
            m.rpcs_sent(),
            rpcs_after_first,
            "second read all cache hits"
        );
        let cold = t1.duration_since(SimTime::from_secs(1));
        let warm = t2.duration_since(t1);
        assert!(
            warm.as_secs_f64() < cold.as_secs_f64() / 20.0,
            "cold {cold} warm {warm}"
        );
    }

    #[test]
    fn proxy_prefetch_makes_sequential_scans_cheap() {
        let no_proxy = {
            let mut m = mount(Transport::wan(), None);
            let root = m.server().fs().root();
            let (_, fh) = m.lookup(SimTime::ZERO, root, "big");
            let (done, _) = m.read_range(SimTime::from_secs(1), fh.unwrap(), 0, 1 << 20);
            done.duration_since(SimTime::from_secs(1))
        };
        let proxied = {
            let mut m = mount(
                Transport::wan(),
                Some(VfsProxy::new(ProxyConfig::default())),
            );
            let root = m.server().fs().root();
            let (_, fh) = m.lookup(SimTime::ZERO, root, "big");
            let (done, _) = m.read_range(SimTime::from_secs(1), fh.unwrap(), 0, 1 << 20);
            done.duration_since(SimTime::from_secs(1))
        };
        assert!(
            proxied.as_secs_f64() < no_proxy.as_secs_f64() * 0.5,
            "prefetch should cut a sequential WAN scan: {proxied} vs {no_proxy}"
        );
    }

    #[test]
    fn proxy_write_buffer_hides_wan_latency() {
        let data = vec![7u8; 64 * 1024];
        let run = |proxy: Option<VfsProxy>| {
            let mut m = mount(Transport::wan(), proxy);
            let root = m.server().fs().root();
            let (_, fh) = m.create(SimTime::ZERO, root, "out");
            let (done, r) = m.write_range(SimTime::from_secs(1), fh.unwrap(), 0, &data);
            r.unwrap();
            done.duration_since(SimTime::from_secs(1))
        };
        let direct = run(None);
        let buffered = run(Some(VfsProxy::new(ProxyConfig::default())));
        assert!(
            buffered.as_secs_f64() < direct.as_secs_f64() / 4.0,
            "buffered {buffered} vs direct {direct}"
        );
    }

    #[test]
    fn errors_travel_back_through_the_mount() {
        let mut m = mount(Transport::lan(), None);
        let root = m.server().fs().root();
        let (_, r) = m.lookup(SimTime::ZERO, root, "ghost");
        assert!(matches!(r, Err(NfsError::NotFound(_))));
    }

    #[test]
    fn read_range_stops_at_eof() {
        let mut m = mount(Transport::local(), None);
        let root = m.server().fs().root();
        let (_, fh) = m.create(SimTime::ZERO, root, "small");
        let fh = fh.unwrap();
        let (t, _) = m.write_range(SimTime::ZERO, fh, 0, b"tiny");
        let (_, n) = m.read_range(t, fh, 0, 1 << 20);
        assert_eq!(n.unwrap(), 4);
    }
}
