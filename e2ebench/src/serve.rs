//! The serving workload `serve_hits` (a warm 2-daemon ring), plus the
//! two batteries every traced run uses: a ring pass that times the
//! socket and fleet layers, and a load pass (one daemon taking cold
//! compiles beside hits) that reads the cache and admission layers.

use crate::inputs::{self, Item, Order};
use crate::layers;
use crate::oracle::{expected_reply, normalized};
use crate::report::{quantile, us, Pass, Report, WorkDir, WINDOWS};
use crate::trace::Tracer;
use crate::Args;
use mps::ArtifactStore;
use mps_serve::protocol::{CompileReply, Reply, StatsReply};
use mps_serve::{spawn_on, Client, Owner, PeerRing, ServeOptions};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Warm boots per `serve_hits` run; `setup_s` is their median.
const RING_BOOTS: usize = 11;
/// Open-loop rate of the load battery's cold compiles.
const COLD_PER_S: f64 = 40.0;
/// Pause of the load battery's hit client between a reply and its next
/// request. It keeps hits to about ten per cold compile, so a hit that
/// waits behind a compile is a tenth of all hits, not a few in a
/// thousand.
const HIT_THINK: Duration = Duration::from_millis(1);
/// Load battery cache budgets: the hot set fits, the cold stream does
/// not.
const LOAD_MAX_ARTIFACTS: usize = 48;
const LOAD_MAX_TABLES: usize = 4;
/// Measured time of the load battery's pass.
const LOAD_PASS: Duration = Duration::from_secs(4);
/// Measured time of the ring pass a traced non-ring workload runs.
const BATTERY_PASS: Duration = Duration::from_millis(1500);
/// At most this many failed checks are kept verbatim per loop.
const MAX_PROBLEMS: usize = 8;

fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr, 500, Duration::from_millis(10)).expect("connect to a benchmark daemon")
}

/// Median time of a fresh `Client::connect` to `addr`.
fn connect_us(addr: SocketAddr) -> f64 {
    let samples: Vec<f64> = (0..50)
        .map(|_| {
            let t = Instant::now();
            drop(connect(addr));
            us(t.elapsed())
        })
        .collect();
    quantile(&samples, 0.5)
}

fn bind(addr: SocketAddr) -> TcpListener {
    // The previous life's port may linger briefly; keep trying.
    for _ in 0..500 {
        if let Ok(l) = TcpListener::bind(addr) {
            return l;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("cannot rebind {addr}")
}

/// Replies already seen per request (normalized), so every later answer
/// to the same request is checked against the first, and the first
/// against the oracle when the run ends.
#[derive(Default)]
pub struct Seen(HashMap<usize, CompileReply>);

impl Seen {
    fn merge(&mut self, rep: &mut Report, other: Seen) {
        for (i, r) in other.0 {
            match self.0.get(&i) {
                Some(known) => rep.check(*known == r, || format!("request {i}: answers differ")),
                None => {
                    self.0.insert(i, r);
                }
            }
        }
    }

    /// Every first answer against a direct `Session::compile` of its
    /// request. With `all`, every request must have been answered; an
    /// open loop that stopped at the end of its pass need not.
    fn verify(&self, rep: &mut Report, items: &[&Item], all: bool) {
        if all {
            let missing = items.len() - self.0.len();
            rep.check(missing == 0, || {
                format!("{missing} requests never answered")
            });
        }
        let answered: Vec<(&usize, &CompileReply)> = self.0.iter().collect();
        let expected = mps::par::par_map(&answered, |(i, _)| expected_reply(items[**i]));
        for ((i, got), want) in answered.into_iter().zip(expected) {
            let kernel = &items[*i].kernel;
            match want {
                Ok(want) => rep.check(*got == want, || {
                    format!("{kernel}: reply differs from Session::compile: {got:?} vs {want:?}")
                }),
                Err(e) => rep.problems.push(format!("{kernel}: oracle failed: {e}")),
            }
        }
    }

    /// `code_cycles_total`: cycles summed over the registry requests.
    fn cycles(&self, items: &[&Item]) -> f64 {
        self.0
            .iter()
            .filter(|(i, _)| items[**i].registry)
            .map(|(_, r)| r.cycles as f64)
            .sum()
    }
}

/// What one client loop saw.
#[derive(Default)]
struct LoopOut {
    /// `(send time, latency in microseconds)` per request.
    lat: Vec<(Instant, f64)>,
    rtt_us: Vec<f64>,
    lag_us: Vec<f64>,
    sent: u64,
    /// Wrong answers and broken connections (each also a problem).
    failed: u64,
    /// Requests shed or timed out by the daemon.
    refused: u64,
    problems: Vec<String>,
    seen: Seen,
    tracer: Tracer,
}

impl LoopOut {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(what);
        }
    }

    /// Send one request and check its reply: a compile answer with the
    /// request's id, the expected cache state (`None`: either), and the
    /// same content as every earlier answer to that request. Returns the
    /// reply time.
    #[allow(clippy::too_many_arguments)]
    fn request(
        &mut self,
        client: &mut Client,
        idx: usize,
        item: &Item,
        id: u64,
        cached: Option<bool>,
        root: &'static str,
        traced: bool,
    ) -> Option<Instant> {
        self.sent += 1;
        let root = traced.then(|| self.tracer.open(root, None, id));
        let t = Instant::now();
        let line = item.line(id);
        let t_send = Instant::now();
        let reply = client.send_line(&line);
        let t_recv = Instant::now();
        let decoded = reply.as_ref().map(|l| Reply::from_line(l));
        let done = Instant::now();
        if let Some(root) = root {
            let tr = &mut self.tracer;
            tr.push(span("protocol.encode", t, t_send, root, id));
            tr.push(span("serve.rtt", t_send, t_recv, root, id));
            tr.push(span("protocol.reply_decode", t_recv, done, root, id));
            tr.close(root);
            self.rtt_us.push(us(t_recv - t_send));
        }
        match decoded {
            Ok(Ok(Reply::Compile(r)))
                if r.id == Some(id) && cached.is_none_or(|c| r.cached == c) =>
            {
                let r = normalized(&r);
                match self.seen.0.get(&idx) {
                    Some(known) if *known != r => {
                        self.fail(format!("{}: answer changed between requests", item.kernel))
                    }
                    Some(_) => {}
                    None => {
                        self.seen.0.insert(idx, r);
                    }
                }
            }
            // Load shedding and deadlines are the daemon's policy, not a
            // wrong answer: they count against `ok_frac` only.
            Ok(Ok(Reply::Error(e)))
                if e.id == Some(id)
                    && matches!(e.code.as_deref(), Some("overloaded" | "deadline")) =>
            {
                self.refused += 1;
            }
            Ok(Ok(other)) => self.fail(format!(
                "{} (id {id}): unexpected reply {other:?}",
                item.kernel
            )),
            Ok(Err(e)) => self.fail(format!("{}: undecodable reply: {e}", item.kernel)),
            Err(e) => {
                self.fail(format!("{}: connection failed: {e}", item.kernel));
                return None;
            }
        }
        Some(done)
    }
}

fn span(
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: u32,
    req: u64,
) -> crate::trace::Span {
    crate::trace::Span {
        name,
        start,
        end,
        parent: Some(parent),
        req,
    }
}

/// A closed loop of warm hits over `items` (index, request) in a seeded
/// order on one persistent connection, each request sent `think` after
/// the previous reply and expecting cache state `cached`. [`HitLoop::run`]
/// drives it in stretches, so two loops can take turns.
struct HitLoop<'i> {
    client: Option<Client>,
    items: &'i [(usize, &'i Item)],
    order: Order,
    think: Duration,
    cached: Option<bool>,
    next_id: u64,
    root: &'static str,
    traced: bool,
    out: LoopOut,
}

impl<'i> HitLoop<'i> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        addr: SocketAddr,
        items: &'i [(usize, &'i Item)],
        seed: u64,
        think: Duration,
        cached: Option<bool>,
        ids: u64,
        root: &'static str,
        traced: bool,
    ) -> HitLoop<'i> {
        HitLoop {
            client: (!items.is_empty()).then(|| connect(addr)),
            items,
            order: Order::new(items.len(), seed),
            think,
            cached,
            next_id: ids,
            root,
            traced,
            out: LoopOut::default(),
        }
    }

    /// Send requests until `until`, or until the connection fails.
    fn run(&mut self, until: Instant) {
        while let Some(client) = self.client.as_mut() {
            let start = Instant::now();
            if start >= until {
                break;
            }
            let (idx, item) = self.items[self.order.next()];
            let id = self.next_id;
            self.next_id += 1;
            let sent = self
                .out
                .request(client, idx, item, id, self.cached, self.root, self.traced);
            match sent {
                Some(done) => {
                    self.out.lat.push((start, us(done - start)));
                    if !self.think.is_zero() {
                        std::thread::sleep(self.think);
                    }
                }
                None => self.client = None,
            }
        }
    }
}

/// A 2-daemon loopback ring whose members persist to their own cache
/// directories.
struct Ring {
    addrs: [SocketAddr; 2],
    dirs: [PathBuf; 2],
    handles: Vec<JoinHandle<()>>,
}

impl Ring {
    fn opts(&self, me: usize) -> ServeOptions {
        ServeOptions {
            advertise: self.addrs[me].to_string(),
            peers: vec![self.addrs[1 - me].to_string()],
            cache_dir: Some(self.dirs[me].clone()),
            probe_interval_ms: 200,
            forward_timeout_ms: 5_000,
            ..ServeOptions::default()
        }
    }

    fn boot(&mut self, listeners: [TcpListener; 2]) {
        for (me, l) in listeners.into_iter().enumerate() {
            self.handles.push(spawn_on(l, self.opts(me)));
        }
    }

    fn shutdown(&mut self) {
        for addr in self.addrs {
            let _ = connect(addr).shutdown();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }

    /// The ring as the entry daemon sees it.
    fn peer_ring(&self) -> PeerRing {
        PeerRing::new(&self.addrs[0].to_string(), &[self.addrs[1].to_string()])
    }

    fn stats(&self) -> [StatsReply; 2] {
        self.addrs.map(|a| connect(a).stats().expect("stats reply"))
    }
}

/// The ring of `serve_hits`, booted warm, with its requests split by
/// owner: `local` are answered by the entry daemon, `forwarded` by its
/// peer.
struct Fleet<'a> {
    ring: Ring,
    local: Vec<(usize, &'a Item)>,
    forwarded: Vec<(usize, &'a Item)>,
    seen: Seen,
    next_id: u64,
}

impl<'a> Fleet<'a> {
    /// Bind the ring, compile every request once through the entry
    /// daemon (the earlier, untimed life that fills both cache
    /// directories), then warm-boot the ring `boots` times on the same
    /// addresses. Returns the fleet, still running, and each warm boot's
    /// time until its first hit was answered.
    fn start(
        rep: &mut Report,
        items: &[&'a Item],
        dir: &Path,
        boots: usize,
    ) -> (Fleet<'a>, Vec<f64>) {
        // The fixed addresses the request mix was balanced for, or any
        // free loopback ports (the split by owner is then uneven).
        let fixed: Vec<TcpListener> = inputs::RING_ADDRS
            .iter()
            .filter_map(|a| TcpListener::bind(a).ok())
            .collect();
        let listeners: [TcpListener; 2] = fixed.try_into().unwrap_or_else(|_| {
            [0, 1].map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        });
        let ring = Ring {
            addrs: [0, 1].map(|i| listeners[i].local_addr().expect("bound address")),
            dirs: [0, 1].map(|i| dir.join(format!("daemon{i}"))),
            handles: Vec::new(),
        };
        let owners = ring.peer_ring();
        let (local, forwarded): (Vec<_>, Vec<_>) = items
            .iter()
            .copied()
            .enumerate()
            .partition(|(_, it)| owners.owner_of(it.key()) == Owner::Local);
        let mut fleet = Fleet {
            ring,
            local,
            forwarded,
            seen: Seen::default(),
            next_id: 1,
        };

        // The earlier life: every request compiled cold, once.
        fleet.ring.boot(listeners);
        let mut fill = LoopOut::default();
        let mut client = connect(fleet.ring.addrs[0]);
        for (idx, item) in items.iter().enumerate() {
            fill.request(
                &mut client,
                idx,
                item,
                fleet.next_id,
                Some(false),
                "client.fill",
                false,
            );
            fleet.next_id += 1;
        }
        drop(client);
        fleet.ring.shutdown();
        rep.problems.extend(fill.problems);
        fleet.seen = fill.seen;

        // Warm boots; the first request of each must already hit.
        let probe = fleet
            .local
            .first()
            .or(fleet.forwarded.first())
            .copied()
            .expect("requests");
        let mut setup = Vec::new();
        for b in 0..boots {
            let t = Instant::now();
            let listeners = fleet.ring.addrs.map(bind);
            fleet.ring.boot(listeners);
            let mut client = connect(fleet.ring.addrs[0]);
            let mut first = LoopOut::default();
            first.request(
                &mut client,
                probe.0,
                probe.1,
                fleet.next_id,
                Some(true),
                "client.boot",
                false,
            );
            setup.push(t.elapsed().as_secs_f64());
            fleet.next_id += 1;
            rep.problems.extend(first.problems);
            fleet.seen.merge(rep, first.seen);
            drop(client);
            if b + 1 < boots {
                fleet.ring.shutdown();
            }
        }
        (fleet, setup)
    }

    /// One measured pass: a local-hit loop and a forwarded-hit loop,
    /// each on its own persistent connection to the entry daemon, take
    /// turns for half of every window, so each class is measured across
    /// the whole pass. `main` is local hits, `side` forwarded ones; as
    /// they never run at once, neither class waits on the other's
    /// threads.
    fn pass(
        &mut self,
        rep: &mut Report,
        seed: u64,
        len: Duration,
        tr: Option<&mut Tracer>,
    ) -> (Pass, Vec<f64>, Vec<f64>) {
        let traced = tr.is_some();
        let entry = self.ring.addrs[0];
        let base = self.next_id;
        self.next_id += 1 << 40;
        let mut pass = Pass::new(len);
        pass.main_share = 0.5;
        let start = pass.start;
        let (local_keys, fwd_keys) = (&self.local, &self.forwarded);
        let mut local = HitLoop::new(
            entry,
            local_keys,
            seed,
            Duration::ZERO,
            Some(true),
            base,
            "client.hit",
            traced,
        );
        let mut fwd = HitLoop::new(
            entry,
            fwd_keys,
            seed ^ 1,
            Duration::ZERO,
            Some(true),
            base + (1 << 39),
            "client.fwd_hit",
            traced,
        );
        let turn = len / (2 * WINDOWS);
        for t in 0..2 * WINDOWS {
            let until = start + turn * (t + 1);
            if t % 2 == 0 {
                local.run(until);
            } else {
                fwd.run(until);
            }
        }
        let (local, fwd) = (local.out, fwd.out);
        pass.main = local.lat;
        pass.side = fwd.lat;
        pass.sent = local.sent + fwd.sent;
        pass.failed = local.failed + fwd.failed + local.refused + fwd.refused;
        rep.problems.extend(local.problems);
        rep.problems.extend(fwd.problems);
        self.seen.merge(rep, local.seen);
        self.seen.merge(rep, fwd.seen);
        if let Some(tr) = tr {
            tr.absorb(local.tracer);
            tr.absorb(fwd.tracer);
        }
        (pass, local.rtt_us, fwd.rtt_us)
    }

    /// Checks on a pass's `stats` deltas: every answer a cache hit with no
    /// table build and no failover, and exactly one forward per
    /// forwarded request.
    fn check_pass(
        &self,
        rep: &mut Report,
        before: &[StatsReply; 2],
        after: &[StatsReply; 2],
        pass: &Pass,
    ) {
        let builds: u64 = (0..2)
            .map(|i| after[i].table_builds - before[i].table_builds)
            .sum();
        rep.check(builds == 0, || {
            format!("warm ring built {builds} pattern tables")
        });
        let failovers = after[0].peer_failovers - before[0].peer_failovers;
        rep.check(failovers == 0, || {
            format!("{failovers} peer failovers in a healthy ring")
        });
        let forwards = after[0].peer_forwards - before[0].peer_forwards;
        let sent = pass.side.len() as u64;
        rep.check(forwards == sent, || {
            format!("{forwards} peer forwards for {sent} forwarded-key requests")
        });
    }

    /// A traced pass, with the socket and fleet layers it crossed.
    fn traced_pass(&mut self, rep: &mut Report, seed: u64, len: Duration) -> (Pass, RingLayers) {
        let connect_us = connect_us(self.ring.addrs[0]);
        let before = self.ring.stats();
        let mut tr = Tracer::default();
        let (pass, local_rtt, fwd_rtt) = self.pass(rep, seed, len, Some(&mut tr));
        let after = self.ring.stats();
        self.check_pass(rep, &before, &after, &pass);
        let ring = RingLayers {
            connect_us,
            local_rtt_us: quantile(&local_rtt, 0.5),
            fwd_rtt_us: quantile(&fwd_rtt, 0.5),
            coverage: tr.coverage("client.hit"),
            artifact_load_ms: self.artifact_load_ms(),
            before,
            after,
            peer_ring: self.ring.peer_ring(),
        };
        rep.spans.absorb(tr);
        (pass, ring)
    }

    /// Time to open and read both daemons' persistent tiers.
    fn artifact_load_ms(&self) -> f64 {
        let t = Instant::now();
        for dir in &self.ring.dirs {
            let store = ArtifactStore::open(dir).expect("open cache dir");
            std::hint::black_box(store.load_results());
            std::hint::black_box(store.load_tables());
        }
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// Socket- and fleet-layer measurements of a traced ring pass.
pub struct RingLayers {
    pub connect_us: f64,
    pub local_rtt_us: f64,
    pub fwd_rtt_us: f64,
    pub coverage: f64,
    pub artifact_load_ms: f64,
    pub before: [StatsReply; 2],
    pub after: [StatsReply; 2],
    pub peer_ring: PeerRing,
}

impl RingLayers {
    /// Set the ring metrics; `transport` is the serving path's local hit
    /// RTT minus `Server::handle_line`.
    pub fn set(&self, rep: &mut Report, handle_p50: f64) {
        rep.set("serve.connect_us", self.connect_us);
        rep.set("serve.transport_us", self.local_rtt_us - handle_p50);
        rep.set("serve.forward_hop_us", self.fwd_rtt_us - self.local_rtt_us);
        rep.set("serve.hit_coverage_frac", self.coverage);
        rep.set("core.artifact_load_ms", self.artifact_load_ms);
    }
}

/// Sum over daemons of a `stats` counter's growth.
fn delta(before: &[StatsReply], after: &[StatsReply], f: fn(&StatsReply) -> u64) -> f64 {
    before
        .iter()
        .zip(after)
        .map(|(b, a)| (f(a) - f(b)) as f64)
        .sum()
}

/// The cache and fleet counters of a ring pass, from `stats` deltas.
pub fn ring_stats(rep: &mut Report, before: &[StatsReply], after: &[StatsReply]) {
    let d = |f| delta(before, after, f);
    let (hits, misses) = (d(|s| s.artifact_cache_hits), d(|s| s.artifact_cache_misses));
    rep.set("cache.artifact_hit_ratio", hits / (hits + misses));
    rep.set("core.table_builds", d(|s| s.table_builds));
    rep.set("serve.peer_forwards", d(|s| s.peer_forwards));
    rep.set("serve.peer_failovers", d(|s| s.peer_failovers));
}

/// The eviction, admission and latency figures of the load pass, from
/// `stats` deltas and the daemon's latency histograms.
fn load_stats(rep: &mut Report, before: &StatsReply, after: &StatsReply) {
    let d = |f| delta(std::slice::from_ref(before), std::slice::from_ref(after), f);
    let (builds, table_hits) = (d(|s| s.table_builds), d(|s| s.table_cache_hits));
    rep.set(
        "cache.table_hit_ratio",
        if builds + table_hits > 0.0 {
            table_hits / (builds + table_hits)
        } else {
            0.0
        },
    );
    rep.set("cache.artifact_evictions", d(|s| s.artifact_evictions));
    rep.set("cache.table_evictions", d(|s| s.table_evictions));
    rep.set("serve.sheds", d(|s| s.sheds));
    rep.set("serve.deadline_exceeded", d(|s| s.deadline_exceeded));
    let lat = &after.latency;
    rep.set("serve.stats.total_ms_p99", lat.total.p99_sec * 1e3);
    rep.set("serve.stats.accepted_ms_p99", lat.accepted.p99_sec * 1e3);
    rep.set("serve.stats.enumerate_ms_p50", lat.enumerate.p50_sec * 1e3);
}

/// `serve_hits`: persistent connections to the entry daemon of a warm
/// ring, one sending keys it owns, one sending keys its peer owns.
pub fn hits(args: &Args) -> Report {
    let mut rep = Report::default();
    let work = WorkDir::new("serve_hits");
    let items = inputs::hit_keys(args.seed);
    let refs: Vec<&Item> = items.iter().collect();
    let (mut fleet, setup) = Fleet::start(&mut rep, &refs, &work.0, RING_BOOTS);
    rep.set("setup_s", quantile(&setup, 0.5));

    let before = fleet.ring.stats();
    let (untraced, _, _) = fleet.pass(&mut rep, args.seed, args.pass(), None);
    let mid = fleet.ring.stats();
    fleet.check_pass(&mut rep, &before, &mid, &untraced);
    rep.set_end_to_end(&untraced);

    if args.trace {
        let (traced, ring) = fleet.traced_pass(&mut rep, args.seed, args.pass());
        rep.set_overhead(&untraced, &traced);
        ring_stats(&mut rep, &ring.before, &ring.after);
        let handle_p50 = layers::wire_battery(&mut rep, &refs, &ring.peer_ring);
        ring.set(&mut rep, handle_p50);
        layers::stage_battery(&mut rep, &refs);
        load_battery(&mut rep, args.seed);
    }
    fleet.ring.shutdown();

    fleet.seen.verify(&mut rep, &refs, true);
    rep.set("code_cycles_total", fleet.seen.cycles(&refs));
    rep
}

/// The ring layers for a traced run of a workload that does not serve
/// through a ring itself: its own requests compiled into a fresh ring,
/// then a short traced hit pass, local and forwarded.
pub fn ring_battery(rep: &mut Report, items: &[&Item], seed: u64) -> RingLayers {
    let items = layers::distinct(items);
    let work = WorkDir::new("ring_battery");
    let (mut fleet, _) = Fleet::start(rep, &items, &work.0, 1);
    let (_, ring) = fleet.traced_pass(rep, seed, BATTERY_PASS);
    fleet.ring.shutdown();
    fleet.seen.verify(rep, &items, true);
    ring
}

/// The open loop of cold compiles: request `i` is due `i / COLD_PER_S`
/// after `start`; how late each was sent is its lag.
fn cold_loop(
    addr: SocketAddr,
    items: &[Item],
    start: Instant,
    until: Instant,
    ids: u64,
) -> LoopOut {
    let mut out = LoopOut::default();
    let mut client = connect(addr);
    let period = Duration::from_secs_f64(1.0 / COLD_PER_S);
    for (i, item) in items.iter().enumerate() {
        let due = start + period * i as u32;
        if due >= until {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        out.lag_us
            .push(us(Instant::now().saturating_duration_since(due)));
        match out.request(
            &mut client,
            i,
            item,
            ids + i as u64,
            Some(false),
            "client.cold",
            false,
        ) {
            Some(_) => {}
            None => break,
        }
    }
    out
}

/// The load battery every traced run ends with: one standalone daemon
/// with tight cache budgets. One connection sends cold compiles on a
/// fixed schedule, the other closed-loop hits over a small hot set, so
/// the caches evict under churn and hits queue behind compiles. It
/// reports the daemon's eviction, admission and latency figures and the
/// open loop's lateness; its own latencies are no end-to-end metric.
pub fn load_battery(rep: &mut Report, seed: u64) {
    let hot = inputs::hot_set(seed);
    let cold = inputs::cold_compiles(seed, (LOAD_PASS.as_secs_f64() * COLD_PER_S) as usize + 1);
    let opts = ServeOptions {
        max_artifacts: Some(LOAD_MAX_ARTIFACTS),
        max_tables: Some(LOAD_MAX_TABLES),
        ..ServeOptions::default()
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let daemon = spawn_on(listener, opts);

    // Warm the hot set: each compiled once.
    let hot_refs: Vec<(usize, &Item)> = hot.iter().enumerate().collect();
    let mut warm = LoopOut::default();
    let mut client = connect(addr);
    for (i, item) in &hot_refs {
        warm.request(
            &mut client,
            *i,
            item,
            1 + *i as u64,
            Some(false),
            "client.warm",
            false,
        );
    }
    drop(client);
    rep.problems.extend(std::mem::take(&mut warm.problems));
    let mut hot_seen = std::mem::take(&mut warm.seen);

    let stats = || connect(addr).stats().expect("stats reply");
    let before = stats();
    let start = Instant::now();
    let until = start + LOAD_PASS;
    let ids = 1_000_000;
    let (hits, colds) = std::thread::scope(|s| {
        let colds = s.spawn(|| cold_loop(addr, &cold, start, until, ids));
        let mut hits = HitLoop::new(
            addr,
            &hot_refs,
            seed,
            HIT_THINK,
            None,
            ids + 500_000,
            "client.hit",
            false,
        );
        hits.run(until);
        (hits.out, colds.join().expect("cold compile client"))
    });
    let after = stats();
    let _ = connect(addr).shutdown();
    let _ = daemon.join();

    let (art, tab) = (
        after.artifact_evictions - before.artifact_evictions,
        after.table_evictions - before.table_evictions,
    );
    rep.check(art > 0 && tab > 0, || {
        format!("cache budgets never bound: {art} artifact and {tab} table evictions")
    });
    load_stats(rep, &before, &after);
    rep.set("gen.lag_ms_p99", quantile(&colds.lag_us, 0.99) / 1e3);
    rep.attempted += hits.sent + colds.sent;
    rep.failed += hits.failed + colds.failed + hits.refused + colds.refused;
    rep.problems.extend(hits.problems);
    rep.problems.extend(colds.problems);
    hot_seen.merge(rep, hits.seen);
    let hot_ref: Vec<&Item> = hot.iter().collect();
    hot_seen.verify(rep, &hot_ref, true);
    let cold_refs: Vec<&Item> = cold.iter().collect();
    colds.seen.verify(rep, &cold_refs, false);
}
