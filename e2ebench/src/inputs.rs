//! Seeded input generation. The program under test only ever sees the
//! requests built here.

use mps::dfg::{parse_text, to_text, Dfg, DfgBuilder};
use mps::CompileConfig;
use mps_serve::protocol::Request;
use mps_serve::{Owner, PeerRing};

/// SplitMix64: small, seedable, and stable across platforms.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// A seeded sequence over `0..len`: every index once per round, each
/// round in a fresh seeded order, so no request always follows the
/// same one.
pub struct Order {
    rng: Rng,
    round: Vec<usize>,
    pos: usize,
}

impl Order {
    pub fn new(len: usize, seed: u64) -> Order {
        Order {
            rng: Rng::new(seed),
            round: (0..len).collect(),
            pos: len,
        }
    }

    pub fn next(&mut self) -> usize {
        if self.pos == self.round.len() {
            self.rng.shuffle(&mut self.round);
            self.pos = 0;
        }
        self.pos += 1;
        self.round[self.pos - 1]
    }
}

/// One compile request: the wire form, the graph it resolves to, and
/// the configuration it compiles under.
#[derive(Clone, Debug)]
pub struct Item {
    /// Kernel name (the registry name, also for renamed inline copies).
    pub kernel: String,
    /// The request as sent on the wire (without an `id`).
    pub req: Request,
    pub dfg: Dfg,
    pub cfg: CompileConfig,
    /// `true` for registry kernels, whose identity does not depend on
    /// the seed; only these enter `code_cycles_total`.
    pub registry: bool,
}

/// Knobs of one compile request.
#[derive(Clone, Copy, Debug)]
pub struct Knobs {
    pub pdef: usize,
    pub span: Option<u32>,
    pub capacity: Option<usize>,
    pub alus: Option<usize>,
    pub fabric: Option<&'static str>,
}

impl Knobs {
    pub fn new(pdef: usize, span: Option<u32>) -> Knobs {
        Knobs {
            pdef,
            span,
            capacity: None,
            alus: None,
            fabric: None,
        }
    }

    fn request(self) -> Request {
        Request {
            op: "compile".to_string(),
            pdef: Some(self.pdef),
            span: Some(self.span),
            capacity: self.capacity,
            alus: self.alus,
            fabric: self.fabric.map(str::to_string),
            ..Request::default()
        }
    }
}

impl Item {
    /// A registry kernel, requested by name.
    pub fn registry(kernel: &str, knobs: Knobs) -> Item {
        let req = Request {
            workload: Some(kernel.to_string()),
            ..knobs.request()
        };
        let dfg = mps::workloads::by_name(kernel).expect("registry kernel");
        Item::new(kernel, req, dfg, true)
    }

    /// `dfg` sent as inline graph text.
    pub fn inline(kernel: &str, dfg: &Dfg, knobs: Knobs) -> Item {
        let text = to_text(dfg);
        // The server hashes the graph it parses, so the item keeps that
        // parse rather than `dfg` itself.
        let parsed = parse_text(&text).expect("rendered graph parses");
        let req = Request {
            graph: Some(text),
            ..knobs.request()
        };
        Item::new(kernel, req, parsed, false)
    }

    fn new(kernel: &str, req: Request, dfg: Dfg, registry: bool) -> Item {
        let cfg = req.compile_config().expect("benchmark requests are valid");
        Item {
            kernel: kernel.to_string(),
            req,
            dfg,
            cfg,
            registry,
        }
    }

    /// The artifact-cache key the server files this request under (its
    /// wire config, which compiles sequentially whatever `cfg` says).
    pub fn key(&self) -> (u64, u64) {
        let wire = self
            .req
            .compile_config()
            .expect("benchmark requests are valid");
        (self.dfg.content_hash(), wire.content_hash())
    }

    /// The wire line for this request under `id`.
    pub fn line(&self, id: u64) -> String {
        Request {
            id: Some(id),
            ..self.req.clone()
        }
        .to_line()
    }
}

/// `dfg` with every node renamed `<prefix>_<index>`: same structure,
/// colours and node order, a different content hash.
pub fn renamed(dfg: &Dfg, prefix: &str) -> Dfg {
    let mut b = DfgBuilder::with_capacity(dfg.len(), dfg.edge_count());
    let ids: Vec<_> = dfg
        .node_ids()
        .map(|id| b.add_node(format!("{prefix}_{}", id.index()), dfg.color(id)))
        .collect();
    for (u, v) in dfg.edges() {
        b.add_edge(ids[u.index()], ids[v.index()])
            .expect("edges of a valid graph");
    }
    b.build().expect("renaming keeps the graph valid")
}

/// A `random<n>` registry DAG, renamed so it cannot collide with the
/// registry entry of the same name.
pub fn random_dag(n: u64, prefix: &str) -> Dfg {
    let g = mps::workloads::by_name(&format!("random{n}")).expect("random DAG generator");
    renamed(&g, prefix)
}

pub const SMALL: [&str; 5] = ["fig2", "dft3", "cholesky4", "horner6", "cordic8"];
pub const MEDIUM: [&str; 5] = ["dft5", "fir16", "iir4", "dct8", "matmul3"];

const SPANS: [Option<u32>; 4] = [Some(0), Some(1), Some(2), None];
/// Multi-tile fabrics, with the pattern capacity their tiles hold.
const FABRICS: [(&str, usize); 2] = [("2@1", 5), ("4:3,16@2", 3)];

/// `compile_mix`: a fixed deck of registry compiles plus seeded random
/// DAGs, compiled in a seeded [`Order`]. Small kernels dominate (every span, three
/// `Pdef`s), medium ones appear at spans 0–2, and the large ones (fft8,
/// conv3) are few. About 1 request in 5 runs on a multi-tile fabric
/// (small kernels only); half of the other entries finish with a tile
/// replay.
pub fn compile_deck(seed: u64) -> Vec<Item> {
    let mut entries: Vec<(&str, usize, Option<u32>)> = Vec::new();
    for k in SMALL {
        for span in SPANS {
            for pdef in [3, 4, 5] {
                entries.push((k, pdef, span));
            }
        }
    }
    let small = entries.len();
    for k in MEDIUM {
        for span in &SPANS[..3] {
            entries.push((k, 4, *span));
        }
    }
    for (k, span) in [
        ("fft8", Some(0)),
        ("fft8", Some(1)),
        ("conv3", Some(0)),
        ("conv3", Some(1)),
        ("conv3", Some(1)),
    ] {
        entries.push((k, 4, span));
    }
    let mut deck: Vec<Item> = entries
        .into_iter()
        .enumerate()
        .map(|(i, (k, pdef, span))| {
            let mut knobs = Knobs::new(pdef, span);
            if i < small && i % 7 % 4 == 0 {
                let (fabric, capacity) = FABRICS[i % 2];
                knobs.fabric = Some(fabric);
                knobs.capacity = Some(capacity);
            } else if i % 2 == 0 {
                knobs.alus = Some(5);
            }
            Item::registry(k, knobs)
        })
        .collect();
    let mut rng = Rng::new(seed);
    for j in 0..6u64 {
        let n = seed.wrapping_mul(1_000).wrapping_add(j);
        let g = random_dag(n, &format!("r{n}"));
        let knobs = Knobs::new(3 + rng.below(3), SPANS[rng.below(SPANS.len())]);
        deck.push(Item::inline(&format!("random{n}"), &g, knobs));
    }
    for item in &mut deck {
        // `Session` users compile at the default parallelism; only the
        // daemon pins requests to one thread.
        item.cfg.select.parallel = true;
    }
    deck
}

/// Where `serve_hits` boots its two daemons, when the addresses are
/// free: the ring hashes member addresses, so fixing them fixes which
/// daemon owns each request, and lets [`hit_keys`] give both an equal
/// share.
pub const RING_ADDRS: [&str; 2] = ["127.83.0.1:17483", "127.83.0.2:17483"];

/// The daemon of [`RING_ADDRS`] that owns `item` (0 is the entry daemon).
pub fn owner(item: &Item) -> usize {
    let ring = PeerRing::new(RING_ADDRS[0], &RING_ADDRS[1..]);
    usize::from(ring.owner_of(item.key()) != Owner::Local)
}

/// For each request shape, one variant owned by each daemon of
/// [`RING_ADDRS`], so local and forwarded hits see the same mix.
/// `variant(v)` builds the `v`-th cost-neutral variant of the shape; a
/// shape whose variants all land on one daemon is skipped.
fn both_owners(out: &mut Vec<Item>, variant: impl Fn(usize) -> Item) {
    let mut found: [Option<Item>; 2] = [None, None];
    for v in 0..32 {
        let item = variant(v);
        let o = owner(&item);
        found[o].get_or_insert(item);
        if found.iter().all(Option::is_some) {
            out.extend(found.into_iter().flatten());
            return;
        }
    }
}

/// `serve_hits`: a fixed roster of registry request shapes (ten kernels
/// at every span, `Pdef` 3–5, some with tile replay or on a 2-tile
/// fabric) plus one inline shape per three, each a seeded renaming of a
/// roster kernel. Every shape appears once per daemon, in variants that
/// differ only in the tile size replayed (or the fabric's transfer
/// latency, or the node names), in a seeded order.
pub fn hit_keys(seed: u64) -> Vec<Item> {
    let mut rng = Rng::new(seed);
    let mut items = Vec::new();
    let mut shapes = 0;
    for (i, k) in SMALL.iter().chain(MEDIUM.iter()).enumerate() {
        for (j, span) in SPANS.iter().enumerate() {
            let knobs = Knobs::new(3 + (i + j) % 3, *span);
            let fabric = (i + j) % 4 == 2 && j < 2;
            both_owners(&mut items, |v| {
                let mut knobs = knobs;
                if fabric {
                    // A fabric compile ignores `alus`; it only changes
                    // the cache key.
                    knobs.fabric = Some(["2@1", "2@2", "2@3", "2@4"][v % 4]);
                    knobs.alus = (v >= 4).then_some(v);
                } else {
                    knobs.alus = (v > 0).then_some(4 + v);
                }
                Item::registry(k, knobs)
            });
            shapes += 1;
        }
    }
    for n in 0..shapes / 3 {
        let k = [SMALL, MEDIUM].concat()[rng.below(SMALL.len() + MEDIUM.len())];
        let g = mps::workloads::by_name(k).expect("roster kernel");
        let knobs = Knobs::new(3 + rng.below(3), SPANS[rng.below(3)]);
        both_owners(&mut items, |v| {
            Item::inline(k, &renamed(&g, &format!("h{seed}x{n}v{v}")), knobs)
        });
    }
    rng.shuffle(&mut items);
    items
}

/// The load battery's hot set: six fixed registry requests (one with tile
/// replay, one on a 2-tile fabric) and two seeded inline renamings.
pub fn hot_set(seed: u64) -> Vec<Item> {
    let mut items: Vec<Item> = ["fig2", "dft3", "cordic8", "fir16", "iir4", "cholesky4"]
        .iter()
        .enumerate()
        .map(|(i, k)| {
            let mut knobs = Knobs::new(4, Some(1));
            match i {
                1 => knobs.alus = Some(5),
                4 => knobs.fabric = Some(FABRICS[0].0),
                _ => {}
            }
            Item::registry(k, knobs)
        })
        .collect();
    for (n, k) in ["horner6", "dft5"].iter().enumerate() {
        let g = renamed(
            &mps::workloads::by_name(k).expect("kernel"),
            &format!("m{seed}x{n}"),
        );
        items.push(Item::inline(k, &g, Knobs::new(4, Some(1))));
    }
    items
}

/// The load battery's cold compiles: blocks of five — fft8, dct8, matmul3 and
/// dft5 with seeded node names, plus one seeded random DAG — shuffled
/// within each block. Every graph is new to the daemon, so each request
/// is a guaranteed miss of known cost.
pub fn cold_compiles(seed: u64, count: usize) -> Vec<Item> {
    let mut rng = Rng::new(seed ^ 0xc01d);
    let mut items = Vec::with_capacity(count);
    let mut block = 0u64;
    while items.len() < count {
        let mut kinds = [0usize, 1, 2, 3, 4];
        rng.shuffle(&mut kinds);
        for kind in kinds {
            let prefix = format!("c{seed}x{block}");
            let item = match kind {
                4 => {
                    let n = seed.wrapping_mul(7_919).wrapping_add(block);
                    Item::inline(
                        &format!("random{n}"),
                        &random_dag(n, &prefix),
                        Knobs::new(4, Some(1)),
                    )
                }
                _ => {
                    let k = ["fft8", "dct8", "matmul3", "dft5"][kind];
                    let g = renamed(&mps::workloads::by_name(k).expect("kernel"), &prefix);
                    Item::inline(k, &g, Knobs::new(4, Some(1)))
                }
            };
            items.push(item);
        }
        block += 1;
    }
    items.truncate(count);
    items
}
