//! Per-layer measurements: the staged compile every traced pass runs,
//! and the batteries that time each layer's public calls on a
//! workload's own requests.

use crate::inputs::Item;
use crate::report::{mean, quantile, us, Report};
use crate::trace::Tracer;
use mps::dfg::{AnalyzedDfg, Dfg};
use mps::patterns::{EnumerateConfig, PatternTable};
use mps::select::SelectConfig;
use mps::{CompileResult, MpsError, Session};
use mps_serve::protocol::{Reply, Request};
use mps_serve::{PeerRing, ServeOptions, Server};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// `Session::compile`'s stage chain on `dfg` (the caller's copy of
/// `item`'s graph) called one stage at a time, each call a span under
/// one `core.compile` root for request `req`.
pub fn staged_compile(
    item: &Item,
    dfg: Dfg,
    tr: &mut Tracer,
    req: u64,
) -> Result<CompileResult, MpsError> {
    let cfg = &item.cfg;
    let root = tr.open("core.compile", None, req);
    let p = Some(root);
    let mut session = Session::with_config(dfg, cfg.clone());
    let analysis = tr.time("dfg.analyze", p, req, || session.analyze());
    let enumerated = tr.time("patterns.enumerate", p, req, || {
        analysis.enumerate(cfg.select.span_limit)
    });
    let selected = tr.time("select.select", p, req, || enumerated.select(&cfg.engine));
    let result = match &cfg.fabric {
        Some(params) => {
            let part = tr.time("fabric.partition", p, req, || selected.partition(params))?;
            let sched = tr.time("scheduler.schedule", p, req, || {
                part.schedule_fabric(&cfg.schedule)
            })?;
            tr.time("montium.map_tile", p, req, || sched.map_fabric())?
                .finish()
        }
        None => {
            let sched = tr.time("scheduler.schedule", p, req, || {
                selected.schedule(&cfg.schedule)
            })?;
            match cfg.tile {
                Some(tile) => tr
                    .time("montium.map_tile", p, req, || sched.map_tile(tile))?
                    .finish(),
                None => sched.finish(),
            }
        }
    };
    tr.close(root);
    Ok(result)
}

/// What one staged compile produced, for the compile-layer metrics.
struct StageSample {
    /// Index of the input the compile ran (its deck entry or item).
    pub entry: usize,
    pub req: u64,
    pub antichains: u64,
    pub rounds: usize,
    pub transfers: Option<usize>,
}

impl StageSample {
    fn new(entry: usize, req: u64, r: &CompileResult) -> StageSample {
        StageSample {
            entry,
            req,
            antichains: r.metrics.antichains,
            rounds: r.metrics.select_rounds,
            transfers: r.fabric.as_ref().map(|m| m.transfer_count()),
        }
    }
}

/// The compile-layer metrics from staged compiles in `tr`.
///
/// `untraced_us[e]` holds untraced `Session::compile` times of input
/// `e`, taken alternately with its staged compiles; `core.stage_sum_frac`
/// compares, input by input, the summed stage calls with those times.
/// `antichains_per_pass` is the antichain count of one compile of every
/// distinct input.
fn compile_layer_metrics(
    rep: &mut Report,
    tr: &Tracer,
    samples: &[StageSample],
    untraced_us: &[Vec<f64>],
    antichains_per_pass: u64,
) {
    rep.set("dfg.analyze_us", tr.mean_us("dfg.analyze"));
    rep.set(
        "patterns.enumerate_ms",
        tr.mean_us("patterns.enumerate") / 1e3,
    );
    rep.set("patterns.antichains", antichains_per_pass as f64);
    let enum_sec: f64 = tr.durations_us("patterns.enumerate").iter().sum::<f64>() / 1e6;
    let antichains: u64 = samples.iter().map(|s| s.antichains).sum();
    rep.set("patterns.antichains_per_s", antichains as f64 / enum_sec);
    rep.set("select.select_us", tr.mean_us("select.select"));
    let rounds: Vec<f64> = samples.iter().map(|s| s.rounds as f64).collect();
    rep.set("select.rounds", mean(&rounds));
    rep.set("scheduler.schedule_us", tr.mean_us("scheduler.schedule"));
    rep.set("montium.map_tile_us", tr.mean_us("montium.map_tile"));
    rep.set("fabric.partition_us", tr.mean_us("fabric.partition"));
    let transfers: Vec<f64> = samples
        .iter()
        .filter_map(|s| s.transfers)
        .map(|t| t as f64)
        .collect();
    rep.set("fabric.transfers", mean(&transfers));

    // Stage-call coverage of the untraced compile wall time, matched
    // input by input so both sides weigh the same mix.
    let entry_of: HashMap<u64, usize> = samples.iter().map(|s| (s.req, s.entry)).collect();
    let mut covered: HashMap<usize, Vec<f64>> = HashMap::new();
    for (req, _, cov) in tr.root_cover("core.compile") {
        if let Some(e) = entry_of.get(&req) {
            covered.entry(*e).or_default().push(us(cov));
        }
    }
    let (mut num, mut den) = (0.0, 0.0);
    for (e, cov) in &covered {
        if let Some(times) = untraced_us.get(*e).filter(|t| !t.is_empty()) {
            num += mean(cov);
            den += mean(times);
        }
    }
    rep.set("core.stage_sum_frac", num / den);
}

/// `patterns.build_par_speedup` and `select.par_speedup`: the table
/// build and the Eq. 8 engine at the default parallelism against their
/// sequential paths, on the same inputs (best of three per input,
/// summed over the distinct inputs).
fn par_speedups(rep: &mut Report, items: &[&Item]) {
    const REPS: usize = 3;
    let best = |f: &mut dyn FnMut()| {
        (0..REPS)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed()
            })
            .min()
            .unwrap_or_default()
    };
    let (mut build, mut select) = ([Duration::ZERO; 2], [Duration::ZERO; 2]);
    for item in distinct(items) {
        let cfg = &item.cfg;
        let adfg = AnalyzedDfg::new(item.dfg.clone());
        let sched = cfg.schedule.eval_config();
        let table = PatternTable::build(&adfg, ecfg(item, true));
        for (slot, parallel) in [(0, false), (1, true)] {
            build[slot] += best(&mut || {
                std::hint::black_box(PatternTable::build(&adfg, ecfg(item, parallel)));
            });
            let scfg = SelectConfig {
                parallel,
                ..cfg.select
            };
            select[slot] += best(&mut || {
                std::hint::black_box(cfg.engine.run(&adfg, &table, &scfg, sched));
            });
        }
    }
    rep.set(
        "patterns.build_par_speedup",
        build[0].as_secs_f64() / build[1].as_secs_f64(),
    );
    rep.set(
        "select.par_speedup",
        select[0].as_secs_f64() / select[1].as_secs_f64(),
    );
}

fn ecfg(item: &Item, parallel: bool) -> EnumerateConfig {
    EnumerateConfig {
        capacity: item.cfg.select.capacity,
        span_limit: item.cfg.select.span_limit,
        parallel,
    }
}

/// The first item of every distinct cache key, in order.
pub fn distinct<'a>(items: &[&'a Item]) -> Vec<&'a Item> {
    let mut seen = std::collections::HashSet::new();
    items
        .iter()
        .copied()
        .filter(|i| seen.insert(i.key()))
        .collect()
}

/// The compile-layer metrics of a workload: every distinct request
/// compiled stage by stage, alternating with untraced
/// `Session::compile`s of the same input so both see the same machine,
/// under the request's own config (default parallelism for
/// `compile_mix`, sequential as the daemon runs it for the serving
/// workloads).
pub fn stage_battery(rep: &mut Report, items: &[&Item]) {
    const REPS: usize = 3;
    let items = distinct(items);
    let mut tr = Tracer::default();
    let mut samples = Vec::new();
    let mut untraced = vec![Vec::new(); items.len()];
    let mut antichains = 0;
    let mut req = 0;
    for rep_i in 0..REPS {
        for (e, item) in items.iter().enumerate() {
            let (dfg, cfg) = (item.dfg.clone(), item.cfg.clone());
            let t = Instant::now();
            let plain = Session::with_config(dfg, cfg).compile();
            untraced[e].push(us(t.elapsed()));
            let staged = staged_compile(item, item.dfg.clone(), &mut tr, req);
            match (plain, staged) {
                (Ok(a), Ok(b)) => {
                    rep.check(
                        a.selection.patterns == b.selection.patterns && a.cycles == b.cycles,
                        || {
                            format!(
                                "{}: staged compile differs from Session::compile",
                                item.kernel
                            )
                        },
                    );
                    if rep_i == 0 {
                        antichains += b.metrics.antichains;
                    }
                    samples.push(StageSample::new(e, req, &b));
                }
                (a, b) => rep.problems.push(format!(
                    "{}: compile failed: {:?} / {:?}",
                    item.kernel,
                    a.err(),
                    b.err()
                )),
            }
            req += 1;
        }
    }
    compile_layer_metrics(rep, &tr, &samples, &untraced, antichains);
    par_speedups(rep, &items);
    rep.spans.absorb(tr);
}

/// Mean time of one `f` call over `inputs`, repeating whole rounds
/// until at least `min` has passed.
fn per_call_us<T>(inputs: &[T], min: Duration, mut f: impl FnMut(&T)) -> f64 {
    if inputs.is_empty() {
        return f64::NAN;
    }
    let start = Instant::now();
    let mut calls = 0usize;
    while calls == 0 || start.elapsed() < min {
        for x in inputs {
            f(x);
        }
        calls += inputs.len();
    }
    us(start.elapsed()) / calls as f64
}

/// The in-process request-handling layers, timed on the workload's own
/// request lines:
///
/// - `Request::from_line`, `dfg::parse_text` (inline graphs; every
///   graph's text form when the workload sends none), registry
///   regeneration plus `Dfg::content_hash`, `CompileConfig::content_hash`
///   and `PeerRing::owner_of` on `ring`;
/// - `Server::handle_line` on a warm standalone twin, and
///   `Reply::from_line` on the twin's replies.
///
/// Returns the twin's median `handle_line` time, microseconds.
pub fn wire_battery(rep: &mut Report, items: &[&Item], ring: &PeerRing) -> f64 {
    const MIN: Duration = Duration::from_millis(60);
    let lines: Vec<String> = items
        .iter()
        .enumerate()
        .map(|(i, it)| it.line(i as u64))
        .collect();
    rep.set(
        "protocol.request_parse_us",
        per_call_us(&lines, MIN, |l| {
            std::hint::black_box(Request::from_line(l).expect("valid request"));
        }),
    );
    let mut texts: Vec<&str> = items
        .iter()
        .filter_map(|i| i.req.graph.as_deref())
        .collect();
    let rendered: Vec<String>;
    if texts.is_empty() {
        rendered = items.iter().map(|i| mps::dfg::to_text(&i.dfg)).collect();
        texts = rendered.iter().map(String::as_str).collect();
    }
    rep.set(
        "dfg.parse_text_us",
        per_call_us(&texts, MIN, |t| {
            std::hint::black_box(mps::dfg::parse_text(t).expect("valid graph"));
        }),
    );
    let names: Vec<&str> = items
        .iter()
        .filter_map(|i| i.req.workload.as_deref())
        .collect();
    rep.set(
        "workloads.regen_us",
        per_call_us(&names, MIN, |n| {
            let g = mps::workloads::by_name(n).expect("registry kernel");
            std::hint::black_box(g.content_hash());
        }),
    );
    rep.set(
        "core.config_hash_us",
        per_call_us(items, MIN, |i| {
            std::hint::black_box(i.cfg.content_hash());
        }),
    );
    let keys: Vec<(u64, u64)> = items.iter().map(|i| i.key()).collect();
    rep.set(
        "ring.owner_us",
        per_call_us(&keys, MIN, |k| {
            std::hint::black_box(ring.owner_of(*k));
        }),
    );

    let twin = Server::new(ServeOptions::default());
    let replies: Vec<String> = lines.iter().map(|l| twin.handle_line(l).0).collect();
    for (item, reply) in items.iter().zip(&replies) {
        rep.check(
            matches!(Reply::from_line(reply), Ok(Reply::Compile(_))),
            || format!("{}: twin compile failed: {reply}", item.kernel),
        );
    }
    let mut handle = Vec::new();
    let start = Instant::now();
    while handle.is_empty() || start.elapsed() < MIN * 2 {
        for l in &lines {
            let t = Instant::now();
            std::hint::black_box(twin.handle_line(l));
            handle.push(us(t.elapsed()));
        }
    }
    twin.finish();
    rep.set("serve.handle_line_us", mean(&handle));
    rep.set(
        "protocol.reply_decode_us",
        per_call_us(&replies, MIN, |r| {
            std::hint::black_box(Reply::from_line(r).expect("valid reply"));
        }),
    );
    quantile(&handle, 0.5)
}
