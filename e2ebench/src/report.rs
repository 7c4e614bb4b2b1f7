//! Metric names, the result line, and the small statistics every
//! workload shares.

use crate::trace::Tracer;
use crate::Args;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end metrics (`--trace 0`), reported by every workload.
///
/// Each workload sends two request classes, `main` and `side`:
///
/// | workload | main | side |
/// |---|---|---|
/// | `compile_mix` | every fresh `Session::compile` | its multi-tile fabric share |
/// | `serve_hits` | warm hits answered by the entry daemon | warm hits it forwards to the owner |
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("main_us_p50", "us"),
    ("main_us_p99", "us"),
    ("main_per_s", "1/s"),
    ("side_us_p50", "us"),
    ("side_us_p90", "us"),
    ("code_cycles_total", "cycles"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics (`--trace 1`), reported by every workload from
/// calls the benchmark makes into each layer's public functions.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Compile stages (`Session` stage by stage, plus the two fan-outs).
    ("dfg.analyze_us", "us"),
    ("patterns.enumerate_ms", "ms"),
    ("patterns.antichains", "count"),
    ("patterns.antichains_per_s", "1/s"),
    ("patterns.build_par_speedup", "x"),
    ("select.select_us", "us"),
    ("select.rounds", "count"),
    ("select.par_speedup", "x"),
    ("scheduler.schedule_us", "us"),
    ("montium.map_tile_us", "us"),
    ("fabric.partition_us", "us"),
    ("fabric.transfers", "count"),
    ("core.stage_sum_frac", "frac"),
    // Wire and request handling, in process.
    ("protocol.request_parse_us", "us"),
    ("dfg.parse_text_us", "us"),
    ("workloads.regen_us", "us"),
    ("core.config_hash_us", "us"),
    ("ring.owner_us", "us"),
    ("serve.handle_line_us", "us"),
    ("protocol.reply_decode_us", "us"),
    ("core.artifact_load_ms", "ms"),
    // Sockets and the fleet hop.
    ("serve.connect_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.forward_hop_us", "us"),
    ("serve.hit_coverage_frac", "frac"),
    // Daemon `stats`: the ring pass, then the load battery.
    ("cache.artifact_hit_ratio", "frac"),
    ("core.table_builds", "count"),
    ("serve.peer_forwards", "count"),
    ("serve.peer_failovers", "count"),
    ("serve.stats.total_ms_p99", "ms"),
    ("serve.stats.accepted_ms_p99", "ms"),
    ("serve.stats.enumerate_ms_p50", "ms"),
    ("cache.artifact_evictions", "count"),
    ("cache.table_evictions", "count"),
    ("cache.table_hit_ratio", "frac"),
    ("serve.sheds", "count"),
    ("serve.deadline_exceeded", "count"),
    // The load battery's generator health, and the cost of tracing.
    ("gen.lag_ms_p99", "ms"),
    ("trace.overhead_main_us_p50", "us"),
    ("trace.overhead_main_us_p99", "us"),
    ("trace.overhead_main_per_s", "1/s"),
    ("trace.overhead_side_us_p50", "us"),
    ("trace.overhead_side_us_p90", "us"),
];

/// Least share of compile wall time and hit round trip the layer spans
/// must cover in a traced run.
const MIN_COVERAGE: f64 = 0.9;

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness and validity checks; any one fails the run.
    pub problems: Vec<String>,
    values: BTreeMap<&'static str, f64>,
    /// Spans of the traced pass, written out when the run ends.
    pub spans: Tracer,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Record a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// The end-to-end metrics every workload derives the same way from
    /// its two latency classes, its request counts and its process.
    pub fn set_end_to_end(&mut self, pass: &Pass) {
        for (name, value) in LATENCY_METRICS.iter().zip(pass.latency_metrics()) {
            self.set(name, value);
        }
        self.set("peak_rss_mb", peak_rss_mb());
        let sent = pass.sent.max(1) as f64;
        self.set("ok_frac", (pass.sent - pass.failed) as f64 / sent);
        self.attempted += pass.sent;
        self.failed += pass.failed;
    }

    /// Traced minus untraced end-to-end metrics, and the traced pass's
    /// own request counts.
    pub fn set_overhead(&mut self, untraced: &Pass, traced: &Pass) {
        let deltas = traced
            .latency_metrics()
            .into_iter()
            .zip(untraced.latency_metrics())
            .map(|(t, u)| t - u);
        for (name, delta) in OVERHEAD_METRICS.iter().zip(deltas) {
            self.set(name, delta);
        }
        self.attempted += traced.sent;
        self.failed += traced.failed;
    }

    /// Print the result line and exit: 0 when every check passed and
    /// every metric of the run's family was measured, 1 otherwise.
    pub fn finish(mut self, args: &Args) -> ExitCode {
        let family = if args.trace { PER_LAYER } else { END_TO_END };
        if args.trace {
            // The layer spans must account for the time they claim to
            // explain.
            for name in ["core.stage_sum_frac", "serve.hit_coverage_frac"] {
                let cover = self.values.get(name).copied().unwrap_or(f64::NAN);
                self.check(cover >= MIN_COVERAGE, || {
                    format!("{name} = {cover} < {MIN_COVERAGE}")
                });
            }
        }
        let mut metrics = Vec::with_capacity(family.len());
        for (name, unit) in family {
            match self.values.get(name) {
                Some(v) if v.is_finite() => {
                    metrics.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
                }
                Some(v) => self.problems.push(format!("metric {name} is {v}")),
                None => self
                    .problems
                    .push(format!("metric {name} was not measured")),
            }
        }
        if args.trace {
            let path = work_root().join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
            match self.spans.write_jsonl(&path) {
                Ok(()) => eprintln!("spans written to {}", path.display()),
                Err(e) => self
                    .problems
                    .push(format!("writing {}: {e}", path.display())),
            }
        }
        for p in self.problems.iter().take(20) {
            eprintln!("CHECK FAILED: {p}");
        }
        if self.problems.len() > 20 {
            eprintln!("... and {} more failed checks", self.problems.len() - 20);
        }
        let correct = self.problems.is_empty();
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// The end-to-end metrics [`Pass::latency_metrics`] computes, in order,
/// and their traced-minus-untraced counterparts.
const LATENCY_METRICS: [&str; 5] = [
    "main_us_p50",
    "main_us_p99",
    "main_per_s",
    "side_us_p50",
    "side_us_p90",
];
const OVERHEAD_METRICS: [&str; 5] = [
    "trace.overhead_main_us_p50",
    "trace.overhead_main_us_p99",
    "trace.overhead_main_per_s",
    "trace.overhead_side_us_p50",
    "trace.overhead_side_us_p90",
];

/// Windows a pass is cut into; each latency metric is the median over
/// windows of the window's statistic, so a stall of the machine that
/// spans a window or two does not move it.
pub const WINDOWS: u32 = 10;

/// One measured pass of a workload: the latencies of its two request
/// classes and how many requests it sent and lost.
pub struct Pass {
    pub start: Instant,
    pub len: Duration,
    /// `(send time, latency in microseconds)` of each `main` request.
    pub main: Vec<(Instant, f64)>,
    pub side: Vec<(Instant, f64)>,
    /// Share of each window the `main` class was being sent in; its
    /// rate counts only that time.
    pub main_share: f64,
    pub sent: u64,
    /// Requests that errored, were shed, or answered wrongly.
    pub failed: u64,
}

impl Pass {
    pub fn new(len: Duration) -> Pass {
        Pass {
            start: Instant::now(),
            len,
            main: Vec::new(),
            side: Vec::new(),
            main_share: 1.0,
            sent: 0,
            failed: 0,
        }
    }

    /// The values of [`LATENCY_METRICS`], each a median over windows.
    fn latency_metrics(&self) -> [f64; 5] {
        let window = self.len / WINDOWS;
        let rate = |lat: &[f64]| lat.len() as f64 / (window.as_secs_f64() * self.main_share);
        [
            self.windowed(&self.main, |l| quantile(l, 0.5)),
            self.windowed(&self.main, |l| quantile(l, 0.99)),
            self.windowed(&self.main, rate),
            self.windowed(&self.side, |l| quantile(l, 0.5)),
            self.windowed(&self.side, |l| quantile(l, 0.9)),
        ]
    }

    /// Median over the windows a class ran in of `stat` of the latencies
    /// of the requests sent in the window. Binning by send time keeps a
    /// request that completes after its class stopped sending out of a
    /// window of its own.
    fn windowed(&self, samples: &[(Instant, f64)], stat: impl Fn(&[f64]) -> f64) -> f64 {
        let window = self.len / WINDOWS;
        let mut bins = vec![Vec::new(); WINDOWS as usize];
        for (sent, lat) in samples {
            let at = sent.saturating_duration_since(self.start);
            let w = (at.as_nanos() / window.as_nanos().max(1)) as usize;
            bins[w.min(WINDOWS as usize - 1)].push(*lat);
        }
        let stats: Vec<f64> = bins
            .iter()
            .filter(|b| !b.is_empty())
            .map(|b| stat(b))
            .collect();
        quantile(&stats, 0.5)
    }
}

/// Nearest-rank quantile (`NaN` for no samples, which the result line
/// reports as an unmeasured metric).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Where runs keep cache directories and span files: `.bench_work/`
/// under the current directory.
pub fn work_root() -> PathBuf {
    PathBuf::from(".bench_work")
}

/// A fresh scratch directory for this run, removed by [`WorkDir`]'s drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> WorkDir {
        let dir = work_root().join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the run's work directory");
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
