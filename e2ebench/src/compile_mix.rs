//! `compile_mix`: one caller compiling a seeded sequence of fresh
//! `Session`s, with no shared table cache, at the default parallelism.

use crate::inputs::{self, Item, Order};
use crate::layers;
use crate::oracle::reference_compile;
use crate::report::{quantile, us, Pass, Report};
use crate::serve;
use crate::trace::Tracer;
use crate::Args;
use mps::patterns::PatternSet;
use mps::Session;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median. A set-up generates the
/// inputs and compiles every deck entry once, so the timed pass starts
/// warm and its answers are checked against the set-ups'. The compiles
/// run at the default parallelism, so the set-up time does not hang on
/// the speed of whichever core a single thread happens to run on.
const SETUP_REPS: usize = 5;

/// Selected patterns, cycles and antichains of one compile.
type Answer = (PatternSet, usize, u64);

/// The first answer of every deck entry; each later answer must match.
struct Answers(Vec<Option<Answer>>);

impl Answers {
    fn record(
        &mut self,
        entry: usize,
        patterns: &PatternSet,
        cycles: usize,
        antichains: u64,
    ) -> bool {
        match &self.0[entry] {
            Some((p, c, _)) => p == patterns && *c == cycles,
            None => {
                self.0[entry] = Some((patterns.clone(), cycles, antichains));
                true
            }
        }
    }
}

/// Compile the deck in a seeded [`Order`] until `len` has passed: through
/// `Session::compile` when untraced, stage by stage when `tr` is given.
fn closed_loop(
    rep: &mut Report,
    deck: &[Item],
    seed: u64,
    len: Duration,
    answers: &mut Answers,
    mut tr: Option<&mut Tracer>,
) -> Pass {
    let mut pass = Pass::new(len);
    let mut order = Order::new(deck.len(), seed);
    let start = pass.start;
    for n in 0.. {
        let entry = order.next();
        let item = &deck[entry];
        let dfg = item.dfg.clone();
        let t = Instant::now();
        if t - start >= len {
            break;
        }
        let result = match tr.as_deref_mut() {
            Some(tr) => layers::staged_compile(item, dfg, tr, n as u64),
            None => Session::with_config(dfg, item.cfg.clone()).compile(),
        };
        let done = Instant::now();
        let dt = us(done - t);
        pass.sent += 1;
        match result {
            Ok(r) => {
                pass.main.push((t, dt));
                if item.cfg.fabric.is_some() {
                    pass.side.push((t, dt));
                }
                let same =
                    answers.record(entry, &r.selection.patterns, r.cycles, r.metrics.antichains);
                if !same {
                    pass.failed += 1;
                    rep.problems
                        .push(format!("{}: answer changed between compiles", item.kernel));
                }
            }
            Err(e) => {
                pass.failed += 1;
                rep.problems
                    .push(format!("{}: compile failed: {e}", item.kernel));
            }
        }
    }
    pass
}

pub fn run(args: &Args) -> Report {
    let mut rep = Report::default();
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut deck = Vec::new();
    let mut answers = Answers(Vec::new());
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        deck = inputs::compile_deck(args.seed);
        let warm: Vec<_> = deck
            .iter()
            .map(|item| Session::with_config(item.dfg.clone(), item.cfg.clone()).compile())
            .collect();
        setup.push(t.elapsed().as_secs_f64());
        answers.0.resize(deck.len(), None);
        for (entry, (item, result)) in deck.iter().zip(warm).enumerate() {
            let same = match result {
                Ok(r) => {
                    answers.record(entry, &r.selection.patterns, r.cycles, r.metrics.antichains)
                }
                Err(e) => {
                    rep.problems
                        .push(format!("{}: compile failed: {e}", item.kernel));
                    true
                }
            };
            rep.check(same, || {
                format!("{}: answer changed between compiles", item.kernel)
            });
        }
    }
    rep.set("setup_s", quantile(&setup, 0.5));

    let untraced = closed_loop(&mut rep, &deck, args.seed, args.pass(), &mut answers, None);
    rep.set_end_to_end(&untraced);

    if args.trace {
        let mut tr = Tracer::default();
        let traced = closed_loop(
            &mut rep,
            &deck,
            args.seed ^ 1,
            args.pass(),
            &mut answers,
            Some(&mut tr),
        );
        rep.set_overhead(&untraced, &traced);
        rep.spans.absorb(tr);
        let refs: Vec<&Item> = deck.iter().collect();
        layers::stage_battery(&mut rep, &refs);
        // The serving layers, timed on this workload's own requests.
        let ring = serve::ring_battery(&mut rep, &refs, args.seed);
        serve::ring_stats(&mut rep, &ring.before, &ring.after);
        let handle_p50 = layers::wire_battery(&mut rep, &refs, &ring.peer_ring);
        ring.set(&mut rep, handle_p50);
        serve::load_battery(&mut rep, args.seed);
    }

    // Correctness: every deck entry against the reference path.
    let missing = answers.0.iter().filter(|a| a.is_none()).count();
    rep.check(missing == 0, || {
        format!("{missing} deck entries never compiled")
    });
    let pairs: Vec<(&Item, &Option<Answer>)> = deck.iter().zip(&answers.0).collect();
    let verdicts = mps::par::par_map(&pairs, |(item, got)| {
        let Some((patterns, cycles, _)) = got else {
            return Ok(());
        };
        match reference_compile(item) {
            Ok((p, c)) if p == *patterns && c == *cycles => Ok(()),
            Ok((p, c)) => Err(format!(
                "{}: got {cycles} cycles with {patterns:?}, reference {c} with {p:?}",
                item.kernel
            )),
            Err(e) => Err(format!("{}: reference failed: {e}", item.kernel)),
        }
    });
    rep.problems
        .extend(verdicts.into_iter().filter_map(Result::err));
    let cycles: usize = pairs
        .iter()
        .filter(|(item, _)| item.registry)
        .filter_map(|(_, got)| got.as_ref().map(|g| g.1))
        .sum();
    rep.set("code_cycles_total", cycles as f64);
    rep
}
