//! Independent answers every output is checked against.

use crate::inputs::Item;
use mps::dfg::AnalyzedDfg;
use mps::patterns::{EnumerateConfig, PatternSet, PatternTable};
use mps::{ScheduleEngine, SelectEngine, Session};
use mps_serve::protocol::CompileReply;

/// The compiler's decisions through the reference path: the seed-era
/// table build (`PatternTable::build_reference`) and the full-rescore
/// Eq. 8 loop (`eq8-reference`), then the same scheduler. Returns the
/// selected patterns and the schedule's cycle count.
pub fn reference_compile(item: &Item) -> Result<(PatternSet, usize), String> {
    let cfg = &item.cfg;
    if cfg.engine != SelectEngine::Eq8 {
        return Err(format!("no reference for engine {}", cfg.engine.name()));
    }
    let adfg = AnalyzedDfg::new(item.dfg.clone());
    let ecfg = EnumerateConfig {
        capacity: cfg.select.capacity,
        span_limit: cfg.select.span_limit,
        parallel: false,
    };
    let table = PatternTable::build_reference(&adfg, ecfg);
    let selection =
        SelectEngine::Eq8Reference.run(&adfg, &table, &cfg.select, cfg.schedule.eval_config());
    let patterns = selection.patterns;
    let cycles = match &cfg.fabric {
        Some(params) => {
            let ScheduleEngine::List(list) = cfg.schedule else {
                return Err("fabric compiles need the list scheduler".to_string());
            };
            let part = mps::fabric::partition(adfg.dfg(), params);
            mps::fabric::schedule_partitioned(&adfg, &patterns, list, params, part)
                .map_err(|e| e.to_string())?
                .tiles
                .iter()
                .map(|t| t.schedule.len())
                .sum()
        }
        None => cfg
            .schedule
            .run(&adfg, &patterns)
            .map_err(|e| e.to_string())?
            .schedule
            .len(),
    };
    Ok((patterns, cycles))
}

/// The reply a daemon must send for `item`: a direct `Session::compile`
/// of the same request, rendered the way the wire renders it. `id`,
/// `cached` and `latency_sec` are left blank (see [`normalized`]).
pub fn expected_reply(item: &Item) -> Result<CompileReply, String> {
    let cfg = item.req.compile_config()?;
    let result = Session::with_config(item.dfg.clone(), cfg.clone())
        .compile()
        .map_err(|e| e.to_string())?;
    let (graph, config) = item.key();
    Ok(CompileReply {
        ok: true,
        op: "compile".to_string(),
        id: None,
        workload: item
            .req
            .workload
            .clone()
            .unwrap_or_else(|| "inline".to_string()),
        graph_hash: format!("{graph:016x}"),
        config_hash: format!("{config:016x}"),
        engine: cfg.engine.name().to_string(),
        cached: false,
        latency_sec: 0.0,
        patterns: result
            .selection
            .patterns
            .iter()
            .map(|p| p.to_string())
            .collect(),
        cycles: result.cycles as u64,
        schedule: result.schedule.to_string(),
        ii: result.ii.map(|n| n as u64),
        switches: result.switches.map(|n| n as u64),
        exec_cycles: result.exec.as_ref().map(|e| e.cycles as u64),
        fabric_tiles: result.fabric.as_ref().map(|m| m.tile_count() as u64),
        fabric_transfers: result.fabric.as_ref().map(|m| m.transfer_count() as u64),
        fabric_cycles: result.fabric.as_ref().map(|m| m.total_cycles),
    })
}

/// `reply` without the fields that legitimately differ between two
/// answers to the same request.
pub fn normalized(reply: &CompileReply) -> CompileReply {
    CompileReply {
        id: None,
        cached: false,
        latency_sec: 0.0,
        ..reply.clone()
    }
}
