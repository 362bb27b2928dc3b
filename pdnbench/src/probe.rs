//! Layer probes of the traced run: the cost of one call into each layer,
//! timed through the layer's public API on seeded inputs (a lattice, a
//! zoo trace, and a request stream), each the median of several timed
//! repetitions. Every workload's traced run reports all of them, so the
//! per-call costs can be compared across workloads and commits; the
//! workload run itself contributes the span shares and counters.

use crate::replay::{self, BATCH, CHUNK_CAPACITY};
use crate::serve::Traffic;
use crate::sweep::{self, Topologies};
use crate::util::{self, Rng, Scratch};
use flexwatts::{FlexWattsPdn, PdnMode, TraceReplayer};
use pdn_proc::client_soc;
use pdn_serve::protocol::{decode_request, decode_response, encode_request, encode_response};
use pdn_serve::{server, Client, Response, ServeEngine};
use pdn_units::{ApplicationRatio, Watts};
use pdn_workload::tracefile::{encode_trace, DefectPolicy, TraceReader};
use pdn_workload::{zoo, Phase, WorkloadType};
use pdnspot::batch::{build_scenarios, evaluate};
use pdnspot::sweep::{crossover, surfaces, surfaces_delta};
use pdnspot::validation::{validate_with, ReferenceSystem};
use pdnspot::{ClientSoc, EngineConfig, Pdn, Scenario, SweepGrid, Workers};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const REPS: usize = 7;
/// Intervals per zoo scenario of the probe trace.
const TRACE_PER_SCENARIO: usize = 1_000;
const STREAM: usize = 2_000;
const SAMPLE_QUERIES: usize = 4_096;

/// Median over `REPS` runs of `f`, which returns its own timed value.
fn median_of(mut f: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let values = (0..REPS).map(|_| f()).collect::<Result<Vec<_>, _>>()?;
    Ok(util::median(&values))
}

fn ns_per(start: Instant, items: usize) -> f64 {
    start.elapsed().as_secs_f64() * 1e9 / items.max(1) as f64
}

type Metrics = BTreeMap<&'static str, f64>;

fn lattice_probes(seed: u64, out: &mut Metrics) -> Result<(), String> {
    let topos = Topologies::new();
    let pdns = topos.all();
    let cfg = EngineConfig::builder().workers(Workers::Auto).build().map_err(|e| e.to_string())?;
    let grid = sweep::round_grid(&mut Rng::new(seed, 0x9B0B));
    let evals = pdns.len() * grid.n_points();

    out.insert(
        "scenario.build_ns",
        median_of(|| {
            let start = Instant::now();
            let _ = build_scenarios(&grid, &ClientSoc, Workers::Auto);
            Ok(ns_per(start, grid.n_points()))
        })?,
    );
    let batch_ns = median_of(|| {
        let start = Instant::now();
        let _ = evaluate(&pdns, &grid, &ClientSoc, &cfg, None);
        Ok(ns_per(start, evals))
    })?;
    out.insert("batch.eval_ns", batch_ns);
    let names =
        ["topo.ivr_ns", "topo.mbvr_ns", "topo.ldo_ns", "topo.iplus_ns", "topo.flexwatts_ns"];
    for (name, pdn) in names.into_iter().zip(pdns) {
        out.insert(
            name,
            median_of(|| {
                let start = Instant::now();
                let _ = evaluate(&[pdn], &grid, &ClientSoc, &cfg, None);
                Ok(ns_per(start, grid.n_points()))
            })?,
        );
    }
    let (mut miss, mut hit) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let memo = cfg.memo_cache();
        let start = Instant::now();
        let _ = evaluate(&pdns, &grid, &ClientSoc, &cfg, Some(&memo));
        miss.push(ns_per(start, evals));
        let start = Instant::now();
        let _ = evaluate(&pdns, &grid, &ClientSoc, &cfg, Some(&memo));
        hit.push(ns_per(start, evals));
    }
    let hit_ns = util::median(&hit);
    out.insert("memo.miss_ns", util::median(&miss));
    out.insert("memo.hit_ns", hit_ns);
    out.insert("memo.hit_vs_row", hit_ns / batch_ns);

    let mut reference = None;
    out.insert(
        "reference.build_ms",
        median_of(|| {
            let start = Instant::now();
            reference = Some(ReferenceSystem::new(util::REFERENCE_UNIT));
            Ok(util::ms(start.elapsed()))
        })?,
    );
    let reference = reference.expect("REPS is nonzero");
    let active = SweepGrid::active(grid.tdps(), grid.workload_types(), grid.ars())
        .map_err(|e| e.to_string())?;
    let (scenarios, _) = build_scenarios(&active, &ClientSoc, Workers::Auto);
    let scenarios: Vec<Scenario> = scenarios.into_iter().filter_map(Result::ok).collect();
    out.insert(
        "validation.sample_ns",
        median_of(|| {
            let start = Instant::now();
            validate_with(&topos.mbvr, &reference, &scenarios, Workers::Auto)
                .map_err(|e| e.to_string())?;
            Ok(ns_per(start, scenarios.len()))
        })?,
    );

    // One TDP of the active lattice moves to the midpoint of its
    // neighbours: the delta re-sweeps that slab only.
    let (prior, _) = surfaces(&pdns, &active, &ClientSoc, &cfg, None).map_err(|e| e.to_string())?;
    let mut tdps = active.tdps().to_vec();
    let mid = tdps.len() / 2;
    tdps[mid] = 0.5 * (tdps[mid - 1] + tdps[mid]);
    let edited = SweepGrid::active(&tdps, active.workload_types(), active.ars())
        .map_err(|e| e.to_string())?;
    let delta = edited.diff(&active);
    out.insert(
        "delta.ns_per_point",
        median_of(|| {
            let mut patched = prior.clone();
            let start = Instant::now();
            surfaces_delta(&pdns, &edited, &delta, &mut patched, &ClientSoc, &cfg, None)
                .map_err(|e| e.to_string())?;
            Ok(ns_per(start, pdns.len() * edited.n_points()))
        })?,
    );
    let ar = ApplicationRatio::new(0.6).expect("0.6 is a valid AR");
    out.insert(
        "crossover.ms",
        median_of(|| {
            let start = Instant::now();
            crossover(
                pdns[1],
                pdns[0],
                WorkloadType::MultiThread,
                ar,
                (4.0, 50.0),
                &ClientSoc,
                &cfg,
                None,
            )
            .map_err(|e| e.to_string())?;
            Ok(util::ms(start.elapsed()))
        })?,
    );
    let mut rng = Rng::new(seed, 0x5A3F);
    let (t, a) = (active.tdps(), active.ars());
    let queries: Vec<(f64, f64)> = (0..SAMPLE_QUERIES)
        .map(|_| (rng.range(t[0], t[t.len() - 1]), rng.range(a[0], a[a.len() - 1])))
        .collect();
    out.insert(
        "surface.sample_ns",
        median_of(|| {
            let start = Instant::now();
            std::hint::black_box(prior[0].sample_many(&queries));
            Ok(ns_per(start, queries.len()))
        })?,
    );
    Ok(())
}

fn trace_probes(seed: u64, out: &mut Metrics) -> Result<(), String> {
    let trace = zoo::zoo_mix(seed, TRACE_PER_SCENARIO);
    let n = trace.intervals().len();
    let mut bytes = Vec::new();
    out.insert(
        "tracefile.encode_ns",
        median_of(|| {
            let start = Instant::now();
            bytes = encode_trace(&trace, CHUNK_CAPACITY).map_err(|e| e.to_string())?;
            Ok(ns_per(start, n))
        })?,
    );
    out.insert("tracefile.bytes_per_interval", bytes.len() as f64 / n as f64);
    out.insert(
        "tracefile.decode_ns",
        median_of(|| {
            let start = Instant::now();
            let mut reader = TraceReader::from_bytes(&bytes, DefectPolicy::Quarantine)
                .map_err(|e| e.to_string())?;
            let mut decoded = 0;
            while reader.next_interval().map_err(|e| e.to_string())?.is_some() {
                decoded += 1;
            }
            Ok(ns_per(start, decoded))
        })?,
    );

    // The runtime's per-interval topology path: both FlexWatts modes
    // evaluated per point on the trace's active phases.
    let soc = client_soc(Watts::new(18.0));
    let scenarios: Vec<Scenario> = trace
        .intervals()
        .iter()
        .filter_map(|i| match i.phase {
            Phase::Active { workload_type, ar } => {
                Scenario::active_fixed_tdp_frequency(&soc, workload_type, ar).ok()
            }
            Phase::Idle(_) => None,
        })
        .collect();
    let modes = PdnMode::ALL.map(|m| FlexWattsPdn::new(pdnspot::ModelParams::paper_defaults(), m));
    out.insert(
        "topo.point_ns",
        median_of(|| {
            let start = Instant::now();
            for s in &scenarios {
                for pdn in &modes {
                    std::hint::black_box(pdn.evaluate(s).map_err(|e| e.to_string())?);
                }
            }
            Ok(ns_per(start, scenarios.len() * modes.len()))
        })?,
    );

    let rt = replay::runtime();
    out.insert(
        "replay.feed_ns",
        median_of(|| {
            let mut replayer = TraceReplayer::new(&rt, Workers::Auto);
            let start = Instant::now();
            for batch in trace.intervals().chunks(BATCH) {
                replayer.feed(batch).map_err(|e| e.to_string())?;
            }
            Ok(ns_per(start, n))
        })?,
    );
    // The in-memory runtime kernel on the same trace: what streaming adds
    // on top of it is decode and checkpointing.
    out.insert(
        "runtime.run_ns",
        median_of(|| {
            let start = Instant::now();
            rt.run_with(&trace, Workers::Auto).map_err(|e| e.to_string())?;
            Ok(ns_per(start, n))
        })?,
    );
    let scratch = Scratch::new("probe").map_err(|e| format!("scratch dir: {e}"))?;
    let path = scratch.path("probe.pdnc");
    let mut replayer = TraceReplayer::new(&rt, Workers::Auto);
    replayer.feed(trace.intervals()).map_err(|e| e.to_string())?;
    let fingerprint = TraceReader::from_bytes(&bytes, DefectPolicy::Quarantine)
        .map_err(|e| e.to_string())?
        .fingerprint();
    out.insert(
        "replay.checkpoint_ms",
        median_of(|| {
            let start = Instant::now();
            replayer.checkpoint(fingerprint).save(&path).map_err(|e| e.to_string())?;
            Ok(util::ms(start.elapsed()))
        })?,
    );
    let size = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    out.insert("replay.checkpoint_bytes", size as f64);
    Ok(())
}

fn serve_probes(seed: u64, out: &mut Metrics) -> Result<(), String> {
    let mut engine = None;
    out.insert(
        "engine.boot_s",
        median_of(|| {
            let start = Instant::now();
            engine =
                Some(ServeEngine::new(crate::serve::engine_config()).map_err(|e| e.to_string())?);
            Ok(start.elapsed().as_secs_f64())
        })?,
    );
    let engine = Arc::new(engine.expect("REPS is nonzero"));
    let mut traffic = Traffic::new(seed, 0x9E0B);
    let warm: Vec<_> = (0..STREAM).map(|i| traffic.request(i as u64)).collect();
    let stream: Vec<_> = (0..STREAM).map(|i| traffic.request(i as u64)).collect();
    for request in &warm {
        engine.handle(request.tenant, &request.body);
    }
    let mut handle_us = Vec::with_capacity(STREAM);
    let mut replies = Vec::with_capacity(STREAM);
    for request in &stream {
        let start = Instant::now();
        let body = engine.handle(request.tenant, &request.body);
        handle_us.push(start.elapsed().as_secs_f64() * 1e6);
        replies.push(Response { id: request.id, body });
    }
    let handle_p50 = util::percentile(&handle_us, 0.5);
    out.insert("engine.handle_us_p50", handle_p50);
    out.insert("engine.handle_us_p99", util::percentile(&handle_us, 0.99));

    let pairs = stream.len();
    let mut encoded = Vec::new();
    out.insert(
        "wire.encode_ns",
        median_of(|| {
            let start = Instant::now();
            encoded = stream
                .iter()
                .zip(&replies)
                .map(|(q, r)| (encode_request(q), encode_response(r)))
                .collect();
            Ok(ns_per(start, pairs))
        })?,
    );
    out.insert(
        "wire.decode_ns",
        median_of(|| {
            let start = Instant::now();
            for (q, r) in &encoded {
                std::hint::black_box(decode_request(q).map_err(|e| e.to_string())?);
                std::hint::black_box(decode_response(r).map_err(|e| e.to_string())?);
            }
            Ok(ns_per(start, pairs))
        })?,
    );

    // One request in flight over loopback TCP: the round trip minus the
    // engine's own handling time is the transport's share.
    let handle =
        server::spawn_tcp(Arc::clone(&engine), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let mut client = Client::connect(handle.addr).map_err(|e| format!("connect: {e}"))?;
    let mut rtt_us = Vec::with_capacity(STREAM);
    for request in &stream {
        let start = Instant::now();
        client.call(request).map_err(|e| e.to_string())?;
        rtt_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    handle.shutdown();
    drop(client);
    handle.join();
    out.insert("transport.queue_us_p50", util::percentile(&rtt_us, 0.5) - handle_p50);
    Ok(())
}

pub fn run(seed: u64) -> Result<Metrics, String> {
    let mut out = Metrics::new();
    lattice_probes(seed, &mut out)?;
    trace_probes(seed, &mut out)?;
    serve_probes(seed, &mut out)?;
    Ok(out)
}
