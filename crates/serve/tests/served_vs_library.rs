//! Served-vs-library bit-identity, per request type, plus a TCP
//! loopback smoke test: every value the daemon returns must carry
//! exactly the bits the library computes for the same inputs — across
//! the handler, the admission/coalescing path, the wire codec, and a
//! snapshot/restore cycle.

use flexwatts::FlexWattsAuto;
use pdn_serve::engine::{ServeEngine, SERVE_ARS, SERVE_TDPS};
use pdn_serve::protocol::{PdnId, PointSpec, Request, RequestBody, Response, ResponseBody};
use pdn_serve::server::{spawn_tcp, Client};
use pdn_serve::{snapshot, wire};
use pdn_units::ApplicationRatio;
use pdn_workload::codec::ScratchDir;
use pdn_workload::WorkloadType;
use pdnspot::sweep::{self, EteeSurface};
use pdnspot::{
    ClientSoc, EngineConfig, ErrorCode, IPlusMbvrPdn, IvrPdn, LdoPdn, MbvrPdn, ModelParams, Pdn,
    PdnEvaluation, SweepGrid, Workers,
};
use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

fn config() -> EngineConfig {
    EngineConfig::builder()
        .workers(Workers::Serial)
        .memo_capacity(1 << 12)
        .build()
        .expect("valid config")
}

/// Library-side topologies built independently of the engine, from the
/// same paper-default parameters.
fn library_pdns() -> Vec<Box<dyn Pdn>> {
    let params = ModelParams::paper_defaults();
    vec![
        Box::new(IvrPdn::new(params.clone())),
        Box::new(MbvrPdn::new(params.clone())),
        Box::new(LdoPdn::new(params.clone())),
        Box::new(IPlusMbvrPdn::new(params.clone())),
        Box::new(FlexWattsAuto::new(params)),
    ]
}

fn assert_eval_bits(served: &PdnEvaluation, direct: &PdnEvaluation, what: &str) {
    let pairs = [
        ("nominal_power", served.nominal_power.get(), direct.nominal_power.get()),
        ("input_power", served.input_power.get(), direct.input_power.get()),
        ("etee", served.etee.get(), direct.etee.get()),
        ("vr_loss", served.breakdown.vr_loss.get(), direct.breakdown.vr_loss.get()),
        (
            "conduction_compute",
            served.breakdown.conduction_compute.get(),
            direct.breakdown.conduction_compute.get(),
        ),
        (
            "conduction_sa_io",
            served.breakdown.conduction_sa_io.get(),
            direct.breakdown.conduction_sa_io.get(),
        ),
        ("other", served.breakdown.other.get(), direct.breakdown.other.get()),
        ("chip_input_current", served.chip_input_current.get(), direct.chip_input_current.get()),
    ];
    for (field, s, d) in pairs {
        assert_eq!(s.to_bits(), d.to_bits(), "{what}: {field} differs from the library");
    }
    assert_eq!(served.rails.len(), direct.rails.len(), "{what}: rail count");
    for (s, d) in served.rails.iter().zip(&direct.rails) {
        assert_eq!(s.name, d.name, "{what}: rail name");
        assert_eq!(s.voltage.get().to_bits(), d.voltage.get().to_bits(), "{what}: rail V");
        assert_eq!(s.current.get().to_bits(), d.current.get().to_bits(), "{what}: rail A");
        assert_eq!(s.input_power.get().to_bits(), d.input_power.get().to_bits(), "{what}: rail W");
        assert_eq!(
            s.efficiency.map(|e| e.get().to_bits()),
            d.efficiency.map(|e| e.get().to_bits()),
            "{what}: rail efficiency"
        );
    }
}

fn assert_surface_bits(served: &EteeSurface, direct: &EteeSurface) {
    assert_eq!(served.pdn, direct.pdn);
    assert_eq!(served.workload_type, direct.workload_type);
    assert_eq!(served.tdps.len(), direct.tdps.len());
    assert_eq!(served.ars.len(), direct.ars.len());
    assert_eq!(served.values.len(), direct.values.len());
    for (s, d) in served.values.iter().zip(&direct.values) {
        assert_eq!(s.to_bits(), d.to_bits(), "surface {} value differs", served.pdn);
    }
}

fn eval_body(response: ResponseBody) -> PdnEvaluation {
    match response {
        ResponseBody::Eval(eval) => eval,
        other => panic!("expected Eval, got {other:?}"),
    }
}

/// Every topology, active and idle: the served evaluation is
/// bit-identical to evaluating the library's own `Pdn` directly.
#[test]
fn served_eval_is_bit_identical_per_topology() {
    let engine = ServeEngine::new(config()).expect("engine boots");
    let library = library_pdns();
    let points = [
        PointSpec::Active { tdp: 15.0, workload: WorkloadType::SingleThread, ar: 0.56 },
        PointSpec::Active { tdp: 45.0, workload: WorkloadType::Graphics, ar: 0.75 },
        PointSpec::Idle { tdp: 15.0, state: pdn_proc::PackageCState::C6 },
    ];
    for (idx, id) in PdnId::ALL.into_iter().enumerate() {
        for point in &points {
            let served = eval_body(engine.handle(1, &RequestBody::Eval { pdn: id, point: *point }));
            let scenario = ServeEngine::scenario_for(point).expect("scenario");
            let direct = library[idx].evaluate(&scenario).expect("library evaluates");
            assert_eval_bits(&served, &direct, &format!("{id} @ {point:?}"));
        }
    }
}

/// A served Sample answers from the same surface the library tabulates
/// over the daemon's resident grid, bit-for-bit (including bilinear
/// interpolation off the lattice).
#[test]
fn served_sample_is_bit_identical_to_library_surface() {
    let engine = ServeEngine::new(config()).expect("engine boots");
    let library = library_pdns();
    let refs: Vec<&dyn Pdn> = library.iter().map(Box::as_ref).collect();
    let grid = SweepGrid::active(&SERVE_TDPS, &WorkloadType::ACTIVE_TYPES, &SERVE_ARS)
        .expect("resident grid");
    let cfg = config();
    let (surfaces, _) = sweep::surfaces(&refs, &grid, &ClientSoc, &cfg, None).expect("tabulates");

    // One on-lattice and one off-lattice query per topology.
    for id in PdnId::ALL {
        let name = engine.pdn(id).kind().to_string();
        let direct = surfaces
            .iter()
            .find(|s| s.pdn == name && s.workload_type == WorkloadType::MultiThread)
            .expect("library surface exists");
        for (tdp, ar) in [(15.0, 0.56), (23.5, 0.61)] {
            let served = engine.handle(
                2,
                &RequestBody::Sample { pdn: id, workload: WorkloadType::MultiThread, tdp, ar },
            );
            let served = match served {
                ResponseBody::Sample(v) => v,
                other => panic!("expected Sample, got {other:?}"),
            };
            assert_eq!(
                served.map(f64::to_bits),
                direct.sample(tdp, ar).map(f64::to_bits),
                "{name} sample({tdp}, {ar})"
            );
        }
    }
}

/// A served Sweep returns surfaces bit-identical to the library's
/// `sweep::surfaces` over the same custom grid.
#[test]
fn served_sweep_is_bit_identical_to_library_sweep() {
    let engine = ServeEngine::new(config()).expect("engine boots");
    let library = library_pdns();
    let tdps = [9.0, 20.0, 33.0];
    let workloads = [WorkloadType::SingleThread, WorkloadType::MultiThread];
    let ars = [0.45, 0.62, 0.78];

    let served = engine.handle(
        3,
        &RequestBody::Sweep {
            pdns: vec![PdnId::Ivr, PdnId::Ldo, PdnId::FlexWatts],
            tdps: tdps.to_vec(),
            workloads: workloads.to_vec(),
            ars: ars.to_vec(),
        },
    );
    let served = match served {
        ResponseBody::Sweep(surfaces) => surfaces,
        other => panic!("expected Sweep, got {other:?}"),
    };

    let refs = [library[0].as_ref(), library[2].as_ref(), library[4].as_ref()];
    let grid = SweepGrid::active(&tdps, &workloads, &ars).expect("grid");
    let cfg = config();
    let (direct, _) = sweep::surfaces(&refs, &grid, &ClientSoc, &cfg, None).expect("library sweep");

    assert_eq!(served.len(), direct.len(), "surface count");
    for (s, d) in served.iter().zip(&direct) {
        assert_surface_bits(s, d);
    }
}

/// A served Crossover returns exactly the library's verdict, including
/// the bisected wattage bits.
#[test]
fn served_crossover_is_bit_identical_to_library_crossover() {
    let engine = ServeEngine::new(config()).expect("engine boots");
    let library = library_pdns();
    let ar = ApplicationRatio::new(0.56).expect("valid ar");
    let cfg = config();

    let served = engine.handle(
        4,
        &RequestBody::Crossover {
            a: PdnId::Ivr,
            b: PdnId::Ldo,
            workload: WorkloadType::MultiThread,
            ar: 0.56,
            range: (4.0, 58.0),
        },
    );
    let served = match served {
        ResponseBody::Crossover(v) => v,
        other => panic!("expected Crossover, got {other:?}"),
    };
    let direct = sweep::crossover(
        library[0].as_ref(),
        library[2].as_ref(),
        WorkloadType::MultiThread,
        ar,
        (4.0, 58.0),
        &ClientSoc,
        &cfg,
        None,
    )
    .expect("library crossover");

    match (&served, &direct) {
        (sweep::Crossover::At(s), sweep::Crossover::At(d)) => {
            assert_eq!(s.get().to_bits(), d.get().to_bits(), "crossover TDP bits");
        }
        _ => assert_eq!(served, direct),
    }
}

/// End-to-end over TCP: a fleet of pipelined clients receives
/// bit-identical evaluations through the admission queue and wire
/// codec; snapshot + shutdown over the wire; a warm restart from the
/// snapshot file serves replayed points from cache (hit rate > 0).
#[test]
fn tcp_loopback_round_trip_snapshot_and_warm_restart() {
    let scratch = ScratchDir::new("pdn-serve-test").expect("scratch dir");
    let snap_path = scratch.path().join("warm.snapshot");

    let engine =
        Arc::new(ServeEngine::new(config()).expect("engine boots").with_snapshot_path(&snap_path));
    let handle = spawn_tcp(Arc::clone(&engine), "127.0.0.1:0").expect("binds loopback");
    let addr = handle.addr;

    let points: Vec<(PdnId, PointSpec)> = PdnId::ALL
        .into_iter()
        .flat_map(|id| {
            [
                (
                    id,
                    PointSpec::Active { tdp: 15.0, workload: WorkloadType::MultiThread, ar: 0.56 },
                ),
                (id, PointSpec::Active { tdp: 28.0, workload: WorkloadType::Graphics, ar: 0.65 }),
            ]
        })
        .collect();

    // Fleet: four tenants, each pipelining every point on one connection.
    std::thread::scope(|s| {
        for tenant in 0..4u32 {
            let points = &points;
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connects");
                for (i, (pdn, point)) in points.iter().enumerate() {
                    client
                        .send(&Request {
                            tenant,
                            id: u64::from(tenant) << 32 | i as u64,
                            deadline_ms: 0,
                            body: RequestBody::Eval { pdn: *pdn, point: *point },
                        })
                        .expect("sends");
                }
                // Responses may arrive out of order; match by id.
                let mut got: HashMap<u64, PdnEvaluation> = HashMap::new();
                for _ in 0..points.len() {
                    let Response { id, body } = client.recv().expect("receives");
                    got.insert(id, eval_body(body));
                }
                let library = library_pdns();
                for (i, (pdn, point)) in points.iter().enumerate() {
                    let served = &got[&(u64::from(tenant) << 32 | i as u64)];
                    let scenario = ServeEngine::scenario_for(point).expect("scenario");
                    let direct =
                        library[pdn.index()].evaluate(&scenario).expect("library evaluates");
                    assert_eval_bits(served, &direct, &format!("tcp {pdn} @ {point:?}"));
                }
            });
        }
    });

    // A malformed body yields a typed protocol error, not a hangup panic.
    {
        let mut raw = TcpStream::connect(addr).expect("connects raw");
        // Valid version prefix, garbage after: a malformed request, not
        // a version mismatch.
        let mut garbage = pdn_serve::protocol::PROTOCOL_VERSION.to_le_bytes().to_vec();
        garbage.extend_from_slice(b"not a request");
        raw.write_all(&wire::encode_frame(&garbage)).expect("writes garbage");
        let body = wire::read_frame(&mut raw).expect("frame ok").expect("response arrives");
        let response = pdn_serve::protocol::decode_response(&body).expect("decodes");
        match response.body {
            ResponseBody::Error(e) => assert_eq!(e.code, ErrorCode::Protocol),
            other => panic!("expected Error, got {other:?}"),
        }
    }

    // Control client: stats, snapshot to disk, then graceful shutdown.
    let mut control = Client::connect(addr).expect("control connects");
    let stats = control
        .call(&Request { tenant: 0, id: 900, deadline_ms: 0, body: RequestBody::Stats })
        .expect("stats round trip");
    match stats.body {
        ResponseBody::Stats { tenant, server } => {
            assert!(tenant.misses > 0, "tenant 0 evaluated cold points");
            assert!(server.requests > 0, "server counted admitted requests");
        }
        other => panic!("expected Stats, got {other:?}"),
    }
    let snap = control
        .call(&Request { tenant: 0, id: 901, deadline_ms: 0, body: RequestBody::Snapshot })
        .expect("snapshot round trip");
    match snap.body {
        ResponseBody::SnapshotDone { bytes, entries } => {
            assert!(bytes > 0, "snapshot file written");
            assert!(entries > 0, "snapshot captured warm memo entries");
        }
        other => panic!("expected SnapshotDone, got {other:?}"),
    }
    let bye = control
        .call(&Request { tenant: 0, id: 902, deadline_ms: 0, body: RequestBody::Shutdown })
        .expect("shutdown round trip");
    assert!(matches!(bye.body, ResponseBody::ShuttingDown));
    handle.join();

    // Warm restart: the same points, replayed in-process, hit the
    // restored caches without re-evaluating.
    let snap = snapshot::read_file(&snap_path).expect("snapshot reads back");
    let warm = ServeEngine::from_snapshot(config(), &snap).expect("warm boot");
    for (pdn, point) in &points {
        let _ = eval_body(warm.handle(0, &RequestBody::Eval { pdn: *pdn, point: *point }));
    }
    let stats = warm.tenant(0).cache.stats();
    assert!(stats.hits > 0, "warm restart answers from the restored cache");
    assert_eq!(stats.misses, 0, "every replayed point was captured by the snapshot");
}
