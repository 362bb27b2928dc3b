//! The `pdn-serve` CLI: `serve` boots the daemon (TCP or stdio), and
//! `chaos` runs the seeded fault campaign and writes `BENCH_chaos.json`.

use pdn_serve::chaos::{self, CampaignConfig};
use pdn_serve::engine::ServeEngine;
use pdn_serve::{server, snapshot};
use pdnspot::{EngineConfig, Workers};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
pdn-serve: multi-tenant PDN-evaluation daemon

USAGE:
    pdn-serve serve [--addr HOST:PORT] [--stdio] [--snapshot PATH]
                    [--workers N] [--memo-capacity N] [--memo-shards N]
                    [--admission-depth N]
    pdn-serve chaos [--quick] [--seeds A,B,C] [--out PATH]

serve: answer framed protocol requests. With --snapshot, warm state is
restored from PATH (or the newest intact rotated generation; total
corruption cold-starts) and the Snapshot request persists back to it.
--stdio serves stdin/stdout instead of a socket.

chaos: run the seeded chaos campaign (mid-frame disconnects, stalled
writes, floods, slow readers, engine faults) at every seed, assert the
survival invariants, and write the report (default BENCH_chaos.json).
";

fn parse_flag<T: std::str::FromStr>(
    args: &mut std::iter::Peekable<std::env::Args>,
    flag: &str,
) -> Result<T, String> {
    let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    value.parse().map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

fn run_serve(mut args: std::iter::Peekable<std::env::Args>) -> Result<(), String> {
    let mut addr = String::from("127.0.0.1:7117");
    let mut stdio = false;
    let mut snapshot_path: Option<PathBuf> = None;
    let mut config = EngineConfig::builder();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = parse_flag(&mut args, "--addr")?,
            "--stdio" => stdio = true,
            "--snapshot" => snapshot_path = Some(parse_flag(&mut args, "--snapshot")?),
            "--workers" => {
                config = config.workers(Workers::Fixed(parse_flag(&mut args, "--workers")?));
            }
            "--memo-capacity" => {
                config = config.memo_capacity(parse_flag(&mut args, "--memo-capacity")?);
            }
            "--memo-shards" => {
                config = config.memo_shards(parse_flag(&mut args, "--memo-shards")?);
            }
            "--admission-depth" => {
                config = config.admission_depth(parse_flag(&mut args, "--admission-depth")?);
            }
            other => return Err(format!("unknown serve flag {other:?}\n\n{USAGE}")),
        }
    }
    let config = config.build().map_err(|e| format!("config: {e}"))?;

    let restored = match &snapshot_path {
        Some(path) => {
            let (snap, defects) = snapshot::restore_latest(path, snapshot::DEFAULT_KEEP);
            for (defective, why) in &defects {
                eprintln!("snapshot {}: {why}; trying older generation", defective.display());
            }
            match snap {
                Some(snap) => {
                    eprintln!(
                        "restoring warm state: {} memo entries across {} tenants",
                        snap.entry_count(),
                        snap.tenants.len()
                    );
                    Some(ServeEngine::from_snapshot(config.clone(), &snap))
                }
                None => {
                    if !defects.is_empty() {
                        eprintln!("no intact snapshot generation; cold start");
                    }
                    None
                }
            }
        }
        None => None,
    };
    let mut engine = match restored {
        Some(result) => result.map_err(|e| format!("warm boot: {e}"))?,
        None => ServeEngine::new(config).map_err(|e| format!("boot: {e}"))?,
    };
    if let Some(path) = snapshot_path {
        engine = engine.with_snapshot_path(path);
    }
    let engine = Arc::new(engine);

    if stdio {
        server::serve_streams(&engine, &mut std::io::stdin().lock(), &mut std::io::stdout().lock())
            .map_err(|e| format!("stdio transport: {e}"))
    } else {
        let handle = server::spawn_tcp(Arc::clone(&engine), &addr)
            .map_err(|e| format!("bind {addr}: {e}"))?;
        eprintln!("pdn-serve listening on {}", handle.addr);
        handle.join();
        Ok(())
    }
}

fn run_chaos(mut args: std::iter::Peekable<std::env::Args>) -> Result<(), String> {
    let mut cfg = CampaignConfig::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => cfg.quick = true,
            "--seeds" => {
                let list: String = parse_flag(&mut args, "--seeds")?;
                cfg.seeds = list
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|_| format!("--seeds: bad seed {s:?}")))
                    .collect::<Result<Vec<u64>, String>>()?;
                if cfg.seeds.is_empty() {
                    return Err("--seeds: need at least one seed".into());
                }
            }
            "--out" => cfg.out = Some(parse_flag(&mut args, "--out")?),
            other => return Err(format!("unknown chaos flag {other:?}\n\n{USAGE}")),
        }
    }
    let report = chaos::campaign(&cfg)?;
    println!("{report}");
    if let Some(out) = &cfg.out {
        println!("report written to {}", out.display());
    }
    if report.survival_rate < 1.0
        || report.lost_total > 0
        || report.duplicated_total > 0
        || !report.snapshot_corruption_cold_start
    {
        return Err("chaos campaign invariants violated (see report)".into());
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut args = std::env::args().peekable();
    let _binary = args.next();
    let result = match args.next().as_deref() {
        Some("serve") => run_serve(args),
        Some("chaos") => run_chaos(args),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
