//! Property-based tests of the checkpoint-resume contract: a replay
//! killed at *any* interval, resumed from whatever checkpoint survived,
//! finishes with a [`RuntimeReport`] bitwise equal to the uninterrupted
//! run — for any worker count and checkpoint cadence — and checkpoint
//! decoding never panics on arbitrary bytes.

use flexwatts::{
    CheckpointPlan, FlexWattsRuntime, ModePredictor, ReplayCheckpoint, ReplayFileOptions,
    RuntimeConfig, RuntimeReport, TraceReplayer,
};
use pdn_proc::client_soc;
use pdn_units::Watts;
use pdn_workload::codec::ScratchDir;
use pdn_workload::tracefile::{write_trace_chunked, DefectPolicy, TraceReader};
use pdn_workload::zoo;
use pdnspot::{ModelParams, Workers};
use proptest::collection::vec;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

const TRACE_INTERVALS: u64 = 120;

fn runtime() -> &'static FlexWattsRuntime {
    static RT: OnceLock<FlexWattsRuntime> = OnceLock::new();
    RT.get_or_init(|| {
        let predictor = ModePredictor::train(
            &ModelParams::paper_defaults(),
            &[4.0, 10.0, 18.0, 25.0, 50.0],
            &[0.4, 0.6, 0.8],
        )
        .unwrap();
        FlexWattsRuntime::new(
            client_soc(Watts::new(18.0)),
            ModelParams::paper_defaults(),
            predictor,
            RuntimeConfig::default(),
        )
    })
}

/// The shared trace file plus the uninterrupted-run report every case
/// compares against (cold replay uses a dedicated sensor bank, so the
/// shared runtime stays untouched).
fn reference() -> &'static (ScratchDir, PathBuf, RuntimeReport) {
    static REF: OnceLock<(ScratchDir, PathBuf, RuntimeReport)> = OnceLock::new();
    REF.get_or_init(|| {
        let dir = ScratchDir::new("flexwatts-replay-prop").expect("scratch dir");
        let path = dir.path().join("mix.pdnt");
        write_trace_chunked(&path, &zoo::zoo_mix(11, 30), 32).unwrap();
        let cold = runtime().run_streaming(&path, &ReplayFileOptions::default()).unwrap();
        assert_eq!(cold.intervals_replayed, TRACE_INTERVALS);
        (dir, path, cold.report)
    })
}

fn reports_bitwise_equal(a: &RuntimeReport, b: &RuntimeReport) -> bool {
    a.energy_joules.to_bits() == b.energy_joules.to_bits()
        && a.oracle_energy_joules.to_bits() == b.oracle_energy_joules.to_bits()
        && a.total_time.get().to_bits() == b.total_time.get().to_bits()
        && a.prediction_accuracy.to_bits() == b.prediction_accuracy.to_bits()
        && a.switches == b.switches
        && a.time_in_mode == b.time_in_mode
        && a.predictor_evaluations == b.predictor_evaluations
        && a.protection_overrides == b.protection_overrides
}

fn workers(pick: usize) -> Workers {
    match pick % 4 {
        0 => Workers::Serial,
        1 => Workers::Auto,
        n => Workers::Fixed(n),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kill the replay after a random number of intervals (checkpointing
    /// at a random cadence, on a random worker count), resume on another
    /// random worker count, and the final report is bitwise equal to the
    /// uninterrupted run. When the kill lands before the first
    /// checkpoint, the resume degrades to a cold start — which must be
    /// bit-identical too.
    #[test]
    fn killed_replay_resumes_bit_identical(
        kill in 1u64..TRACE_INTERVALS,
        every in 5u64..40,
        crash_workers in 0usize..6,
        resume_workers in 0usize..6,
    ) {
        let (_, path, cold) = reference();
        let cp_path = path.with_file_name(format!("kill{kill}-every{every}.pdnc"));
        let _ = std::fs::remove_file(&cp_path);

        // The "crashing" half: replay `kill` intervals, checkpointing
        // every `every`, then drop everything mid-flight.
        {
            let mut reader = TraceReader::open(path, DefectPolicy::Quarantine).unwrap();
            let fp = reader.fingerprint();
            let mut replayer = TraceReplayer::new(runtime(), workers(crash_workers));
            let mut pending = Vec::new();
            for _ in 0..kill {
                pending.push(reader.next_interval().unwrap().unwrap());
                if pending.len() as u64 == every {
                    replayer.feed(&pending).unwrap();
                    pending.clear();
                    replayer.checkpoint(fp).save(&cp_path).unwrap();
                }
            }
            replayer.feed(&pending).unwrap();
            // ...crash: no finish, no final checkpoint.
        }

        let resumed = runtime()
            .run_streaming(
                path,
                &ReplayFileOptions {
                    workers: workers(resume_workers),
                    checkpoint: Some(CheckpointPlan {
                        path: cp_path.clone(),
                        every_intervals: every,
                        resume: true,
                    }),
                    ..Default::default()
                },
            )
            .unwrap();

        let expected_resume =
            if kill >= every { Some((kill / every) * every) } else { None };
        prop_assert_eq!(resumed.resumed_from, expected_resume);
        prop_assert_eq!(resumed.intervals_replayed, TRACE_INTERVALS);
        prop_assert!(
            reports_bitwise_equal(cold, &resumed.report),
            "kill at {} (checkpoint every {}) diverged from the uninterrupted run",
            kill,
            every
        );
        let _ = std::fs::remove_file(&cp_path);
    }

    /// Checkpoint decoding never panics, whatever the bytes.
    #[test]
    fn checkpoint_decode_never_panics(data in vec(any::<u8>(), 0..256)) {
        let _ = ReplayCheckpoint::decode(&data);
    }

    /// Single bit flips of a valid checkpoint are always rejected — the
    /// CRC gate leaves no silent path back into a resumed replay.
    #[test]
    fn checkpoint_bit_flips_are_rejected(offset in 0usize..1 << 16, bit in 0u8..8) {
        static ENCODED: OnceLock<Vec<u8>> = OnceLock::new();
        let encoded = ENCODED.get_or_init(|| {
            let (_, path, _) = reference();
            let mut reader = TraceReader::open(path, DefectPolicy::Quarantine).unwrap();
            let fp = reader.fingerprint();
            let mut replayer = TraceReplayer::new(runtime(), Workers::Serial);
            let mut batch = Vec::new();
            for _ in 0..40 {
                batch.push(reader.next_interval().unwrap().unwrap());
            }
            replayer.feed(&batch).unwrap();
            replayer.checkpoint(fp).encode()
        });
        let mut corrupt = encoded.clone();
        let at = offset % corrupt.len();
        corrupt[at] ^= 1 << bit;
        prop_assert!(
            ReplayCheckpoint::decode(&corrupt).is_err(),
            "bit {bit} of checkpoint byte {at} flipped silently"
        );
        prop_assert!(ReplayCheckpoint::decode(encoded).is_ok());
    }
}
