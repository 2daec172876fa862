//! Kill-9 recovery proof: a durable serving process killed at randomized
//! points mid-batch-sequence must, after reopening (snapshot + WAL replay),
//! serve values **bit-identical** to an uninterrupted run — for every
//! registered application, at 1 and 4 workers per node.
//!
//! The child process (`crash_child`) prints `applied N` after each durably
//! applied batch; this test SIGKILLs it right after a seeded-random one of
//! those lines (so the kill lands mid-batch, mid-WAL-append, or mid-snapshot
//! of the *next* batch), twice per run, then lets a final incarnation finish
//! and compares the exact value bit patterns against an oracle that was
//! never interrupted. A second run on a larger graph places both kills after
//! a checkpoint and before the next base, where recovery folds the logged
//! batches under the checkpoint into the base graph.

use slfe_graph::rng::SplitMix64;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

const BATCHES: u64 = 6;
const APPS: [&str; 9] = [
    "sssp", "bfs", "cc", "wp", "pr", "tr", "spmv", "heat", "numpaths",
];

fn child_command(dir: &Path, app: &str, workers: usize, seed: u64, values_out: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_crash_child"));
    cmd.arg("--dir")
        .arg(dir)
        .arg("--app")
        .arg(app)
        .arg("--workers")
        .arg(workers.to_string())
        .arg("--batches")
        .arg(BATCHES.to_string())
        .arg("--snapshot-every")
        .arg("2")
        .arg("--seed")
        .arg(seed.to_string())
        .arg("--values-out")
        .arg(values_out);
    cmd
}

fn run_to_completion(mut cmd: Command, label: &str) {
    let status = cmd
        .status()
        .unwrap_or_else(|e| panic!("{label}: spawn failed: {e}"));
    assert!(status.success(), "{label}: child exited with {status}");
}

/// Spawn the child and SIGKILL it as soon as it reports `kill_after` applied
/// batches (the kill then lands somewhere inside the *next* batch's WAL
/// append / apply / snapshot). The child may win the race and exit cleanly —
/// that's fine, the recovery path is still exercised by the reopen.
fn run_and_kill_after(mut cmd: Command, kill_after: u64, label: &str) {
    cmd.stdout(Stdio::piped());
    let mut child: Child = cmd
        .spawn()
        .unwrap_or_else(|e| panic!("{label}: spawn failed: {e}"));
    let stdout = child.stdout.take().expect("piped stdout");
    let reader = BufReader::new(stdout);
    for line in reader.lines() {
        let line = line.unwrap_or_default();
        if line == format!("applied {kill_after}") {
            let _ = child.kill(); // SIGKILL — no destructors, no flushes
            break;
        }
    }
    let _ = child.wait();
}

fn temp_base(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slfe-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn killed_servers_recover_bit_identical_values_for_every_app() {
    let base = temp_base("matrix");
    let mut rng = SplitMix64::seed_from_u64(0x5afe);
    for workers in [1usize, 4] {
        for app in APPS {
            let label = format!("{app} @{workers}w");
            let seed = 40 + workers as u64;
            let oracle_dir = base.join(format!("{app}-{workers}-oracle"));
            let crash_dir = base.join(format!("{app}-{workers}-crash"));
            let oracle_values = base.join(format!("{app}-{workers}-oracle.bin"));
            let crash_values = base.join(format!("{app}-{workers}-crash.bin"));

            // The never-interrupted oracle.
            run_to_completion(
                child_command(&oracle_dir, app, workers, seed, &oracle_values),
                &label,
            );

            // Kill #1 early, kill #2 later in the resumed run, then finish.
            let k1 = 1 + rng.next_u64() % (BATCHES - 2); // in [1, B-2]
            let k2 = k1 + 1 + rng.next_u64() % (BATCHES - 1 - k1); // in [k1+1, B-1]
            run_and_kill_after(
                child_command(&crash_dir, app, workers, seed, &crash_values),
                k1,
                &label,
            );
            run_and_kill_after(
                child_command(&crash_dir, app, workers, seed, &crash_values),
                k2,
                &label,
            );
            run_to_completion(
                child_command(&crash_dir, app, workers, seed, &crash_values),
                &label,
            );

            let oracle = std::fs::read(&oracle_values)
                .unwrap_or_else(|e| panic!("{label}: no oracle values: {e}"));
            let recovered = std::fs::read(&crash_values)
                .unwrap_or_else(|e| panic!("{label}: no recovered values: {e}"));
            assert!(!oracle.is_empty(), "{label}: oracle wrote no values");
            assert_eq!(
                oracle, recovered,
                "{label}: kill at {k1} then {k2} — recovered values are not bit-identical"
            );
        }
    }
    std::fs::remove_dir_all(&base).unwrap();
}

/// `(sequence, base sequence)` from the header of the checkpoint in `dir`:
/// magic, version and value tag, then the two sequence numbers.
fn checkpoint_header(dir: &Path) -> Option<(u64, u64)> {
    let bytes = std::fs::read(dir.join("checkpoint.bin")).ok()?;
    let u64_at = |at: usize| Some(u64::from_le_bytes(bytes.get(at..at + 8)?.try_into().ok()?));
    Some((u64_at(9)?, u64_at(17)?))
}

/// The kill-9 proof where checkpoints matter: on an R-MAT graph of 5000
/// vertices and 40000 edges (a ≈0.76 MB base), 12-update batches write
/// checkpoints at sequence 2 and 4 over base 0, and the next base only at
/// sequence 6. The kills after batches 3 and 5 therefore land past a
/// checkpoint and before that base (the second one possibly inside the base
/// write itself), and each reopen refolds the batches under the checkpoint
/// without running the engine. One min/max and one arithmetic app, at 1 and
/// 4 workers per node, must still finish bit-identical to the oracle.
#[test]
fn killed_servers_recover_between_a_checkpoint_and_the_next_base() {
    let base = temp_base("windows");
    let larger = |mut cmd: Command| {
        cmd.args(["--vertices", "5000", "--edges", "40000"]);
        cmd
    };
    for workers in [1usize, 4] {
        for app in ["sssp", "pr"] {
            let label = format!("{app} @{workers}w on the larger graph");
            let seed = 40 + workers as u64;
            let oracle_dir = base.join(format!("{app}-{workers}-oracle"));
            let crash_dir = base.join(format!("{app}-{workers}-crash"));
            let oracle_values = base.join(format!("{app}-{workers}-oracle.bin"));
            let crash_values = base.join(format!("{app}-{workers}-crash.bin"));
            run_to_completion(
                larger(child_command(
                    &oracle_dir,
                    app,
                    workers,
                    seed,
                    &oracle_values,
                )),
                &label,
            );
            assert_eq!(
                checkpoint_header(&oracle_dir),
                Some((6, 0)),
                "{label}: the last checkpoint should name base 0"
            );
            for kill_after in [3, 5] {
                run_and_kill_after(
                    larger(child_command(&crash_dir, app, workers, seed, &crash_values)),
                    kill_after,
                    &label,
                );
                let (seq, base_seq) = checkpoint_header(&crash_dir)
                    .unwrap_or_else(|| panic!("{label}: no checkpoint after the kill"));
                assert!(
                    seq >= kill_after - 1 && base_seq == 0,
                    "{label}: killed after {kill_after} with checkpoint {seq} over base {base_seq}"
                );
            }
            run_to_completion(
                larger(child_command(&crash_dir, app, workers, seed, &crash_values)),
                &label,
            );
            let oracle = std::fs::read(&oracle_values)
                .unwrap_or_else(|e| panic!("{label}: no oracle values: {e}"));
            let recovered = std::fs::read(&crash_values)
                .unwrap_or_else(|e| panic!("{label}: no recovered values: {e}"));
            assert!(!oracle.is_empty(), "{label}: oracle wrote no values");
            assert_eq!(
                oracle, recovered,
                "{label}: recovered values are not bit-identical"
            );
        }
    }
    std::fs::remove_dir_all(&base).unwrap();
}
