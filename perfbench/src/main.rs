//! Run one workload of the benchmark:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold-analytics|edge-stream|durable-serving> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line printed is the JSON result object.

use slfe_perfbench::{run, Options};
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = match Options::from_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!(
                "{e}\nusage: --workload <cold-analytics|edge-stream|durable-serving> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(report) => {
            for line in &report.notes {
                println!("{line}");
            }
            println!("{}", report.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
