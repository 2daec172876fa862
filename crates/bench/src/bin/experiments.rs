//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments [EXPERIMENT] [--scale N] [--nodes N] [--workers N] [--out DIR]
//!
//! EXPERIMENT: all (default) | table1 | table2 | table5 | fig2 | fig4 | fig5 |
//!             fig6 | fig7 | fig8 | fig9 | fig10 | ablation
//! ```
//!
//! Each report is printed to stdout and written to `<out>/<experiment>.txt`
//! (default `reports/`). Run in release mode: the full suite executes several
//! hundred engine runs.

use slfe_bench::experiments;
use slfe_bench::ExperimentContext;
use std::path::PathBuf;

const USAGE: &str =
    "usage: experiments [EXPERIMENT] [--scale N] [--nodes N] [--workers N] [--out DIR]";

#[derive(Debug)]
struct Options {
    experiment: String,
    ctx: ExperimentContext,
    out_dir: PathBuf,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut experiment = "all".to_string();
    let mut ctx = ExperimentContext::default();
    let mut out_dir = PathBuf::from("reports");
    while let Some(arg) = args.next() {
        let mut value_for = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        // Scale divides the dataset sizes and nodes and workers size the
        // cluster: zero is a usage error, not a panic deep in the harness.
        let mut positive = |name: &str| -> Result<usize, String> {
            match value_for(name)?.parse() {
                Ok(0) => Err(format!("{name} must be at least 1\n{USAGE}")),
                Ok(n) => Ok(n),
                Err(e) => Err(format!("invalid {name}: {e}")),
            }
        };
        match arg.as_str() {
            "--scale" => ctx.scale = positive("--scale")?,
            "--nodes" => ctx.nodes = positive("--nodes")?,
            "--workers" => ctx.workers = positive("--workers")?,
            "--out" => out_dir = PathBuf::from(value_for("--out")?),
            "--help" | "-h" => return Err(USAGE.into()),
            name if !name.starts_with("--") => experiment = name.to_string(),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(Options {
        experiment,
        ctx,
        out_dir,
    })
}

type ExperimentFn = fn(&ExperimentContext) -> String;

fn all_experiments() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("table1", experiments::table1 as ExperimentFn),
        ("table2", experiments::table2),
        ("fig2", experiments::fig2),
        ("fig4", experiments::fig4),
        ("table5", experiments::table5),
        ("fig5", experiments::fig5),
        ("fig6", experiments::fig6),
        ("fig7", experiments::fig7),
        ("fig8", experiments::fig8),
        ("fig9", experiments::fig9),
        ("fig10", experiments::fig10),
        ("ablation", experiments::ablation),
    ]
}

fn main() {
    let options = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let selected: Vec<_> = all_experiments()
        .into_iter()
        .filter(|(name, _)| options.experiment == "all" || options.experiment == *name)
        .collect();
    if selected.is_empty() {
        eprintln!("unknown experiment '{}'", options.experiment);
        std::process::exit(2);
    }
    if let Err(e) = std::fs::create_dir_all(&options.out_dir) {
        eprintln!("cannot create {}: {e}", options.out_dir.display());
        std::process::exit(1);
    }
    println!(
        "# SLFE experiment harness: scale 1/{}, {} nodes x {} workers\n",
        options.ctx.scale, options.ctx.nodes, options.ctx.workers
    );
    for (name, f) in selected {
        let start = std::time::Instant::now();
        let report = f(&options.ctx);
        println!("{report}");
        println!(
            "[{name} completed in {:.1}s]\n",
            start.elapsed().as_secs_f64()
        );
        let path = options.out_dir.join(format!("{name}.txt"));
        if let Err(e) = std::fs::write(&path, &report) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Options, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn zero_sizes_are_usage_errors_and_a_valid_line_sets_every_option() {
        for flag in ["--scale", "--nodes", "--workers"] {
            let err = parse(&format!("fig8 {flag} 0")).unwrap_err();
            assert!(err.contains(flag) && err.contains(USAGE), "{flag}: {err}");
        }
        let options = parse("fig10 --scale 8000 --nodes 2 --workers 3 --out figs").unwrap();
        assert_eq!(options.experiment, "fig10");
        assert_eq!(
            (options.ctx.scale, options.ctx.nodes, options.ctx.workers),
            (8000, 2, 3)
        );
        assert_eq!(options.out_dir, PathBuf::from("figs"));
    }
}
