//! Command-line entry point that regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p gup-bench --bin experiments -- all
//! cargo run --release -p gup-bench --bin experiments -- fig9 --queries 50
//! ```
//!
//! Available experiments: `table2`, `fig4`, `fig5`, `fig6`, `fig7`, `fig8`, `fig9`,
//! `table3`, `fig10`, `persist` (index save/load vs. cold preparation, not part of
//! `all`), `phases` (gupbench serve-stream's per-query time by phase, not part of
//! `all`), `all`. Options: `--scale <f64>` (multiplies every dataset scale),
//! `--queries <n>` (queries per set), `--timeout-ms <n>` (per-query limit),
//! `--threads <n>` (cap for the Figure-10 sweep), `--smoke` (tiny CI configuration).
//! Reports are printed to stdout and copied to `target/experiments/<name>.txt`.

use gup_bench::experiments;
use gup_bench::harness::SuiteConfig;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut config = SuiteConfig::default();
    let mut max_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => config = SuiteConfig::smoke(),
            "--scale" => {
                i += 1;
                let f: f64 = parse(&args, i, "--scale");
                config.yeast_scale *= f;
                config.human_scale *= f;
                config.wordnet_scale *= f;
                config.patents_scale *= f;
            }
            "--queries" => {
                i += 1;
                config.queries_per_set = parse(&args, i, "--queries");
            }
            "--timeout-ms" => {
                i += 1;
                let ms: u64 = parse(&args, i, "--timeout-ms");
                config.per_query_timeout = Duration::from_millis(ms);
            }
            "--set-budget-ms" => {
                i += 1;
                let ms: u64 = parse(&args, i, "--set-budget-ms");
                config.per_set_budget = Duration::from_millis(ms);
            }
            "--threads" => {
                i += 1;
                max_threads = parse(&args, i, "--threads");
            }
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other if other.starts_with("--") => {
                eprintln!("unknown option {other}");
                print_usage();
                std::process::exit(2);
            }
            name => which.push(name.to_string()),
        }
        i += 1;
    }
    if which.is_empty() {
        which.push("all".to_string());
    }

    for name in which {
        let report = run_one(&name, &config, max_threads);
        println!("{report}");
        if let Err(e) = save_report(&name, &report) {
            eprintln!("warning: could not save report for {name}: {e}");
        }
    }
}

fn run_one(name: &str, config: &SuiteConfig, max_threads: usize) -> String {
    match name {
        "all" => experiments::run_all(config, max_threads),
        "table2" | "fig4" | "fig5" | "fig6" => {
            let headline = experiments::collect_headline(config);
            match name {
                "table2" => experiments::table2(&headline),
                "fig4" => experiments::fig4(&headline),
                "fig5" => experiments::fig5(&headline),
                _ => experiments::fig6(&headline),
            }
        }
        "fig7" => experiments::fig7(config),
        "fig8" => experiments::fig8(config),
        "fig9" => experiments::fig9(config),
        "table3" => experiments::table3(config),
        "fig10" => experiments::fig10(config, max_threads),
        "persist" => experiments::persist(config),
        "phases" => experiments::phases(config),
        other => {
            eprintln!("unknown experiment '{other}'");
            print_usage();
            std::process::exit(2);
        }
    }
}

fn parse<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> T {
    args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} needs a numeric argument");
        std::process::exit(2);
    })
}

fn save_report(name: &str, report: &str) -> std::io::Result<()> {
    let dir = std::path::Path::new("target/experiments");
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(format!("{name}.txt")), report)
}

fn print_usage() {
    eprintln!(
        "usage: experiments [table2|fig4|fig5|fig6|fig7|fig8|fig9|table3|fig10|persist|phases|all]...\n\
         options: --smoke --scale <f> --queries <n> --timeout-ms <n> --set-budget-ms <n> --threads <n>"
    );
}
