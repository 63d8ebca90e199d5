//! The experiment runner: regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! exp [--quick] all              # every artifact, archived to --out
//! exp [--quick] <id> [<id>..]    # e.g. exp table1 fig11
//! exp --list                     # show available ids
//! exp --out <dir>                # output directory (default target/experiments)
//! exp bench-smoke --check <file> # compare against a perf baseline; exits
//!                                # nonzero on any regression (the CI gate)
//! exp --trace <out.json> <id>..  # also write a combined Chrome trace
//!                                # (load in Perfetto) of the engine runs
//! ```
//!
//! Unknown experiment ids exit nonzero and print the valid ids; every
//! output-directory write error, a `BENCH_*.json` artifact's included,
//! propagates as a nonzero exit instead of panicking.

use dz_bench::experiments::{
    ablations, chaos, cluster, codec, compress, extensions, fleet, kernels, quality, serving,
    smoke, swap, toppings, workloads, Report, Scale,
};
use dz_serve::{write_chrome_trace, TraceTrack};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// What an experiment may draw on while it runs.
struct Ctx<'a> {
    zoo: &'a mut quality::Zoo,
    scale: Scale,
    out_dir: &'a Path,
    trace: Option<&'a mut Vec<TraceTrack>>,
    /// Set by `bench-smoke`, for the `--check` gate.
    smoke: Option<smoke::SmokeMetrics>,
}

/// An experiment driver. A `BENCH_*.json` write error is its error.
type Run = fn(&mut Ctx) -> io::Result<Report>;

/// Every experiment id with its driver, in `all` order.
const EXPERIMENTS: &[(&str, Run)] = &[
    ("fig1", |_| Ok(workloads::fig1())),
    ("fig2", |c| Ok(quality::fig2(c.zoo))),
    ("fig3", |c| Ok(quality::fig3(c.zoo))),
    ("fig5", |c| Ok(quality::fig5(c.zoo))),
    ("fig6", |_| Ok(kernels::fig6())),
    ("fig7", |_| Ok(kernels::fig7())),
    ("table1", |c| Ok(quality::table1(c.zoo))),
    ("table2", |c| Ok(quality::table2(c.zoo))),
    ("fig10", |_| Ok(serving::fig10())),
    ("fig11", |_| Ok(serving::fig11())),
    ("fig12", |_| Ok(serving::fig12())),
    ("fig13", |_| Ok(serving::fig13())),
    ("fig14", |_| Ok(serving::fig14())),
    ("fig15", |_| Ok(serving::fig15())),
    ("fig16", |_| Ok(serving::fig16())),
    ("fig17", |_| Ok(kernels::fig17())),
    ("fig18", |_| Ok(serving::fig18())),
    ("fig19", |_| Ok(serving::fig19())),
    (
        "ablation-scheduler",
        |_| Ok(ablations::ablation_scheduler()),
    ),
    ("ablation-sbmm", |_| Ok(ablations::ablation_sbmm())),
    ("ablation-reconstruct", |c| {
        Ok(ablations::ablation_reconstruct(c.zoo))
    }),
    ("tuning-n", |_| Ok(ablations::tuning_demo())),
    ("ext-peft", |c| Ok(extensions::ext_peft(c.zoo, c.scale))),
    ("ablation-resume", |_| Ok(extensions::ablation_resume())),
    ("ablation-length-aware", |_| {
        Ok(extensions::ablation_length_aware())
    }),
    ("ablation-slo", |_| Ok(extensions::ablation_slo())),
    ("ablation-dynamic-n", |_| {
        Ok(extensions::ablation_dynamic_n())
    }),
    ("ext-scalability", |_| Ok(extensions::ext_scalability())),
    ("bench-lossless", |c| {
        codec::bench_lossless(c.scale, c.out_dir)
    }),
    ("bench-chaos", |c| {
        chaos::bench_chaos(c.scale, c.out_dir, c.trace.as_deref_mut())
    }),
    ("bench-cluster", |c| {
        cluster::bench_cluster(c.scale, c.out_dir, c.trace.as_deref_mut())
    }),
    ("bench-fleet", |c| {
        fleet::bench_fleet(c.scale, c.out_dir, c.trace.as_deref_mut())
    }),
    ("bench-compress", |c| {
        compress::bench_compress(c.zoo, c.scale, c.out_dir)
    }),
    ("bench-swap", |c| {
        swap::bench_swap(c.scale, c.out_dir, c.trace.as_deref_mut())
    }),
    ("bench-toppings", |c| {
        toppings::bench_toppings(c.scale, c.out_dir, c.trace.as_deref_mut())
    }),
    ("bench-smoke", |c| {
        let (report, metrics) = smoke::bench_smoke(c.out_dir, c.trace.as_deref_mut())?;
        c.smoke = Some(metrics);
        Ok(report)
    }),
];

fn available() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|(id, _)| *id).collect()
}

fn unknown_id_exit(id: &str) -> ! {
    eprintln!("unknown experiment id: {id}");
    eprintln!("valid experiments:");
    for known in available() {
        eprintln!("  {known}");
    }
    std::process::exit(2);
}

fn main() -> io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for id in available() {
            println!("{id}");
        }
        return Ok(());
    }
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::Quick } else { Scale::Full };
    // Flags with values: --out <dir>, --check <baseline.json>.
    let mut out_dir = PathBuf::from("target/experiments");
    let mut baseline_path: Option<PathBuf> = None;
    let mut trace_path: Option<PathBuf> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => {}
            "--out" => match it.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--out requires a directory argument");
                    std::process::exit(2);
                }
            },
            "--check" => match it.next() {
                Some(path) => baseline_path = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--check requires a baseline file argument");
                    std::process::exit(2);
                }
            },
            "--trace" => match it.next() {
                Some(path) => trace_path = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--trace requires an output file argument");
                    std::process::exit(2);
                }
            },
            other if other.starts_with("--") => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        eprintln!("usage: exp [--quick] [--out <dir>] (all | <id>...); see --list");
        std::process::exit(2);
    }
    let targets: Vec<&str> = if ids.iter().any(|i| i == "all") {
        available()
    } else {
        let known = available();
        for id in &ids {
            if !known.contains(&id.as_str()) {
                unknown_id_exit(id);
            }
        }
        known
            .into_iter()
            .filter(|k| ids.iter().any(|i| i == k))
            .collect()
    };

    // Fail fast on gate misuse: the gate needs fresh smoke metrics and a
    // readable baseline, so validate both before any (potentially
    // multi-minute) experiment runs.
    let baseline: Option<String> = match &baseline_path {
        Some(path) => {
            if !targets.contains(&"bench-smoke") {
                eprintln!("--check requires bench-smoke among the requested experiments");
                std::process::exit(2);
            }
            match std::fs::read_to_string(path) {
                Ok(contents) => Some(contents),
                Err(e) => {
                    eprintln!("--check cannot read {}: {e}", path.display());
                    std::process::exit(2);
                }
            }
        }
        None => None,
    };
    std::fs::create_dir_all(&out_dir)?;
    let mut zoo = quality::Zoo::new(scale);
    let mut combined = String::new();
    let mut trace_tracks: Option<Vec<TraceTrack>> = trace_path.as_ref().map(|_| Vec::new());
    let mut ctx = Ctx {
        zoo: &mut zoo,
        scale,
        out_dir: &out_dir,
        trace: trace_tracks.as_mut(),
        smoke: None,
    };
    for id in targets {
        let start = std::time::Instant::now();
        let (_, run) = EXPERIMENTS
            .iter()
            .find(|(known, _)| *known == id)
            .expect("id validated above");
        let report = run(&mut ctx)?;
        let rendered = report.render();
        println!("{rendered}");
        println!("[{} done in {:.1?}]\n", report.id, start.elapsed());
        combined.push_str(&rendered);
        combined.push('\n');
        let path = out_dir.join(format!("{}.md", report.id));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(rendered.as_bytes())?;
    }
    let smoke_metrics = ctx.smoke;
    let mut f = std::fs::File::create(out_dir.join("all.md"))?;
    f.write_all(combined.as_bytes())?;

    // One combined Chrome trace across every traced engine run: load it
    // in Perfetto (ui.perfetto.dev) — one process per lane.
    if let (Some(path), Some(tracks)) = (&trace_path, &trace_tracks) {
        write_chrome_trace(path, tracks)?;
        let events: usize = tracks.iter().map(|t| t.log.len()).sum();
        println!(
            "trace: {} ({} lanes, {} events)",
            path.display(),
            tracks.len(),
            events
        );
    }

    // The perf gate: compare fresh smoke metrics against the baseline.
    if let Some(baseline) = baseline {
        let path = baseline_path.expect("baseline read implies a path");
        let metrics = smoke_metrics.expect("bench-smoke presence validated pre-flight");
        match smoke::check_baseline(&metrics, &baseline) {
            Ok(failures) if failures.is_empty() => {
                let version = smoke::baseline_schema_version(&baseline)
                    .map(|v| format!("schema v{v}"))
                    .unwrap_or_else(|| "unversioned".into());
                println!(
                    "perf gate: all metrics within {} bounds ({version})",
                    path.display()
                );
            }
            Ok(failures) => {
                eprintln!("perf gate FAILED against {}:", path.display());
                for f in &failures {
                    eprintln!("  {f}");
                }
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("perf gate error: {e}");
                std::process::exit(2);
            }
        }
    }
    Ok(())
}
