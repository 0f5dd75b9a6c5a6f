//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one metadata line (`{"meta": {...}}`) and then, as the last
//! line of standard output, the result object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Exits 1 when any answer or
//! batch failed, 2 on bad arguments.

use perfbench::{run, RunOptions, Shape, Workload};
use std::path::PathBuf;

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload dispatch|paper_ladder|live_ingest --seed N --seconds S --trace 0|1");
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = || -> ! { usage(&format!("bad value for {flag}: {value}")) };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).unwrap_or_else(|| bad())),
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| bad())),
            "--seconds" => {
                let s = value.parse::<f64>().unwrap_or_else(|_| bad());
                if !(s > 0.0 && s <= 600.0) {
                    bad();
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let opts = RunOptions {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace,
        shape: Shape::default(),
    };

    let out = run(&opts);
    let mut meta = out.meta;
    if let Some(tracer) = &out.tracer {
        let path = PathBuf::from(format!(
            "perfbench/out/spans-{}.jsonl",
            opts.workload.name()
        ));
        let labels = perfbench::APPROACHES.map(perfbench::label);
        match tracer.write_spans(&path, &labels) {
            Ok(()) => meta.push(("spans".into(), format!("\"{}\"", path.display()))),
            Err(e) => eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            ),
        }
    }
    let meta_json: Vec<String> = meta.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    println!("{{\"meta\":{{{}}}}}", meta_json.join(","));

    let mut metrics = Vec::with_capacity(out.metrics.len());
    for m in &out.metrics {
        if !m.value.is_finite() {
            eprintln!("perfbench: metric {} is not a finite number", m.name);
            std::process::exit(1);
        }
        metrics.push(format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    let correct = out.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}
