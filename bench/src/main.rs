//! `e2e`: the repo's end-to-end benchmark. One invocation runs one
//! workload, untraced (`--trace 0`: the seven end-to-end metrics) or
//! traced (`--trace 1`: per-layer spans, counters and probes), checks
//! every reply, prints every metric by name with its unit, and ends
//! with one JSON result line. See `README.md` beside `Cargo.toml`.

mod drive;
mod gen;
mod measure;
mod probes;
mod report;
mod rig;
mod trace;
mod verify;
mod workload;

use std::process::ExitCode;

use drive::{Client, Phase, Server};
use report::Metric;
use trace::Tracer;
use workload::{Spec, SPECS};

/// Set-ups per untraced run; `setup_s` is the fastest. (Not the median:
/// on the shared reference box the neighbours only ever add time, for
/// seconds or minutes at a stretch, and the fastest of five set-ups
/// repeats from run to run where their median does not.)
const SETUPS: usize = 5;
/// Share of the full op count a traced phase serves, and the share of
/// it the reference row serves.
const TRACED_SHARE: u64 = 2;
const REFERENCE_SHARE: u64 = 10;
/// `--smoke` divides every op count by this.
const SMOKE_DIVISOR: u64 = 200;

const USAGE: &str = "usage: e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1] \
[--smoke] [--trace-out FILE]
  workloads: kvs-resident kvs-paging kvs-churn fleet-open
  --seed N        drives every random choice (default 1)
  --seconds S     measured ops = the workload's calibrated rate x S (default 10)
  --trace 0       untraced run: the end-to-end metrics (default)
  --trace 1       traced run: per-layer spans, counters, probes, reference row
  --smoke         1/200 of the ops and a single set-up, for tests
  --trace-out F   with --trace 1, also write the spans to F as JSON";

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    trace_out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        spec: &SPECS[0],
        seed: 1,
        seconds: 10,
        traced: false,
        smoke: false,
        trace_out: None,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: {v:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.max(1),
            "--trace" => args.traced = number(value()?)? != 0,
            "--trace-out" => args.trace_out = Some(value()?),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    args.spec = workload::spec(&name).ok_or(format!("unknown workload {name:?}"))?;
    Ok(args)
}

/// Sets the system up afresh (build, fill, warm-up) and runs one
/// measured phase of `ops`.
fn fresh_phase(
    args: &Args,
    ops: u64,
    reference: bool,
    tracer: Option<&mut Tracer>,
) -> (rig::Host, Server, Phase) {
    let (host, mut server) = Server::build(args.spec, reference);
    let phase = {
        let mut client = Client::new(args.spec, &host, args.seed);
        server.warm_up(&mut client);
        server.phase(&mut client, ops, tracer)
    };
    (host, server, phase)
}

fn print_phase(label: &str, p: &Phase) {
    let replies = p.latencies.len() as u64;
    let c_op = p.busy_cycles as f64 / replies.max(1) as f64;
    println!(
        "# {label}: {} attempted, {} failed, {replies} latency samples, \
         {c_op:.1} busy cycles/op = {:.0} simulated ops/s at 3.4 GHz, \
         {} idle cycles, max arrival lateness {} cycles, {:.2} s wall clock",
        p.tally.attempted,
        p.tally.failed,
        3.4e9 / c_op.max(1.0),
        p.idle_cycles,
        p.max_lateness,
        p.wall_s
    );
}

/// What a run reports: ops attempted and failed, and its metrics.
type Outcome = (u64, u64, Vec<Metric>);

/// The untraced run: set up [`SETUPS`] times, each from nothing (build,
/// fill, warm-up), and measure on the last.
fn run_untraced(args: &Args, ops: u64) -> Outcome {
    let setups = if args.smoke { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    // CPU time, like `host_ns_per_op`; the first set-up counts from
    // process start.
    let mut c0 = 0;
    loop {
        let (host, mut server) = Server::build(args.spec, false);
        let mut client = Client::new(args.spec, &host, args.seed);
        server.warm_up(&mut client);
        setup_s.push((measure::cpu_ns() - c0) as f64 / 1e9);
        if setup_s.len() == setups {
            let mut phase = server.phase(&mut client, ops, None);
            print_phase("measured", &phase);
            let fastest = setup_s.iter().copied().fold(f64::INFINITY, f64::min);
            let metrics = report::end_to_end(fastest, &mut phase);
            return (phase.tally.attempted, phase.tally.failed, metrics);
        }
        // Tear down before the next set-up starts: two systems at once
        // would double the peak resident set, and the teardown is not
        // part of anyone's set-up time.
        drop(client);
        drop((host, server));
        c0 = measure::cpu_ns();
    }
}

/// The conservation laws of a traced phase. A broken one means cycles
/// have escaped attribution and the per-layer numbers would mislead, so
/// the run aborts instead of reporting.
fn check_conservation(plain: &Phase, traced: &Phase, tracer: &Tracer) -> Result<(), String> {
    // Taking `handle_batch` apart must not change what it costs.
    if (traced.busy_cycles, traced.latencies.len()) != (plain.busy_cycles, plain.latencies.len()) {
        return Err(format!(
            "the traced phase spent {} busy cycles on {} replies, the untraced one {} on {}: \
             the decomposed serve loop is no longer cycle-identical to the library's",
            traced.busy_cycles,
            traced.latencies.len(),
            plain.busy_cycles,
            plain.latencies.len()
        ));
    }
    // Every serving-core cycle belongs to exactly one layer span (the
    // maintenance span runs on its own core's clock).
    let spans: u64 = report::SERVE_SPANS
        .iter()
        .map(|n| tracer.totals(n).sim_cycles)
        .sum();
    if spans + traced.idle_cycles != traced.clock_cycles {
        return Err(format!(
            "layer spans cover {spans} serving-core cycles and {} were idle fast-forward, \
             but the clock advanced {}",
            traced.idle_cycles, traced.clock_cycles
        ));
    }
    let outside = tracer.self_time("bench.round").sim_cycles;
    if outside != 0 {
        return Err(format!(
            "{outside} serving-core cycles inside a round fall outside every layer span"
        ));
    }
    Ok(())
}

/// The traced run: an untraced phase and a traced phase over the same
/// ops on identical fresh systems, the conservation checks between
/// them, the probes on the warm traced system, and the reference row.
fn run_traced(args: &Args, full_ops: u64) -> Result<Outcome, String> {
    let spec = args.spec;
    let ops = (full_ops / TRACED_SHARE).max(1);
    let (_, _, plain) = fresh_phase(args, ops, false, None);
    print_phase("untraced", &plain);
    let mut tracer = Tracer::new();
    let (host, mut server, traced) = fresh_phase(args, ops, false, Some(&mut tracer));
    print_phase("traced", &traced);
    check_conservation(&plain, &traced, &tracer)?;

    let single = match &mut server {
        Server::Single(s) => Some(&mut **s),
        Server::Fleet(_) => None,
    };
    let probed = probes::run(spec, args.seed, &host, single);
    drop((host, server));

    let reference = spec.reference_row.then(|| {
        let ops = (full_ops / REFERENCE_SHARE).max(1);
        let (_, _, phase) = fresh_phase(args, ops, true, None);
        print_phase("reference (OCALL syscalls, SGX hardware paging)", &phase);
        phase
    });

    if let Some(path) = &args.trace_out {
        std::fs::write(path, tracer.to_json(spec.name)).map_err(|e| format!("{path}: {e}"))?;
        println!("# {} spans written to {path}", tracer.spans.len());
    }
    let metrics = report::per_layer(&plain, &traced, &tracer, &probed, reference.as_ref());
    let phases = [Some(&plain), Some(&traced), reference.as_ref()];
    let attempted = phases.iter().flatten().map(|p| p.tally.attempted).sum();
    let failed = phases.iter().flatten().map(|p| p.tally.failed).sum();
    Ok((attempted, failed, metrics))
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut ops = args.spec.ops_per_second * args.seconds;
    if args.smoke {
        ops /= SMOKE_DIVISOR;
    }
    println!(
        "# e2e {} seed {} trace {}: {} ops at full length. {}",
        args.spec.name,
        args.seed,
        u8::from(args.traced),
        ops,
        args.spec.why
    );
    if args.traced {
        run_traced(args, ops)
    } else {
        Ok(run_untraced(args, ops.max(1)))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match measure::with_cpus_awake(|| run(&args)) {
        Ok((attempted, failed, metrics)) => {
            for m in &metrics {
                println!("{:<44} {:>18.4} {}", m.name, m.value, m.unit);
            }
            println!("{}", report::result_line(attempted, failed, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json`, read as text: no JSON crate is vendored.
    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")
    }

    /// The value of the string field `key` in the object text `obj`.
    fn field(obj: &str, key: &str) -> String {
        let tag = format!("\"{key}\": \"");
        let at = obj
            .find(&tag)
            .unwrap_or_else(|| panic!("no {key} in {obj}"))
            + tag.len();
        obj[at..at + obj[at..].find('"').expect("closing quote")].to_owned()
    }

    /// The flat objects of the array under top-level key `section`.
    fn objects(json: &str, section: &str) -> Vec<String> {
        let tag = format!("\"{section}\": [");
        let start = json.find(&tag).unwrap_or_else(|| panic!("no {section}")) + tag.len();
        let body = &json[start..start + json[start..].find(']').expect("closing bracket")];
        body.split('{')
            .skip(1)
            .map(|o| o[..o.find('}').expect("closing brace")].to_owned())
            .collect()
    }

    fn declared(section: &str) -> Vec<(String, String)> {
        objects(&benchmark_json(), section)
            .iter()
            .map(|o| (field(o, "name"), field(o, "unit")))
            .collect()
    }

    #[test]
    fn arguments_parse_the_way_the_driver_passes_them() {
        let argv: Vec<String> = "--workload kvs-churn --seed 9 --seconds 3 --trace 1"
            .split(' ')
            .map(str::to_owned)
            .collect();
        let a = parse_args(&argv).expect("valid arguments");
        assert_eq!(
            (a.spec.name, a.seed, a.seconds, a.traced),
            ("kvs-churn", 9, 3, true)
        );
        assert!(parse_args(&argv[..1]).is_err(), "flag without a value");
        assert!(parse_args(&[]).is_err(), "no workload");
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--frobnicate".into()]).is_err());
    }

    #[test]
    fn benchmark_json_declares_the_workloads() {
        let declared: Vec<(String, String)> = objects(&benchmark_json(), "workloads")
            .iter()
            .map(|o| (field(o, "name"), field(o, "why")))
            .collect();
        let built: Vec<(String, String)> = SPECS
            .iter()
            .map(|s| (s.name.to_owned(), s.why.to_owned()))
            .collect();
        assert_eq!(declared, built);
    }

    /// A `--smoke` run of every workload, untraced and traced, emits
    /// exactly the metrics `BENCHMARK.json` declares, unit for unit,
    /// passes the conservation checks and fails no op.
    #[test]
    fn smoke_runs_emit_exactly_the_declared_metrics() {
        for spec in &SPECS {
            for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let args = Args {
                    spec,
                    seed: 1,
                    seconds: 10,
                    traced,
                    smoke: true,
                    trace_out: None,
                };
                let (attempted, failed, metrics) =
                    run(&args).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
                assert!(
                    attempted > 0 && failed == 0,
                    "{}: {failed} failed",
                    spec.name
                );
                let emitted: Vec<(String, String)> = metrics
                    .iter()
                    .map(|m| (m.name.clone(), m.unit.to_owned()))
                    .collect();
                assert_eq!(emitted, declared(section), "{} {section}", spec.name);
                assert!(metrics.iter().all(|m| m.value.is_finite()));
            }
        }
    }
}
