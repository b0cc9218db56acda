//! Reproduces the Eleos (EuroSys'17) evaluation, experiment by
//! experiment.
//!
//! ```text
//! repro <id>... [--scale N | --full]
//!
//!   ids: all, costs, table1, fig1, fig2a, fig2b, fig6a, fig6b, fig6c,
//!        rpc_bench, crypto_bench, serving_bench,
//!        fig7a, fig7b, table2,
//!        fig8a, fig8b, table3, fig9, fig10, fig11, table4,
//!        meta_ablation, ablate_clean, ablate_subpage, ablate_epcpp,
//!        ablate_pagesize, ablate_policy, ablate_zipf, storage_bench,
//!        pf_latency (an alias of costs; the one id `all` leaves out)
//!
//!   --scale N   divide capacities/datasets by N (default 4)
//!   --full      the paper's scale (93MB PRM, 500MB datasets; slow)
//!   --quick     trim the crypto_bench/serving_bench/storage_bench
//!               axes and op counts (CI smoke)
//! ```
//!
//! `crypto_bench`, `serving_bench` and `storage_bench`
//! check their own header claims and make `repro` exit non-zero (a
//! panic, 101) when one does not hold; no id writes a file.

use eleos_bench::experiments as exp;
use eleos_bench::harness::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args(&args);
    let ids: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--") && !a.chars().all(|c| c.is_ascii_digit()))
        .map(String::as_str)
        .collect();
    let ids: Vec<&str> = if ids.is_empty() || ids.contains(&"all") {
        vec![
            "costs",
            "table1",
            "fig1",
            "fig2a",
            "fig2b",
            "fig6a",
            "fig6b",
            "fig6c",
            "rpc_bench",
            "crypto_bench",
            "serving_bench",
            "fig7a",
            "fig7b",
            "table2",
            "fig8a",
            "fig8b",
            "table3",
            "fig9",
            "fig10",
            "fig11",
            "table4",
            "meta_ablation",
            "ablate_clean",
            "ablate_subpage",
            "ablate_epcpp",
            "ablate_pagesize",
            "ablate_policy",
            "ablate_zipf",
            "storage_bench",
        ]
    } else {
        ids
    };
    println!(
        "Eleos reproduction | scale 1/{} (PRM {} MB, LLC {} MB){}",
        scale.0,
        (93 / scale.0).max(1),
        (8 / scale.0).max(1),
        if scale.0 == 1 { " [paper scale]" } else { "" }
    );
    for id in ids {
        let t0 = std::time::Instant::now();
        match id {
            "costs" | "pf_latency" => exp::costs::run(scale),
            "table1" => exp::table1::run(scale),
            "fig1" => exp::fig1::run(scale),
            "fig2a" => exp::fig2::run_2a(scale),
            "fig2b" => exp::fig2::run_2b(scale),
            "fig6a" => exp::fig6::run_6a(scale),
            "fig6b" => exp::fig6::run_6b(scale),
            "fig6c" => exp::fig6::run_6c(scale),
            "rpc_bench" => exp::rpc_bench::run(scale),
            "crypto_bench" => {
                exp::crypto_bench::run(scale, args.iter().any(|a| a == "--quick"));
            }
            "serving_bench" => {
                exp::serving_bench::run(scale, args.iter().any(|a| a == "--quick"));
            }
            "fig7a" => exp::fig7::run_fig7(scale, 1),
            "fig7b" => exp::fig7::run_fig7(scale, 4),
            "table2" => exp::fig7::run_table2(scale),
            "fig8a" => exp::fig8::run_8a(scale),
            "fig8b" => exp::fig8::run_8b(scale),
            "table3" => exp::table3::run(scale),
            "fig9" => exp::fig9::run(scale),
            "fig10" => exp::fig10::run(scale),
            "fig11" => exp::fig11::run_fig11(scale),
            "table4" => exp::fig11::run_table4(scale),
            "meta_ablation" => exp::fig11::run_meta_ablation(scale),
            "ablate_clean" => exp::ablations::run_clean_skip(scale),
            "ablate_subpage" => exp::ablations::run_subpage_sweep(scale),
            "ablate_epcpp" => exp::ablations::run_epcpp_sweep(scale),
            "ablate_pagesize" => exp::ablations::run_pagesize_sweep(scale),
            "ablate_policy" => exp::ablations::run_policy_sweep(scale),
            "ablate_zipf" => exp::ablations::run_zipf_sweep(scale),
            "storage_bench" => {
                exp::storage_bench::run(scale, args.iter().any(|a| a == "--quick"));
            }
            other => {
                eprintln!("unknown experiment: {other}");
                std::process::exit(2);
            }
        }
        println!("   [{id} took {:.1}s]", t0.elapsed().as_secs_f64());
    }
}
