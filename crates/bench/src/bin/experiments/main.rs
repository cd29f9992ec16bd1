//! Experiment harness: regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p apf-bench --bin experiments -- <id> [--scale quick|standard|paper] [--seed N]
//! ```
//!
//! `<id>` is one of: `fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig9 fig11 fig12
//! fig13 fig14 fig15 fig16 fig17 fig18 fig19 fig20 fig21 fig22 table1 table2
//! table3 table4 motivation all`. Each experiment prints the paper-style
//! rows/series and writes CSVs under `results/`.

mod baselines;
mod common;
mod end2end;
mod motivation_figs;
mod overhead;
mod prox;
mod sensitivity;
mod strawmen;
mod variants;

use apf_bench::setups::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut id: Option<String> = None;
    let mut scale = Scale::Standard;
    let mut seed = 42u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| die("--scale expects quick|standard|paper"));
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed expects an integer"));
            }
            other if id.is_none() => id = Some(other.to_owned()),
            other => die(&format!("unexpected argument {other:?}")),
        }
        i += 1;
    }
    let id = id.unwrap_or_else(|| die("missing experiment id; try `all`"));
    let ctx = common::Ctx { scale, seed };
    run_one(&id, &ctx);
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: experiments <id> [--scale quick|standard|paper] [--seed N]");
    std::process::exit(2);
}

fn run_one(id: &str, ctx: &common::Ctx) {
    let t0 = std::time::Instant::now();
    match id {
        "fig1" | "fig2" | "fig3" | "fig7" | "motivation" => motivation_figs::motivation(ctx),
        "fig9" => motivation_figs::fig9(ctx),
        "fig4" => strawmen::fig4(ctx),
        "fig5" => strawmen::fig5(ctx),
        "fig6" => strawmen::fig6(ctx),
        "fig11" => end2end::fig11(ctx),
        "table1" => end2end::table1(ctx),
        "table2" => end2end::table2(ctx),
        "table3" => end2end::table3(ctx),
        "fig12" => strawmen::fig12(ctx),
        "fig13" => baselines::fig13(ctx),
        "fig14" => baselines::fig14(ctx),
        "fig15" => variants::fig15(ctx),
        "fig16" => variants::fig16(ctx),
        "fig17" => variants::fig17(ctx),
        "fig18" => variants::fig18(ctx),
        "fig19" => prox::fig19(ctx),
        "fig20" => sensitivity::fig20(ctx),
        "fig21" => sensitivity::fig21(ctx),
        "fig22" => sensitivity::fig22(ctx),
        "table4" => overhead::table4(ctx),
        "all" => {
            motivation_figs::motivation(ctx);
            motivation_figs::fig9(ctx);
            strawmen::fig4(ctx);
            strawmen::fig5(ctx);
            strawmen::fig6(ctx);
            end2end::fig11(ctx);
            end2end::table1(ctx);
            end2end::table2(ctx);
            end2end::table3(ctx);
            strawmen::fig12(ctx);
            baselines::fig13(ctx);
            baselines::fig14(ctx);
            variants::fig15(ctx);
            variants::fig16(ctx);
            variants::fig17(ctx);
            variants::fig18(ctx);
            prox::fig19(ctx);
            sensitivity::fig20(ctx);
            sensitivity::fig21(ctx);
            sensitivity::fig22(ctx);
            overhead::table4(ctx);
        }
        other => die(&format!("unknown experiment id {other:?}")),
    }
    println!("\n[{id}] done in {:.1}s", t0.elapsed().as_secs_f64());
}
