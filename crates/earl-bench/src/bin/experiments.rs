//! Regenerates the paper's evaluation figures as tables on stdout.
//!
//! ```text
//! experiments [figure ...] [--full]
//!
//!   figure   any of: fig2a fig2b fig3 fig5 fig6 fig7 fig8 fig9 fig10 all
//!            (default: all)
//!   --full   use the larger experiment scale (`Scale::Full`)
//! ```

use earl_bench::figures;
use earl_bench::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--full") {
        Scale::Full
    } else {
        Scale::Quick
    };
    let requested: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| !a.starts_with("--"))
        .collect();

    let run_all = requested.is_empty() || requested.contains(&"all");
    let wants = |name: &str| run_all || requested.contains(&name);

    println!("EARL experiment harness (scale: {scale:?})\n");
    if wants("fig2a") {
        println!("{}", figures::fig2a(scale));
    }
    if wants("fig2b") {
        println!("{}", figures::fig2b(scale));
    }
    if wants("fig3") {
        println!("{}", figures::fig3());
    }
    if wants("fig5") {
        println!("{}", figures::fig5(scale));
    }
    if wants("fig6") {
        println!("{}", figures::fig6(scale));
    }
    if wants("fig7") {
        println!("{}", figures::fig7(scale));
    }
    if wants("fig8") {
        println!("{}", figures::fig8(scale));
    }
    if wants("fig9") {
        println!("{}", figures::fig9(scale));
    }
    if wants("fig10") {
        println!("{}", figures::fig10(scale));
    }
}
