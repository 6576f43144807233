//! Runs the `fig17d` experiment (`hermes_bench::experiments::fig17d`).
fn main() -> std::process::ExitCode {
    hermes_bench::main(hermes_bench::experiments::fig17d::EXPERIMENT)
}
