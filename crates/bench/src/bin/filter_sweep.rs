//! Runs the `filter_sweep` experiment (`hermes_bench::experiments::filter_sweep`).
fn main() -> std::process::ExitCode {
    hermes_bench::main(hermes_bench::experiments::filter_sweep::EXPERIMENT)
}
