//! Runs the `fig17a` experiment (`hermes_bench::experiments::fig17a`).
fn main() -> std::process::ExitCode {
    hermes_bench::main(hermes_bench::experiments::fig17a::EXPERIMENT)
}
