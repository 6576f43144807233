//! Runs the `fig17b` experiment (`hermes_bench::experiments::fig17b`).
fn main() -> std::process::ExitCode {
    hermes_bench::main(hermes_bench::experiments::fig17b::EXPERIMENT)
}
