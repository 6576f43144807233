//! Runs the `fig16` experiment (`hermes_bench::experiments::fig16`).
fn main() -> std::process::ExitCode {
    hermes_bench::main(hermes_bench::experiments::fig16::EXPERIMENT)
}
