//! Runs the `fig05` experiment (`hermes_bench::experiments::fig05`).
fn main() -> std::process::ExitCode {
    hermes_bench::main(hermes_bench::experiments::fig05::EXPERIMENT)
}
