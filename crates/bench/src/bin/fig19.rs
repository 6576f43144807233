//! Runs the `fig19` experiment (`hermes_bench::experiments::fig19`).
fn main() -> std::process::ExitCode {
    hermes_bench::main(hermes_bench::experiments::fig19::EXPERIMENT)
}
