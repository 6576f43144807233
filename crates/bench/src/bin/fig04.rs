//! Runs the `fig04` experiment (`hermes_bench::experiments::fig04`).
fn main() -> std::process::ExitCode {
    hermes_bench::main(hermes_bench::experiments::fig04::EXPERIMENT)
}
