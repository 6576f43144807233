//! Runs the `fig22` experiment (`hermes_bench::experiments::fig22`).
fn main() -> std::process::ExitCode {
    hermes_bench::main(hermes_bench::experiments::fig22::EXPERIMENT)
}
