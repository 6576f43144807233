//! Runs the `fig12` experiment (`hermes_bench::experiments::fig12`).
fn main() -> std::process::ExitCode {
    hermes_bench::main(hermes_bench::experiments::fig12::EXPERIMENT)
}
