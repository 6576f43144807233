//! Runs the `fig03` experiment (`hermes_bench::experiments::fig03`).
fn main() -> std::process::ExitCode {
    hermes_bench::main(hermes_bench::experiments::fig03::EXPERIMENT)
}
