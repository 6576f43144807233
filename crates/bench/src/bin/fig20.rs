//! Runs the `fig20` experiment (`hermes_bench::experiments::fig20`).
fn main() -> std::process::ExitCode {
    hermes_bench::main(hermes_bench::experiments::fig20::EXPERIMENT)
}
