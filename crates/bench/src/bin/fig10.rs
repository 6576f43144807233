//! Runs the `fig10` experiment (`hermes_bench::experiments::fig10`).
fn main() -> std::process::ExitCode {
    hermes_bench::main(hermes_bench::experiments::fig10::EXPERIMENT)
}
