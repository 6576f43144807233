//! Runs the `fig14` experiment (`hermes_bench::experiments::fig14`).
fn main() -> std::process::ExitCode {
    hermes_bench::main(hermes_bench::experiments::fig14::EXPERIMENT)
}
