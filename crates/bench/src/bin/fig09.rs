//! Runs the `fig09` experiment (`hermes_bench::experiments::fig09`).
fn main() -> std::process::ExitCode {
    hermes_bench::main(hermes_bench::experiments::fig09::EXPERIMENT)
}
