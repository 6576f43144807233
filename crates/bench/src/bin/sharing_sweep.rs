//! Runs the `sharing_sweep` experiment (`hermes_bench::experiments::sharing_sweep`).
fn main() -> std::process::ExitCode {
    hermes_bench::main(hermes_bench::experiments::sharing_sweep::EXPERIMENT)
}
