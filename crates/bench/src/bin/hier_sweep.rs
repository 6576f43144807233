//! Runs the `hier_sweep` experiment (`hermes_bench::experiments::hier_sweep`).
fn main() -> std::process::ExitCode {
    hermes_bench::main(hermes_bench::experiments::hier_sweep::EXPERIMENT)
}
