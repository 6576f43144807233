//! Runs the `ooo_sweep` experiment (`hermes_bench::experiments::ooo_sweep`).
fn main() -> std::process::ExitCode {
    hermes_bench::main(hermes_bench::experiments::ooo_sweep::EXPERIMENT)
}
