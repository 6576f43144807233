//! Runs the `tlb_sweep` experiment (`hermes_bench::experiments::tlb_sweep`).
fn main() -> std::process::ExitCode {
    hermes_bench::main(hermes_bench::experiments::tlb_sweep::EXPERIMENT)
}
