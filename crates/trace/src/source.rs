//! The [`TraceSource`] abstraction: anything that can feed instructions to
//! a simulated core.

use crate::instr::Instr;

/// An infinite stream of instructions.
///
/// Generators loop forever (the simulator decides how many instructions to
/// warm up and measure, mirroring the paper's warmup/simulation split), so
/// `next_instr` never exhausts.
///
/// # Example
///
/// ```
/// use hermes_trace::{Instr, TraceSource};
///
/// /// A degenerate source: one ALU op forever.
/// struct Nop;
/// impl TraceSource for Nop {
///     fn next_instr(&mut self) -> Instr { Instr::alu(0x400000, None, [None, None]) }
///     fn name(&self) -> &str { "nop" }
/// }
/// let mut s = Nop;
/// assert_eq!(s.next_instr().pc, 0x400000);
/// ```
pub trait TraceSource {
    /// Produces the next instruction in program order.
    fn next_instr(&mut self) -> Instr;

    /// Human-readable name of the workload (used in reports).
    fn name(&self) -> &str;
}

impl TraceSource for Box<dyn TraceSource> {
    fn next_instr(&mut self) -> Instr {
        (**self).next_instr()
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

/// A [`TraceSource`] that replays a fixed vector of instructions in a loop.
///
/// Useful in tests that need a hand-written instruction stream.
#[derive(Debug, Clone)]
pub struct VecSource {
    name: String,
    instrs: Vec<Instr>,
    pos: usize,
}

impl VecSource {
    /// Wraps a non-empty instruction vector.
    ///
    /// # Panics
    ///
    /// Panics if `instrs` is empty — an empty trace cannot feed a core.
    pub fn new(name: impl Into<String>, instrs: Vec<Instr>) -> Self {
        assert!(
            !instrs.is_empty(),
            "VecSource needs at least one instruction"
        );
        Self {
            name: name.into(),
            instrs,
            pos: 0,
        }
    }

    /// Number of distinct instructions before the trace wraps.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Always false: construction rejects empty traces.
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl TraceSource for VecSource {
    fn next_instr(&mut self) -> Instr {
        let i = self.instrs[self.pos];
        self.pos += 1;
        if self.pos == self.instrs.len() {
            self.pos = 0;
        }
        i
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_source_wraps() {
        let a = Instr::alu(1, None, [None, None]);
        let b = Instr::alu(2, None, [None, None]);
        let mut s = VecSource::new("t", vec![a, b]);
        assert_eq!(s.next_instr().pc, 1);
        assert_eq!(s.next_instr().pc, 2);
        assert_eq!(s.next_instr().pc, 1);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    #[should_panic]
    fn vec_source_rejects_empty() {
        let _ = VecSource::new("t", vec![]);
    }

    #[test]
    fn boxed_source_delegates() {
        let a = Instr::alu(7, None, [None, None]);
        let mut s: Box<dyn TraceSource> = Box::new(VecSource::new("boxed", vec![a]));
        assert_eq!(s.next_instr().pc, 7);
        assert_eq!(s.name(), "boxed");
    }
}
