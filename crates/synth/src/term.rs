//! The term grammar of §4.3.
//!
//! Update and output terms are drawn from a small grammar over the current
//! register values and the numeric fields of the current input symbol:
//! a register, a register plus one, an input field, an input field plus one,
//! or an integer constant.  The example in the paper enumerates the domain
//! `[r, r+1, pr, pr+1, pi, pi+1, sn, an]` for one unknown; [`TermDomain`]
//! generates exactly this kind of candidate list.

use std::fmt;

/// A term over registers and the numeric fields of the current input.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// The current value of register `i`.
    Register(usize),
    /// The current value of register `i`, plus one.
    RegisterPlusOne(usize),
    /// The value of numeric input field `i` of the current symbol.
    InputField(usize),
    /// The value of numeric input field `i` of the current symbol, plus one.
    InputFieldPlusOne(usize),
    /// An integer constant.
    Const(i64),
}

impl Term {
    /// Evaluates the term given the current register valuation and the
    /// numeric fields of the current input symbol.
    ///
    /// Returns `None` when the term references a register or field index
    /// that does not exist (a sketch/domain mismatch).
    pub fn eval(&self, registers: &[i64], input_fields: &[i64]) -> Option<i64> {
        match *self {
            Term::Register(i) => registers.get(i).copied(),
            Term::RegisterPlusOne(i) => registers.get(i).map(|v| v.wrapping_add(1)),
            Term::InputField(i) => input_fields.get(i).copied(),
            Term::InputFieldPlusOne(i) => input_fields.get(i).map(|v| v.wrapping_add(1)),
            Term::Const(c) => Some(c),
        }
    }

    /// Whether the term is a constant.
    pub fn is_constant(&self) -> bool {
        matches!(self, Term::Const(_))
    }

    /// Whether the term reads any register.
    pub fn reads_register(&self) -> bool {
        matches!(self, Term::Register(_) | Term::RegisterPlusOne(_))
    }

    /// Renders the term with the given register and input-field names,
    /// matching the paper's notation (`r`, `r+1`, `pi+1`, `sn`, `0`, ...).
    pub fn render(&self, register_names: &[String], field_names: &[String]) -> String {
        let name = |names: &[String], i: usize, fallback: &str| {
            names
                .get(i)
                .cloned()
                .unwrap_or_else(|| format!("{fallback}{i}"))
        };
        match *self {
            Term::Register(i) => name(register_names, i, "r"),
            Term::RegisterPlusOne(i) => format!("{}+1", name(register_names, i, "r")),
            Term::InputField(i) => name(field_names, i, "in"),
            Term::InputFieldPlusOne(i) => format!("{}+1", name(field_names, i, "in")),
            Term::Const(c) => c.to_string(),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Term::Register(i) => write!(f, "r{i}"),
            Term::RegisterPlusOne(i) => write!(f, "r{i}+1"),
            Term::InputField(i) => write!(f, "in{i}"),
            Term::InputFieldPlusOne(i) => write!(f, "in{i}+1"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

/// Describes the candidate-term domain for a synthesis problem.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TermDomain {
    /// Number of registers available.
    pub num_registers: usize,
    /// Number of numeric fields carried by each input symbol.
    pub num_input_fields: usize,
    /// Constants that may appear as terms (the paper's grammar effectively
    /// allows the constants observed in the traces; Issue 4 needs `0`).
    pub constants: Vec<i64>,
    /// Whether `+1` variants of registers and input fields are included.
    pub allow_increment: bool,
}

impl TermDomain {
    /// A domain with the given shape, `+1` variants enabled and the single
    /// constant `0` (the most common configuration in the paper's case
    /// studies).
    pub fn new(num_registers: usize, num_input_fields: usize) -> Self {
        TermDomain {
            num_registers,
            num_input_fields,
            constants: vec![0],
            allow_increment: true,
        }
    }

    /// Adds an allowed constant.
    pub fn with_constant(mut self, c: i64) -> Self {
        if !self.constants.contains(&c) {
            self.constants.push(c);
        }
        self
    }

    /// Disables the `+1` term variants.
    pub fn without_increment(mut self) -> Self {
        self.allow_increment = false;
        self
    }

    /// Enumerates all candidate terms, registers first, then input fields,
    /// then constants — the preference order used to pick a representative
    /// solution among the surviving candidates.
    pub fn candidates(&self) -> Vec<Term> {
        let mut out = Vec::new();
        for i in 0..self.num_registers {
            out.push(Term::Register(i));
            if self.allow_increment {
                out.push(Term::RegisterPlusOne(i));
            }
        }
        for i in 0..self.num_input_fields {
            out.push(Term::InputField(i));
            if self.allow_increment {
                out.push(Term::InputFieldPlusOne(i));
            }
        }
        for &c in &self.constants {
            out.push(Term::Const(c));
        }
        out
    }

    /// Number of candidate terms.
    pub fn size(&self) -> usize {
        self.candidates().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_covers_every_variant() {
        let regs = [10, 20];
        let fields = [5];
        assert_eq!(Term::Register(1).eval(&regs, &fields), Some(20));
        assert_eq!(Term::RegisterPlusOne(0).eval(&regs, &fields), Some(11));
        assert_eq!(Term::InputField(0).eval(&regs, &fields), Some(5));
        assert_eq!(Term::InputFieldPlusOne(0).eval(&regs, &fields), Some(6));
        assert_eq!(Term::Const(-3).eval(&regs, &fields), Some(-3));
        assert_eq!(Term::Register(5).eval(&regs, &fields), None);
        assert_eq!(Term::InputFieldPlusOne(3).eval(&regs, &fields), None);
    }

    #[test]
    fn wrapping_add_does_not_panic_on_extremes() {
        assert_eq!(
            Term::RegisterPlusOne(0).eval(&[i64::MAX], &[]),
            Some(i64::MIN)
        );
    }

    #[test]
    fn predicates() {
        assert!(Term::Const(0).is_constant());
        assert!(!Term::Register(0).is_constant());
        assert!(Term::RegisterPlusOne(0).reads_register());
        assert!(!Term::InputField(0).reads_register());
    }

    #[test]
    fn display_and_render() {
        assert_eq!(Term::Register(0).to_string(), "r0");
        assert_eq!(Term::RegisterPlusOne(2).to_string(), "r2+1");
        assert_eq!(Term::InputField(1).to_string(), "in1");
        assert_eq!(Term::Const(7).to_string(), "7");
        let regs = vec!["r".to_string(), "pr".to_string()];
        let fields = vec!["sn".to_string(), "an".to_string()];
        assert_eq!(Term::RegisterPlusOne(1).render(&regs, &fields), "pr+1");
        assert_eq!(Term::InputField(1).render(&regs, &fields), "an");
        assert_eq!(Term::InputFieldPlusOne(0).render(&regs, &fields), "sn+1");
        assert_eq!(Term::Register(5).render(&regs, &fields), "r5");
    }

    #[test]
    fn paper_domain_has_eight_candidates() {
        // The §4.3 example: registers {r, pr, pi}, inputs {sn, an}, no
        // constants, increments only on registers... the paper's list for u1
        // is [r, r+1, pr, pr+1, pi, pi+1, sn, an] — 8 candidates.  With our
        // uniform grammar (increments also on input fields) the domain is 10;
        // restricting increments reproduces a superset either way.
        let d = TermDomain {
            num_registers: 3,
            num_input_fields: 2,
            constants: vec![],
            allow_increment: true,
        };
        assert_eq!(d.size(), 10);
        let no_inc = d.clone().without_increment();
        assert_eq!(no_inc.size(), 5);
    }

    #[test]
    fn domain_constants_and_ordering() {
        let d = TermDomain::new(1, 1).with_constant(3).with_constant(3);
        let c = d.candidates();
        assert_eq!(c.first(), Some(&Term::Register(0)));
        assert_eq!(c.last(), Some(&Term::Const(3)));
        assert_eq!(c.iter().filter(|t| t.is_constant()).count(), 2); // 0 and 3
    }
}
