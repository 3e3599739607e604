use std::fmt;

/// A boolean variable, identified by a dense 0-based index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct Var(u32);

impl Var {
    /// Creates a variable from its index.
    pub(crate) fn new(index: u32) -> Var {
        Var(index)
    }

    /// The variable's index.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this variable.
    pub(crate) fn pos(self) -> Lit {
        Lit(self.0 << 1)
    }

    /// The negative literal of this variable.
    #[allow(clippy::should_implement_trait)]
    pub(crate) fn neg(self) -> Lit {
        Lit((self.0 << 1) | 1)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a variable or its negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct Lit(u32);

impl Lit {
    /// The literal's variable.
    pub(crate) fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether this is the positive literal.
    pub(crate) fn is_pos(self) -> bool {
        self.0 & 1 == 0
    }

    /// Dense code usable as an array index (`2·var + sign`).
    pub(crate) fn code(self) -> usize {
        self.0 as usize
    }

    /// Inverse of [`Lit::code`].
    pub(crate) fn from_code(code: usize) -> Lit {
        Lit(code as u32)
    }

    /// Truth value of this literal under an assignment of its variable.
    /// The solver never evaluates a literal this way (it keeps a value per
    /// literal code), so only the tests below pin the semantics.
    #[cfg(test)]
    fn eval(self, var_value: bool) -> bool {
        var_value == self.is_pos()
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_pos() {
            write!(f, "{}", self.var())
        } else {
            write!(f, "¬{}", self.var())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negation_is_involutive() {
        let v = Var::new(5);
        let l = v.pos();
        assert_eq!(!!l, l);
        assert_ne!(!l, l);
        assert_eq!(!l, v.neg());
        assert_eq!((!l).var(), v);
        assert!(l.is_pos() && !(!l).is_pos());
    }

    #[test]
    fn eval_semantics() {
        let v = Var::new(0);
        assert!(v.pos().eval(true));
        assert!(!v.pos().eval(false));
        assert!(v.neg().eval(false));
        assert!(!v.neg().eval(true));
    }

    #[test]
    fn codes_are_dense() {
        assert_eq!(Var::new(0).pos().code(), 0);
        assert_eq!(Var::new(0).neg().code(), 1);
        assert_eq!(Var::new(1).pos().code(), 2);
    }

    #[test]
    fn display() {
        assert_eq!(Var::new(2).pos().to_string(), "x2");
        assert_eq!(Var::new(2).neg().to_string(), "¬x2");
    }
}
