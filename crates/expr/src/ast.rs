//! Abstract syntax tree of the expression language, plus the canonical
//! pretty-printer used for DSN serialisation (expressions embedded in DSN
//! documents must round-trip: print → parse → identical tree).

use sl_stt::Value;
use std::fmt;

/// Binary operators, loosest-binding first in the grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Logical disjunction (`or`).
    Or,
    /// Logical conjunction (`and`).
    And,
    /// Equality (`=`), with Int/Float cross-comparison.
    Eq,
    /// Inequality (`!=`).
    Ne,
    /// Less-than (`<`).
    Lt,
    /// Less-or-equal (`<=`).
    Le,
    /// Greater-than (`>`).
    Gt,
    /// Greater-or-equal (`>=`).
    Ge,
    /// Addition (numeric) or string concatenation.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (float result unless both operands are Int).
    Div,
    /// Remainder.
    Mod,
}

impl BinOp {
    /// Operator token as written in the surface syntax.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Or => "or",
            BinOp::And => "and",
            BinOp::Eq => "=",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
        }
    }

    /// Binding strength: higher binds tighter. Used by the parser and the
    /// parenthesis-minimising printer.
    pub fn precedence(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
            BinOp::Add | BinOp::Sub => 4,
            BinOp::Mul | BinOp::Div | BinOp::Mod => 5,
        }
    }

    /// True for comparison operators (non-associative in the grammar).
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical negation (`not`).
    Not,
}

/// An expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal constant.
    Literal(Value),
    /// An attribute reference (schema attribute or `_`-pseudo-attribute).
    Attr(String),
    /// Unary operator application.
    Unary {
        /// The operator.
        op: UnOp,
        /// The operand.
        expr: Box<Expr>,
    },
    /// Binary operator application.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Builtin function call.
    Call {
        /// Function name (lowercase).
        function: String,
        /// Arguments, in order.
        args: Vec<Expr>,
    },
}

impl Expr {
    /// Convenience constructor for binary nodes.
    pub fn binary(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Convenience constructor for unary nodes.
    pub fn unary(op: UnOp, expr: Expr) -> Expr {
        Expr::Unary {
            op,
            expr: Box::new(expr),
        }
    }

    /// Convenience constructor for attribute references.
    pub fn attr(name: &str) -> Expr {
        Expr::Attr(name.to_string())
    }

    /// All attribute names referenced anywhere in the expression
    /// (deduplicated, in first-occurrence order). The dataflow validator uses
    /// this to check conditions against the incoming schema and to drive
    /// filter push-down.
    pub fn referenced_attrs(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Attr(name) = e {
                if !out.contains(&name.as_str()) {
                    out.push(name.as_str());
                }
            }
        });
        out
    }

    /// Depth-first pre-order traversal.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Literal(_) | Expr::Attr(_) => {}
            Expr::Unary { expr, .. } => expr.walk(f),
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::Call { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
        }
    }

    /// Number of nodes in the tree (used by dataflow cost estimation).
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }

    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, parent_prec: u8) -> fmt::Result {
        match self {
            Expr::Literal(v) => match v {
                Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
                Value::Null => write!(f, "null"),
                Value::Time(t) => write!(f, "time({})", t.as_millis()),
                Value::Geo(g) => write!(f, "geo({}, {})", fmt_f64(g.lat), fmt_f64(g.lon)),
                Value::Float(x) => write!(f, "{}", fmt_f64(*x)),
                other => write!(f, "{other}"),
            },
            Expr::Attr(name) => f.write_str(name),
            Expr::Unary { op, expr } => {
                // Unary binds tighter than any binary operator.
                match op {
                    UnOp::Neg => write!(f, "-")?,
                    UnOp::Not => write!(f, "not ")?,
                }
                expr.fmt_prec(f, 6)
            }
            Expr::Binary { op, left, right } => {
                let prec = op.precedence();
                let need_paren = prec < parent_prec;
                if need_paren {
                    write!(f, "(")?;
                }
                left.fmt_prec(f, prec)?;
                write!(f, " {} ", op.symbol())?;
                // Right operand of a left-associative operator needs a
                // strictly-tighter context; comparisons are non-associative.
                right.fmt_prec(f, prec + 1)?;
                if need_paren {
                    write!(f, ")")?;
                }
                Ok(())
            }
            Expr::Call { function, args } => {
                write!(f, "{function}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    a.fmt_prec(f, 0)?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Print a float so that it lexes back as a Float (always keeps a decimal
/// point or exponent).
fn fmt_f64(x: f64) -> String {
    if x.is_nan() {
        return "nan()".into();
    }
    if x.is_infinite() {
        return if x > 0.0 { "inf()" } else { "-inf()" }.into();
    }
    let s = format!("{x}");
    if s.contains('.') || s.contains('e') || s.contains("inf") {
        s
    } else {
        format!("{s}.0")
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)] // tests may panic freely
    use super::*;

    #[test]
    fn precedence_ordering() {
        assert!(BinOp::Or.precedence() < BinOp::And.precedence());
        assert!(BinOp::And.precedence() < BinOp::Eq.precedence());
        assert!(BinOp::Eq.precedence() < BinOp::Add.precedence());
        assert!(BinOp::Add.precedence() < BinOp::Mul.precedence());
    }

    #[test]
    fn display_minimises_parens() {
        // (a + b) * c needs parens; a + b * c doesn't.
        let e = Expr::binary(
            BinOp::Mul,
            Expr::binary(BinOp::Add, Expr::attr("a"), Expr::attr("b")),
            Expr::attr("c"),
        );
        assert_eq!(e.to_string(), "(a + b) * c");
        let e = Expr::binary(
            BinOp::Add,
            Expr::attr("a"),
            Expr::binary(BinOp::Mul, Expr::attr("b"), Expr::attr("c")),
        );
        assert_eq!(e.to_string(), "a + b * c");
    }

    #[test]
    fn display_respects_left_associativity() {
        // a - (b - c) must keep its parens.
        let e = Expr::binary(
            BinOp::Sub,
            Expr::attr("a"),
            Expr::binary(BinOp::Sub, Expr::attr("b"), Expr::attr("c")),
        );
        assert_eq!(e.to_string(), "a - (b - c)");
        // (a - b) - c prints without.
        let e = Expr::binary(
            BinOp::Sub,
            Expr::binary(BinOp::Sub, Expr::attr("a"), Expr::attr("b")),
            Expr::attr("c"),
        );
        assert_eq!(e.to_string(), "a - b - c");
    }

    #[test]
    fn display_string_escaping() {
        let e = Expr::Literal(Value::Str("it's".into()));
        assert_eq!(e.to_string(), "'it''s'");
    }

    #[test]
    fn float_literals_keep_a_point() {
        assert_eq!(Expr::Literal(Value::Float(2.0)).to_string(), "2.0");
        assert_eq!(Expr::Literal(Value::Float(2.5)).to_string(), "2.5");
        assert_eq!(Expr::Literal(Value::Int(2)).to_string(), "2");
    }

    #[test]
    fn referenced_attrs_deduplicated() {
        let e = Expr::binary(
            BinOp::And,
            Expr::binary(BinOp::Gt, Expr::attr("t"), Expr::Literal(Value::Int(1))),
            Expr::binary(BinOp::Lt, Expr::attr("t"), Expr::attr("h")),
        );
        assert_eq!(e.referenced_attrs(), vec!["t", "h"]);
        assert_eq!(e.size(), 7);
    }

    #[test]
    fn unary_display() {
        let e = Expr::unary(UnOp::Not, Expr::attr("ok"));
        assert_eq!(e.to_string(), "not ok");
        let e = Expr::unary(
            UnOp::Neg,
            Expr::binary(BinOp::Add, Expr::attr("a"), Expr::attr("b")),
        );
        assert_eq!(e.to_string(), "-(a + b)");
    }
}
