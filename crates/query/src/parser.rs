//! A text syntax for denial constraints, mirroring the paper's notation.
//!
//! ```text
//! q() <- TxOut(ntx, s, 'U8Pk', a)
//! q() <- TxIn(pt, ps, 'AlcPK', a, ntx, 'AlcSig'), !Trusted(pk), ntx != pt
//! [q(sum(a)) <- TxIn(t, s, 'AlcPK', a, nt, 'AlcSig')] > 5
//! ```
//!
//! * Identifiers in atom position are relation names; elsewhere they are
//!   variables. `_` is an anonymous variable (fresh per occurrence).
//! * Constants are `'quoted text'`, integers, or `true`/`false`.
//! * Negated atoms are written `!R(...)` or `not R(...)`.
//! * Comparison operators: `=`, `!=`, `<`, `>`, `<=`, `>=`.
//! * Aggregates: `count`, `cntd`, `sum`, `max`, `min`.

use crate::ast::{
    AggFunc, AggregateQuery, Atom, CmpOp, Comparison, ConjunctiveQuery, DenialConstraint, Term, Var,
};
use crate::error::QueryError;
use bcdb_storage::{Catalog, Value};

/// Parses a denial constraint (conjunctive or aggregate) and validates it
/// against `catalog`.
pub fn parse_denial_constraint(
    input: &str,
    catalog: &Catalog,
) -> Result<DenialConstraint, QueryError> {
    let mut p = Parser::new(input, catalog)?;
    let dc = p.constraint()?;
    p.expect_end()?;
    dc.validate(catalog)?;
    Ok(dc)
}

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Int(i64),
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Arrow,
    Bang,
    Op(CmpOp),
    Dot,
}

struct Lexeme {
    tok: Tok,
    offset: usize,
}

fn lex(input: &str) -> Result<Vec<Lexeme>, QueryError> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
            }
            '(' => {
                out.push(Lexeme {
                    tok: Tok::LParen,
                    offset: start,
                });
                i += 1;
            }
            ')' => {
                out.push(Lexeme {
                    tok: Tok::RParen,
                    offset: start,
                });
                i += 1;
            }
            '[' => {
                out.push(Lexeme {
                    tok: Tok::LBracket,
                    offset: start,
                });
                i += 1;
            }
            ']' => {
                out.push(Lexeme {
                    tok: Tok::RBracket,
                    offset: start,
                });
                i += 1;
            }
            ',' => {
                out.push(Lexeme {
                    tok: Tok::Comma,
                    offset: start,
                });
                i += 1;
            }
            '.' => {
                out.push(Lexeme {
                    tok: Tok::Dot,
                    offset: start,
                });
                i += 1;
            }
            '\'' => {
                // `\'` and `\\` escape a quote and a backslash, mirroring
                // how `Value::Text` renders; any other escape is rejected.
                let mut text = String::new();
                let mut j = i + 1;
                let mut seg = j;
                loop {
                    match bytes.get(j) {
                        Some(b'\'') => break,
                        Some(b'\\') => match bytes.get(j + 1) {
                            Some(&c @ (b'\\' | b'\'')) => {
                                text.push_str(&input[seg..j]);
                                text.push(c as char);
                                j += 2;
                                seg = j;
                            }
                            Some(_) => {
                                return Err(QueryError::Parse {
                                    offset: j,
                                    detail: "invalid escape in string literal (use \\' or \\\\)"
                                        .into(),
                                })
                            }
                            None => j += 1,
                        },
                        Some(_) => j += 1,
                        None => {
                            return Err(QueryError::Parse {
                                offset: start,
                                detail: "unterminated string literal".into(),
                            })
                        }
                    }
                }
                text.push_str(&input[seg..j]);
                out.push(Lexeme {
                    tok: Tok::Str(text),
                    offset: start,
                });
                i = j + 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'-') {
                    out.push(Lexeme {
                        tok: Tok::Arrow,
                        offset: start,
                    });
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Lexeme {
                        tok: Tok::Op(CmpOp::Le),
                        offset: start,
                    });
                    i += 2;
                } else {
                    out.push(Lexeme {
                        tok: Tok::Op(CmpOp::Lt),
                        offset: start,
                    });
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Lexeme {
                        tok: Tok::Op(CmpOp::Ge),
                        offset: start,
                    });
                    i += 2;
                } else {
                    out.push(Lexeme {
                        tok: Tok::Op(CmpOp::Gt),
                        offset: start,
                    });
                    i += 1;
                }
            }
            '=' => {
                out.push(Lexeme {
                    tok: Tok::Op(CmpOp::Eq),
                    offset: start,
                });
                i += 1;
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Lexeme {
                        tok: Tok::Op(CmpOp::Ne),
                        offset: start,
                    });
                    i += 2;
                } else {
                    out.push(Lexeme {
                        tok: Tok::Bang,
                        offset: start,
                    });
                    i += 1;
                }
            }
            ':' => {
                if bytes.get(i + 1) == Some(&b'-') {
                    out.push(Lexeme {
                        tok: Tok::Arrow,
                        offset: start,
                    });
                    i += 2;
                } else {
                    return Err(QueryError::Parse {
                        offset: start,
                        detail: "expected ':-'".into(),
                    });
                }
            }
            '-' | '0'..='9' => {
                let mut j = i + 1;
                while j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                    j += 1;
                }
                let text = &input[i..j];
                let n: i64 = text.parse().map_err(|_| QueryError::Parse {
                    offset: start,
                    detail: format!("bad integer literal '{text}'"),
                })?;
                out.push(Lexeme {
                    tok: Tok::Int(n),
                    offset: start,
                });
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut j = i + 1;
                while j < bytes.len()
                    && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'_')
                {
                    j += 1;
                }
                out.push(Lexeme {
                    tok: Tok::Ident(input[i..j].to_string()),
                    offset: start,
                });
                i = j;
            }
            other => {
                return Err(QueryError::Parse {
                    offset: start,
                    detail: format!("unexpected character '{other}'"),
                });
            }
        }
    }
    Ok(out)
}

struct Parser<'a> {
    toks: Vec<Lexeme>,
    pos: usize,
    catalog: &'a Catalog,
    var_names: Vec<String>,
    anon_counter: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &str, catalog: &'a Catalog) -> Result<Self, QueryError> {
        Ok(Parser {
            toks: lex(input)?,
            pos: 0,
            catalog,
            var_names: Vec::new(),
            anon_counter: 0,
        })
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|l| &l.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|l| &l.tok)
    }

    fn offset(&self) -> usize {
        self.toks
            .get(self.pos)
            .map(|l| l.offset)
            .unwrap_or(usize::MAX)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|l| l.tok.clone());
        self.pos += 1;
        t
    }

    fn err(&self, detail: impl Into<String>) -> QueryError {
        QueryError::Parse {
            offset: self.offset(),
            detail: detail.into(),
        }
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<(), QueryError> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn expect_end(&mut self) -> Result<(), QueryError> {
        // A trailing period is allowed.
        if self.peek() == Some(&Tok::Dot) {
            self.pos += 1;
        }
        if self.pos == self.toks.len() {
            Ok(())
        } else {
            Err(self.err("trailing input after constraint"))
        }
    }

    fn var(&mut self, name: &str) -> Var {
        if name == "_" {
            self.anon_counter += 1;
            self.var_names.push(format!("_anon{}", self.anon_counter));
            return Var((self.var_names.len() - 1) as u32);
        }
        if let Some(i) = self.var_names.iter().position(|n| n == name) {
            Var(i as u32)
        } else {
            self.var_names.push(name.to_string());
            Var((self.var_names.len() - 1) as u32)
        }
    }

    fn constraint(&mut self) -> Result<DenialConstraint, QueryError> {
        if self.peek() == Some(&Tok::LBracket) {
            self.aggregate().map(DenialConstraint::Aggregate)
        } else {
            self.conjunctive().map(DenialConstraint::Conjunctive)
        }
    }

    /// `q() <- body`
    fn conjunctive(&mut self) -> Result<ConjunctiveQuery, QueryError> {
        match self.bump() {
            Some(Tok::Ident(_)) => {}
            _ => return Err(self.err("expected query head identifier")),
        }
        self.expect(&Tok::LParen, "'('")?;
        self.expect(&Tok::RParen, "')'")?;
        self.expect(&Tok::Arrow, "'<-'")?;
        let (positive, negated, comparisons) = self.body()?;
        Ok(ConjunctiveQuery {
            positive,
            negated,
            comparisons,
            var_names: std::mem::take(&mut self.var_names),
        })
    }

    /// `[q(func(x, …)) <- body] op c`
    fn aggregate(&mut self) -> Result<AggregateQuery, QueryError> {
        self.expect(&Tok::LBracket, "'['")?;
        match self.bump() {
            Some(Tok::Ident(_)) => {}
            _ => return Err(self.err("expected query head identifier")),
        }
        self.expect(&Tok::LParen, "'('")?;
        let func = match self.bump() {
            Some(Tok::Ident(name)) => match name.as_str() {
                "count" => AggFunc::Count,
                "cntd" => AggFunc::CountDistinct,
                "sum" => AggFunc::Sum,
                "max" => AggFunc::Max,
                "min" => AggFunc::Min,
                other => return Err(self.err(format!("unknown aggregate '{other}'"))),
            },
            _ => return Err(self.err("expected aggregate function")),
        };
        self.expect(&Tok::LParen, "'('")?;
        let mut args = Vec::new();
        if self.peek() != Some(&Tok::RParen) {
            loop {
                match self.bump() {
                    Some(Tok::Ident(name)) => args.push(self.var(&name)),
                    _ => return Err(self.err("expected aggregate argument variable")),
                }
                if self.peek() == Some(&Tok::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen, "')'")?;
        self.expect(&Tok::RParen, "')'")?;
        self.expect(&Tok::Arrow, "'<-'")?;
        let (positive, negated, comparisons) = self.body()?;
        self.expect(&Tok::RBracket, "']'")?;
        let op = match self.bump() {
            Some(Tok::Op(op)) => op,
            _ => return Err(self.err("expected comparison operator after ']'")),
        };
        let threshold = match self.bump() {
            Some(Tok::Int(n)) => Value::Int(n),
            Some(Tok::Str(s)) => Value::text(s),
            _ => return Err(self.err("expected constant threshold")),
        };
        Ok(AggregateQuery {
            body: ConjunctiveQuery {
                positive,
                negated,
                comparisons,
                var_names: std::mem::take(&mut self.var_names),
            },
            func,
            args,
            op,
            threshold,
        })
    }

    #[allow(clippy::type_complexity)]
    fn body(&mut self) -> Result<(Vec<Atom>, Vec<Atom>, Vec<Comparison>), QueryError> {
        let mut positive = Vec::new();
        let mut negated = Vec::new();
        let mut comparisons = Vec::new();
        loop {
            match self.peek() {
                Some(Tok::Bang) => {
                    self.pos += 1;
                    negated.push(self.atom()?);
                }
                Some(Tok::Ident(name))
                    if name == "not" && matches!(self.peek2(), Some(Tok::Ident(_))) =>
                {
                    self.pos += 1;
                    negated.push(self.atom()?);
                }
                Some(Tok::Ident(_)) if self.peek2() == Some(&Tok::LParen) => {
                    positive.push(self.atom()?);
                }
                _ => {
                    comparisons.push(self.comparison()?);
                }
            }
            if self.peek() == Some(&Tok::Comma) {
                self.pos += 1;
            } else {
                break;
            }
        }
        Ok((positive, negated, comparisons))
    }

    fn atom(&mut self) -> Result<Atom, QueryError> {
        let name = match self.bump() {
            Some(Tok::Ident(name)) => name,
            _ => return Err(self.err("expected relation name")),
        };
        let relation = self
            .catalog
            .resolve(&name)
            .ok_or(QueryError::UnknownRelation { relation: name })?;
        self.expect(&Tok::LParen, "'('")?;
        let mut terms = Vec::new();
        if self.peek() != Some(&Tok::RParen) {
            loop {
                terms.push(self.term()?);
                if self.peek() == Some(&Tok::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen, "')'")?;
        Ok(Atom { relation, terms })
    }

    fn term(&mut self) -> Result<Term, QueryError> {
        match self.bump() {
            Some(Tok::Ident(name)) => match name.as_str() {
                "true" => Ok(Term::Const(Value::Bool(true))),
                "false" => Ok(Term::Const(Value::Bool(false))),
                _ => Ok(Term::Var(self.var(&name))),
            },
            Some(Tok::Str(s)) => Ok(Term::Const(Value::text(s))),
            Some(Tok::Int(n)) => Ok(Term::Const(Value::Int(n))),
            _ => Err(self.err("expected term")),
        }
    }

    fn comparison(&mut self) -> Result<Comparison, QueryError> {
        let lhs = self.term()?;
        let op = match self.bump() {
            Some(Tok::Op(op)) => op,
            _ => return Err(self.err("expected comparison operator")),
        };
        let rhs = self.term()?;
        Ok(Comparison { lhs, op, rhs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::QueryBuilder;
    use bcdb_storage::{RelationSchema, Value, ValueType};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add(
            RelationSchema::new(
                "TxOut",
                [
                    ("txId", ValueType::Text),
                    ("ser", ValueType::Int),
                    ("pk", ValueType::Text),
                    ("amount", ValueType::Int),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        c.add(
            RelationSchema::new(
                "TxIn",
                [
                    ("prevTxId", ValueType::Text),
                    ("prevSer", ValueType::Int),
                    ("pk", ValueType::Text),
                    ("amount", ValueType::Int),
                    ("newTxId", ValueType::Text),
                    ("sig", ValueType::Text),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        c.add(RelationSchema::new("Trusted", [("pk", ValueType::Text)]).unwrap())
            .unwrap();
        c
    }

    #[test]
    fn parses_simple_constraint() {
        let cat = catalog();
        let dc = parse_denial_constraint("q() <- TxOut(ntx, s, 'U8Pk', a)", &cat).unwrap();
        let DenialConstraint::Conjunctive(q) = dc else {
            panic!("expected conjunctive")
        };
        assert_eq!(q.positive.len(), 1);
        assert_eq!(q.positive[0].terms[2], Term::Const(Value::text("U8Pk")));
        assert_eq!(q.var_count(), 3);
    }

    #[test]
    fn parses_paper_q1() {
        let cat = catalog();
        let input = "q() <- TxIn(pt1, ps1, 'AlicePK', 1, ntx1, 'AliceSig'), \
                     TxOut(ntx1, ns1, 'BobPK', 1), \
                     TxIn(pt2, ps2, 'AlicePK', 1, ntx2, 'AliceSig'), \
                     TxOut(ntx2, ns2, 'BobPK', 1), ntx1 != ntx2";
        let dc = parse_denial_constraint(input, &cat).unwrap();
        let q = dc.body();
        assert_eq!(q.positive.len(), 4);
        assert_eq!(q.comparisons.len(), 1);
        assert_eq!(q.comparisons[0].op, CmpOp::Ne);
    }

    #[test]
    fn escaped_text_literals_round_trip() {
        let cat = catalog();
        for pk in ["it's", "back\\slash", "p', pk != 'q", "\\'"] {
            let dc = QueryBuilder::new(&cat)
                .atom("Trusted", |a| a.constant(pk))
                .build_conjunctive()
                .map(DenialConstraint::Conjunctive)
                .unwrap();
            let text = dc.display(&cat).to_string();
            let back = parse_denial_constraint(&text, &cat).unwrap();
            assert_eq!(back.display(&cat).to_string(), text);
            assert_eq!(
                back.body().positive[0].terms[0],
                Term::Const(Value::text(pk))
            );
        }
        for bad in ["q() <- Trusted('a\\n')", "q() <- Trusted('a\\')"] {
            assert!(parse_denial_constraint(bad, &cat).is_err(), "{bad}");
        }
    }

    #[test]
    fn parses_negation_both_syntaxes() {
        let cat = catalog();
        for neg in ["!Trusted(pk)", "not Trusted(pk)"] {
            let input = format!("q() <- TxOut(ntx, s, pk, a), {neg}");
            let dc = parse_denial_constraint(&input, &cat).unwrap();
            let q = dc.body();
            assert_eq!(q.negated.len(), 1, "{neg}");
            assert_eq!(q.positive.len(), 1);
        }
    }

    #[test]
    fn parses_aggregate_paper_q3() {
        let cat = catalog();
        let input = "[q(sum(a)) <- TxIn(t, s, 'AlcPK', a, nt, 'AlcSig')] > 5";
        let dc = parse_denial_constraint(input, &cat).unwrap();
        let DenialConstraint::Aggregate(agg) = dc else {
            panic!("expected aggregate")
        };
        assert_eq!(agg.func, AggFunc::Sum);
        assert_eq!(agg.op, CmpOp::Gt);
        assert_eq!(agg.threshold, Value::Int(5));
        assert_eq!(agg.args.len(), 1);
    }

    #[test]
    fn parses_cntd_aggregate() {
        let cat = catalog();
        let input = "[q(cntd(ntx)) <- TxIn(pt, ps, 'AlcPK', a, ntx, 'AlcSig'), \
                     TxOut(ntx, s, 'BobPK', a2)] > 10";
        let dc = parse_denial_constraint(input, &cat).unwrap();
        let DenialConstraint::Aggregate(agg) = dc else {
            panic!("expected aggregate")
        };
        assert_eq!(agg.func, AggFunc::CountDistinct);
    }

    #[test]
    fn count_with_no_args() {
        let cat = catalog();
        let dc = parse_denial_constraint("[q(count()) <- TxOut(t, s, pk, a)] >= 3", &cat).unwrap();
        let DenialConstraint::Aggregate(agg) = dc else {
            panic!("expected aggregate")
        };
        assert_eq!(agg.func, AggFunc::Count);
        assert!(agg.args.is_empty());
        assert_eq!(agg.op, CmpOp::Ge);
    }

    #[test]
    fn anonymous_variables_are_fresh() {
        let cat = catalog();
        let dc = parse_denial_constraint("q() <- TxOut(_, _, 'X', _)", &cat).unwrap();
        let q = dc.body();
        assert_eq!(q.var_count(), 3);
        let vars: Vec<Var> = q.positive[0].variable_positions().map(|(_, v)| v).collect();
        assert_eq!(vars.len(), 3);
        assert_ne!(vars[0], vars[1]);
    }

    #[test]
    fn trailing_dot_and_colon_dash() {
        let cat = catalog();
        assert!(parse_denial_constraint("q() :- TxOut(a, b, c, d).", &cat).is_ok());
    }

    #[test]
    fn errors_report_offsets() {
        let cat = catalog();
        let err = parse_denial_constraint("q() <- Nope(x)", &cat).unwrap_err();
        assert!(matches!(err, QueryError::UnknownRelation { .. }));
        let err = parse_denial_constraint("q() <- TxOut(a, b c, d)", &cat).unwrap_err();
        assert!(matches!(err, QueryError::Parse { .. }));
        let err = parse_denial_constraint("q() <- TxOut(a, b, 'unterminated", &cat).unwrap_err();
        assert!(matches!(err, QueryError::Parse { .. }));
        let err = parse_denial_constraint("q() <- TxOut(a, b, c, d) junk()", &cat).unwrap_err();
        assert!(matches!(err, QueryError::Parse { .. }));
    }

    #[test]
    fn validation_runs_after_parse() {
        let cat = catalog();
        // Arity error caught by validation.
        let err = parse_denial_constraint("q() <- TxOut(a, b)", &cat).unwrap_err();
        assert!(matches!(err, QueryError::ArityMismatch { .. }));
        // Unsafe comparison-only variable.
        let err = parse_denial_constraint("q() <- TxOut(a, b, c, d), z > 3", &cat).unwrap_err();
        assert!(matches!(err, QueryError::UnsafeVariable { .. }));
    }

    #[test]
    fn negative_integer_literals() {
        let cat = catalog();
        let dc = parse_denial_constraint("q() <- TxOut(t, s, pk, a), a > -5", &cat).unwrap();
        let q = dc.body();
        assert_eq!(q.comparisons[0].rhs, Term::Const(Value::Int(-5)));
    }

    #[test]
    fn roundtrip_display_reparse() {
        let cat = catalog();
        let input = "q() <- TxOut(ntx, s, 'U8Pk', a), TxIn(ntx, s, pk, a, n2, sg), a > 0";
        let dc = parse_denial_constraint(input, &cat).unwrap();
        let DenialConstraint::Conjunctive(q) = &dc else {
            panic!()
        };
        let rendered = q.display(&cat).to_string();
        let dc2 = parse_denial_constraint(&rendered, &cat).unwrap();
        assert_eq!(dc, dc2);
    }
}
