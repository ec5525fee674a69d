//! Parser for a concrete NetKAT syntax.
//!
//! ```text
//! policy := seq ( '+' seq )*                  union, loosest
//! seq    := star ( ';' star )*
//! star   := atom '*'*
//! atom   := 'filter' pred | field ':=' num | 'dup' | 'id' | 'drop'
//!         | '(' policy ')'
//! pred   := por
//! por    := pand ( '|' pand )*
//! pand   := pnot ( '&' pnot )*
//! pnot   := '!' pnot | 'true' | 'false' | field '=' num | '(' pred ')'
//! field  := 'sw' | 'pt' | 'src' | 'dst' | 'proto' | 'tag'
//! ```
//!
//! The parser recurses once per `(` and once per `!`, so their nesting is
//! bounded by [`MAX_NESTING`]: deeper text is a parse error, not a stack
//! overflow. A `+`, `;`, `|` or `&` chain is parsed by a loop into one
//! node whatever its length, and a run of `*` into one star. The depth of
//! the tree the parser returns, which bounds the recursion of every walk
//! over it, thus grows with the nesting of the text, a few levels per
//! parenthesis, and not with the length of its chains.

use crate::ast::{Field, Policy, Pred};
use std::fmt;
use std::iter::Peekable;
use std::str::CharIndices;

/// Deepest nesting of parentheses and `!` that [`parse_policy`] and
/// [`parse_pred`] accept; the next level is an error at its offset.
pub const MAX_NESTING: usize = 256;

/// Parse error with byte offset.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NkParseError {
    /// Byte offset of the problem.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for NkParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "netkat parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for NkParseError {}

#[derive(Clone, PartialEq, Eq, Debug)]
enum Tok {
    Plus,
    Semi,
    Star,
    Bang,
    Amp,
    Pipe,
    LParen,
    RParen,
    Assign, // :=
    Eq,     // =
    Word(String),
    Num(u32),
}

fn lex(src: &str) -> Result<Vec<(Tok, usize)>, NkParseError> {
    let mut out = Vec::new();
    let mut it: Peekable<CharIndices> = src.char_indices().peekable();
    while let Some(&(i, c)) = it.peek() {
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                it.next();
            }
            '+' => {
                out.push((Tok::Plus, i));
                it.next();
            }
            ';' => {
                out.push((Tok::Semi, i));
                it.next();
            }
            '*' => {
                out.push((Tok::Star, i));
                it.next();
            }
            '!' => {
                out.push((Tok::Bang, i));
                it.next();
            }
            '&' => {
                out.push((Tok::Amp, i));
                it.next();
            }
            '|' => {
                out.push((Tok::Pipe, i));
                it.next();
            }
            '(' => {
                out.push((Tok::LParen, i));
                it.next();
            }
            ')' => {
                out.push((Tok::RParen, i));
                it.next();
            }
            ':' => {
                it.next();
                match it.peek() {
                    Some(&(_, '=')) => {
                        it.next();
                        out.push((Tok::Assign, i));
                    }
                    _ => {
                        return Err(NkParseError {
                            offset: i,
                            message: "expected `:=`".to_string(),
                        })
                    }
                }
            }
            '=' => {
                out.push((Tok::Eq, i));
                it.next();
            }
            c if c.is_ascii_digit() => {
                let mut n: u32 = 0;
                while let Some(&(_, d)) = it.peek() {
                    if let Some(v) = d.to_digit(10) {
                        n = n.checked_mul(10).and_then(|x| x.checked_add(v)).ok_or(
                            NkParseError {
                                offset: i,
                                message: "numeric literal overflows u32".to_string(),
                            },
                        )?;
                        it.next();
                    } else {
                        break;
                    }
                }
                out.push((Tok::Num(n), i));
            }
            c if c.is_alphabetic() => {
                let mut w = String::new();
                while let Some(&(_, d)) = it.peek() {
                    if d.is_alphanumeric() || d == '_' {
                        w.push(d);
                        it.next();
                    } else {
                        break;
                    }
                }
                out.push((Tok::Word(w), i));
            }
            other => {
                return Err(NkParseError {
                    offset: i,
                    message: format!("unexpected character `{other}`"),
                })
            }
        }
    }
    Ok(out)
}

struct P<'a> {
    toks: &'a [(Tok, usize)],
    pos: usize,
    len: usize,
    /// Open `(` and `!` levels around the current token.
    depth: usize,
}

impl<'a> P<'a> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.0)
    }
    fn offset(&self) -> usize {
        self.toks.get(self.pos).map(|t| t.1).unwrap_or(self.len)
    }
    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }
    fn err(&self, m: impl Into<String>) -> NkParseError {
        NkParseError {
            offset: self.offset(),
            message: m.into(),
        }
    }
    fn expect(&mut self, t: &Tok, what: &str) -> Result<(), NkParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    /// Run `inner` one nesting level deeper; the current token opens the
    /// level and is where a too-deep level is reported.
    fn nested<T>(
        &mut self,
        inner: impl FnOnce(&mut Self) -> Result<T, NkParseError>,
    ) -> Result<T, NkParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let r = inner(self);
        self.depth -= 1;
        r
    }

    fn policy(&mut self) -> Result<Policy, NkParseError> {
        let mut left = self.pseq()?;
        while self.eat(&Tok::Plus) {
            let right = self.pseq()?;
            left = left.union(right);
        }
        Ok(left)
    }

    fn pseq(&mut self) -> Result<Policy, NkParseError> {
        let mut left = self.pstar()?;
        while self.eat(&Tok::Semi) {
            let right = self.pstar()?;
            left = left.seq(right);
        }
        Ok(left)
    }

    fn pstar(&mut self) -> Result<Policy, NkParseError> {
        let mut inner = self.patom()?;
        while self.eat(&Tok::Star) {
            inner = inner.star();
        }
        Ok(inner)
    }

    fn patom(&mut self) -> Result<Policy, NkParseError> {
        match self.peek().cloned() {
            Some(Tok::LParen) => self.nested(|s| {
                s.pos += 1;
                let p = s.policy()?;
                s.expect(&Tok::RParen, "`)`")?;
                Ok(p)
            }),
            Some(Tok::Word(w)) => match w.as_str() {
                "filter" => {
                    self.pos += 1;
                    Ok(Policy::Filter(self.pred()?))
                }
                "dup" => {
                    self.pos += 1;
                    Ok(Policy::Dup)
                }
                "id" => {
                    self.pos += 1;
                    Ok(Policy::id())
                }
                "drop" => {
                    self.pos += 1;
                    Ok(Policy::drop())
                }
                name => {
                    let Some(field) = Field::from_name(name) else {
                        return Err(self.err(format!("unknown field or keyword `{name}`")));
                    };
                    self.pos += 1;
                    self.expect(&Tok::Assign, "`:=`")?;
                    match self.peek().cloned() {
                        Some(Tok::Num(n)) => {
                            self.pos += 1;
                            Ok(Policy::assign(field, n))
                        }
                        _ => Err(self.err("expected numeric value after `:=`")),
                    }
                }
            },
            _ => Err(self.err("expected a policy")),
        }
    }

    fn pred(&mut self) -> Result<Pred, NkParseError> {
        let mut left = self.pand()?;
        while self.eat(&Tok::Pipe) {
            let right = self.pand()?;
            left = left.or(right);
        }
        Ok(left)
    }

    fn pand(&mut self) -> Result<Pred, NkParseError> {
        let mut left = self.pnot()?;
        while self.eat(&Tok::Amp) {
            let right = self.pnot()?;
            left = left.and(right);
        }
        Ok(left)
    }

    fn pnot(&mut self) -> Result<Pred, NkParseError> {
        match self.peek().cloned() {
            Some(Tok::Bang) => self.nested(|s| {
                s.pos += 1;
                Ok(s.pnot()?.not())
            }),
            Some(Tok::LParen) => self.nested(|s| {
                s.pos += 1;
                let p = s.pred()?;
                s.expect(&Tok::RParen, "`)`")?;
                Ok(p)
            }),
            Some(Tok::Word(w)) => match w.as_str() {
                "true" => {
                    self.pos += 1;
                    Ok(Pred::True)
                }
                "false" => {
                    self.pos += 1;
                    Ok(Pred::False)
                }
                name => {
                    let Some(field) = Field::from_name(name) else {
                        return Err(self.err(format!("unknown field `{name}`")));
                    };
                    self.pos += 1;
                    self.expect(&Tok::Eq, "`=`")?;
                    match self.peek().cloned() {
                        Some(Tok::Num(n)) => {
                            self.pos += 1;
                            Ok(Pred::Test(field, n))
                        }
                        _ => Err(self.err("expected numeric value after `=`")),
                    }
                }
            },
            _ => Err(self.err("expected a predicate")),
        }
    }
}

/// Parse a NetKAT policy.
pub fn parse_policy(src: &str) -> Result<Policy, NkParseError> {
    let toks = lex(src)?;
    let mut p = P {
        toks: &toks,
        pos: 0,
        len: src.len(),
        depth: 0,
    };
    let pol = p.policy()?;
    if p.pos != toks.len() {
        return Err(p.err("trailing input"));
    }
    Ok(pol)
}

/// Parse a NetKAT predicate.
pub fn parse_pred(src: &str) -> Result<Pred, NkParseError> {
    let toks = lex(src)?;
    let mut p = P {
        toks: &toks,
        pos: 0,
        len: src.len(),
        depth: 0,
    };
    let pred = p.pred()?;
    if p.pos != toks.len() {
        return Err(p.err("trailing input"));
    }
    Ok(pred)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equiv::equivalent;

    #[test]
    fn parse_basic_forms() {
        assert_eq!(parse_policy("id").unwrap(), Policy::id());
        assert_eq!(parse_policy("drop").unwrap(), Policy::drop());
        assert_eq!(parse_policy("dup").unwrap(), Policy::Dup);
        assert_eq!(
            parse_policy("pt := 2").unwrap(),
            Policy::assign(Field::Port, 2)
        );
        assert_eq!(
            parse_policy("filter sw = 1").unwrap(),
            Policy::filter(Pred::test(Field::Switch, 1))
        );
    }

    #[test]
    fn precedence_union_loosest() {
        let p = parse_policy("filter sw = 1 ; pt := 2 + dup").unwrap();
        // (filter;mod) + dup
        let expected = Policy::filter(Pred::test(Field::Switch, 1))
            .seq(Policy::assign(Field::Port, 2))
            .union(Policy::Dup);
        assert_eq!(p, expected);
    }

    #[test]
    fn star_binds_tightest() {
        let p = parse_policy("pt := 1 ; dup*").unwrap();
        let expected = Policy::assign(Field::Port, 1).seq(Policy::Dup.star());
        assert_eq!(p, expected);
    }

    #[test]
    fn chains_parse_into_one_node() {
        let port = |v| Policy::assign(Field::Port, v);
        let p = parse_policy("pt := 1 + pt := 2 + pt := 3").unwrap();
        assert_eq!(p, Policy::Union(vec![port(1), port(2), port(3)]));
        assert_eq!(parse_policy("pt := 1 + (pt := 2 + pt := 3)").unwrap(), p);
        assert_eq!(
            parse_policy("(pt := 1 ; pt := 2) ; pt := 3").unwrap(),
            Policy::Seq(vec![port(1), port(2), port(3)])
        );
        let test = |v| Pred::test(Field::Dst, v);
        assert_eq!(
            parse_pred("dst = 1 | (dst = 2 | dst = 3)").unwrap(),
            Pred::Or(vec![test(1), test(2), test(3)])
        );
        assert_eq!(
            parse_pred("dst = 1 & dst = 2 & dst = 3").unwrap(),
            Pred::And(vec![test(1), test(2), test(3)])
        );
        // A run of stars is one star: `(p*)* ≡ p*`.
        assert_eq!(parse_policy("id***").unwrap(), Policy::id().star());
    }

    #[test]
    fn pred_precedence() {
        let p = parse_pred("sw = 1 & pt = 2 | !(dst = 3)").unwrap();
        let expected = Pred::test(Field::Switch, 1)
            .and(Pred::test(Field::Port, 2))
            .or(Pred::test(Field::Dst, 3).not());
        assert_eq!(p, expected);
    }

    #[test]
    fn display_round_trips_semantically() {
        let cases = [
            "filter sw = 1 ; pt := 2",
            "(pt := 1 + pt := 2) ; filter pt = 1",
            "(filter sw = 1 ; sw := 2)*",
            "filter !(src = 4 & dst = 5)",
        ];
        for src in cases {
            let p = parse_policy(src).unwrap();
            let q = parse_policy(&p.to_string()).unwrap();
            assert!(equivalent(&p, &q), "{src}");
        }
    }

    #[test]
    fn errors() {
        assert!(parse_policy("filter bogus = 1").is_err());
        assert!(parse_policy("pt := ").is_err());
        assert!(parse_policy("pt : 2").is_err());
        assert!(parse_policy("id extra").is_err());
        assert!(parse_pred("sw = 99999999999").is_err());
        assert!(parse_policy("@").is_err());
    }

    #[test]
    fn error_offsets() {
        let err = parse_policy("id ; $").unwrap_err();
        assert_eq!(err.offset, 5);
    }

    fn parens(depth: usize, inner: &str) -> String {
        format!("{}{inner}{}", "(".repeat(depth), ")".repeat(depth))
    }

    #[test]
    fn nesting_is_bounded_at_the_opening_token() {
        let err = parse_policy(&parens(MAX_NESTING + 1, "id")).unwrap_err();
        assert_eq!(err.offset, MAX_NESTING);
        assert!(err.message.contains("nesting deeper than 256"), "{err}");
        // Predicate parentheses and negations share the policy's count.
        let src = format!("(filter {})", parens(MAX_NESTING, "sw = 1"));
        assert_eq!(parse_policy(&src).unwrap_err().offset, 8 + MAX_NESTING - 1);
        let bangs = format!("{}sw = 1", "!".repeat(MAX_NESTING + 1));
        assert_eq!(parse_pred(&bangs).unwrap_err().offset, MAX_NESTING);
    }

    #[test]
    fn nesting_up_to_the_bound_parses() {
        assert_eq!(
            parse_policy(&parens(MAX_NESTING, "id")).unwrap(),
            Policy::id()
        );
        let src = format!("filter {}", parens(MAX_NESTING, "sw = 1"));
        assert_eq!(
            parse_policy(&src).unwrap(),
            Policy::filter(Pred::test(Field::Switch, 1))
        );
        let bangs = format!("{}sw = 1", "!".repeat(MAX_NESTING));
        let mut expect = Pred::test(Field::Switch, 1);
        for _ in 0..MAX_NESTING {
            expect = expect.not();
        }
        assert_eq!(parse_pred(&bangs).unwrap(), expect);
    }
}
