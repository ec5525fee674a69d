//! Recursive-descent parser for the concrete Copland syntax.
//!
//! Grammar (see [`crate::lexer`] for tokens):
//!
//! ```text
//! request  := '*' IDENT params? ':' phrase
//! params   := '<' IDENT (',' IDENT)* '>'
//! phrase   := branch
//! branch   := seq ( BROP seq )*            // left-assoc, loosest
//! seq      := atom ( '->' atom )*          // left-assoc
//! atom     := '@' IDENT '[' phrase ']'
//!           | '(' phrase ')'
//!           | '!' | '#' | '_' | '{}'
//!           | IDENT '(' args? ')'          // service with args
//!           | IDENT IDENT IDENT            // measurement m P t
//!           | IDENT                        // service, no args
//! args     := IDENT (',' IDENT)*
//! ```
//!
//! Disambiguation of the three `IDENT` forms is by lookahead: a `(`
//! directly after the identifier makes it a service; two following
//! identifiers make it a measurement; otherwise it is an argument-less
//! service.
//!
//! The parser recurses once per `@place [` and once per `(`, so their
//! nesting is bounded by [`MAX_NESTING`]: deeper text is a parse error,
//! not a stack overflow. Each `->` and branch connective counts toward
//! the same bound. A chain is parsed by a loop, but it is left-associated,
//! so its first operand lies one node deeper per connective, and the
//! evidence of a chain of measurements nests once per arrow. A connective
//! whose node would put the phrase more than [`MAX_NESTING`] levels deep,
//! counting the `@place [` and `(` open around it, is a parse error at
//! that connective. The phrase tree the parser returns is thus never
//! deeper than the bound, and neither is any walk over it.

use crate::ast::{Asp, Phrase, Place, Request, Sp};
use crate::lexer::{lex, LexError, Spanned, Token};
use std::fmt;

/// Deepest nesting of `@place [ … ]`, `( … )` and connectives that
/// [`parse_request`] and [`parse_phrase`] accept; the next level is an
/// error at its offset.
pub const MAX_NESTING: usize = 256;

/// Parse error with source offset.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// Byte offset (or source length for unexpected end of input).
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            offset: e.offset,
            message: e.message,
        }
    }
}

/// Parse a full request: `*rp<params> : phrase`.
pub fn parse_request(src: &str) -> Result<Request, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        toks: &tokens,
        pos: 0,
        src_len: src.len(),
        depth: 0,
    };
    p.expect(&Token::Star)?;
    let rp = p.ident()?;
    let mut params = Vec::new();
    if p.eat(&Token::LAngle) {
        loop {
            params.push(p.ident()?);
            if !p.eat(&Token::Comma) {
                break;
            }
        }
        p.expect(&Token::RAngle)?;
    }
    p.expect(&Token::Colon)?;
    let (phrase, _) = p.phrase()?;
    p.expect_end()?;
    Ok(Request {
        rp: Place::new(rp),
        params,
        phrase,
    })
}

/// Parse a bare phrase (no `*rp :` head).
pub fn parse_phrase(src: &str) -> Result<Phrase, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        toks: &tokens,
        pos: 0,
        src_len: src.len(),
        depth: 0,
    };
    let (phrase, _) = p.phrase()?;
    p.expect_end()?;
    Ok(phrase)
}

struct Parser<'a> {
    toks: &'a [Spanned],
    pos: usize,
    src_len: usize,
    /// Open `@place [` and `(` levels around the current token.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn peek_at(&self, n: usize) -> Option<&Token> {
        self.toks.get(self.pos + n).map(|s| &s.tok)
    }

    fn offset(&self) -> usize {
        self.toks
            .get(self.pos)
            .map(|s| s.offset)
            .unwrap_or(self.src_len)
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{t}`, found {}", self.describe_current())))
        }
    }

    fn expect_end(&mut self) -> Result<(), ParseError> {
        if self.pos == self.toks.len() {
            Ok(())
        } else {
            Err(self.err(format!("trailing input: {}", self.describe_current())))
        }
    }

    fn describe_current(&self) -> String {
        match self.peek() {
            Some(t) => format!("`{t}`"),
            None => "end of input".to_string(),
        }
    }

    fn err(&self, message: String) -> ParseError {
        ParseError {
            offset: self.offset(),
            message,
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some(Token::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.err(format!(
                "expected identifier, found {}",
                self.describe_current()
            ))),
        }
    }

    /// Run `inner` one nesting level deeper; the current token opens the
    /// level and is where a too-deep level is reported.
    fn nested<T>(
        &mut self,
        inner: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let r = inner(self);
        self.depth -= 1;
        r
    }

    /// The levels of a connective node over operands `l` and `r` levels
    /// deep, or an error at the connective, at byte `at`, when it puts
    /// the phrase more than [`MAX_NESTING`] levels deep.
    fn connective(&self, at: usize, l: usize, r: usize) -> Result<usize, ParseError> {
        let levels = l.max(r) + 1;
        if self.depth + levels > MAX_NESTING {
            return Err(ParseError {
                offset: at,
                message: format!("nesting deeper than {MAX_NESTING} levels"),
            });
        }
        Ok(levels)
    }

    /// branch := seq ( BROP seq )*
    ///
    /// Each parse function returns its phrase and the number of `@place`
    /// and connective nodes on the phrase's deepest path.
    fn phrase(&mut self) -> Result<(Phrase, usize), ParseError> {
        let (mut left, mut levels) = self.seq()?;
        loop {
            let (l, r, node): (_, _, fn(_, _, _, _) -> Phrase) = match self.peek() {
                Some(&Token::BrSeq(l, r)) => (l, r, Phrase::BrSeq),
                Some(&Token::BrPar(l, r)) => (l, r, Phrase::BrPar),
                _ => break,
            };
            let at = self.offset();
            self.pos += 1;
            let (right, r_levels) = self.seq()?;
            levels = self.connective(at, levels, r_levels)?;
            left = node(sp(l), sp(r), Box::new(left), Box::new(right));
        }
        Ok((left, levels))
    }

    /// seq := atom ( '->' atom )*
    fn seq(&mut self) -> Result<(Phrase, usize), ParseError> {
        let (mut left, mut levels) = self.atom()?;
        while self.peek() == Some(&Token::Arrow) {
            let at = self.offset();
            self.pos += 1;
            let (right, r_levels) = self.atom()?;
            levels = self.connective(at, levels, r_levels)?;
            left = Phrase::Arrow(Box::new(left), Box::new(right));
        }
        Ok((left, levels))
    }

    fn atom(&mut self) -> Result<(Phrase, usize), ParseError> {
        match self.peek() {
            Some(Token::At) => self.nested(|s| {
                s.pos += 1;
                let place = s.ident()?;
                s.expect(&Token::LBracket)?;
                let (inner, levels) = s.phrase()?;
                s.expect(&Token::RBracket)?;
                Ok((Phrase::At(Place::new(place), Box::new(inner)), levels + 1))
            }),
            Some(Token::LParen) => self.nested(|s| {
                s.pos += 1;
                let inner = s.phrase()?;
                s.expect(&Token::RParen)?;
                Ok(inner)
            }),
            _ => Ok((Phrase::Asp(self.asp()?), 0)),
        }
    }

    /// A leaf: `!`, `#`, `_`, `{}`, a service or a measurement.
    fn asp(&mut self) -> Result<Asp, ParseError> {
        match self.peek().cloned() {
            Some(Token::Bang) => {
                self.pos += 1;
                Ok(Asp::Sign)
            }
            Some(Token::Hash) => {
                self.pos += 1;
                Ok(Asp::Hash)
            }
            Some(Token::Underscore) => {
                self.pos += 1;
                Ok(Asp::Copy)
            }
            Some(Token::Null) => {
                self.pos += 1;
                Ok(Asp::Null)
            }
            Some(Token::Ident(first)) => {
                self.pos += 1;
                // Service with explicit argument list?
                if self.eat(&Token::LParen) {
                    let mut args = Vec::new();
                    if self.peek() != Some(&Token::RParen) {
                        loop {
                            args.push(self.ident()?);
                            if !self.eat(&Token::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&Token::RParen)?;
                    return Ok(Asp::Service { name: first, args });
                }
                // Measurement `m P t`: exactly two more identifiers follow.
                if let (Some(Token::Ident(_)), Some(Token::Ident(_))) =
                    (self.peek(), self.peek_at(1))
                {
                    let tplace = self.ident()?;
                    let target = self.ident()?;
                    return Ok(Asp::Measure {
                        measurer: first,
                        target_place: Place::new(tplace),
                        target,
                    });
                }
                // Argument-less service.
                Ok(Asp::Service {
                    name: first,
                    args: Vec::new(),
                })
            }
            _ => Err(self.err(format!(
                "expected a phrase, found {}",
                self.describe_current()
            ))),
        }
    }
}

fn sp(pass: bool) -> Sp {
    if pass {
        Sp::Pass
    } else {
        Sp::Drop
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::examples;

    #[test]
    fn parse_eq1() {
        let src = "*bank : @ks [av us bmon] +~+ @us [bmon us exts]";
        assert_eq!(parse_request(src).unwrap(), examples::bank_eq1());
    }

    #[test]
    fn parse_eq2() {
        let src = "*bank : @ks [av us bmon -> !] -<- @us [bmon us exts -> !]";
        assert_eq!(parse_request(src).unwrap(), examples::bank_eq2());
    }

    #[test]
    fn parse_out_of_band() {
        let src = "*RP1<n> : @Switch [(attest(Hardware) -~- attest(Program)) -> # -> !] \
                   +<+ @Appraiser [appraise -> certify(n) -> ! -> store(n)]";
        assert_eq!(parse_request(src).unwrap(), examples::pera_out_of_band());
    }

    #[test]
    fn parse_in_band() {
        let src = "*RP1 : @Switch [(attest(Hardware) -~- attest(Program)) -> # -> !] \
                   -> @RP2 [@Appraiser [appraise -> certify() -> !]]";
        assert_eq!(parse_request(src).unwrap(), examples::pera_in_band());
    }

    #[test]
    fn parse_retrieve() {
        let src = "*RP2<n> : @Appraiser [retrieve(n)]";
        assert_eq!(parse_request(src).unwrap(), examples::pera_retrieve());
    }

    #[test]
    fn arrow_is_left_assoc() {
        let p = parse_phrase("! -> # -> _").unwrap();
        let expected = Phrase::Asp(Asp::Sign)
            .then(Phrase::Asp(Asp::Hash))
            .then(Phrase::Asp(Asp::Copy));
        assert_eq!(p, expected);
    }

    #[test]
    fn branch_binds_looser_than_arrow() {
        let p = parse_phrase("! -> # +<+ _").unwrap();
        let expected = Phrase::Asp(Asp::Sign).then(Phrase::Asp(Asp::Hash)).br_seq(
            Sp::Pass,
            Sp::Pass,
            Phrase::Asp(Asp::Copy),
        );
        assert_eq!(p, expected);
    }

    #[test]
    fn parens_override_precedence() {
        let p = parse_phrase("! -> (# +<+ _)").unwrap();
        let expected = Phrase::Asp(Asp::Sign).then(Phrase::Asp(Asp::Hash).br_seq(
            Sp::Pass,
            Sp::Pass,
            Phrase::Asp(Asp::Copy),
        ));
        assert_eq!(p, expected);
    }

    #[test]
    fn measurement_vs_service_disambiguation() {
        // Three identifiers = measurement.
        assert_eq!(
            parse_phrase("av us bmon").unwrap(),
            Phrase::Asp(Asp::measure("av", "us", "bmon"))
        );
        // One identifier = no-arg service.
        assert_eq!(
            parse_phrase("appraise").unwrap(),
            Phrase::Asp(Asp::service("appraise", vec![]))
        );
        // Identifier + parens = service with args.
        assert_eq!(
            parse_phrase("store(n)").unwrap(),
            Phrase::Asp(Asp::service("store", vec!["n"]))
        );
    }

    #[test]
    fn two_identifiers_is_an_error() {
        // `a b` is neither a measurement (needs 3) nor two atoms
        // (atoms must be joined by an operator).
        let err = parse_phrase("a b").unwrap_err();
        assert!(err.message.contains("trailing input"), "{err}");
    }

    #[test]
    fn error_on_unclosed_bracket() {
        let err = parse_phrase("@p [!").unwrap_err();
        assert!(err.message.contains("expected `]`"), "{err}");
    }

    #[test]
    fn error_on_empty_input() {
        let err = parse_phrase("").unwrap_err();
        assert!(err.message.contains("expected a phrase"), "{err}");
    }

    #[test]
    fn error_offsets_point_into_source() {
        let src = "*bank @ks";
        let err = parse_request(src).unwrap_err();
        assert!(err.offset <= src.len());
        assert!(err.message.contains("expected `:`"), "{err}");
    }

    #[test]
    fn params_parse() {
        let req = parse_request("*bank<n, X> : !").unwrap();
        assert_eq!(req.params, vec!["n".to_string(), "X".to_string()]);
    }

    fn at_places(depth: usize, inner: &str) -> String {
        format!("{}{inner}{}", "@p1 [".repeat(depth), "]".repeat(depth))
    }

    fn parens(depth: usize, inner: &str) -> String {
        format!("{}{inner}{}", "(".repeat(depth), ")".repeat(depth))
    }

    #[test]
    fn nesting_is_bounded_at_the_opening_token() {
        let head = "*bank: ";
        let err = parse_request(&format!("{head}{}", at_places(MAX_NESTING + 1, "!"))).unwrap_err();
        assert_eq!(err.offset, head.len() + 5 * MAX_NESTING);
        assert!(err.message.contains("nesting deeper than 256"), "{err}");
        let err = parse_phrase(&parens(MAX_NESTING + 1, "@p1 [attest p1 sys]")).unwrap_err();
        assert_eq!(err.offset, MAX_NESTING);
        // Places and parentheses share one count.
        let mixed = parens(MAX_NESTING / 2, &at_places(MAX_NESTING / 2 + 1, "!"));
        assert_eq!(
            parse_phrase(&mixed).unwrap_err().offset,
            6 * MAX_NESTING / 2
        );
    }

    #[test]
    fn nesting_up_to_the_bound_parses() {
        let p = parse_phrase(&at_places(MAX_NESTING, "attest p1 sys")).unwrap();
        assert_eq!(p.depth(), MAX_NESTING + 1);
        // The clause's own `@p1 [` is the last of the bound's levels.
        let p = parse_phrase(&parens(MAX_NESTING - 1, "@p1 [attest p1 sys]")).unwrap();
        assert_eq!(p.places(), vec![Place::new("p1")]);
    }

    /// `n` copies of `_` joined by `op`.
    fn chain(n: usize, op: &str) -> String {
        vec!["_"; n].join(&format!(" {op} "))
    }

    #[test]
    fn chains_count_toward_the_bound() {
        for op in ["->", "+<+", "-~-"] {
            let p = parse_phrase(&chain(MAX_NESTING + 1, op)).unwrap();
            assert_eq!(p.depth(), MAX_NESTING + 1, "{op}");
            // The connective past the bound is the error.
            let err = parse_phrase(&chain(MAX_NESTING + 2, op)).unwrap_err();
            assert_eq!(err.offset, 2 + (op.len() + 3) * MAX_NESTING, "{op}");
            assert!(err.message.contains("nesting deeper than 256"), "{err}");
        }
        // Places open around a chain count, and so does a chain inside the
        // first operand of another: both nest the phrase.
        let src = at_places(1, &chain(MAX_NESTING, "->"));
        assert_eq!(parse_phrase(&src).unwrap().depth(), MAX_NESTING + 1);
        let src = at_places(1, &chain(MAX_NESTING + 1, "->"));
        assert_eq!(
            parse_phrase(&src).unwrap_err().offset,
            5 + 2 + 5 * (MAX_NESTING - 1)
        );
        let inner = format!("{} -> _", at_places(1, &chain(MAX_NESTING, "->")));
        assert_eq!(
            parse_phrase(&inner).unwrap_err().offset,
            inner.len() - "-> _".len()
        );
    }

    #[test]
    fn nested_places() {
        let p = parse_phrase("@a [@b [@c [!]]]").unwrap();
        assert_eq!(p.depth(), 4);
        assert_eq!(
            p.places(),
            vec![Place::new("a"), Place::new("b"), Place::new("c")]
        );
    }
}
