//! Parser for the concrete network-aware Copland syntax.
//!
//! ```text
//! policy  := '*' IDENT params? ':' ('forall' idents ':')? hexpr
//! params  := '<' IDENT (',' IDENT)* '>'
//! hexpr   := hseg ( '*=>' hseg )*            // path star, loosest
//! hseg    := hatom ( CHAIN hatom )*          // left-assoc
//! hatom   := '@' IDENT '[' body ']' | '(' hexpr ')'
//! CHAIN   := [+-] '+' '>' | [+-] '-' '>'     // e.g. -+>  ++>  -->
//! body    := ( guard '|>' )? copland-phrase  // raw, balanced brackets
//! guard   := 'K' | 'runs' '(' IDENT ')' | IDENT
//! ```
//!
//! Clause bodies are plain Copland and are delegated to
//! [`pda_copland::parser::parse_phrase`]; the guard (if any) is split
//! off at the first depth-0 `|>`.
//!
//! The parser recurses once per `(`, so parenthesis nesting is bounded by
//! [`MAX_NESTING`]: deeper text is a parse error, not a stack overflow.
//! Clause bodies carry the Copland parser's own bound.

use crate::ast::{Clause, Guard, HExpr, HybridPolicy, PlaceRef};
use pda_copland::ast::{Place, Sp};
use pda_copland::parser::parse_phrase;
use std::fmt;

/// Deepest parenthesis nesting [`parse_hybrid`] accepts; the next level
/// is an error at its offset.
pub const MAX_NESTING: usize = 256;

/// Parse error for hybrid policies.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HParseError {
    /// Byte offset into the source.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for HParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hybrid parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for HParseError {}

struct Scanner<'a> {
    src: &'a str,
    pos: usize,
    /// Open `(` levels around the current position.
    depth: usize,
}

impl<'a> Scanner<'a> {
    fn skip_ws(&mut self) {
        let bytes = self.src.as_bytes();
        // ASCII only: read as a `char`, a UTF-8 continuation byte such
        // as 0x85 or 0xA0 would pass for whitespace.
        while self.pos < bytes.len()
            && bytes[self.pos].is_ascii()
            && (bytes[self.pos] as char).is_whitespace()
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.src[self.pos..].chars().next()
    }

    fn starts_with(&mut self, s: &str) -> bool {
        self.skip_ws();
        self.src[self.pos..].starts_with(s)
    }

    fn eat_str(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn err(&self, message: impl Into<String>) -> HParseError {
        HParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn ident(&mut self) -> Result<String, HParseError> {
        self.skip_ws();
        let start = self.pos;
        let bytes = self.src.as_bytes();
        while self.pos < bytes.len()
            && (bytes[self.pos].is_ascii_alphanumeric() || b"_.".contains(&bytes[self.pos]))
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected identifier"));
        }
        Ok(self.src[start..self.pos].to_string())
    }

    /// Capture a balanced `[ … ]` body, returning the inner text.
    fn bracket_body(&mut self) -> Result<&'a str, HParseError> {
        self.skip_ws();
        if !self.eat_str("[") {
            return Err(self.err("expected `[`"));
        }
        let start = self.pos;
        let mut depth = 1usize;
        let bytes = self.src.as_bytes();
        while self.pos < bytes.len() {
            match bytes[self.pos] as char {
                '[' => depth += 1,
                ']' => {
                    depth -= 1;
                    if depth == 0 {
                        let inner = &self.src[start..self.pos];
                        self.pos += 1;
                        return Ok(inner);
                    }
                }
                _ => {}
            }
            self.pos += 1;
        }
        Err(self.err("unclosed `[`"))
    }

    /// Try to consume a chain operator `s s >` (e.g. `-+>`). Returns the
    /// two split flags.
    fn chain_op(&mut self) -> Option<(Sp, Sp)> {
        self.skip_ws();
        let rest = &self.src.as_bytes()[self.pos..];
        if rest.len() >= 3
            && matches!(rest[0], b'+' | b'-')
            && matches!(rest[1], b'+' | b'-')
            && rest[2] == b'>'
        {
            let l = if rest[0] == b'+' { Sp::Pass } else { Sp::Drop };
            let r = if rest[1] == b'+' { Sp::Pass } else { Sp::Drop };
            self.pos += 3;
            Some((l, r))
        } else {
            None
        }
    }
}

/// Split a clause body at the first depth-0 `|>`, yielding (guard text,
/// phrase text).
fn split_guard(body: &str) -> (Option<&str>, &str) {
    let bytes = body.as_bytes();
    let mut depth = 0usize;
    let mut i = 0;
    while i + 1 < bytes.len() {
        match bytes[i] as char {
            '[' | '(' => depth += 1,
            ']' | ')' => depth = depth.saturating_sub(1),
            '|' if depth == 0 && bytes[i + 1] == b'>' => {
                return (Some(body[..i].trim()), &body[i + 2..]);
            }
            _ => {}
        }
        i += 1;
    }
    (None, body)
}

fn parse_guard(text: &str, base: usize) -> Result<Guard, HParseError> {
    let t = text.trim();
    if t == "K" {
        return Ok(Guard::HasKey);
    }
    if let Some(inner) = t.strip_prefix("runs(").and_then(|s| s.strip_suffix(')')) {
        return Ok(Guard::RunsFunction(inner.trim().to_string()));
    }
    if t.chars().all(|c| c.is_alphanumeric() || c == '_') && !t.is_empty() {
        return Ok(Guard::NamedTest(t.to_string()));
    }
    Err(HParseError {
        offset: base,
        message: format!("cannot parse guard `{t}`"),
    })
}

fn parse_hexpr(sc: &mut Scanner) -> Result<HExpr, HParseError> {
    let mut left = parse_hseg(sc)?;
    while sc.eat_str("*=>") {
        let right = parse_hseg(sc)?;
        left = left.star(right);
    }
    Ok(left)
}

fn parse_hseg(sc: &mut Scanner) -> Result<HExpr, HParseError> {
    let mut left = parse_hatom(sc)?;
    while let Some((l, r)) = sc.chain_op() {
        let right = parse_hatom(sc)?;
        left = left.chain(l, r, right);
    }
    Ok(left)
}

fn parse_hatom(sc: &mut Scanner) -> Result<HExpr, HParseError> {
    match sc.peek() {
        Some('(') => {
            if sc.depth == MAX_NESTING {
                return Err(sc.err(format!("nesting deeper than {MAX_NESTING} levels")));
            }
            sc.eat_str("(");
            sc.depth += 1;
            let inner = parse_hexpr(sc);
            sc.depth -= 1;
            let inner = inner?;
            sc.skip_ws();
            if !sc.eat_str(")") {
                return Err(sc.err("expected `)`"));
            }
            Ok(inner)
        }
        Some('@') => {
            sc.eat_str("@");
            let place = sc.ident()?;
            sc.skip_ws();
            let body_start = sc.pos + 1; // first byte inside the `[`
            let raw = sc.bracket_body()?;
            let (guard_text, phrase_text) = split_guard(raw);
            let guard = guard_text.map(|g| parse_guard(g, body_start)).transpose()?;
            let body = parse_phrase(phrase_text).map_err(|e| HParseError {
                offset: body_start + e.offset,
                message: format!("in clause body: {}", e.message),
            })?;
            Ok(HExpr::Clause(Clause {
                // Every place parses as a variable reference first; the
                // top-level parser rewrites non-quantified names to
                // concrete places.
                place: PlaceRef::Var(place),
                guard,
                body,
            }))
        }
        _ => Err(sc.err("expected `@place [...]` or `(`")),
    }
}

/// Rewrite `Var` places not in `quantified` into concrete places.
fn fix_places(e: HExpr, quantified: &[String]) -> HExpr {
    match e {
        HExpr::Clause(mut c) => {
            if let PlaceRef::Var(v) = &c.place {
                if !quantified.contains(v) {
                    c.place = PlaceRef::Concrete(Place::new(v.clone()));
                }
            }
            HExpr::Clause(c)
        }
        HExpr::Chain(l, r, a, b) => HExpr::Chain(
            l,
            r,
            Box::new(fix_places(*a, quantified)),
            Box::new(fix_places(*b, quantified)),
        ),
        HExpr::Star(a, b) => HExpr::Star(
            Box::new(fix_places(*a, quantified)),
            Box::new(fix_places(*b, quantified)),
        ),
    }
}

/// Parse a full hybrid policy.
pub fn parse_hybrid(src: &str) -> Result<HybridPolicy, HParseError> {
    let mut sc = Scanner {
        src,
        pos: 0,
        depth: 0,
    };
    if !sc.eat_str("*") {
        return Err(sc.err("expected `*`"));
    }
    let rp = sc.ident()?;
    let mut params = Vec::new();
    if sc.eat_str("<") {
        loop {
            params.push(sc.ident()?);
            if !sc.eat_str(",") {
                break;
            }
        }
        if !sc.eat_str(">") {
            return Err(sc.err("expected `>`"));
        }
    }
    if !sc.eat_str(":") {
        return Err(sc.err("expected `:`"));
    }
    let mut quantified = Vec::new();
    let save = sc.pos;
    if let Ok(word) = sc.ident() {
        if word == "forall" {
            loop {
                quantified.push(sc.ident()?);
                if !sc.eat_str(",") {
                    break;
                }
            }
            if !sc.eat_str(":") {
                return Err(sc.err("expected `:` after forall variables"));
            }
        } else {
            sc.pos = save;
        }
    } else {
        sc.pos = save;
    }
    let body = parse_hexpr(&mut sc)?;
    sc.skip_ws();
    if sc.pos != src.len() {
        return Err(sc.err("trailing input"));
    }
    let policy = HybridPolicy {
        rp: Place::new(rp),
        params,
        quantified: quantified.clone(),
        body: fix_places(body, &quantified),
    };
    policy.check_quantifiers().map_err(|m| HParseError {
        offset: 0,
        message: m,
    })?;
    Ok(policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::table1;

    /// Concrete-syntax forms of the paper's Table 1.
    const AP1_SRC: &str = "*bank<n, X> : forall hop, client : \
        (@hop [K |> attest(n, X) -> !] -+> @Appraiser [appraise -> store(n)]) \
        *=> @client [K |> @ks [av us bmon -> !] -<- @us [bmon us exts -> !]]";

    const AP2_SRC: &str =
        "*scanner<P> : @scanner [P |> attest(P) -> !] -+> @Appraiser [appraise -> store]";

    const AP3_SRC: &str = "*pathCheck<F1, F2, Peer1, Peer2> : \
        forall p, q, r, peer1, peer2 : \
        (@peer1 [Peer1 |> !] -+> @p [runs(F1) |> attest(F1) -> !] \
         -+> @q [runs(F2) |> attest(F2) -> !] -+> @Appraiser [appraise -> store]) \
        *=> (@r [Q |> !] -+> @peer2 [Peer2 |> !] -+> @Appraiser [appraise -> store])";

    #[test]
    fn ap1_parses_to_reference_tree() {
        assert_eq!(parse_hybrid(AP1_SRC).unwrap(), table1::ap1());
    }

    #[test]
    fn ap2_parses_to_reference_tree() {
        assert_eq!(parse_hybrid(AP2_SRC).unwrap(), table1::ap2());
    }

    #[test]
    fn ap3_parses_to_reference_tree() {
        assert_eq!(parse_hybrid(AP3_SRC).unwrap(), table1::ap3());
    }

    #[test]
    fn nested_brackets_in_clause_bodies() {
        let p = parse_hybrid("*rp : @x [@inner [!] -> #]").unwrap();
        assert_eq!(p.body.clause_count(), 1);
    }

    #[test]
    fn guard_variants() {
        let p = parse_hybrid("*rp : @x [K |> !] -+> @y [runs(fw) |> !] -+> @z [Q |> !]").unwrap();
        let mut guards = Vec::new();
        p.body.walk(&mut |c| guards.push(c.guard.clone()));
        assert_eq!(
            guards,
            vec![
                Some(Guard::HasKey),
                Some(Guard::RunsFunction("fw".into())),
                Some(Guard::NamedTest("Q".into())),
            ]
        );
    }

    #[test]
    fn chain_flags_parsed() {
        let p = parse_hybrid("*rp : @x [!] ++> @y [!]").unwrap();
        let HExpr::Chain(l, r, _, _) = &p.body else {
            panic!()
        };
        assert_eq!((*l, *r), (Sp::Pass, Sp::Pass));
    }

    #[test]
    fn unquantified_vars_become_concrete() {
        let p = parse_hybrid("*rp : @Appraiser [!]").unwrap();
        let HExpr::Clause(c) = &p.body else { panic!() };
        assert_eq!(c.place, PlaceRef::Concrete(Place::new("Appraiser")));
    }

    #[test]
    fn quantifier_errors() {
        // Quantified but unused:
        assert!(parse_hybrid("*rp : forall v : @x [!]").is_err());
    }

    #[test]
    fn error_cases() {
        assert!(parse_hybrid("").is_err());
        assert!(parse_hybrid("*rp").is_err());
        assert!(parse_hybrid("*rp : @x [").is_err());
        assert!(parse_hybrid("*rp : @x [!] trailing").is_err());
        assert!(parse_hybrid("*rp : @x [?bad-guard? |> !]").is_err());
        assert!(parse_hybrid("*rp : (@x [!]").is_err());
    }

    fn parens(depth: usize, inner: &str) -> String {
        format!("*rp: {}{inner}{}", "(".repeat(depth), ")".repeat(depth))
    }

    #[test]
    fn nesting_is_bounded_at_the_opening_paren() {
        let err = parse_hybrid(&parens(MAX_NESTING + 1, "@p1 [attest p1 sys]")).unwrap_err();
        assert_eq!(err.offset, "*rp: ".len() + MAX_NESTING);
        assert!(err.message.contains("nesting deeper than 256"), "{err}");
        // A clause body is bounded by the Copland parser, at its own offset.
        let body = format!("{}!{}", "@p1 [".repeat(300), "]".repeat(300));
        let err = parse_hybrid(&format!("*rp: @p0 [{body}]")).unwrap_err();
        assert_eq!(err.offset, "*rp: @p0 [".len() + 5 * 256);
        assert!(err.message.contains("in clause body"), "{err}");
    }

    #[test]
    fn nesting_up_to_the_bound_parses() {
        let p = parse_hybrid(&parens(MAX_NESTING, "@p1 [attest p1 sys]")).unwrap();
        assert!(matches!(p.body, HExpr::Clause(_)));
    }

    #[test]
    fn body_parse_errors_have_adjusted_offsets() {
        let src = "*rp : @x [-> bad]";
        let err = parse_hybrid(src).unwrap_err();
        assert!(
            err.offset >= 10,
            "offset {} should point into the body",
            err.offset
        );
        assert!(err.message.contains("in clause body"));
    }
}
