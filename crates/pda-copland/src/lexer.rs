//! Lexer for the concrete Copland syntax.
//!
//! The concrete syntax is an ASCII rendition of the paper's notation:
//!
//! ```text
//! *bank<n, X> : @ks [av us bmon -> !] -<- @us [bmon us exts -> !]
//! ```
//!
//! Branch operators are three-character tokens combining the two
//! evidence-split flags with the operator: `+<+`, `-<-`, `+~-`, … The
//! paper's overset notation (e.g. `⁻⁻<`) maps to `-<-`.

use std::fmt;

/// A lexical token.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Token {
    /// `*` — request marker.
    Star,
    /// `:` — separates request head from phrase.
    Colon,
    /// `,` — argument separator.
    Comma,
    /// `@` — place annotation.
    At,
    /// `[` / `]`
    LBracket,
    /// Closing bracket.
    RBracket,
    /// `(` / `)`
    LParen,
    /// Closing paren.
    RParen,
    /// `<` / `>` for parameter lists.
    LAngle,
    /// Closing angle.
    RAngle,
    /// `->` — linear sequence.
    Arrow,
    /// `!` — sign.
    Bang,
    /// `#` — hash.
    Hash,
    /// `_` — copy.
    Underscore,
    /// `{}` — null evidence.
    Null,
    /// Branch sequence with split flags: `(left_pass, right_pass)`.
    BrSeq(bool, bool),
    /// Branch parallel with split flags.
    BrPar(bool, bool),
    /// An identifier (place, component, or service name).
    Ident(String),
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Star => write!(f, "*"),
            Token::Colon => write!(f, ":"),
            Token::Comma => write!(f, ","),
            Token::At => write!(f, "@"),
            Token::LBracket => write!(f, "["),
            Token::RBracket => write!(f, "]"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::LAngle => write!(f, "<"),
            Token::RAngle => write!(f, ">"),
            Token::Arrow => write!(f, "->"),
            Token::Bang => write!(f, "!"),
            Token::Hash => write!(f, "#"),
            Token::Underscore => write!(f, "_"),
            Token::Null => write!(f, "{{}}"),
            Token::BrSeq(l, r) => {
                write!(f, "{}<{}", sp(*l), sp(*r))
            }
            Token::BrPar(l, r) => {
                write!(f, "{}~{}", sp(*l), sp(*r))
            }
            Token::Ident(s) => f.write_str(s),
        }
    }
}

fn sp(pass: bool) -> char {
    if pass {
        '+'
    } else {
        '-'
    }
}

/// A token plus its byte offset in the source (for error messages).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Spanned {
    /// The token.
    pub tok: Token,
    /// Byte offset where the token starts.
    pub offset: usize,
}

/// Lexical error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LexError {
    /// Byte offset of the offending character.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenize `src`.
pub fn lex(src: &str) -> Result<Vec<Spanned>, LexError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
            }
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                // Line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '*' => {
                out.push(Spanned {
                    tok: Token::Star,
                    offset: start,
                });
                i += 1;
            }
            ':' => {
                out.push(Spanned {
                    tok: Token::Colon,
                    offset: start,
                });
                i += 1;
            }
            ',' => {
                out.push(Spanned {
                    tok: Token::Comma,
                    offset: start,
                });
                i += 1;
            }
            '@' => {
                out.push(Spanned {
                    tok: Token::At,
                    offset: start,
                });
                i += 1;
            }
            '[' => {
                out.push(Spanned {
                    tok: Token::LBracket,
                    offset: start,
                });
                i += 1;
            }
            ']' => {
                out.push(Spanned {
                    tok: Token::RBracket,
                    offset: start,
                });
                i += 1;
            }
            '(' => {
                out.push(Spanned {
                    tok: Token::LParen,
                    offset: start,
                });
                i += 1;
            }
            ')' => {
                out.push(Spanned {
                    tok: Token::RParen,
                    offset: start,
                });
                i += 1;
            }
            '<' => {
                out.push(Spanned {
                    tok: Token::LAngle,
                    offset: start,
                });
                i += 1;
            }
            '>' => {
                out.push(Spanned {
                    tok: Token::RAngle,
                    offset: start,
                });
                i += 1;
            }
            '!' => {
                out.push(Spanned {
                    tok: Token::Bang,
                    offset: start,
                });
                i += 1;
            }
            '#' => {
                out.push(Spanned {
                    tok: Token::Hash,
                    offset: start,
                });
                i += 1;
            }
            '{' => {
                if bytes.get(i + 1) == Some(&b'}') {
                    out.push(Spanned {
                        tok: Token::Null,
                        offset: start,
                    });
                    i += 2;
                } else {
                    return Err(LexError {
                        offset: i,
                        message: "expected `{}`".to_string(),
                    });
                }
            }
            '-' | '+' => {
                // Either `->` or a branch operator `s<s` / `s~s`.
                let l_pass = c == '+';
                match bytes.get(i + 1).map(|b| *b as char) {
                    Some('>') if c == '-' => {
                        out.push(Spanned {
                            tok: Token::Arrow,
                            offset: start,
                        });
                        i += 2;
                    }
                    Some(op @ ('<' | '~')) => {
                        let r = bytes.get(i + 2).map(|b| *b as char);
                        let r_pass = match r {
                            Some('+') => true,
                            Some('-') => false,
                            _ => {
                                return Err(LexError {
                                    offset: i,
                                    message: format!(
                                        "branch operator `{c}{op}` must be followed by `+` or `-`"
                                    ),
                                })
                            }
                        };
                        let tok = if op == '<' {
                            Token::BrSeq(l_pass, r_pass)
                        } else {
                            Token::BrPar(l_pass, r_pass)
                        };
                        out.push(Spanned { tok, offset: start });
                        i += 3;
                    }
                    _ => {
                        return Err(LexError {
                            offset: i,
                            message: format!("unexpected `{c}`"),
                        })
                    }
                }
            }
            '_' => {
                // `_` alone is Copy; `_` starting an identifier is fine too.
                if bytes
                    .get(i + 1)
                    .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
                {
                    let (ident, next) = lex_ident(src, i);
                    out.push(Spanned {
                        tok: Token::Ident(ident),
                        offset: start,
                    });
                    i = next;
                } else {
                    out.push(Spanned {
                        tok: Token::Underscore,
                        offset: start,
                    });
                    i += 1;
                }
            }
            c if c.is_ascii_alphabetic() => {
                let (ident, next) = lex_ident(src, i);
                out.push(Spanned {
                    tok: Token::Ident(ident),
                    offset: start,
                });
                i = next;
            }
            c if c.is_ascii_digit() => {
                // Bare numerals are allowed as service arguments; lex as idents.
                let (ident, next) = lex_ident(src, i);
                out.push(Spanned {
                    tok: Token::Ident(ident),
                    offset: start,
                });
                i = next;
            }
            _ => {
                // Every arm above consumes ASCII only, so `i` sits on a
                // char boundary: name the whole (possibly multi-byte)
                // character rather than its lead byte.
                let other = src[i..].chars().next().unwrap_or(c);
                return Err(LexError {
                    offset: i,
                    message: format!("unexpected character `{other}`"),
                });
            }
        }
    }
    Ok(out)
}

fn lex_ident(src: &str, start: usize) -> (String, usize) {
    let bytes = src.as_bytes();
    let mut end = start;
    while end < bytes.len() && (bytes[end].is_ascii_alphanumeric() || b"_.".contains(&bytes[end])) {
        end += 1;
    }
    (src[start..end].to_string(), end)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn lex_simple_request() {
        assert_eq!(
            toks("*bank : !"),
            vec![
                Token::Star,
                Token::Ident("bank".into()),
                Token::Colon,
                Token::Bang
            ]
        );
    }

    #[test]
    fn lex_branch_operators() {
        assert_eq!(toks("+<+"), vec![Token::BrSeq(true, true)]);
        assert_eq!(toks("-<-"), vec![Token::BrSeq(false, false)]);
        assert_eq!(toks("+~-"), vec![Token::BrPar(true, false)]);
        assert_eq!(toks("-~+"), vec![Token::BrPar(false, true)]);
    }

    #[test]
    fn lex_arrow_vs_branch() {
        assert_eq!(
            toks("a -> b -<- c"),
            vec![
                Token::Ident("a".into()),
                Token::Arrow,
                Token::Ident("b".into()),
                Token::BrSeq(false, false),
                Token::Ident("c".into()),
            ]
        );
    }

    #[test]
    fn lex_place_annotation() {
        assert_eq!(
            toks("@ks [av us bmon]"),
            vec![
                Token::At,
                Token::Ident("ks".into()),
                Token::LBracket,
                Token::Ident("av".into()),
                Token::Ident("us".into()),
                Token::Ident("bmon".into()),
                Token::RBracket,
            ]
        );
    }

    #[test]
    fn lex_params_and_null_and_copy() {
        assert_eq!(
            toks("<n, X> {} _ _x"),
            vec![
                Token::LAngle,
                Token::Ident("n".into()),
                Token::Comma,
                Token::Ident("X".into()),
                Token::RAngle,
                Token::Null,
                Token::Underscore,
                Token::Ident("_x".into()),
            ]
        );
    }

    #[test]
    fn lex_dotted_program_names() {
        assert_eq!(
            toks("firewall_v5.p4"),
            vec![Token::Ident("firewall_v5.p4".into())]
        );
    }

    #[test]
    fn lex_comments_skipped() {
        assert_eq!(
            toks("! // trailing comment\n#"),
            vec![Token::Bang, Token::Hash]
        );
    }

    #[test]
    fn lex_errors_have_offsets() {
        let err = lex("ab $").unwrap_err();
        assert_eq!(err.offset, 3);
        let err = lex("a +< b").unwrap_err();
        assert_eq!(err.offset, 2);
        let err = lex("{x").unwrap_err();
        assert_eq!(err.offset, 0);
        let err = lex("a - b").unwrap_err();
        assert_eq!(err.offset, 2);
    }

    #[test]
    fn token_display_round_trip_through_lexer() {
        let cases = [
            Token::Star,
            Token::Arrow,
            Token::BrSeq(true, false),
            Token::BrPar(false, false),
            Token::Null,
            Token::Underscore,
            Token::Ident("attest".into()),
        ];
        for t in cases {
            let rendered = t.to_string();
            let relexed = toks(&rendered);
            assert_eq!(relexed, vec![t]);
        }
    }
}
