//! A small, real Rust lexer.
//!
//! A scanner that matches raw substrings per line lets a forbidden token
//! inside a string literal, a doc comment, or a `r#"raw string"#` fire
//! (or mask) a rule. This lexer produces a
//! proper token stream — identifiers, lifetimes, string/char/byte
//! literals, numbers, punctuation — with line numbers, plus the comment
//! text needed to honor `lint:allow(...)` suppressions. Literal *contents*
//! are deliberately dropped: no pass ever looks inside a string.
//!
//! It is not a full rustc lexer; the corners it cuts are documented in
//! DESIGN.md §14 (soundness caveats). The cases that matter for analysis
//! correctness — nested block comments, raw strings with `#` fences, byte
//! strings, char-literal vs lifetime disambiguation, raw identifiers —
//! are all handled and covered by golden tests.

/// Kind of one lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw identifiers like `r#type`).
    Ident,
    /// Lifetime such as `'a` (or the placeholder `'_`).
    Lifetime,
    /// String literal `"..."` (contents dropped).
    Str,
    /// Raw string literal `r"..."` / `r#"..."#` (contents dropped).
    RawStr,
    /// Byte string `b"..."` or raw byte string `br#"..."#`.
    ByteStr,
    /// Char literal `'x'`.
    Char,
    /// Byte literal `b'x'`.
    Byte,
    /// Numeric literal (integer or float, any base, with suffix).
    Num,
    /// Punctuation. Single character, except `::` which is one token.
    Punct,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    /// Token text. Empty for literal kinds (contents are dropped).
    pub text: String,
    pub line: u32,
}

impl Tok {
    /// True for an identifier token with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text == text
    }

    /// True for a punctuation token with exactly this text.
    pub fn is_punct(&self, text: &str) -> bool {
        self.kind == TokKind::Punct && self.text == text
    }
}

/// Lexer output: the code token stream plus comment text by line.
#[derive(Debug, Default)]
pub struct LexOut {
    pub toks: Vec<Tok>,
    /// `(line, text)` for every comment, doc comments included. Block
    /// comments are recorded at their opening line.
    pub comments: Vec<(u32, String)>,
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Lexes `src` into tokens and comments. Never fails: unterminated
/// literals simply run to end-of-input (the analyzer only sees code that
/// already compiles, so this is a non-issue in practice).
pub fn lex(src: &str) -> LexOut {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut out = LexOut::default();
    let mut i = 0usize;
    let mut line = 1u32;

    // Counts `#` fence characters starting at `j`.
    let hashes_at = |j: usize| -> usize {
        let mut k = j;
        while k < n && b[k] == '#' {
            k += 1;
        }
        k - j
    };

    while i < n {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && b[i + 1] == '/' => {
                let start = i;
                while i < n && b[i] != '\n' {
                    i += 1;
                }
                out.comments
                    .push((line, b[start..i].iter().collect::<String>()));
            }
            '/' if i + 1 < n && b[i + 1] == '*' => {
                let (start, start_line) = (i, line);
                let mut depth = 1usize;
                i += 2;
                while i < n && depth > 0 {
                    if b[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                out.comments
                    .push((start_line, b[start..i].iter().collect::<String>()));
            }
            '"' => {
                i = skip_str(&b, i, &mut line);
                out.toks.push(Tok {
                    kind: TokKind::Str,
                    text: String::new(),
                    line,
                });
            }
            '\'' => {
                // Char literal vs lifetime. `'\...'` and `'x'` are chars;
                // anything else starting with an ident char is a lifetime.
                if i + 1 < n && b[i + 1] == '\\' {
                    i += 2; // consume `'\`
                    while i < n && b[i] != '\'' {
                        i += 1;
                    }
                    i += 1;
                    out.toks.push(Tok {
                        kind: TokKind::Char,
                        text: String::new(),
                        line,
                    });
                } else if i + 2 < n && b[i + 2] == '\'' {
                    i += 3;
                    out.toks.push(Tok {
                        kind: TokKind::Char,
                        text: String::new(),
                        line,
                    });
                } else if i + 1 < n && is_ident_start(b[i + 1]) {
                    let start = i + 1;
                    i += 2;
                    while i < n && is_ident_continue(b[i]) {
                        i += 1;
                    }
                    out.toks.push(Tok {
                        kind: TokKind::Lifetime,
                        text: b[start..i].iter().collect(),
                        line,
                    });
                } else {
                    // Stray quote; emit as punct and move on.
                    out.toks.push(Tok {
                        kind: TokKind::Punct,
                        text: "'".into(),
                        line,
                    });
                    i += 1;
                }
            }
            'r' if i + 1 < n && (b[i + 1] == '"' || b[i + 1] == '#') => {
                let fences = hashes_at(i + 1);
                if i + 1 + fences < n && b[i + 1 + fences] == '"' {
                    // Raw string r"..." / r#"..."#.
                    i = skip_raw_str(&b, i + 1 + fences, fences, &mut line);
                    out.toks.push(Tok {
                        kind: TokKind::RawStr,
                        text: String::new(),
                        line,
                    });
                } else if fences >= 1 && i + 2 < n && is_ident_start(b[i + 2]) {
                    // Raw identifier r#type.
                    let start = i;
                    i += 2;
                    while i < n && is_ident_continue(b[i]) {
                        i += 1;
                    }
                    out.toks.push(Tok {
                        kind: TokKind::Ident,
                        text: b[start..i].iter().collect(),
                        line,
                    });
                } else {
                    i = lex_ident(&b, i, line, &mut out);
                }
            }
            'b' if i + 1 < n && (b[i + 1] == '"' || b[i + 1] == '\'' || b[i + 1] == 'r') => {
                if b[i + 1] == '"' {
                    i = skip_str(&b, i + 1, &mut line);
                    out.toks.push(Tok {
                        kind: TokKind::ByteStr,
                        text: String::new(),
                        line,
                    });
                } else if b[i + 1] == '\'' {
                    i += 2; // consume `b'`
                    if i < n && b[i] == '\\' {
                        i += 1;
                        while i < n && b[i] != '\'' {
                            i += 1;
                        }
                    } else if i < n {
                        i += 1;
                    }
                    i += 1; // closing quote
                    out.toks.push(Tok {
                        kind: TokKind::Byte,
                        text: String::new(),
                        line,
                    });
                } else {
                    // `br"..."` / `br#"..."#`, else the identifier `br...`.
                    let fences = hashes_at(i + 2);
                    if i + 2 + fences < n && b[i + 2 + fences] == '"' {
                        i = skip_raw_str(&b, i + 2 + fences, fences, &mut line);
                        out.toks.push(Tok {
                            kind: TokKind::ByteStr,
                            text: String::new(),
                            line,
                        });
                    } else {
                        i = lex_ident(&b, i, line, &mut out);
                    }
                }
            }
            c if is_ident_start(c) => i = lex_ident(&b, i, line, &mut out),
            c if c.is_ascii_digit() => {
                let start = i;
                i += 1;
                loop {
                    if i < n && (b[i] == '_' || b[i].is_ascii_alphanumeric()) {
                        i += 1;
                    } else if i + 1 < n && b[i] == '.' && b[i + 1].is_ascii_digit() {
                        i += 2; // float like `1.5` (but not the range `0..n`)
                    } else {
                        break;
                    }
                }
                out.toks.push(Tok {
                    kind: TokKind::Num,
                    text: b[start..i].iter().collect(),
                    line,
                });
            }
            ':' if i + 1 < n && b[i + 1] == ':' => {
                out.toks.push(Tok {
                    kind: TokKind::Punct,
                    text: "::".into(),
                    line,
                });
                i += 2;
            }
            c => {
                out.toks.push(Tok {
                    kind: TokKind::Punct,
                    text: c.to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

/// Consumes an identifier starting at `i`; returns the index past it.
fn lex_ident(b: &[char], i: usize, line: u32, out: &mut LexOut) -> usize {
    let start = i;
    let mut j = i + 1;
    while j < b.len() && is_ident_continue(b[j]) {
        j += 1;
    }
    out.toks.push(Tok {
        kind: TokKind::Ident,
        text: b[start..j].iter().collect(),
        line,
    });
    j
}

/// Skips a normal (escaped) string whose opening quote is at `i`.
/// Returns the index past the closing quote.
fn skip_str(b: &[char], i: usize, line: &mut u32) -> usize {
    let mut j = i + 1;
    while j < b.len() {
        match b[j] {
            '\\' => j += 2,
            '\n' => {
                *line += 1;
                j += 1;
            }
            '"' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

/// Skips a raw string whose opening quote is at `quote`, fenced by
/// `fences` `#` characters. Returns the index past the closing fence.
fn skip_raw_str(b: &[char], quote: usize, fences: usize, line: &mut u32) -> usize {
    let mut j = quote + 1;
    while j < b.len() {
        if b[j] == '\n' {
            *line += 1;
            j += 1;
        } else if b[j] == '"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while seen < fences && k < b.len() && b[k] == '#' {
                seen += 1;
                k += 1;
            }
            if seen == fences {
                return k;
            }
            j += 1;
        } else {
            j += 1;
        }
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn forbidden_token_inside_string_literal_is_not_an_ident() {
        let src = r#"let s = "HashMap and Instant::now live here";"#;
        assert_eq!(idents(src), vec!["let", "s"]);
    }

    #[test]
    fn raw_strings_with_fences_are_opaque() {
        let src = r##"let s = r#"thread::spawn and "quotes" and .unwrap()"#; let t = 1;"##;
        assert_eq!(idents(src), vec!["let", "s", "let", "t"]);
        let kinds: Vec<TokKind> = lex(src).toks.iter().map(|t| t.kind).collect();
        assert!(kinds.contains(&TokKind::RawStr));
    }

    #[test]
    fn byte_strings_and_byte_literals_are_opaque() {
        let src = "let a = b\"OsRng\"; let c = b'x'; let d = br#\"SystemTime\"#;";
        assert_eq!(idents(src), vec!["let", "a", "let", "c", "let", "d"]);
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let src = "/* outer /* inner HashMap */ still comment */ fn f() {}";
        assert_eq!(idents(src), vec!["fn", "f"]);
        let out = lex(src);
        assert_eq!(out.comments.len(), 1);
        assert!(out.comments[0].1.contains("inner"));
    }

    #[test]
    fn char_literal_vs_lifetime() {
        let src = "let c: char = 'x'; fn f<'a>(v: &'a str) -> &'a str { v } let esc = '\\n';";
        let out = lex(src);
        let lifetimes: Vec<&str> = out
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["a", "a", "a"]);
        let chars = out.toks.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(chars, 2);
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        let src = "let r#type = 1; r#match();";
        assert_eq!(idents(src), vec!["let", "r#type", "r#match"]);
    }

    #[test]
    fn double_colon_is_one_token() {
        let out = lex("Instant::now()");
        let texts: Vec<&str> = out.toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["Instant", "::", "now", "(", ")"]);
    }

    #[test]
    fn numbers_do_not_eat_ranges_or_method_calls() {
        let out = lex("for i in 0..10 { let x = 1.max(2); let f = 1.5; }");
        let nums: Vec<&str> = out
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(nums, vec!["0", "10", "1", "2", "1.5"]);
    }

    #[test]
    fn line_numbers_survive_multiline_literals_and_comments() {
        let src = "let a = \"line\none\";\n/* two\nlines */\nfn f() {}\n";
        let out = lex(src);
        let fn_tok = out.toks.iter().find(|t| t.is_ident("fn")).unwrap();
        assert_eq!(fn_tok.line, 5);
    }

    #[test]
    fn comments_carry_text_for_allow_parsing() {
        let src = "x(); // lint:allow(no-unwrap) reason\n";
        let out = lex(src);
        assert_eq!(out.comments.len(), 1);
        assert!(out.comments[0].1.contains("lint:allow(no-unwrap)"));
        assert_eq!(out.comments[0].0, 1);
    }
}
