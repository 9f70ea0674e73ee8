//! A small Rust lexer: the token layer under the lint rules.
//!
//! The lexer is deliberately partial — it understands exactly as much of
//! the language as the rules need: identifiers, integer literals, the
//! multi-character operators that must not be split (`::`, `->`, `=>`,
//! `..`, `&&`, `||`), strings (including raw and byte strings), char
//! literals vs lifetimes, and comments. String and char *contents* are
//! dropped and comments are skipped: rules bind to code, not to prose
//! about code.

/// One lexed token with its source position.
#[derive(Clone, Debug)]
pub struct Tok {
    pub text: String,
    /// 1-based source line.
    pub line: usize,
    /// Byte offset of the token start (used for adjacency checks such as
    /// distinguishing `1 << pid` from `Vec<Vec<_>>`).
    pub pos: usize,
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Tokenize `src`. Never fails: unterminated constructs simply end the
/// stream.
pub fn lex(src: &str) -> Vec<Tok> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;
    let push = |out: &mut Vec<Tok>, text: &str, line: usize, pos: usize| {
        out.push(Tok {
            text: text.to_string(),
            line,
            pos,
        });
    };
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                // Block comment; Rust block comments nest.
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < bytes.len() && depth > 0 {
                    if bytes[j] == b'\n' {
                        line += 1;
                        j += 1;
                    } else if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                i = j;
            }
            '"' => {
                i = skip_string(bytes, i + 1, &mut line);
                push(&mut out, "\"\"", line, i);
            }
            'r' | 'b' if starts_raw_or_byte_string(bytes, i) => {
                let (j, text) = skip_prefixed_string(bytes, i, &mut line);
                push(&mut out, text, line, i);
                i = j;
            }
            '\'' => {
                // Lifetime or char literal. `'a` followed by a non-quote is
                // a lifetime; anything with an escape or a closing quote
                // within two chars is a char literal.
                let rest = &bytes[i + 1..];
                let is_char = match rest.first() {
                    Some(b'\\') => true,
                    Some(&c1) => {
                        // `'x'` is a char; `'x,` / `'x>` / `'x ` is a lifetime.
                        let after = char_width(c1);
                        rest.get(after) == Some(&b'\'')
                    }
                    None => false,
                };
                if is_char {
                    let mut j = i + 1;
                    if bytes.get(j) == Some(&b'\\') {
                        j += 2;
                    } else {
                        j += char_width(bytes[j]);
                    }
                    // Closing quote.
                    if bytes.get(j) == Some(&b'\'') {
                        j += 1;
                    }
                    push(&mut out, "''", line, i);
                    i = j;
                } else {
                    let start = i;
                    let mut j = i + 1;
                    while j < bytes.len() && is_ident_continue(bytes[j] as char) {
                        j += 1;
                    }
                    push(&mut out, &src[start..j], line, start);
                    i = j;
                }
            }
            c if is_ident_start(c) => {
                let start = i;
                let mut j = i;
                while j < bytes.len() && is_ident_continue(bytes[j] as char) {
                    j += 1;
                }
                push(&mut out, &src[start..j], line, start);
                i = j;
            }
            c if c.is_ascii_digit() => {
                // Integer literal with optional base prefix and suffix;
                // the fractional part of a float lexes as `.` + digits.
                let start = i;
                let mut j = i + 1;
                if c == '0' && matches!(bytes.get(j), Some(b'x' | b'o' | b'b')) {
                    j += 1;
                }
                while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                    j += 1;
                }
                push(&mut out, &src[start..j], line, start);
                i = j;
            }
            _ => {
                // Punctuation: join the few multi-char operators that must
                // not be split; everything else is one char.
                let two = src.get(i..i + 2).unwrap_or("");
                let text = match two {
                    "::" | "->" | "=>" | ".." | "&&" | "||" => two,
                    _ => &src[i..i + c.len_utf8()],
                };
                push(&mut out, text, line, i);
                i += text.len();
            }
        }
    }
    out
}

fn char_width(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn starts_raw_or_byte_string(bytes: &[u8], i: usize) -> bool {
    // r"..." | r#"..."# | br"..." | b"..." | b'..' — but identifiers that
    // merely *start* with these letters (`breakdown`, `raw_len`) must lex
    // as identifiers, so the prefix only counts when hashes-then-a-quote
    // actually follows.
    let mut j = i;
    while j < bytes.len() && matches!(bytes[j], b'r' | b'b') && j < i + 2 {
        j += 1;
    }
    if bytes.get(j) == Some(&b'\'') {
        return j == i + 1 && bytes[i] == b'b'; // b'..' byte char only
    }
    if j == i + 2 && bytes[i] != b'b' {
        return false; // `rb"` is not a Rust prefix (only `br"`)
    }
    let has_r = bytes[i] == b'r' || (j == i + 2 && bytes[i + 1] == b'r');
    while bytes.get(j) == Some(&b'#') {
        if !has_r {
            return false; // hashes only valid on raw strings
        }
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

/// Skip a normal (escaped) string body starting *after* the opening quote;
/// returns the index past the closing quote.
fn skip_string(bytes: &[u8], mut i: usize, line: &mut usize) -> usize {
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Skip a `r`/`b`-prefixed string or byte char; returns (end index, token
/// text placeholder).
fn skip_prefixed_string(bytes: &[u8], i: usize, line: &mut usize) -> (usize, &'static str) {
    let mut j = i;
    while j < bytes.len() && matches!(bytes[j], b'r' | b'b') {
        j += 1;
    }
    if bytes.get(j) == Some(&b'\'') {
        // b'x' byte char.
        j += 1;
        if bytes.get(j) == Some(&b'\\') {
            j += 2;
        } else {
            j += 1;
        }
        if bytes.get(j) == Some(&b'\'') {
            j += 1;
        }
        return (j, "''");
    }
    let mut hashes = 0usize;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    j += 1; // the opening quote: `starts_raw_or_byte_string` saw it
    let raw =
        hashes > 0 || bytes[i] == b'r' || (bytes[i] == b'b' && bytes.get(i + 1) == Some(&b'r'));
    while j < bytes.len() {
        match bytes[j] {
            b'\n' => {
                *line += 1;
                j += 1;
            }
            b'\\' if !raw => j += 2,
            b'"' => {
                let mut k = j + 1;
                let mut seen = 0usize;
                while seen < hashes && bytes.get(k) == Some(&b'#') {
                    seen += 1;
                    k += 1;
                }
                if seen == hashes {
                    return (k, "\"\"");
                }
                j += 1;
            }
            _ => j += 1,
        }
    }
    (j, "\"\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn idents_puncts_and_paths() {
        assert_eq!(
            texts("self.stats = RunStats::default();"),
            ["self", ".", "stats", "=", "RunStats", "::", "default", "(", ")", ";"]
        );
    }

    #[test]
    fn comments_are_skipped_and_lines_counted() {
        let toks = lex("let x = 1; // a .. comment\n/* block\ncomment */ y");
        assert_eq!(toks.len(), 6);
        assert_eq!(toks.last().unwrap().text, "y");
        assert_eq!(toks.last().unwrap().line, 3);
    }

    #[test]
    fn strings_drop_contents() {
        assert_eq!(
            texts(r#"panic!("no HashMap in {x}")"#),
            ["panic", "!", "(", "\"\"", ")"]
        );
        assert_eq!(
            texts(r##"let s = r#"raw "quoted" body"#;"##),
            ["let", "s", "=", "\"\"", ";"]
        );
        assert_eq!(
            texts("let b = b\"DSMSNAP\\0\";"),
            ["let", "b", "=", "\"\"", ";"]
        );
    }

    #[test]
    fn idents_starting_with_string_prefix_letters() {
        // `b`/`r`/`br` only open a string when a quote actually follows.
        assert_eq!(
            texts("self.breakdown += t; raw_len(brk)").join(" "),
            "self . breakdown + = t ; raw_len ( brk )"
        );
        assert_eq!(
            texts("let x = br#\"raw\"#; rows"),
            ["let", "x", "=", "\"\"", ";", "rows"]
        );
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        assert_eq!(
            texts("fn f<'a>(x: &'a str) {}"),
            ["fn", "f", "<", "'a", ">", "(", "x", ":", "&", "'a", "str", ")", "{", "}"]
        );
        assert_eq!(
            texts("let c = 'x'; let nl = '\\n';"),
            ["let", "c", "=", "''", ";", "let", "nl", "=", "''", ";"]
        );
    }

    #[test]
    fn floats_split_for_tuple_indexing() {
        assert_eq!(
            texts("a.0 += 1.5;"),
            ["a", ".", "0", "+", "=", "1", ".", "5", ";"]
        );
    }

    #[test]
    fn shift_is_two_adjacent_lt() {
        let toks = lex("1u64 << pid");
        let t: Vec<_> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(t, ["1u64", "<", "<", "pid"]);
        assert_eq!(toks[2].pos, toks[1].pos + 1);
    }
}
