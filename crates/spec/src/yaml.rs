//! A self-contained YAML-subset parser for scenario spec documents.
//!
//! The subset covers what the spec grammar (see the crate docs) needs
//! and nothing more: block mappings and sequences nested by indentation,
//! single-line flow collections (`[a, b]`, `{k: v}`), plain and quoted
//! scalars, and `#` comments. Anchors, aliases, multi-document streams,
//! multi-line flow nodes, tags, and block scalars are out of scope — a
//! document using them gets a positioned error, not silent misparsing.
//!
//! Every node carries its source [`Span`], so the compiler one layer up
//! can report *where* a value is wrong, not just that it is.

use std::fmt;

/// A 1-based source position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Source line (1-based).
    pub line: usize,
    /// Source column (1-based).
    pub col: usize,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// One parsed node: a value plus where it started.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Where the node begins in the source.
    pub span: Span,
    /// The node's value.
    pub value: Value,
}

/// One `key: value` entry of a mapping, with the key's own span.
#[derive(Debug, Clone, PartialEq)]
pub struct MapEntry {
    /// The (unquoted) key text.
    pub key: String,
    /// Where the key begins.
    pub key_span: Span,
    /// The entry's value.
    pub value: Node,
}

/// A parsed YAML-subset value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An empty value (`key:` with nothing nested).
    Null,
    /// A scalar, unquoted; numbers/booleans are interpreted by the
    /// consumer, which knows the expected type.
    Scalar(String),
    /// A sequence (block `- item` or flow `[a, b]`).
    Seq(Vec<Node>),
    /// A mapping (block `key: value` or flow `{k: v}`), in source order.
    Map(Vec<MapEntry>),
}

impl Value {
    /// Short name for error messages ("mapping", "sequence", …).
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "empty value",
            Value::Scalar(_) => "scalar",
            Value::Seq(_) => "sequence",
            Value::Map(_) => "mapping",
        }
    }
}

/// A positioned parse failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Where parsing failed.
    pub span: Span,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.span, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(span: Span, message: impl Into<String>) -> ParseError {
    ParseError {
        span,
        message: message.into(),
    }
}

/// One non-blank, non-comment source line.
#[derive(Debug)]
struct Line<'a> {
    /// 1-based source line number.
    number: usize,
    /// Leading-space count.
    indent: usize,
    /// Content with indentation stripped (comments removed, trailing
    /// whitespace trimmed); never empty.
    content: &'a str,
}

/// Parses a whole document into its root node.
///
/// # Errors
/// Returns a [`ParseError`] with the position of the first problem.
pub fn parse_document(source: &str) -> Result<Node, ParseError> {
    let lines = logical_lines(source)?;
    if lines.is_empty() {
        return Err(err(
            Span { line: 1, col: 1 },
            "document is empty (comments and blank lines only)",
        ));
    }
    let mut parser = Parser {
        lines: &lines,
        pos: 0,
    };
    let root_indent = lines[0].indent;
    let node = parser.parse_block(root_indent)?;
    if let Some(extra) = parser.peek() {
        return Err(err(
            Span {
                line: extra.number,
                col: extra.indent + 1,
            },
            format!(
                "trailing content outdented past the document root (expected indent >= {})",
                root_indent
            ),
        ));
    }
    Ok(node)
}

/// Splits the source into content-bearing lines, stripping comments.
fn logical_lines(source: &str) -> Result<Vec<Line<'_>>, ParseError> {
    let mut out = Vec::new();
    for (i, raw) in source.lines().enumerate() {
        let number = i + 1;
        if raw.contains('\t') {
            let col = raw.find('\t').unwrap_or(0) + 1;
            return Err(err(
                Span { line: number, col },
                "tab characters are not allowed; indent with spaces",
            ));
        }
        let indent = raw.len() - raw.trim_start_matches(' ').len();
        let content = strip_comment(&raw[indent..]);
        let content = content.trim_end();
        if content.is_empty() {
            continue;
        }
        if content.starts_with("---") {
            return Err(err(
                Span {
                    line: number,
                    col: indent + 1,
                },
                "multi-document streams ('---') are not supported",
            ));
        }
        out.push(Line {
            number,
            indent,
            content,
        });
    }
    Ok(out)
}

/// Whether a quote at byte `i` can *open* a quoted scalar: only at the
/// start of a value position (line start, or after a separator). An
/// apostrophe inside a plain scalar (`Tim's data`) is just a character —
/// treating it as a quote would silently swallow a trailing comment.
fn opens_quote(bytes: &[u8], i: usize) -> bool {
    i == 0 || matches!(bytes[i - 1], b' ' | b'[' | b'{' | b',' | b':')
}

/// Removes a trailing `#` comment, respecting quoted strings.
fn strip_comment(content: &str) -> &str {
    let bytes = content.as_bytes();
    let mut in_single = false;
    let mut in_double = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate() {
        if escaped {
            escaped = false;
            continue;
        }
        match b {
            b'\\' if in_double => escaped = true,
            b'"' if in_double => in_double = false,
            b'"' if !in_single && opens_quote(bytes, i) => in_double = true,
            b'\'' if in_single => in_single = false,
            b'\'' if !in_double && opens_quote(bytes, i) => in_single = true,
            // a comment starts at line start or after whitespace
            b'#' if !in_single && !in_double && (i == 0 || bytes[i - 1] == b' ') => {
                return &content[..i];
            }
            _ => {}
        }
    }
    content
}

struct Parser<'a> {
    lines: &'a [Line<'a>],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Line<'a>> {
        self.lines.get(self.pos)
    }

    /// Parses the block starting at the current line, which must be
    /// indented exactly `indent`.
    fn parse_block(&mut self, indent: usize) -> Result<Node, ParseError> {
        let first = self.peek().expect("parse_block called with lines left");
        let span = Span {
            line: first.number,
            col: first.indent + 1,
        };
        if first.indent != indent {
            return Err(err(
                span,
                format!(
                    "inconsistent indentation: expected {} spaces, found {}",
                    indent, first.indent
                ),
            ));
        }
        if first.content == "-" || first.content.starts_with("- ") {
            self.parse_block_seq(indent)
        } else {
            self.parse_block_map(indent)
        }
    }

    /// Parses consecutive `- item` lines at `indent` into a sequence.
    fn parse_block_seq(&mut self, indent: usize) -> Result<Node, ParseError> {
        let span = {
            let l = self.peek().expect("sequence start");
            Span {
                line: l.number,
                col: l.indent + 1,
            }
        };
        let mut items = Vec::new();
        while let Some(line) = self.peek() {
            if line.indent != indent || !(line.content == "-" || line.content.starts_with("- ")) {
                if line.indent > indent {
                    return Err(err(
                        Span {
                            line: line.number,
                            col: line.indent + 1,
                        },
                        format!("expected a '-' sequence item indented {} spaces", indent),
                    ));
                }
                break;
            }
            let item_line = line.number;
            let rest = line.content[1..].trim_start();
            let rest_col = line.indent + 1 + (line.content.len() - rest.len());
            if rest.is_empty() {
                // `-` alone: the item is the nested block below
                self.pos += 1;
                let item = match self.peek() {
                    Some(next) if next.indent > indent => self.parse_block(next.indent)?,
                    _ => Node {
                        span: Span {
                            line: item_line,
                            col: indent + 1,
                        },
                        value: Value::Null,
                    },
                };
                items.push(item);
            } else if let Some((key, key_col, value_text, value_col)) = split_key(rest, rest_col) {
                // `- key: …` starts an inline mapping whose further keys
                // sit at the column of this first key
                let item = self.parse_seq_item_map(
                    item_line,
                    &key,
                    key_col,
                    value_text,
                    value_col,
                    key_col - 1,
                )?;
                items.push(item);
            } else {
                self.pos += 1;
                items.push(parse_inline(
                    rest,
                    Span {
                        line: item_line,
                        col: rest_col,
                    },
                )?);
            }
        }
        Ok(Node {
            span,
            value: Value::Seq(items),
        })
    }

    /// Parses a sequence item of the `- key: value` form: a mapping whose
    /// first entry shares the dash's line and whose remaining entries are
    /// indented to the first key's column (`map_indent`).
    #[allow(clippy::too_many_arguments)]
    fn parse_seq_item_map(
        &mut self,
        first_line: usize,
        key: &str,
        key_col: usize,
        value_text: &str,
        value_col: usize,
        map_indent: usize,
    ) -> Result<Node, ParseError> {
        let span = Span {
            line: first_line,
            col: key_col,
        };
        let mut entries = Vec::new();
        self.pos += 1;
        let first_value = self.entry_value(value_text, first_line, value_col, map_indent)?;
        entries.push(MapEntry {
            key: key.to_string(),
            key_span: span,
            value: first_value,
        });
        self.collect_map_entries(map_indent, &mut entries)?;
        Ok(Node {
            span,
            value: Value::Map(entries),
        })
    }

    /// Parses consecutive `key: value` lines at `indent` into a mapping.
    fn parse_block_map(&mut self, indent: usize) -> Result<Node, ParseError> {
        let span = {
            let l = self.peek().expect("mapping start");
            Span {
                line: l.number,
                col: l.indent + 1,
            }
        };
        let mut entries = Vec::new();
        // first entry
        {
            let line = self.peek().expect("mapping start");
            let line_no = line.number;
            let Some((key, key_col, value_text, value_col)) =
                split_key(line.content, line.indent + 1)
            else {
                return Err(err(
                    span,
                    "expected 'key: value' (plain scalars cannot stand alone here)",
                ));
            };
            self.pos += 1;
            let value = self.entry_value(value_text, line_no, value_col, indent)?;
            entries.push(MapEntry {
                key,
                key_span: Span {
                    line: line_no,
                    col: key_col,
                },
                value,
            });
        }
        self.collect_map_entries(indent, &mut entries)?;
        Ok(Node {
            span,
            value: Value::Map(entries),
        })
    }

    /// Collects further `key: value` entries at exactly `indent` into
    /// `entries`, erroring on duplicates and stray deeper lines.
    fn collect_map_entries(
        &mut self,
        indent: usize,
        entries: &mut Vec<MapEntry>,
    ) -> Result<(), ParseError> {
        while let Some(line) = self.peek() {
            if line.indent < indent {
                break;
            }
            let line_span = Span {
                line: line.number,
                col: line.indent + 1,
            };
            if line.indent > indent {
                return Err(err(
                    line_span,
                    format!(
                        "unexpected indentation (expected a key at {} spaces)",
                        indent
                    ),
                ));
            }
            if line.content == "-" || line.content.starts_with("- ") {
                break; // sibling sequence: belongs to the enclosing key
            }
            let line_no = line.number;
            let Some((key, key_col, value_text, value_col)) =
                split_key(line.content, line.indent + 1)
            else {
                return Err(err(line_span, "expected 'key: value'"));
            };
            if entries.iter().any(|e| e.key == key) {
                return Err(err(
                    Span {
                        line: line_no,
                        col: key_col,
                    },
                    format!("duplicate key {key:?}"),
                ));
            }
            self.pos += 1;
            let value = self.entry_value(value_text, line_no, value_col, indent)?;
            entries.push(MapEntry {
                key,
                key_span: Span {
                    line: line_no,
                    col: key_col,
                },
                value,
            });
        }
        Ok(())
    }

    /// The value of a map entry: inline text if present, otherwise the
    /// nested block below (deeper than `key_indent`, or a sequence at the
    /// key's own indent — both standard YAML).
    fn entry_value(
        &mut self,
        value_text: &str,
        line_no: usize,
        value_col: usize,
        key_indent: usize,
    ) -> Result<Node, ParseError> {
        if !value_text.is_empty() {
            return parse_inline(
                value_text,
                Span {
                    line: line_no,
                    col: value_col,
                },
            );
        }
        match self.peek() {
            Some(next) if next.indent > key_indent => self.parse_block(next.indent),
            Some(next)
                if next.indent == key_indent
                    && (next.content == "-" || next.content.starts_with("- ")) =>
            {
                self.parse_block_seq(key_indent)
            }
            _ => Ok(Node {
                span: Span {
                    line: line_no,
                    col: value_col,
                },
                value: Value::Null,
            }),
        }
    }
}

/// Splits `key: value` at the first top-level unquoted `: ` (or a
/// trailing `:`). Returns `(key, key_col, value_text, value_col)`; `None`
/// when the line has no key separator. `start_col` is the 1-based column
/// of the first content character.
fn split_key(content: &str, start_col: usize) -> Option<(String, usize, &str, usize)> {
    let bytes = content.as_bytes();
    let mut in_single = false;
    let mut in_double = false;
    let mut escaped = false;
    let mut depth = 0usize; // inside flow collections ':' is not a key sep
    for (i, &b) in bytes.iter().enumerate() {
        if escaped {
            escaped = false;
            continue;
        }
        match b {
            b'\\' if in_double => escaped = true,
            b'"' if in_double => in_double = false,
            b'"' if !in_single && opens_quote(bytes, i) => in_double = true,
            b'\'' if in_single => in_single = false,
            b'\'' if !in_double && opens_quote(bytes, i) => in_single = true,
            b'[' | b'{' if !in_single && !in_double => depth += 1,
            b']' | b'}' if !in_single && !in_double => depth = depth.saturating_sub(1),
            b':' if !in_single && !in_double && depth == 0 => {
                let at_end = i + 1 == bytes.len();
                if at_end || bytes[i + 1] == b' ' {
                    let key = content[..i].trim_end();
                    let key = unquote_key(key);
                    let value = if at_end {
                        ""
                    } else {
                        content[i + 1..].trim_start()
                    };
                    let value_col = start_col + (content.len() - value.len());
                    return Some((key, start_col, value, value_col));
                }
            }
            _ => {}
        }
    }
    None
}

/// Strips surrounding quotes from a key, unescaping the contents with
/// the same rules as quoted scalar values (`\"`, `\\`, `\n`, `\t` in
/// double quotes; `''` in single quotes) — the emitter quotes keys with
/// the same `scalar()` helper it uses for values, so both must decode
/// identically or emitted names with quotes/backslashes fail to reparse.
fn unquote_key(key: &str) -> String {
    let b = key.as_bytes();
    if b.len() < 2 {
        return key.to_string();
    }
    let quote = b[0];
    if (quote != b'"' && quote != b'\'') || b[b.len() - 1] != quote {
        return key.to_string();
    }
    let inner = &key[1..key.len() - 1];
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        match (quote, c) {
            (b'"', '\\') => match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some(other) => out.push(other), // \" and \\ and anything else
                None => out.push('\\'),
            },
            (b'\'', '\'') => {
                // '' is an escaped quote; a lone ' cannot occur in a
                // well-formed single-quoted key
                if chars.next().is_some() {
                    out.push('\'');
                }
            }
            (_, other) => out.push(other),
        }
    }
    out
}

/// Parses an inline value: a flow collection or a scalar.
fn parse_inline(text: &str, span: Span) -> Result<Node, ParseError> {
    let mut cursor = Cursor {
        text,
        byte: 0,
        span,
    };
    let node = cursor.parse_value(false)?;
    cursor.skip_spaces();
    if cursor.byte < text.len() {
        return Err(err(
            cursor.here(),
            format!(
                "trailing characters after value: {:?}",
                &text[cursor.byte..]
            ),
        ));
    }
    Ok(node)
}

/// A character cursor over one line's inline value text.
struct Cursor<'a> {
    text: &'a str,
    byte: usize,
    /// Span of the text's first character (column math offsets from it).
    span: Span,
}

impl Cursor<'_> {
    fn here(&self) -> Span {
        Span {
            line: self.span.line,
            col: self.span.col + self.byte,
        }
    }

    fn rest(&self) -> &str {
        &self.text[self.byte..]
    }

    fn skip_spaces(&mut self) {
        while self.rest().starts_with(' ') {
            self.byte += 1;
        }
    }

    /// Parses one value; `in_flow` bounds plain scalars at `,`/`]`/`}`.
    fn parse_value(&mut self, in_flow: bool) -> Result<Node, ParseError> {
        self.skip_spaces();
        let span = self.here();
        match self.rest().as_bytes().first() {
            None => Ok(Node {
                span,
                value: Value::Null,
            }),
            Some(b'[') => self.parse_flow_seq(),
            Some(b'{') => self.parse_flow_map(),
            Some(b'"') | Some(b'\'') => {
                let s = self.parse_quoted()?;
                Ok(Node {
                    span,
                    value: Value::Scalar(s),
                })
            }
            Some(_) => {
                let s = if in_flow {
                    self.parse_plain_until(b",]}")
                } else {
                    self.parse_plain()
                };
                if s == "~" || s == "null" {
                    Ok(Node {
                        span,
                        value: Value::Null,
                    })
                } else {
                    Ok(Node {
                        span,
                        value: Value::Scalar(s),
                    })
                }
            }
        }
    }

    fn parse_flow_seq(&mut self) -> Result<Node, ParseError> {
        let span = self.here();
        self.byte += 1; // '['
        let mut items = Vec::new();
        loop {
            self.skip_spaces();
            match self.rest().as_bytes().first() {
                None => return Err(err(self.here(), "unterminated flow sequence (missing ']')")),
                Some(b']') => {
                    self.byte += 1;
                    break;
                }
                _ => {}
            }
            items.push(self.parse_value(true)?);
            self.skip_spaces();
            match self.rest().as_bytes().first() {
                Some(b',') => {
                    self.byte += 1;
                }
                Some(b']') => {}
                None => return Err(err(self.here(), "unterminated flow sequence (missing ']')")),
                _ => return Err(err(self.here(), "expected ',' or ']' in flow sequence")),
            }
        }
        Ok(Node {
            span,
            value: Value::Seq(items),
        })
    }

    fn parse_flow_map(&mut self) -> Result<Node, ParseError> {
        let span = self.here();
        self.byte += 1; // '{'
        let mut entries: Vec<MapEntry> = Vec::new();
        loop {
            self.skip_spaces();
            match self.rest().as_bytes().first() {
                None => return Err(err(self.here(), "unterminated flow mapping (missing '}')")),
                Some(b'}') => {
                    self.byte += 1;
                    break;
                }
                _ => {}
            }
            let key_span = self.here();
            let key = match self.rest().as_bytes().first() {
                Some(b'"') | Some(b'\'') => self.parse_quoted()?,
                _ => {
                    let k = self.parse_plain_until(b":,}");
                    if k.is_empty() {
                        return Err(err(key_span, "expected a key in flow mapping"));
                    }
                    k
                }
            };
            self.skip_spaces();
            if self.rest().as_bytes().first() != Some(&b':') {
                return Err(err(self.here(), "expected ':' after flow mapping key"));
            }
            self.byte += 1;
            let value = self.parse_value(true)?;
            if entries.iter().any(|e| e.key == key) {
                return Err(err(key_span, format!("duplicate key {key:?}")));
            }
            entries.push(MapEntry {
                key,
                key_span,
                value,
            });
            self.skip_spaces();
            match self.rest().as_bytes().first() {
                Some(b',') => {
                    self.byte += 1;
                }
                Some(b'}') => {}
                None => return Err(err(self.here(), "unterminated flow mapping (missing '}')")),
                _ => return Err(err(self.here(), "expected ',' or '}' in flow mapping")),
            }
        }
        Ok(Node {
            span,
            value: Value::Map(entries),
        })
    }

    /// A quoted scalar; the cursor sits on the opening quote.
    fn parse_quoted(&mut self) -> Result<String, ParseError> {
        let quote = self.rest().as_bytes()[0];
        let start = self.here();
        self.byte += 1;
        let mut out = String::new();
        loop {
            let Some(&b) = self.rest().as_bytes().first() else {
                return Err(err(start, "unterminated quoted string"));
            };
            if b == quote {
                self.byte += 1;
                // '' inside single quotes is an escaped quote
                if quote == b'\'' && self.rest().as_bytes().first() == Some(&b'\'') {
                    out.push('\'');
                    self.byte += 1;
                    continue;
                }
                return Ok(out);
            }
            if b == b'\\' && quote == b'"' {
                self.byte += 1;
                let Some(&e) = self.rest().as_bytes().first() else {
                    return Err(err(start, "unterminated escape in quoted string"));
                };
                out.push(match e {
                    b'n' => '\n',
                    b't' => '\t',
                    b'"' => '"',
                    b'\\' => '\\',
                    other => {
                        return Err(err(
                            self.here(),
                            format!("unsupported escape '\\{}'", other as char),
                        ))
                    }
                });
                self.byte += 1;
                continue;
            }
            let ch_len = self.rest().chars().next().map(char::len_utf8).unwrap_or(1);
            out.push_str(&self.rest()[..ch_len]);
            self.byte += ch_len;
        }
    }

    /// A plain (unquoted) scalar running to the end of the line.
    fn parse_plain(&mut self) -> String {
        let s = self.rest().trim_end().to_string();
        self.byte = self.text.len();
        s
    }

    /// A plain scalar terminated by any of `stops` (flow context).
    fn parse_plain_until(&mut self, stops: &[u8]) -> String {
        let rest = self.rest();
        let end = rest
            .bytes()
            .position(|b| stops.contains(&b))
            .unwrap_or(rest.len());
        let s = rest[..end].trim().to_string();
        self.byte += end;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(node: &Node) -> &[MapEntry] {
        match &node.value {
            Value::Map(entries) => entries,
            other => panic!("expected map, got {}", other.kind()),
        }
    }

    fn scalar(node: &Node) -> &str {
        match &node.value {
            Value::Scalar(s) => s,
            other => panic!("expected scalar, got {}", other.kind()),
        }
    }

    #[test]
    fn block_map_and_nesting() {
        let doc = parse_document("a: 1\nb:\n  c: hi\n  d: [1, 2]\n").unwrap();
        let root = map(&doc);
        assert_eq!(root[0].key, "a");
        assert_eq!(scalar(&root[0].value), "1");
        let b = map(&root[1].value);
        assert_eq!(b[0].key, "c");
        assert_eq!(scalar(&b[0].value), "hi");
        assert!(matches!(b[1].value.value, Value::Seq(ref s) if s.len() == 2));
    }

    #[test]
    fn block_seq_of_maps() {
        let doc = parse_document("items:\n  - name: x\n    n: 1\n  - name: y\n    n: 2\n").unwrap();
        let root = map(&doc);
        let Value::Seq(items) = &root[0].value.value else {
            panic!("expected seq");
        };
        assert_eq!(items.len(), 2);
        let first = map(&items[0]);
        assert_eq!(first[0].key, "name");
        assert_eq!(scalar(&first[0].value), "x");
        assert_eq!(first[1].key, "n");
    }

    #[test]
    fn seq_at_key_indent() {
        let doc = parse_document("items:\n- a\n- b\n").unwrap();
        let root = map(&doc);
        let Value::Seq(items) = &root[0].value.value else {
            panic!("expected seq");
        };
        assert_eq!(items.len(), 2);
        assert_eq!(scalar(&items[0]), "a");
    }

    #[test]
    fn flow_collections() {
        let doc =
            parse_document("x: {a: 1, b: [p, q], c: \"s: t\"}\ny: [{n: 1}, {n: 2}]\n").unwrap();
        let root = map(&doc);
        let x = map(&root[0].value);
        assert_eq!(scalar(&x[0].value), "1");
        let Value::Seq(b) = &x[1].value.value else {
            panic!()
        };
        assert_eq!(scalar(&b[1]), "q");
        assert_eq!(scalar(&x[2].value), "s: t");
        let Value::Seq(y) = &root[1].value.value else {
            panic!()
        };
        assert_eq!(map(&y[1])[0].key, "n");
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let doc = parse_document("# header\n\na: 1  # trailing\n\n# middle\nb: 2\n").unwrap();
        let root = map(&doc);
        assert_eq!(root.len(), 2);
        assert_eq!(scalar(&root[1].value), "2");
    }

    #[test]
    fn hash_inside_quotes_kept() {
        let doc = parse_document("a: \"x # y\"\n").unwrap();
        assert_eq!(scalar(&map(&doc)[0].value), "x # y");
    }

    #[test]
    fn apostrophe_in_plain_scalar_does_not_eat_comments() {
        // a mid-word apostrophe is a character, not a quote opener: the
        // trailing comment must still be stripped
        let doc = parse_document("title: Tim's data  # a comment\nn: 1\n").unwrap();
        let root = map(&doc);
        assert_eq!(scalar(&root[0].value), "Tim's data");
        assert_eq!(scalar(&root[1].value), "1");
        // ...while a value-position quote still protects its contents
        let doc = parse_document("a: 'kept # here'\n").unwrap();
        assert_eq!(scalar(&map(&doc)[0].value), "kept # here");
    }

    #[test]
    fn plain_scalar_with_spaces_in_flow_seq() {
        let doc = parse_document("loops: [for m in 8, parallel-for n in 16]\n").unwrap();
        let Value::Seq(items) = &map(&doc)[0].value.value else {
            panic!()
        };
        assert_eq!(scalar(&items[0]), "for m in 8");
        assert_eq!(scalar(&items[1]), "parallel-for n in 16");
    }

    #[test]
    fn quoted_escapes() {
        let doc = parse_document("a: \"q\\\"w\\\\e\"\nb: 'it''s'\n").unwrap();
        let root = map(&doc);
        assert_eq!(scalar(&root[0].value), "q\"w\\e");
        assert_eq!(scalar(&root[1].value), "it's");
    }

    #[test]
    fn quoted_keys_unescape_like_values() {
        // block keys must decode exactly like quoted values — the
        // emitter quotes both with the same helper
        let doc = parse_document("\"A\\\"B\": 1\n'it''s': 2\n\"x:y\": 3\n").unwrap();
        let root = map(&doc);
        assert_eq!(root[0].key, "A\"B");
        assert_eq!(root[1].key, "it's");
        assert_eq!(root[2].key, "x:y");
    }

    #[test]
    fn null_values() {
        let doc = parse_document("a:\nb: 1\n").unwrap();
        let root = map(&doc);
        assert!(matches!(root[0].value.value, Value::Null));
    }

    #[test]
    fn spans_point_at_source() {
        let doc = parse_document("a: 1\nnested:\n  deep: [1, 2]\n").unwrap();
        let root = map(&doc);
        assert_eq!(root[1].key_span, Span { line: 2, col: 1 });
        let nested = map(&root[1].value);
        assert_eq!(nested[0].key_span, Span { line: 3, col: 3 });
        assert_eq!(nested[0].value.span, Span { line: 3, col: 9 });
    }

    #[test]
    fn error_on_tab() {
        let e = parse_document("a:\n\tb: 1\n").unwrap_err();
        assert_eq!(e.span.line, 2);
        assert!(e.message.contains("tab"));
    }

    #[test]
    fn error_on_bad_indent() {
        let e = parse_document("a:\n  b: 1\n   c: 2\n").unwrap_err();
        assert_eq!(e.span.line, 3);
        assert!(e.message.contains("indent"), "{}", e.message);
    }

    #[test]
    fn error_on_duplicate_key() {
        let e = parse_document("a: 1\na: 2\n").unwrap_err();
        assert!(e.message.contains("duplicate"), "{}", e.message);
        assert_eq!(e.span.line, 2);
    }

    #[test]
    fn error_on_unterminated_flow() {
        let e = parse_document("a: [1, 2\n").unwrap_err();
        assert!(e.message.contains("unterminated"), "{}", e.message);
    }

    #[test]
    fn error_on_scalar_line_in_map() {
        let e = parse_document("a: 1\njust a scalar\n").unwrap_err();
        assert_eq!(e.span.line, 2);
    }

    #[test]
    fn error_on_empty_document() {
        assert!(parse_document("# nothing\n\n").is_err());
    }

    #[test]
    fn parser_never_panics_on_mutated_corpus() {
        // seeded byte-level insert/delete/replace mutations of every
        // example spec: each mutant parses or fails with a ParseError
        // positioned inside the source, and never panics
        const ALPHABET: &[u8] = b" \n\t#:-,[]{}\"'\\|>&*!%@`a1.\xff";
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .expect("example spec corpus")
            .map(|entry| entry.expect("corpus entry").path())
            .filter(|p| p.extension().is_some_and(|e| e == "yaml"))
            .collect();
        paths.sort();
        assert!(!paths.is_empty(), "no specs under {}", dir.display());
        // splitmix64: a fixed seed gives the same mutants on every run
        let mut state = 0x5eed_u64;
        let mut next = |bound: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound.max(1) as u64) as usize
        };
        for path in &paths {
            let original = std::fs::read(path).expect("readable spec");
            for _ in 0..60 {
                let mut bytes = original.clone();
                for _ in 0..1 + next(8) {
                    let at = next(bytes.len() + 1);
                    let byte = ALPHABET[next(ALPHABET.len())];
                    match next(3) {
                        0 => bytes.insert(at, byte),
                        1 if at < bytes.len() => drop(bytes.remove(at)),
                        _ if at < bytes.len() => bytes[at] = byte,
                        _ => bytes.push(byte),
                    }
                }
                let source = String::from_utf8_lossy(&bytes);
                let outcome = std::panic::catch_unwind(|| parse_document(&source));
                let Ok(result) = outcome else {
                    panic!("{} mutant panicked the parser:\n{source}", path.display());
                };
                if let Err(e) = result {
                    let lines = source.lines().count() + 1;
                    assert!(
                        e.span.line >= 1 && e.span.line <= lines && e.span.col >= 1,
                        "{} mutant: unpositioned error {e}",
                        path.display()
                    );
                }
            }
        }
    }
}
