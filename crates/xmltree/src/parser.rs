//! A hand-rolled XML parser. The serializer is part of sealing a
//! [`Document`]: see [`Document::content_str`].
//!
//! The paper assumes stored documents exist; this module is the substrate
//! that materializes them from text. It covers the XML subset the thesis
//! works with: elements, attributes, character data, comments, CDATA,
//! processing instructions (skipped), a prolog, and the five predefined
//! entities. Namespaces are treated lexically (prefixes are part of labels),
//! and DTDs are skipped, matching the paper's schema-less stance (§2.1.4
//! observes barely 40% of web XML has a DTD).

use std::borrow::Cow;
use std::fmt;

use crate::document::{Document, DocumentBuilder, NodeId};

/// Error produced while parsing an XML document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XML parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    text: &'a str,
    input: &'a [u8],
    pos: usize,
    builder: DocumentBuilder,
    depth: usize,
}

/// Parse an XML document from text.
///
/// ```
/// let doc = xmltree::parse_document("<bib><book year=\"1999\"><title>Data on the Web</title></book></bib>").unwrap();
/// assert_eq!(doc.label(doc.root()), "bib");
/// assert_eq!(doc.value(doc.root()), "Data on the Web");
/// ```
pub fn parse_document(text: &str) -> Result<Document, ParseError> {
    // node payloads are never longer than the input they were parsed from
    if u32::try_from(text.len()).is_err() {
        return Err(ParseError {
            offset: 0,
            message: "document text exceeds u32 offsets".to_string(),
        });
    }
    let mut p = Parser {
        text,
        input: text.as_bytes(),
        pos: 0,
        builder: DocumentBuilder::sized_for(text),
        depth: 0,
    };
    p.skip_misc()?;
    if !p.at(b"<") {
        return Err(p.err("expected root element"));
    }
    p.parse_element()?;
    p.skip_misc()?;
    if p.pos != p.input.len() {
        return Err(p.err("trailing content after root element"));
    }
    let offset = p.pos;
    p.builder.try_finish().ok_or_else(|| ParseError {
        offset,
        message: "document serialization exceeds u32 offsets".to_string(),
    })
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn at(&self, s: &[u8]) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn expect(&mut self, s: &[u8]) -> Result<(), ParseError> {
        if self.at(s) {
            self.bump(s.len());
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", String::from_utf8_lossy(s))))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Skip whitespace, comments, PIs and the prolog/DOCTYPE between markup.
    fn skip_misc(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            if self.at(b"<?") {
                let end = self.find(b"?>")?;
                self.pos = end + 2;
            } else if self.at(b"<!--") {
                let end = self.find(b"-->")?;
                self.pos = end + 3;
            } else if self.at(b"<!DOCTYPE") {
                // skip to matching '>' (internal subsets use brackets)
                let mut brackets = 0usize;
                while let Some(c) = self.peek() {
                    self.pos += 1;
                    match c {
                        b'[' => brackets += 1,
                        b']' => brackets = brackets.saturating_sub(1),
                        b'>' if brackets == 0 => break,
                        _ => {}
                    }
                }
            } else {
                return Ok(());
            }
        }
    }

    fn find(&self, needle: &[u8]) -> Result<usize, ParseError> {
        self.input[self.pos..]
            .windows(needle.len())
            .position(|w| w == needle)
            .map(|i| self.pos + i)
            .ok_or_else(|| {
                self.err(&format!(
                    "unterminated `{}`",
                    String::from_utf8_lossy(needle)
                ))
            })
    }

    /// The input between byte offsets `start` and `end`, both of which
    /// sit on ASCII delimiters or the ends of the input.
    fn slice(&self, start: usize, end: usize) -> &'a str {
        &self.text[start..end]
    }

    fn parse_name(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            let ok = c.is_ascii_alphanumeric()
                || matches!(c, b'_' | b'-' | b'.' | b':' | b'#')
                || c >= 0x80;
            if !ok {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(self.slice(start, self.pos))
    }

    fn parse_element(&mut self) -> Result<NodeId, ParseError> {
        self.depth += 1;
        if self.depth > 10_000 {
            return Err(self.err("element nesting too deep"));
        }
        self.expect(b"<")?;
        let name = self.parse_name()?;
        let id = self.builder.open_element(name);
        // attributes
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.expect(b"/>")?;
                    self.builder.close_element();
                    self.depth -= 1;
                    return Ok(id);
                }
                Some(b'>') => {
                    self.bump(1);
                    break;
                }
                Some(_) => {
                    let aname = self.parse_name()?;
                    self.skip_ws();
                    self.expect(b"=")?;
                    self.skip_ws();
                    let quote = self.peek().ok_or_else(|| self.err("eof in attribute"))?;
                    if quote != b'"' && quote != b'\'' {
                        return Err(self.err("expected quoted attribute value"));
                    }
                    self.bump(1);
                    let start = self.pos;
                    while self.peek() != Some(quote) {
                        if self.peek().is_none() {
                            return Err(self.err("unterminated attribute value"));
                        }
                        self.pos += 1;
                    }
                    let raw = self.slice(start, self.pos);
                    self.bump(1);
                    self.builder.attribute(aname, &unescape(raw));
                }
                None => return Err(self.err("eof in start tag")),
            }
        }
        // content
        loop {
            match self.peek() {
                None => return Err(self.err("eof inside element")),
                Some(b'<') => {
                    if self.at(b"</") {
                        self.bump(2);
                        let close = self.parse_name()?;
                        if close != name {
                            return Err(self.err(&format!(
                                "mismatched close tag: expected </{name}>, found </{close}>"
                            )));
                        }
                        self.skip_ws();
                        self.expect(b">")?;
                        self.builder.close_element();
                        self.depth -= 1;
                        return Ok(id);
                    } else if self.at(b"<!--") {
                        let end = self.find(b"-->")?;
                        self.pos = end + 3;
                    } else if self.at(b"<![CDATA[") {
                        self.bump(9);
                        let end = self.find(b"]]>")?;
                        let raw = self.slice(self.pos, end);
                        if !raw.is_empty() {
                            self.builder.text(raw);
                        }
                        self.pos = end + 3;
                    } else if self.at(b"<?") {
                        let end = self.find(b"?>")?;
                        self.pos = end + 2;
                    } else {
                        self.parse_element()?;
                    }
                }
                Some(_) => {
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == b'<' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let text = unescape(self.slice(start, self.pos));
                    if !text.trim().is_empty() {
                        self.builder.text(&text);
                    }
                }
            }
        }
    }
}

/// Decode the predefined XML entities and decimal/hex character references.
fn unescape(s: &str) -> Cow<'_, str> {
    if !s.contains('&') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find('&') {
        out.push_str(&rest[..i]);
        rest = &rest[i..];
        if let Some(semi) = rest.find(';') {
            let ent = &rest[1..semi];
            match ent {
                "amp" => out.push('&'),
                "lt" => out.push('<'),
                "gt" => out.push('>'),
                "quot" => out.push('"'),
                "apos" => out.push('\''),
                _ if ent.starts_with("#x") || ent.starts_with("#X") => {
                    if let Ok(cp) = u32::from_str_radix(&ent[2..], 16) {
                        out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                    }
                }
                _ if ent.starts_with('#') => {
                    if let Ok(cp) = ent[1..].parse::<u32>() {
                        out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                    }
                }
                _ => {
                    // unknown entity: keep literally
                    out.push('&');
                    out.push_str(ent);
                    out.push(';');
                }
            }
            rest = &rest[semi + 1..];
        } else {
            out.push_str(rest);
            rest = "";
        }
    }
    out.push_str(rest);
    Cow::Owned(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::NodeKind;

    #[test]
    fn parses_nested_elements_and_attributes() {
        let doc = parse_document(
            r#"<bib><book year="1999"><title>Data on the Web</title><author>Abiteboul</author></book></bib>"#,
        )
        .unwrap();
        assert_eq!(doc.label(doc.root()), "bib");
        let book = doc.children(doc.root())[0];
        assert_eq!(doc.label(book), "book");
        let year = doc.children(book)[0];
        assert_eq!(doc.kind(year), NodeKind::Attribute);
        assert_eq!(doc.value(year), "1999");
        assert_eq!(doc.value(book), "Data on the WebAbiteboul");
    }

    #[test]
    fn self_closing_and_whitespace() {
        let doc = parse_document("<a>\n  <b/>\n  <c  x='1'   />\n</a>").unwrap();
        assert_eq!(doc.children(doc.root()).len(), 2);
    }

    #[test]
    fn prolog_comments_cdata_pi() {
        let doc = parse_document(
            "<?xml version=\"1.0\"?><!-- hi --><a><!-- in --><![CDATA[x < y]]><?pi data?></a>",
        )
        .unwrap();
        assert_eq!(doc.value(doc.root()), "x < y");
    }

    #[test]
    fn doctype_skipped() {
        let doc = parse_document("<!DOCTYPE bib [ <!ELEMENT bib (book*)> ]><bib/>").unwrap();
        assert_eq!(doc.label(doc.root()), "bib");
    }

    #[test]
    fn entities_roundtrip() {
        let doc = parse_document("<a t=\"&lt;&amp;&quot;\">x &amp; y &#65;&#x42;</a>").unwrap();
        assert_eq!(doc.value(doc.root()), "x & y AB");
        let t = doc.children(doc.root())[0];
        assert_eq!(doc.value(t), "<&\"");
        // serialize and reparse
        let text = doc.content(doc.root());
        let doc2 = parse_document(&text).unwrap();
        assert_eq!(doc2.value(doc2.root()), "x & y AB");
    }

    #[test]
    fn mismatched_tags_error() {
        let e = parse_document("<a><b></a></b>").unwrap_err();
        assert!(e.message.contains("mismatched"));
    }

    #[test]
    fn trailing_garbage_error() {
        assert!(parse_document("<a/><b/>").is_err());
    }

    #[test]
    fn unterminated_errors() {
        assert!(parse_document("<a>").is_err());
        assert!(parse_document("<a x=>").is_err());
        assert!(parse_document("<a x=\"1>").is_err());
        assert!(parse_document("<!-- never closed").is_err());
    }

    #[test]
    fn serialize_roundtrips_structure() {
        let src = r#"<site><regions><item id="7"><name>gold watch</name><description><parlist><listitem>fine <bold>gold</bold></listitem></parlist></description></item></regions></site>"#;
        let d1 = parse_document(src).unwrap();
        let text = d1.content(d1.root());
        let d2 = parse_document(&text).unwrap();
        assert_eq!(d1.len(), d2.len());
        for (a, b) in d1.all_nodes().zip(d2.all_nodes()) {
            assert_eq!(d1.label(a), d2.label(b));
            assert_eq!(d1.kind(a), d2.kind(b));
            assert_eq!(d1.structural_id(a), d2.structural_id(b));
        }
    }

    #[test]
    fn whitespace_only_text_dropped() {
        let doc = parse_document("<a>  <b>x</b>  </a>").unwrap();
        // only the b element child, no whitespace text nodes
        assert_eq!(doc.children(doc.root()).len(), 1);
    }

    #[test]
    fn more_nodes_than_the_sizing_estimate() {
        // 5 `<`, no `=`, 7 nodes: the node arena grows past its estimate
        let src = "<a>x<b/>y<c/>z<![CDATA[w]]></a>";
        let doc = parse_document(src).unwrap();
        assert_eq!(doc.len(), 7);
        let kids: Vec<_> = doc
            .children(doc.root())
            .iter()
            .map(|&n| doc.label(n))
            .collect();
        assert_eq!(kids, ["#text", "b", "#text", "c", "#text", "#text"]);
        assert_eq!(doc.content(doc.root()), "<a>x<b/>y<c/>zw</a>");
        assert_eq!(doc.value(doc.root()), "xyzw");
    }
}
