//! The XML document tree (§1.1 of the paper).
//!
//! A [`Document`] owns an arena of nodes. Nodes are referred to by
//! [`NodeId`], a dense index into the arena assigned in *document order*
//! (pre-order), so the `pre` component of a node's structural identifier is
//! exactly its `NodeId`. Elements, attributes and text nodes are all
//! first-class. Text and attribute payloads live in one per-document arena.
//! Sealing writes the document's canonical serialization once and records
//! every node's `[start, end)` span in it, so the paper's *content*
//! (serialized subtree) of any node is a slice; the element *value*
//! (`text()` result) is derived on demand.

use std::collections::HashMap;
use std::fmt;

use crate::dewey::DeweyId;
use crate::ids::StructuralId;

/// Index of a node within a [`Document`] arena; doubles as the pre-order
/// rank of the node, since nodes are created in document order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The root element of every sealed document (the document node itself is
    /// implicit; index 0 is the top element, as in the paper we "refer to the
    /// unique element child of the document node as the document's root").
    pub const ROOT: NodeId = NodeId(0);

    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The kind of an XML node. The document node is implicit; per the paper we
/// ignore it and treat the top element as the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An element node (`Φ_e`).
    Element,
    /// An attribute node (`Φ_a`); its label is the attribute name *without*
    /// the `@` sigil, and its value is the attribute value.
    Attribute,
    /// A text leaf; its "label" is the reserved name `#text`.
    Text,
}

/// One node's record, including what sealing derives for it (its content
/// span and where its children start), so that a document is four large
/// buffers — nodes, text, serialization, children — plus its labels.
#[derive(Debug, Clone, Copy)]
struct NodeData {
    kind: NodeKind,
    /// Interned label id. For text nodes, the id of `#text`.
    label: u32,
    parent: Option<NodeId>,
    /// Direct textual payload (attribute value or text-node characters)
    /// as a `[start, end)` byte span of [`Document::text`]; empty for
    /// elements.
    text: [u32; 2],
    /// `[start, end)` byte span of the node's content in
    /// [`Document::xml`], recorded when the document is sealed.
    span: [u32; 2],
    /// While building, the number of children; once sealed, where they
    /// start in [`Document::kids`] (they end where the next node's start).
    kids: u32,
    /// Post-order rank, assigned when the node's subtree is complete.
    post: u32,
    /// Depth: root element has depth 1.
    depth: u16,
}

/// An immutable XML document: an arena of nodes in document order, plus a
/// label interner. Build one with [`DocumentBuilder`] or
/// [`crate::parser::parse_document`].
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<NodeData>,
    labels: Vec<Box<str>>,
    label_ids: HashMap<Box<str>, u32>,
    /// Every text and attribute payload, concatenated in document order.
    text: String,
    /// The canonical serialization of the root, written once when sealed.
    xml: String,
    /// Every node's children, grouped by parent in document order.
    kids: Vec<NodeId>,
}

impl Document {
    /// Number of nodes (elements + attributes + text leaves).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of element nodes.
    pub fn element_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Element)
            .count()
    }

    /// The root element of the document.
    pub fn root(&self) -> NodeId {
        NodeId::ROOT
    }

    /// Kind of `n`.
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.nodes[n.index()].kind
    }

    /// Label (tag name / attribute name / `#text`) of `n`.
    pub fn label(&self, n: NodeId) -> &str {
        &self.labels[self.nodes[n.index()].label as usize]
    }

    /// Interned label id of `n`; equal labels share ids.
    pub fn label_id(&self, n: NodeId) -> u32 {
        self.nodes[n.index()].label
    }

    /// Look up the interned id of a label, if any node uses it.
    pub fn find_label(&self, label: &str) -> Option<u32> {
        self.label_ids.get(label).copied()
    }

    /// Parent of `n` (`None` for the root element).
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.nodes[n.index()].parent
    }

    /// Children of `n` in document order (attributes first, then
    /// element/text children, matching construction order).
    pub fn children(&self, n: NodeId) -> &[NodeId] {
        let i = n.index();
        let end = self
            .nodes
            .get(i + 1)
            .map_or(self.kids.len(), |d| d.kids as usize);
        &self.kids[self.nodes[i].kids as usize..end]
    }

    /// `(pre, post, depth)` structural identifier of `n` (§1.2.1).
    pub fn structural_id(&self, n: NodeId) -> StructuralId {
        let d = &self.nodes[n.index()];
        StructuralId {
            pre: n.0,
            post: d.post,
            depth: d.depth,
        }
    }

    /// Dewey (navigational) identifier of `n`: the chain of child ranks from
    /// the root. Computed on demand; O(depth).
    pub fn dewey_id(&self, n: NodeId) -> DeweyId {
        let mut steps = Vec::with_capacity(self.nodes[n.index()].depth as usize);
        let mut cur = n;
        while let Some(p) = self.parent(cur) {
            let rank = self.children(p).iter().position(|&c| c == cur).unwrap() as u32;
            steps.push(rank);
            cur = p;
        }
        steps.reverse();
        DeweyId::from_steps(steps)
    }

    /// True iff `anc` is a proper ancestor of `desc` (the `≺≺` predicate).
    pub fn is_ancestor(&self, anc: NodeId, desc: NodeId) -> bool {
        self.structural_id(anc)
            .is_ancestor_of(self.structural_id(desc))
    }

    /// True iff `p` is the parent of `c` (the `≺` predicate).
    pub fn is_parent(&self, p: NodeId, c: NodeId) -> bool {
        self.parent(c) == Some(p)
    }

    /// The *value* of a node (§1.1): for text nodes and attributes, their
    /// payload; for elements, the concatenation of all descendant text, in
    /// document order (the XPath `text()`-derived string value).
    pub fn value(&self, n: NodeId) -> String {
        if self.kind(n) != NodeKind::Element {
            return self.payload(n).to_string();
        }
        let mut out = String::new();
        self.collect_text(n, &mut out);
        out
    }

    /// Text or attribute payload of `n`; empty for elements.
    fn payload(&self, n: NodeId) -> &str {
        let [start, end] = self.nodes[n.index()].text;
        &self.text[start as usize..end as usize]
    }

    fn collect_text(&self, n: NodeId, out: &mut String) {
        for &c in self.children(n) {
            match self.kind(c) {
                NodeKind::Text => out.push_str(self.payload(c)),
                NodeKind::Element => self.collect_text(c, out),
                NodeKind::Attribute => {}
            }
        }
    }

    /// The *content* of a node (§1.1): the serialization of the subtree
    /// rooted at `n` (for attributes, `name="value"`), as an owned copy of
    /// [`Document::content_str`].
    pub fn content(&self, n: NodeId) -> String {
        self.content_str(n).to_string()
    }

    /// The *content* of `n`, borrowed: a slice of the document's canonical
    /// serialization, which sealing writes once.
    pub fn content_str(&self, n: NodeId) -> &str {
        let [start, end] = self.nodes[n.index()].span;
        &self.xml[start as usize..end as usize]
    }

    /// Iterator over all nodes in document (pre) order.
    pub fn all_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterator over all element nodes in document order.
    pub fn elements(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.all_nodes()
            .filter(move |&n| self.kind(n) == NodeKind::Element)
    }

    /// Iterator over all attribute nodes in document order.
    pub fn attributes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.all_nodes()
            .filter(move |&n| self.kind(n) == NodeKind::Attribute)
    }

    /// Elements and attributes with the given label, in document order.
    /// This is the *tag-derived collection* `R_t` of Definition 2.2.1
    /// restricted to node ids (the algebra layer adds Val/Tag/Cont columns).
    pub fn nodes_with_label<'a>(
        &'a self,
        label: &str,
        kind: NodeKind,
    ) -> impl Iterator<Item = NodeId> + 'a {
        let id = self.find_label(label);
        self.all_nodes()
            .filter(move |&n| Some(self.label_id(n)) == id && self.kind(n) == kind)
    }

    /// Descendants of `n` (excluding `n`), in document order. Relies on the
    /// pre/post plane: descendants are the contiguous pre-order ids whose
    /// post is smaller.
    pub fn descendants(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let sid = self.structural_id(n);
        ((n.0 + 1)..self.nodes.len() as u32)
            .map(NodeId)
            .take_while(move |m| self.structural_id(*m).post < sid.post)
    }

    /// The rooted label path of a node, e.g. `/bib/book/title` (attributes
    /// get an `@` sigil, text nodes `#text`), used to key path summaries.
    pub fn label_path(&self, n: NodeId) -> String {
        let mut parts = Vec::new();
        let mut cur = Some(n);
        while let Some(c) = cur {
            let d = &self.nodes[c.index()];
            let lbl = &self.labels[d.label as usize];
            match d.kind {
                NodeKind::Attribute => parts.push(format!("@{lbl}")),
                _ => parts.push(lbl.to_string()),
            }
            cur = d.parent;
        }
        parts.reverse();
        let mut out = String::new();
        for p in parts {
            out.push('/');
            out.push_str(&p);
        }
        out
    }

    /// All interned labels.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.labels.iter().map(|l| &**l)
    }
}

/// Incremental builder for [`Document`]s. Elements are opened and closed in
/// document order; attribute and text leaves attach to the open element.
///
/// ```
/// use xmltree::{DocumentBuilder, NodeKind};
/// let mut b = DocumentBuilder::new();
/// let book = b.open_element("book");
/// b.attribute("year", "1999");
/// let t = b.open_element("title");
/// b.text("Data on the Web");
/// b.close_element();
/// b.close_element();
/// let doc = b.finish();
/// assert_eq!(doc.label(doc.root()), "book");
/// assert_eq!(doc.value(t), "Data on the Web");
/// assert_eq!(doc.kind(doc.children(book)[0]), NodeKind::Attribute);
/// ```
#[derive(Debug)]
pub struct DocumentBuilder {
    doc: Document,
    stack: Vec<NodeId>,
    /// Post rank of the next node whose subtree completes.
    next_post: u32,
    /// Interned id of `#text`, once a text node has used it.
    text_label: Option<u32>,
}

impl Default for DocumentBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DocumentBuilder {
    pub fn new() -> Self {
        DocumentBuilder {
            doc: Document {
                nodes: Vec::new(),
                labels: Vec::new(),
                label_ids: HashMap::new(),
                text: String::new(),
                xml: String::new(),
                kids: Vec::new(),
            },
            stack: Vec::new(),
            next_post: 0,
            text_label: None,
        }
    }

    /// A builder whose node and text arenas are sized for parsing `xml`,
    /// so that a parse fills one allocation of each instead of a chain of
    /// doublings whose freed steps fragment the heap. The payloads
    /// together are never longer than the input they are parsed from.
    /// Elements and text nodes number about as many as `<`s (a start tag
    /// has one, a text run ends at one) and attributes as `=`s; mixed
    /// content around empty elements can exceed that, and the node arena
    /// then grows.
    pub(crate) fn sized_for(xml: &str) -> DocumentBuilder {
        let (mut tags, mut attrs) = (0usize, 0usize);
        for &b in xml.as_bytes() {
            tags += usize::from(b == b'<');
            attrs += usize::from(b == b'=');
        }
        let mut b = DocumentBuilder::new();
        // input that is mostly `<` is not a document; if it cannot be
        // reserved for, the arenas just grow as the parse fills them
        let _ = b.doc.nodes.try_reserve_exact(tags + attrs);
        let _ = b.doc.text.try_reserve_exact(xml.len());
        b
    }

    fn intern(&mut self, label: &str) -> u32 {
        if let Some(&id) = self.doc.label_ids.get(label) {
            return id;
        }
        let id = self.doc.labels.len() as u32;
        let boxed: Box<str> = label.into();
        self.doc.labels.push(boxed.clone());
        self.doc.label_ids.insert(boxed, id);
        id
    }

    fn push_node(&mut self, kind: NodeKind, label: u32, payload: &str) -> NodeId {
        let id = NodeId(self.doc.nodes.len() as u32);
        let parent = self.stack.last().copied();
        let depth = parent
            .map(|p| self.doc.nodes[p.index()].depth + 1)
            .unwrap_or(1);
        if let Some(p) = parent {
            self.doc.nodes[p.index()].kids += 1;
        } else {
            assert!(
                self.doc.nodes.is_empty(),
                "document must have a single root element"
            );
            assert_eq!(kind, NodeKind::Element, "root must be an element");
        }
        let start = self.doc.text.len();
        self.doc.text.push_str(payload);
        let text = [start, self.doc.text.len()]
            .map(|o| u32::try_from(o).expect("document text exceeds u32 offsets"));
        // a leaf's subtree is complete once pushed; an element's when closed
        let post = if kind == NodeKind::Element {
            0
        } else {
            self.take_post()
        };
        self.doc.nodes.push(NodeData {
            kind,
            label,
            parent,
            text,
            span: [0; 2],
            kids: 0,
            post,
            depth,
        });
        id
    }

    fn take_post(&mut self) -> u32 {
        let post = self.next_post;
        self.next_post += 1;
        post
    }

    /// Open a new element as the next child of the currently open element
    /// (or as the root). Returns its id.
    pub fn open_element(&mut self, label: &str) -> NodeId {
        let label = self.intern(label);
        let id = self.push_node(NodeKind::Element, label, "");
        self.stack.push(id);
        id
    }

    /// Close the currently open element.
    pub fn close_element(&mut self) {
        let id = self
            .stack
            .pop()
            .expect("close_element without matching open_element");
        self.doc.nodes[id.index()].post = self.take_post();
    }

    /// Attach an attribute to the currently open element.
    pub fn attribute(&mut self, name: &str, value: &str) -> NodeId {
        assert!(!self.stack.is_empty(), "attribute outside any element");
        let label = self.intern(name);
        self.push_node(NodeKind::Attribute, label, value)
    }

    /// Attach a text leaf to the currently open element.
    pub fn text(&mut self, chars: &str) -> NodeId {
        assert!(!self.stack.is_empty(), "text outside any element");
        let label = match self.text_label {
            Some(id) => id,
            None => {
                let id = self.intern("#text");
                *self.text_label.insert(id)
            }
        };
        self.push_node(NodeKind::Text, label, chars)
    }

    /// Convenience: `<label>text</label>` as a single call.
    pub fn leaf_element(&mut self, label: &str, text: &str) -> NodeId {
        let id = self.open_element(label);
        self.text(text);
        self.close_element();
        id
    }

    /// Finish construction: groups children by parent, writes the
    /// canonical serialization and returns the immutable document. Panics
    /// if elements remain open, the document is empty, or its
    /// serialization does not fit `u32` offsets.
    pub fn finish(self) -> Document {
        self.try_finish()
            .expect("document serialization exceeds u32 offsets")
    }

    /// [`DocumentBuilder::finish`], but `None` when the serialization does
    /// not fit `u32` offsets.
    pub(crate) fn try_finish(mut self) -> Option<Document> {
        assert!(self.stack.is_empty(), "unclosed elements at finish()");
        assert!(!self.doc.nodes.is_empty(), "empty document");
        // child counts become where each node's children start
        let mut next = 0;
        for d in &mut self.doc.nodes {
            let count = d.kids;
            d.kids = next;
            next += count;
        }
        let Document {
            nodes,
            labels,
            text,
            xml,
            kids,
            ..
        } = &mut self.doc;
        *kids = vec![NodeId::ROOT; nodes.len() - 1];
        let mut measure = 0usize;
        write_xml(nodes, labels, text, kids, &mut measure)?;
        *xml = String::with_capacity(measure);
        write_xml(nodes, labels, text, kids, xml).expect("offsets within the measure");
        debug_assert_eq!(xml.len(), measure);
        Some(self.doc)
    }
}

/// Destination of [`write_xml`]: sealing first measures the serialization
/// with a `usize`, then writes it into a `String` of exactly that size.
trait Sink {
    fn put(&mut self, s: &str);
    fn pos(&self) -> usize;
}

impl Sink for usize {
    fn put(&mut self, s: &str) {
        *self += s.len();
    }
    fn pos(&self) -> usize {
        *self
    }
}

impl Sink for String {
    fn put(&mut self, s: &str) {
        self.push_str(s);
    }
    fn pos(&self) -> usize {
        self.len()
    }
}

/// Write the canonical serialization of the nodes, one pass in document
/// order, recording each node's content span as it ends and placing each
/// node in its parent's group of `kids`; `None` if an offset does not fit
/// `u32`. An element with no child other than its leading attributes
/// closes as `<a/>`; an attribute serializes as `name="value"` (after a
/// space while inside its start tag).
fn write_xml(
    nodes: &mut [NodeData],
    labels: &[Box<str>],
    text: &str,
    kids: &mut [NodeId],
    out: &mut impl Sink,
) -> Option<()> {
    // open elements: (node, content start, still inside its start tag,
    // slot of its next child in `kids`)
    let mut open: Vec<(usize, usize, bool, u32)> = Vec::new();
    let span =
        |start: usize, end: usize| Some([u32::try_from(start).ok()?, u32::try_from(end).ok()?]);
    for i in 0..nodes.len() {
        let d = nodes[i];
        while let Some(&(e, start, in_tag, _)) = open.last() {
            if d.parent == Some(NodeId(e as u32)) {
                break;
            }
            open.pop();
            end_tag(out, &labels[nodes[e].label as usize], in_tag);
            nodes[e].span = span(start, out.pos())?;
        }
        if let Some(top) = open.last_mut() {
            kids[top.3 as usize] = NodeId(i as u32);
            top.3 += 1;
            if d.kind == NodeKind::Attribute && top.2 {
                out.put(" ");
            } else if top.2 {
                out.put(">");
                top.2 = false;
            }
        }
        let start = out.pos();
        let label = &*labels[d.label as usize];
        let payload = &text[d.text[0] as usize..d.text[1] as usize];
        match d.kind {
            NodeKind::Element => {
                out.put("<");
                out.put(label);
                open.push((i, start, true, d.kids));
                continue;
            }
            NodeKind::Attribute => {
                out.put(label);
                out.put("=\"");
                escape_runs(payload, true, |s| out.put(s));
                out.put("\"");
            }
            NodeKind::Text => escape_runs(payload, false, |s| out.put(s)),
        }
        nodes[i].span = span(start, out.pos())?;
    }
    while let Some((e, start, in_tag, _)) = open.pop() {
        end_tag(out, &labels[nodes[e].label as usize], in_tag);
        nodes[e].span = span(start, out.pos())?;
    }
    Some(())
}

/// Close an element: `/>` while still inside its start tag, else `</label>`.
fn end_tag(out: &mut impl Sink, label: &str, in_tag: bool) {
    if in_tag {
        out.put("/>");
    } else {
        out.put("</");
        out.put(label);
        out.put(">");
    }
}

/// Split `s` into the runs of its escaped form: `&`, `<` and `>` become
/// entity references, and so does `"` when `attr` is set.
fn escape_runs(s: &str, attr: bool, mut put: impl FnMut(&str)) {
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' if attr => "&quot;",
            _ => continue,
        };
        put(&s[start..i]);
        put(entity);
        start = i + 1;
    }
    put(&s[start..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Document {
        // <a><b>x</b><c at="1"><d/></c></a>
        let mut b = DocumentBuilder::new();
        b.open_element("a");
        b.leaf_element("b", "x");
        b.open_element("c");
        b.attribute("at", "1");
        b.open_element("d");
        b.close_element();
        b.close_element();
        b.close_element();
        b.finish()
    }

    #[test]
    fn builder_shapes_tree() {
        let d = sample();
        assert_eq!(d.label(d.root()), "a");
        let kids = d.children(d.root());
        assert_eq!(kids.len(), 2);
        assert_eq!(d.label(kids[0]), "b");
        assert_eq!(d.label(kids[1]), "c");
        assert_eq!(d.element_count(), 4);
    }

    #[test]
    fn pre_order_equals_node_id() {
        let d = sample();
        let mut seen = Vec::new();
        fn rec(d: &Document, n: NodeId, seen: &mut Vec<NodeId>) {
            seen.push(n);
            for &c in d.children(n) {
                rec(d, c, seen);
            }
        }
        rec(&d, d.root(), &mut seen);
        for (i, n) in seen.iter().enumerate() {
            assert_eq!(n.0 as usize, i);
        }
    }

    #[test]
    fn post_order_is_consistent() {
        let d = sample();
        // root must have the largest post rank
        let root_post = d.structural_id(d.root()).post;
        for n in d.all_nodes() {
            assert!(d.structural_id(n).post <= root_post);
        }
        // every child has smaller post than its parent
        for n in d.all_nodes() {
            if let Some(p) = d.parent(n) {
                assert!(d.structural_id(n).post < d.structural_id(p).post);
            }
        }
    }

    #[test]
    fn depth_starts_at_one() {
        let d = sample();
        assert_eq!(d.structural_id(d.root()).depth, 1);
        let c = d.children(d.root())[1];
        assert_eq!(d.structural_id(c).depth, 2);
    }

    #[test]
    fn values_concatenate_text() {
        let d = sample();
        assert_eq!(d.value(d.root()), "x");
        let b = d.children(d.root())[0];
        assert_eq!(d.value(b), "x");
    }

    #[test]
    fn attribute_value() {
        let d = sample();
        let c = d.children(d.root())[1];
        let at = d.children(c)[0];
        assert_eq!(d.kind(at), NodeKind::Attribute);
        assert_eq!(d.label(at), "at");
        assert_eq!(d.value(at), "1");
    }

    #[test]
    fn ancestor_predicates() {
        let d = sample();
        let c = d.children(d.root())[1];
        let dd = *d
            .children(c)
            .iter()
            .find(|&&k| d.kind(k) == NodeKind::Element)
            .unwrap();
        assert!(d.is_ancestor(d.root(), dd));
        assert!(d.is_parent(c, dd));
        assert!(!d.is_ancestor(dd, d.root()));
    }

    #[test]
    fn descendants_iterator() {
        let d = sample();
        let descs: Vec<_> = d.descendants(d.root()).collect();
        assert_eq!(descs.len(), d.len() - 1);
        let c = d.children(d.root())[1];
        let under_c: Vec<_> = d.descendants(c).collect();
        assert_eq!(under_c.len(), 2); // attribute + d element
    }

    #[test]
    fn label_paths() {
        let d = sample();
        let c = d.children(d.root())[1];
        assert_eq!(d.label_path(c), "/a/c");
        let at = d.children(c)[0];
        assert_eq!(d.label_path(at), "/a/c/@at");
    }

    #[test]
    fn nodes_with_label_filters_kind() {
        let d = sample();
        assert_eq!(d.nodes_with_label("b", NodeKind::Element).count(), 1);
        assert_eq!(d.nodes_with_label("at", NodeKind::Attribute).count(), 1);
        assert_eq!(d.nodes_with_label("at", NodeKind::Element).count(), 0);
        assert_eq!(d.nodes_with_label("zzz", NodeKind::Element).count(), 0);
    }

    #[test]
    fn dewey_ids_follow_child_ranks() {
        let d = sample();
        assert_eq!(d.dewey_id(d.root()).steps(), &[] as &[u32]);
        let c = d.children(d.root())[1];
        assert_eq!(d.dewey_id(c).steps(), &[1]);
        let at = d.children(c)[0];
        assert_eq!(d.dewey_id(at).steps(), &[1, 0]);
    }

    #[test]
    fn builder_and_parsed_serialization_share_spans() {
        let mut b = DocumentBuilder::new();
        b.open_element("site");
        b.attribute("q", "\"<&>'é");
        b.leaf_element("name", "a < b & c > \"d\"");
        b.open_element("empty");
        b.attribute("k", "");
        b.close_element();
        b.open_element("mixed");
        b.text("日本 ");
        b.leaf_element("b", "x");
        b.text(" tail");
        b.close_element();
        b.close_element();
        let built = b.finish();
        let root = built.content_str(built.root());
        assert_eq!(
            root,
            "<site q=\"&quot;&lt;&amp;&gt;'é\"><name>a &lt; b &amp; c &gt; \"d\"</name>\
             <empty k=\"\"/><mixed>日本 <b>x</b> tail</mixed></site>"
        );
        let parsed = crate::parser::parse_document(root).unwrap();
        let spans = |d: &Document| d.nodes.iter().map(|n| n.span).collect::<Vec<_>>();
        assert_eq!(spans(&parsed), spans(&built));
        assert_eq!(parsed.xml, built.xml);
        assert_eq!(parsed.text, built.text);
        assert_eq!(built.xml.capacity(), built.xml.len());
        let q = built.children(built.root())[0];
        assert_eq!(built.content_str(q), "q=\"&quot;&lt;&amp;&gt;'é\"");
    }

    #[test]
    #[should_panic(expected = "unclosed")]
    fn unclosed_panics() {
        let mut b = DocumentBuilder::new();
        b.open_element("a");
        let _ = b.finish();
    }
}
