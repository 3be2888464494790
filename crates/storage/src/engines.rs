//! Concrete storage engines of §2.1, each building an [`algebra::Catalog`]
//! of base relations with its conventional layout. These are the
//! substrates behind the QEP catalogue ([`crate::qep`]) and behind the
//! XAM model library ([`crate::catalog`]), demonstrating that widely
//! different layouts serve the same documents.

use std::collections::HashMap;

use algebra::{Catalog, Field, OrderSpec, Relation, Schema, Tuple, Value};
use summary::Summary;
use xmltree::{Document, NodeKind};

/// The *Edge* store of Florescu & Kossmann (§2.3.1): one tuple per
/// parent-child edge, plus a value table for leaves.
///
/// ```text
/// edge (source, target, ordinal, name, flag)
/// value (vID, value)
/// ```
#[derive(Debug, Clone)]
pub struct EdgeStore {
    pub catalog: Catalog,
}

impl EdgeStore {
    pub fn build(doc: &Document) -> EdgeStore {
        let edge_schema = Schema::atoms(&["source", "target", "ordinal", "name", "flag"]);
        let value_schema = Schema::atoms(&["vID", "value"]);
        let mut edges = Vec::new();
        let mut values = Vec::new();
        for n in doc.all_nodes() {
            let Some(p) = doc.parent(n) else { continue };
            let ordinal = doc.children(p).iter().position(|&c| c == n).unwrap() as i64;
            let flag = match doc.kind(n) {
                NodeKind::Element => "ref",
                NodeKind::Attribute => "attr",
                NodeKind::Text => "val",
            };
            edges.push(Tuple::new(vec![
                Value::Id(doc.structural_id(p)),
                Value::Id(doc.structural_id(n)),
                Value::Int(ordinal),
                Value::str(doc.label(n)),
                Value::str(flag),
            ]));
            if doc.kind(n) != NodeKind::Element {
                values.push(Tuple::new(vec![
                    Value::Id(doc.structural_id(n)),
                    Value::str(doc.value(n)),
                ]));
            }
        }
        let mut catalog = Catalog::new();
        catalog.insert_ordered(
            "edge",
            Relation::new(edge_schema, edges),
            OrderSpec::by("target"),
        );
        catalog.insert("value", Relation::new(value_schema, values));
        EdgeStore { catalog }
    }
}

/// The tag-partitioned store (native model #3, Timber/Natix style): one
/// relation of structural IDs per element tag, plus a `text` relation
/// associating element IDs with their text.
#[derive(Debug, Clone)]
pub struct TagPartitionStore {
    pub catalog: Catalog,
    /// Tags present, in first-seen order.
    pub tags: Vec<String>,
}

impl TagPartitionStore {
    pub fn build(doc: &Document) -> TagPartitionStore {
        let mut by_tag: HashMap<String, Vec<Tuple>> = HashMap::new();
        let mut tags = Vec::new();
        let mut text = Vec::new();
        for n in doc.all_nodes() {
            match doc.kind(n) {
                NodeKind::Element | NodeKind::Attribute => {
                    let key = if doc.kind(n) == NodeKind::Attribute {
                        format!("@{}", doc.label(n))
                    } else {
                        doc.label(n).to_string()
                    };
                    by_tag
                        .entry(key.clone())
                        .or_insert_with(|| {
                            tags.push(key);
                            Vec::new()
                        })
                        .push(Tuple::new(vec![Value::Id(doc.structural_id(n))]));
                }
                NodeKind::Text => {
                    let p = doc.parent(n).unwrap();
                    text.push(Tuple::new(vec![
                        Value::Id(doc.structural_id(p)),
                        Value::str(doc.value(n)),
                    ]));
                }
            }
        }
        let mut catalog = Catalog::new();
        for t in &tags {
            catalog.insert_ordered(
                format!("tag_{t}"),
                Relation::new(Schema::atoms(&["ID"]), by_tag.remove(t).unwrap()),
                OrderSpec::by("ID"),
            );
        }
        catalog.insert_ordered(
            "text",
            Relation::new(Schema::atoms(&["ID", "text"]), text),
            OrderSpec::by("ID"),
        );
        TagPartitionStore { catalog, tags }
    }

    /// Relation name for a tag.
    pub fn relation_of(tag: &str) -> String {
        format!("tag_{tag}")
    }
}

/// The path-partitioned store (native model #4, XQueC/early-Monet style):
/// one relation of structural IDs per *rooted path*, named after the
/// summary path (slashes become `-`), plus the `text` relation.
#[derive(Debug, Clone)]
pub struct PathPartitionStore {
    pub catalog: Catalog,
    /// Path (e.g. `/bib/book/title`) → relation name.
    pub paths: Vec<(String, String)>,
}

impl PathPartitionStore {
    pub fn build(doc: &Document, summary: &Summary) -> PathPartitionStore {
        let phi = summary
            .classify(doc)
            .expect("document must conform to its summary");
        let mut by_path: HashMap<u32, Vec<Tuple>> = HashMap::new();
        let mut text = Vec::new();
        for n in doc.all_nodes() {
            match doc.kind(n) {
                NodeKind::Element | NodeKind::Attribute => {
                    by_path
                        .entry(phi[n.index()].0)
                        .or_default()
                        .push(Tuple::new(vec![Value::Id(doc.structural_id(n))]));
                }
                NodeKind::Text => {
                    let p = doc.parent(n).unwrap();
                    text.push(Tuple::new(vec![
                        Value::Id(doc.structural_id(p)),
                        Value::str(doc.value(n)),
                    ]));
                }
            }
        }
        let mut catalog = Catalog::new();
        let mut paths = Vec::new();
        for sn in summary.all_nodes() {
            if summary.kind(sn) == NodeKind::Text {
                continue;
            }
            let path = summary.path_of(sn);
            let name = Self::relation_of(&path);
            let tuples = by_path.remove(&sn.0).unwrap_or_default();
            catalog.insert_ordered(
                name.clone(),
                Relation::new(Schema::atoms(&["ID"]), tuples),
                OrderSpec::by("ID"),
            );
            paths.push((path, name));
        }
        catalog.insert_ordered(
            "text",
            Relation::new(Schema::atoms(&["ID", "text"]), text),
            OrderSpec::by("ID"),
        );
        PathPartitionStore { catalog, paths }
    }

    /// Relation name for a rooted path like `/bib/book/title`.
    pub fn relation_of(path: &str) -> String {
        format!("path{}", path.replace('/', "-").replace('@', "a_"))
    }
}

/// The non-fragmented ("blob") store of §2.1.1: the full serialized
/// content of every element with a given tag, avoiding recomposition
/// joins (`sectionContent(ID, content)`).
#[derive(Debug, Clone)]
pub struct ContentStore {
    pub catalog: Catalog,
}

impl ContentStore {
    /// Store the content of all elements whose tag is in `tags`.
    pub fn build(doc: &Document, tags: &[&str]) -> ContentStore {
        let mut catalog = Catalog::new();
        for t in tags {
            let tuples = doc
                .nodes_with_label(t, NodeKind::Element)
                .map(|n| {
                    Tuple::new(vec![
                        Value::Id(doc.structural_id(n)),
                        Value::str(doc.content_str(n)),
                    ])
                })
                .collect();
            catalog.insert_ordered(
                format!("{t}Content"),
                Relation::new(Schema::atoms(&["ID", "content"]), tuples),
                OrderSpec::by("ID"),
            );
        }
        ContentStore { catalog }
    }
}

/// A composite-key value index like `booksByYearTitle` (§2.1.2): for each
/// element with the given tag, the values of two key child paths map to
/// the element ID. Lookups require bindings for the keys — the `R`-marked
/// XAM semantics.
#[derive(Debug, Clone)]
pub struct CompositeIndex {
    /// (key1, key2) → IDs.
    map: HashMap<(String, String), Vec<Value>>,
    pub name: String,
}

impl CompositeIndex {
    /// Index `tag` elements by the values of their `key1` and `key2`
    /// children (e.g. book by (year, title)).
    pub fn build(doc: &Document, tag: &str, key1: &str, key2: &str) -> CompositeIndex {
        let mut map: HashMap<(String, String), Vec<Value>> = HashMap::new();
        for n in doc.nodes_with_label(tag, NodeKind::Element) {
            let k1: Vec<String> = doc
                .children(n)
                .iter()
                .filter(|&&c| doc.label(c) == key1)
                .map(|&c| doc.value(c))
                .collect();
            let k2: Vec<String> = doc
                .children(n)
                .iter()
                .filter(|&&c| doc.label(c) == key2)
                .map(|&c| doc.value(c))
                .collect();
            for a in &k1 {
                for b in &k2 {
                    map.entry((a.clone(), b.clone()))
                        .or_default()
                        .push(Value::Id(doc.structural_id(n)));
                }
            }
        }
        CompositeIndex {
            map,
            name: format!("{tag}sBy{key1}{key2}"),
        }
    }

    /// `idxLookup`: the IDs under a composite key.
    pub fn lookup(&self, key1: &str, key2: &str) -> Relation {
        let tuples = self
            .map
            .get(&(key1.to_string(), key2.to_string()))
            .map(|ids| ids.iter().map(|v| Tuple::new(vec![v.clone()])).collect())
            .unwrap_or_default();
        Relation::new(Schema::atoms(&["ID"]), tuples)
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// An IndexFabric-style full-text index (§2.1.2): word → IDs of the
/// elements on a given path whose text contains the word.
#[derive(Debug, Clone)]
pub struct FullTextIndex {
    map: HashMap<String, Vec<Value>>,
    pub scope: String,
}

impl FullTextIndex {
    /// Index the words of the values of all elements with `tag`.
    pub fn build(doc: &Document, tag: &str) -> FullTextIndex {
        let mut map: HashMap<String, Vec<Value>> = HashMap::new();
        for n in doc.nodes_with_label(tag, NodeKind::Element) {
            let val = doc.value(n);
            for w in val.split(|c: char| !c.is_alphanumeric()) {
                if w.is_empty() {
                    continue;
                }
                let e = map.entry(w.to_lowercase()).or_default();
                let id = Value::Id(doc.structural_id(n));
                if e.last() != Some(&id) {
                    e.push(id);
                }
            }
        }
        FullTextIndex {
            map,
            scope: tag.to_string(),
        }
    }

    /// `idxLookup(fti, word)`: IDs of elements containing the word.
    pub fn lookup(&self, word: &str) -> Relation {
        let tuples = self
            .map
            .get(&word.to_lowercase())
            .map(|ids| ids.iter().map(|v| Tuple::new(vec![v.clone()])).collect())
            .unwrap_or_default();
        Relation::new(Schema::atoms(&["ID"]), tuples)
    }

    pub fn vocabulary_size(&self) -> usize {
        self.map.len()
    }
}

/// The XRel/XParent path-based relational store (§2.3.1): a `path` table
/// numbering every rooted path, plus `element`, `attribute` and `text`
/// tables whose tuples carry a foreign key into `path` and region IDs.
#[derive(Debug, Clone)]
pub struct XRelStore {
    pub catalog: Catalog,
}

impl XRelStore {
    pub fn build(doc: &Document, summary: &Summary) -> XRelStore {
        let phi = summary
            .classify(doc)
            .expect("document must conform to its summary");
        let mut catalog = Catalog::new();
        // path(pathID, pathexpr)
        let path_tuples: Vec<Tuple> = summary
            .all_nodes()
            .map(|sn| {
                Tuple::new(vec![
                    Value::Int(sn.path_number() as i64),
                    Value::str(summary.path_of(sn)),
                ])
            })
            .collect();
        catalog.insert(
            "path",
            Relation::new(Schema::atoms(&["pathID", "pathexpr"]), path_tuples),
        );
        let mut elements = Vec::new();
        let mut attributes = Vec::new();
        let mut texts = Vec::new();
        for n in doc.all_nodes() {
            let pid = Value::Int(phi[n.index()].path_number() as i64);
            let id = Value::Id(doc.structural_id(n));
            match doc.kind(n) {
                NodeKind::Element => elements.push(Tuple::new(vec![pid, id])),
                NodeKind::Attribute => {
                    attributes.push(Tuple::new(vec![pid, id, Value::str(doc.value(n))]))
                }
                NodeKind::Text => texts.push(Tuple::new(vec![pid, id, Value::str(doc.value(n))])),
            }
        }
        catalog.insert_ordered(
            "element",
            Relation::new(Schema::atoms(&["pathID", "ID"]), elements),
            OrderSpec::by("ID"),
        );
        catalog.insert(
            "attribute",
            Relation::new(Schema::atoms(&["pathID", "ID", "value"]), attributes),
        );
        catalog.insert(
            "text_nodes",
            Relation::new(Schema::atoms(&["pathID", "ID", "value"]), texts),
        );
        XRelStore { catalog }
    }
}

/// Register an index lookup result as a scannable relation.
pub fn register_lookup(catalog: &mut Catalog, name: &str, rel: Relation) {
    catalog.insert(name, rel);
}

/// Hybrid-style inlined relational store (§2.1.1, relational model #1):
/// one relation per record tag with inlined single-valued children, plus a
/// separate `author` relation with parent pointers.
#[derive(Debug, Clone)]
pub struct HybridStore {
    pub catalog: Catalog,
}

impl HybridStore {
    /// Shred the `bib.xml`-shaped document: `book(ID, parentID, yearValue,
    /// titleValue)`, `phdthesis(…)`, `author(ID, parentID, authorValue)`.
    pub fn build(doc: &Document) -> HybridStore {
        let mut catalog = Catalog::new();
        for tag in ["book", "phdthesis"] {
            let tuples: Vec<Tuple> = doc
                .nodes_with_label(tag, NodeKind::Element)
                .map(|n| {
                    let child_val = |label: &str| -> Value {
                        doc.children(n)
                            .iter()
                            .find(|&&c| doc.label(c) == label)
                            .map(|&c| Value::str(doc.value(c)))
                            .unwrap_or(Value::Null)
                    };
                    Tuple::new(vec![
                        Value::Id(doc.structural_id(n)),
                        Value::Id(doc.structural_id(doc.parent(n).unwrap())),
                        child_val("year"),
                        child_val("title"),
                    ])
                })
                .collect();
            catalog.insert(
                tag,
                Relation::new(
                    Schema::new(vec![
                        Field::atom("ID"),
                        Field::atom("parentID"),
                        Field::atom("yearValue"),
                        Field::atom("titleValue"),
                    ]),
                    tuples,
                ),
            );
        }
        let authors: Vec<Tuple> = doc
            .nodes_with_label("author", NodeKind::Element)
            .map(|n| {
                Tuple::new(vec![
                    Value::Id(doc.structural_id(n)),
                    Value::Id(doc.structural_id(doc.parent(n).unwrap())),
                    Value::str(doc.value(n)),
                ])
            })
            .collect();
        catalog.insert(
            "author",
            Relation::new(Schema::atoms(&["ID", "parentID", "authorValue"]), authors),
        );
        HybridStore { catalog }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmltree::generate::{bib_document, bib_document_with_sections};

    #[test]
    fn edge_store_covers_all_edges() {
        let doc = bib_document();
        let store = EdgeStore::build(&doc);
        let edge = store.catalog.get("edge").unwrap();
        assert_eq!(edge.len(), doc.len() - 1);
        let value = store.catalog.get("value").unwrap();
        assert!(!value.is_empty());
    }

    #[test]
    fn tag_partition_by_label() {
        let doc = bib_document();
        let store = TagPartitionStore::build(&doc);
        assert!(store.tags.contains(&"book".to_string()));
        let books = store.catalog.get("tag_book").unwrap();
        assert_eq!(books.len(), 2);
        let authors = store.catalog.get("tag_author").unwrap();
        assert_eq!(authors.len(), 5);
    }

    #[test]
    fn path_partition_by_summary_path() {
        let doc = bib_document();
        let s = Summary::of_document(&doc);
        let store = PathPartitionStore::build(&doc, &s);
        let rel = store
            .catalog
            .get(&PathPartitionStore::relation_of("/bib/book/author"))
            .unwrap();
        assert_eq!(rel.len(), 4);
        let rel = store
            .catalog
            .get(&PathPartitionStore::relation_of("/bib/phdthesis/author"))
            .unwrap();
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn content_store_serializes_subtrees() {
        let doc = bib_document_with_sections();
        let store = ContentStore::build(&doc, &["section"]);
        let rel = store.catalog.get("sectionContent").unwrap();
        assert_eq!(rel.len(), 3);
        assert!(rel.tuples[0]
            .get(1)
            .as_str()
            .unwrap()
            .contains("<it>Web data</it>"));
    }

    #[test]
    fn composite_index_lookup() {
        let doc = bib_document();
        let idx = CompositeIndex::build(&doc, "book", "year", "title");
        let hit = idx.lookup("1999", "Data on the Web");
        assert_eq!(hit.len(), 1);
        let miss = idx.lookup("1999", "No Such Title");
        assert_eq!(miss.len(), 0);
    }

    #[test]
    fn full_text_index_lookup() {
        let doc = bib_document();
        let fti = FullTextIndex::build(&doc, "title");
        let hits = fti.lookup("Web");
        assert_eq!(hits.len(), 1); // only "Data on the Web"
        assert_eq!(fti.lookup("zzz").len(), 0);
        assert!(fti.vocabulary_size() > 3);
    }

    #[test]
    fn xrel_store_keys_nodes_by_path() {
        use algebra::{CmpOp, Evaluator, JoinKind, LogicalPlan, Predicate, Value};
        let doc = bib_document();
        let s = Summary::of_document(&doc);
        let store = XRelStore::build(&doc, &s);
        // query: IDs of elements on path /bib/book/author, via the path table
        let plan = LogicalPlan::scan("path")
            .select(Predicate::eq("pathexpr", Value::str("/bib/book/author")))
            .rename(&["p_id", "p_expr"])
            .join(
                LogicalPlan::scan("element"),
                Predicate::col_cmp("p_id", CmpOp::Eq, "pathID"),
                JoinKind::Inner,
            )
            .project(&["ID"]);
        let ev = Evaluator::with_document(&store.catalog, &doc);
        let rel = ev.eval(&plan).unwrap();
        assert_eq!(rel.len(), 4);
        // text values ride along their path keys
        let texts = store.catalog.get("text_nodes").unwrap();
        assert!(texts.len() > 5);
    }

    #[test]
    fn hybrid_store_inlines_children() {
        let doc = bib_document();
        let store = HybridStore::build(&doc);
        let books = store.catalog.get("book").unwrap();
        assert_eq!(books.len(), 2);
        assert_eq!(books.tuples[0].get(3).as_str(), Some("Data on the Web"));
        let authors = store.catalog.get("author").unwrap();
        assert_eq!(authors.len(), 5);
    }
}
