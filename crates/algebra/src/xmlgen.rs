//! The XML construction operator `xml_templ` (§1.2.2, Example 1.2.4).
//!
//! A [`Template`] describes how the (possibly nested) attributes of each
//! input tuple are wrapped in newly constructed elements. For every input
//! tuple, `xml_templ` emits one serialized XML string; iteration over
//! nested collection attributes is explicit ([`Template::ForEach`]), which
//! is what the paper's tagging templates like
//! `<res_item> A1 <res_desc> A11 </res_desc> </res_item>` denote implicitly.
//!
//! The operator runs in constant time per constructed element and its
//! memory needs are bounded by the largest element to construct, matching
//! the paper's `xml_templ,φ` physical operator.

use crate::eval::EvalError;
use crate::value::{Schema, Tuple, Value};

/// A tagging template.
#[derive(Debug, Clone, PartialEq)]
pub enum Template {
    /// Construct `<tag>…children…</tag>`.
    Element {
        tag: String,
        children: Vec<Template>,
    },
    /// Literal character data.
    Text(String),
    /// Splice the value of an attribute of the current tuple (dotted name
    /// resolved against the *current* nesting level). Null splices nothing —
    /// "an element must still be constructed, albeit with no content" (§3.1).
    Attr(String),
    /// Iterate the tuples of a collection attribute of the current tuple,
    /// instantiating `body` once per nested tuple.
    ForEach { attr: String, body: Vec<Template> },
}

impl Template {
    pub fn elem(tag: impl Into<String>, children: Vec<Template>) -> Template {
        Template::Element {
            tag: tag.into(),
            children,
        }
    }

    pub fn attr(name: impl Into<String>) -> Template {
        Template::Attr(name.into())
    }

    pub fn for_each(attr: impl Into<String>, body: Vec<Template>) -> Template {
        Template::ForEach {
            attr: attr.into(),
            body,
        }
    }

    /// Bind the template to the schema of the tuples it will render:
    /// every attribute name is resolved here, once. A name the schema
    /// does not have is [`EvalError::UnknownAttribute`], and a
    /// `ForEach` over an atomic attribute is a [`EvalError::TypeError`]
    /// — never a silently empty splice.
    pub(crate) fn compile(&self, schema: &Schema) -> Result<TemplatePlan, EvalError> {
        Ok(match self {
            Template::Element { tag, children } => TemplatePlan::Element {
                open: format!("<{tag}>"),
                close: format!("</{tag}>"),
                children: compile_all(children, schema)?,
            },
            Template::Text(t) => TemplatePlan::Text(t.clone()),
            Template::Attr(name) => {
                let path = schema
                    .resolve(name)
                    .ok_or_else(|| EvalError::UnknownAttribute(name.clone()))?;
                // a dotted path reaching inside a collection splices
                // nothing; iterate it with `ForEach` instead
                TemplatePlan::Attr((path.len() == 1).then_some(path[0]))
            }
            Template::ForEach { attr, body } => {
                let idx = schema
                    .index_of(attr)
                    .ok_or_else(|| EvalError::UnknownAttribute(attr.clone()))?;
                let inner = schema.schema_at(&[idx]).ok_or_else(|| {
                    EvalError::TypeError(format!("for-each over atomic attribute `{attr}`"))
                })?;
                TemplatePlan::ForEach {
                    idx,
                    body: compile_all(body, inner)?,
                }
            }
        })
    }
}

fn compile_all(ts: &[Template], schema: &Schema) -> Result<Vec<TemplatePlan>, EvalError> {
    ts.iter().map(|t| t.compile(schema)).collect()
}

/// A [`Template`] bound to a schema by [`Template::compile`]: attribute
/// names resolved to field indexes, tags pre-rendered.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TemplatePlan {
    Element {
        open: String,
        close: String,
        children: Vec<TemplatePlan>,
    },
    Text(String),
    /// The field to splice; `None` splices nothing.
    Attr(Option<usize>),
    ForEach {
        idx: usize,
        body: Vec<TemplatePlan>,
    },
}

impl TemplatePlan {
    /// Instantiate the template for one tuple, appending to `out`.
    pub(crate) fn render(&self, tuple: &Tuple, out: &mut String) {
        match self {
            TemplatePlan::Element {
                open,
                close,
                children,
            } => {
                out.push_str(open);
                for c in children {
                    c.render(tuple, out);
                }
                out.push_str(close);
            }
            TemplatePlan::Text(t) => out.push_str(t),
            TemplatePlan::Attr(Some(i)) => render_value(tuple.get(*i), out),
            TemplatePlan::Attr(None) => {}
            TemplatePlan::ForEach { idx, body } => {
                if let Value::Coll(c) = tuple.get(*idx) {
                    for t in &c.tuples {
                        for b in body {
                            b.render(t, out);
                        }
                    }
                }
            }
        }
    }
}

fn render_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => {}
        Value::Str(s) => out.push_str(s),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Id(i) => out.push_str(&format!("({},{})", i.pre, i.post)),
        Value::Coll(c) => {
            for t in &c.tuples {
                for v in &t.0 {
                    render_value(v, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{CollKind, Collection, Field};

    #[test]
    fn renders_nested_template() {
        // schema R(A1(A11)), template <res_item>{A1…<res_desc>{A11}</res_desc>}</res_item>
        let schema = Schema::new(vec![Field::nested("A1", Schema::atoms(&["A11"]))]);
        let tuple = Tuple::new(vec![Value::Coll(Collection {
            kind: CollKind::List,
            tuples: vec![
                Tuple::new(vec![Value::str("x")]),
                Tuple::new(vec![Value::str("y")]),
            ],
        })]);
        let t = Template::elem(
            "res_item",
            vec![Template::for_each(
                "A1",
                vec![Template::elem("res_desc", vec![Template::attr("A11")])],
            )],
        );
        let mut out = String::new();
        t.compile(&schema).unwrap().render(&tuple, &mut out);
        assert_eq!(
            out,
            "<res_item><res_desc>x</res_desc><res_desc>y</res_desc></res_item>"
        );
    }

    #[test]
    fn null_splices_nothing_but_element_is_built() {
        let schema = Schema::atoms(&["A"]);
        let tuple = Tuple::new(vec![Value::Null]);
        let t = Template::elem("res", vec![Template::attr("A")]);
        let mut out = String::new();
        t.compile(&schema).unwrap().render(&tuple, &mut out);
        assert_eq!(out, "<res></res>");
    }

    #[test]
    fn empty_collection_renders_nothing() {
        let schema = Schema::new(vec![Field::nested("A", Schema::atoms(&["B"]))]);
        let tuple = Tuple::new(vec![Value::Coll(Collection::list(vec![]))]);
        let t = Template::elem(
            "r",
            vec![Template::for_each("A", vec![Template::attr("B")])],
        );
        let mut out = String::new();
        t.compile(&schema).unwrap().render(&tuple, &mut out);
        assert_eq!(out, "<r></r>");
    }
}
