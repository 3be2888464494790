//! The physical design (view set) and the query shapes of the workloads.
//!
//! Shapes follow the repository's experiments written as XQuery: the
//! E10/E11 descendant chains and child fans, the E13 server FLWOR, an
//! E15-style three-way structural join, the multiplying keyword stars,
//! and label-substituted variants. `{D}` stands for the document name,
//! which the adhoc workload varies to make distinct texts of one shape.

/// Generator seed of every workload's XMark document, as in the
/// repository's experiments. `--seed` orders the requests; the
/// documents stay fixed so runs with different seeds measure the same
/// work.
pub const DOC_SEED: u64 = 42;

/// The view set: single-label ID views plus multi-node views with
/// optional children (as in E13 and E15). 14 views.
pub const VIEWS: &[(&str, &str)] = &[
    ("v_site", "//site[id:s]"),
    ("v_item", "//item[id:s]"),
    ("v_item_name", "//item[id:s]{ /n? name1:name[val] }"),
    (
        "v_item_fan",
        "//item[id:s]{ /n? l:location[cont] /n? q:quantity[cont] }",
    ),
    ("v_desc", "//description[id:s]"),
    ("v_parlist", "//parlist[id:s]"),
    ("v_listitem", "//listitem[id:s,cont]"),
    ("v_text", "//text[id:s,cont]"),
    ("v_keyword", "//keyword[id:s,cont]"),
    ("v_bold", "//bold[id:s,cont]"),
    ("v_emph", "//emph[id:s,cont]"),
    ("v_name", "//name[id:s,val]"),
    ("v_mail", "//mail[id:s]{ /n? f:from[val] }"),
    ("v_person", "//person[id:s]{ /n? pn:name[val] }"),
];

/// How a shape's reference answer is computed.
#[derive(Clone, Copy)]
pub enum Reference {
    /// A pure path query: the distinct nodes found by walking the
    /// document (the steps after `doc(...)`).
    Walk(&'static str),
    /// A FLWOR query: `Uload::execute_direct`.
    Direct,
}

#[derive(Clone, Copy)]
pub struct Shape {
    pub name: &'static str,
    /// Query text with `{D}` for the document name.
    pub template: &'static str,
    pub reference: Reference,
}

impl Shape {
    pub fn text(&self, doc_name: &str) -> String {
        self.template.replace("{D}", doc_name)
    }
}

const fn path(name: &'static str, template: &'static str, steps: &'static str) -> Shape {
    Shape {
        name,
        template,
        reference: Reference::Walk(steps),
    }
}

const fn flwor(name: &'static str, template: &'static str) -> Shape {
    Shape {
        name,
        template,
        reference: Reference::Direct,
    }
}

/// Every shape; the `adhoc` pool. 25 equally weighted shapes put the
/// 50% and 90% ranks of a balanced round inside a shape's cluster of
/// latencies rather than on the edge between two (likewise 15 for
/// `scan`).
pub const SHAPES: &[Shape] = &[
    // E10/E11 descendant chains through the recursive parlist region
    path(
        "chain_depth2",
        r#"doc("{D}")//description//parlist"#,
        "//description//parlist",
    ),
    path(
        "chain_depth3",
        r#"doc("{D}")//description//parlist//listitem"#,
        "//description//parlist//listitem",
    ),
    path(
        "chain_depth4",
        r#"doc("{D}")//description//parlist//listitem//text"#,
        "//description//parlist//listitem//text",
    ),
    path(
        "chain_depth5",
        r#"doc("{D}")//description//parlist//listitem//text//keyword"#,
        "//description//parlist//listitem//text//keyword",
    ),
    path(
        "chain_depth5_bold",
        r#"doc("{D}")//description//parlist//listitem//text//bold"#,
        "//description//parlist//listitem//text//bold",
    ),
    path(
        "chain_depth5_emph",
        r#"doc("{D}")//description//parlist//listitem//text//emph"#,
        "//description//parlist//listitem//text//emph",
    ),
    path(
        "chain_nested_parlist",
        r#"doc("{D}")//description//parlist//listitem//parlist"#,
        "//description//parlist//listitem//parlist",
    ),
    path(
        "item_desc_parlist",
        r#"doc("{D}")//item//description//parlist"#,
        "//item//description//parlist",
    ),
    path(
        "item_mail",
        r#"doc("{D}")//item//mailbox//mail"#,
        "//item//mailbox//mail",
    ),
    flwor(
        "e15_item_text_bold",
        r#"for $i in doc("{D}")//item, $k in $i//text//bold return <r>{$k}</r>"#,
    ),
    path(
        "chain_deep4",
        r#"doc("{D}")//description//parlist//parlist//listitem"#,
        "//description//parlist//parlist//listitem",
    ),
    path(
        "chain_mail4",
        r#"doc("{D}")//item//mailbox//mail//text"#,
        "//item//mailbox//mail//text",
    ),
    path(
        "chain_mail_emph",
        r#"doc("{D}")//item//mail//text//emph"#,
        "//item//mail//text//emph",
    ),
    path(
        "desc_keyword",
        r#"doc("{D}")//description//keyword"#,
        "//description//keyword",
    ),
    path(
        "parlist_keyword",
        r#"doc("{D}")//parlist//keyword"#,
        "//parlist//keyword",
    ),
    path(
        "site_item_bold",
        r#"doc("{D}")//site//item//bold"#,
        "//site//item//bold",
    ),
    path(
        "fan_pred_quantity",
        r#"doc("{D}")//item[location]/quantity"#,
        "//item[location]/quantity",
    ),
    // E13: the server query
    flwor(
        "e13_item_names",
        r#"for $x in doc("{D}")//item return <res>{$x/name/text()}</res>"#,
    ),
    // E10 child fans written as FLWOR
    flwor(
        "fan_width2",
        r#"for $i in doc("{D}")//item return <r>{$i/location}{$i/quantity}</r>"#,
    ),
    flwor(
        "fan_join_name",
        r#"for $i in doc("{D}")//item return <r>{$i/location}{$i/name/text()}</r>"#,
    ),
    // E15: item // text // keyword as a three-way structural join
    flwor(
        "e15_item_text_kw",
        r#"for $i in doc("{D}")//item, $k in $i//text//keyword return <r>{$k}</r>"#,
    ),
    // E11 multiplying stars
    flwor(
        "star_kw2",
        r#"for $i in doc("{D}")//item, $a in $i//keyword, $b in $i//keyword return <r>{$a}{$b}</r>"#,
    ),
    flwor(
        "deep_star_kw_bold",
        r#"for $s in doc("{D}")//site, $i in $s//item, $a in $i//keyword, $b in $i//bold return <r>{$a}{$b}</r>"#,
    ),
    flwor(
        "person_names",
        r#"for $p in doc("{D}")//person return <p>{$p/name/text()}</p>"#,
    ),
    flwor(
        "mail_senders",
        r#"for $m in doc("{D}")//mail return <m>{$m/from/text()}</m>"#,
    ),
];

/// The `scan` subset: chains, fans, E13, E15 and both stars. It leaves
/// out `fan_join_name`, whose view join grows with the square of the
/// document (4 ms at xmark(15), ~380 ms at xmark(150)); `adhoc` keeps it.
pub const SCAN: &[&str] = &[
    "chain_depth2",
    "chain_depth3",
    "chain_depth4",
    "chain_depth5",
    "chain_deep4",
    "chain_mail4",
    "desc_keyword",
    "site_item_bold",
    "fan_pred_quantity",
    "e13_item_names",
    "fan_width2",
    "e15_item_text_kw",
    "star_kw2",
    "deep_star_kw_bold",
    "person_names",
];

/// Document names the adhoc workload spells each shape with: one shape,
/// six distinct texts, one plan.
pub const DOC_NAMES: &[&str] = &["X", "auction.xml", "xmark", "site.xml", "a", "db.xml"];

pub fn shape(name: &str) -> &'static Shape {
    SHAPES
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no shape {name}"))
}
