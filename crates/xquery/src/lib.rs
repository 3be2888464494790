//! # xquery — the XQuery subset `Q`, its translation and pattern extraction
//!
//! Chapter 3 of the paper. The crate provides:
//!
//! * [`parse`] — a parser for the query language `Q` of §3.2: core XPath
//!   (`/`, `//`, `*`, `[]`, `text()`, attribute steps), paths rooted in a
//!   document or a variable, concatenation, element constructors and
//!   (nested) for-where-return blocks;
//! * [`extract`] — the pattern extraction algorithm of §3.3: a query is
//!   decomposed into **maximal** XAM query patterns — crucially able to
//!   span *across nested FLWR blocks* (the chapter's headline claim) — plus
//!   a combination skeleton (cartesian products, value joins, compensating
//!   selections) and a tagging template;
//! * [`translate`] — the algebraic translation `alg(q)`: an executable
//!   [`algebra::LogicalPlan`] over the extracted patterns, ending in the
//!   `xml` construction operator, so the whole pipeline can actually run
//!   queries (§1.2's architecture).

pub mod extract;
pub mod parse;
pub mod translate;

pub use extract::{extract_patterns, ExtractedQuery};
pub use parse::{parse_query, NameTest, PathExpr, Query, QueryParseError, Step, MAX_QUERY_NESTING};
pub use translate::{execute_query, execute_query_with_plan, query_plan};
