//! Derive macros for the in-tree serde stand-in.
//!
//! Implemented directly on `proc_macro` token trees (the build environment
//! has no crates.io access, so `syn`/`quote` are unavailable). Supports the
//! type shapes memnet defines: non-generic named-field structs, tuple
//! structs, and enums whose variants are units or tuples.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives `serde::Serialize` (JSON writer).
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Serialize)
}

/// Derives `serde::Deserialize` (JSON reader).
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Deserialize)
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Serialize,
    Deserialize,
}

enum Shape {
    NamedStruct(Vec<String>),
    TupleStruct(usize),
    Enum(Vec<(String, usize)>), // (variant name, tuple arity; 0 = unit)
}

fn expand(input: TokenStream, mode: Mode) -> TokenStream {
    match parse(input) {
        Ok((name, shape)) => generate(&name, &shape, mode).parse().unwrap(),
        Err(msg) => format!("compile_error!({msg:?});").parse().unwrap(),
    }
}

fn parse(input: TokenStream) -> Result<(String, Shape), String> {
    let trees: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs_and_vis(&trees, &mut i);
    let kw = match trees.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err("expected `struct` or `enum`".to_owned()),
    };
    i += 1;
    let name = match trees.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err("expected type name".to_owned()),
    };
    i += 1;
    if matches!(&trees.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!("cannot derive for generic type `{name}`"));
    }
    match (kw.as_str(), trees.get(i)) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Ok((name, Shape::NamedStruct(parse_named_fields(g.stream())?)))
        }
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
            Ok((name, Shape::TupleStruct(count_top_level_fields(g.stream()))))
        }
        ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Ok((name, Shape::Enum(parse_variants(g.stream())?)))
        }
        _ => Err(format!("unsupported definition for `{name}`")),
    }
}

/// Advances past any `#[...]` attributes (incl. doc comments) and a
/// `pub` / `pub(...)` visibility.
fn skip_attrs_and_vis(trees: &[TokenTree], i: &mut usize) {
    loop {
        match trees.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 2; // `#` + bracketed group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(trees.get(*i), Some(TokenTree::Group(g))
                    if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1;
                }
            }
            _ => return,
        }
    }
}

/// Splits a field/variant list on commas that sit outside nested groups
/// and outside `<...>` generic arguments.
fn split_top_level(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut parts = vec![Vec::new()];
    let mut angle_depth = 0i32;
    for tree in stream {
        if let TokenTree::Punct(p) = &tree {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => {
                    parts.push(Vec::new());
                    continue;
                }
                _ => {}
            }
        }
        parts.last_mut().unwrap().push(tree);
    }
    parts.retain(|p| !p.is_empty());
    parts
}

fn count_top_level_fields(stream: TokenStream) -> usize {
    split_top_level(stream).len()
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<String>, String> {
    let mut fields = Vec::new();
    for part in split_top_level(stream) {
        let mut i = 0;
        skip_attrs_and_vis(&part, &mut i);
        match part.get(i) {
            Some(TokenTree::Ident(id)) => fields.push(id.to_string()),
            other => return Err(format!("expected field name, got {other:?}")),
        }
    }
    Ok(fields)
}

fn parse_variants(stream: TokenStream) -> Result<Vec<(String, usize)>, String> {
    let mut variants = Vec::new();
    for part in split_top_level(stream) {
        let mut i = 0;
        skip_attrs_and_vis(&part, &mut i);
        let name = match part.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected variant name, got {other:?}")),
        };
        i += 1;
        let arity = match part.get(i) {
            None => 0,
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                count_top_level_fields(g.stream())
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                return Err(format!("struct variant `{name}` is not supported"));
            }
            other => return Err(format!("unexpected token after `{name}`: {other:?}")),
        };
        variants.push((name, arity));
    }
    Ok(variants)
}

fn generate(name: &str, shape: &Shape, mode: Mode) -> String {
    match mode {
        Mode::Serialize => gen_serialize(name, shape),
        Mode::Deserialize => gen_deserialize(name, shape),
    }
}

/// A string literal holding `text` as a JSON string, quotes included
/// (identifiers need no escaping), between `prefix` and `suffix`.
fn quoted(prefix: &str, text: &str, suffix: &str) -> String {
    format!("{:?}", format!("{prefix}\"{text}\"{suffix}"))
}

fn gen_serialize(name: &str, shape: &Shape) -> String {
    let body = match shape {
        Shape::NamedStruct(fields) => {
            let mut b = String::from("s.begin_object();\n");
            for (i, f) in fields.iter().enumerate() {
                // Every field but the first follows a value: its key
                // carries the comma.
                b.push_str(&format!(
                    "s.quoted_key({}); ::serde::Serialize::serialize(&self.{f}, s);\n",
                    quoted(if i == 0 { "" } else { "," }, f, ":")
                ));
            }
            b.push_str("s.end_object();");
            b
        }
        Shape::TupleStruct(1) => "::serde::Serialize::serialize(&self.0, s);".to_owned(),
        Shape::TupleStruct(n) => {
            let mut b = String::from("s.begin_array();\n");
            for idx in 0..*n {
                b.push_str(&format!(
                    "s.element(); ::serde::Serialize::serialize(&self.{idx}, s);\n"
                ));
            }
            b.push_str("s.end_array();");
            b
        }
        Shape::Enum(variants) => {
            let mut arms = String::new();
            for (v, arity) in variants {
                match arity {
                    0 => arms
                        .push_str(&format!("{name}::{v} => s.write_raw({}),\n", quoted("", v, ""))),
                    1 => arms.push_str(&format!(
                        "{name}::{v}(a0) => {{ s.begin_object(); s.quoted_key({}); \
                         ::serde::Serialize::serialize(a0, s); s.end_object(); }}\n",
                        quoted("", v, ":")
                    )),
                    n => {
                        let binds: Vec<String> = (0..*n).map(|k| format!("a{k}")).collect();
                        let mut inner = String::from("s.begin_array(); ");
                        for b in &binds {
                            inner.push_str(&format!(
                                "s.element(); ::serde::Serialize::serialize({b}, s); "
                            ));
                        }
                        inner.push_str("s.end_array();");
                        arms.push_str(&format!(
                            "{name}::{v}({}) => {{ s.begin_object(); s.quoted_key({}); \
                             {inner} s.end_object(); }}\n",
                            binds.join(", "),
                            quoted("", v, ":")
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn serialize(&self, s: &mut ::serde::ser::Serializer) {{\n{body}\n}}\n\
         }}"
    )
}

fn gen_deserialize(name: &str, shape: &Shape) -> String {
    let body = match shape {
        Shape::NamedStruct(fields) => {
            let mut inits = String::new();
            for f in fields {
                inits.push_str(&format!(
                    "{f}: ::serde::Deserialize::deserialize(v.get({f:?})?)?,\n"
                ));
            }
            format!("::core::result::Result::Ok({name} {{\n{inits}}})")
        }
        Shape::TupleStruct(1) => {
            format!("::core::result::Result::Ok({name}(::serde::Deserialize::deserialize(v)?))")
        }
        Shape::TupleStruct(n) => {
            let inits: Vec<String> = (0..*n)
                .map(|k| format!("::serde::Deserialize::deserialize(&items[{k}])?"))
                .collect();
            format!(
                "let items = v.as_array()?;\n\
                 if items.len() != {n} {{\n\
                     return ::core::result::Result::Err(::serde::de::Error::msg(\
                         format!(\"expected {n} fields for {name}, got {{}}\", items.len())));\n\
                 }}\n\
                 ::core::result::Result::Ok({name}({}))",
                inits.join(", ")
            )
        }
        Shape::Enum(variants) => {
            let units: Vec<&(String, usize)> = variants.iter().filter(|(_, a)| *a == 0).collect();
            let tuples: Vec<&(String, usize)> = variants.iter().filter(|(_, a)| *a > 0).collect();
            let mut arms = String::new();
            if !units.is_empty() {
                let mut unit_arms = String::new();
                for (v, _) in &units {
                    unit_arms
                        .push_str(&format!("{v:?} => ::core::result::Result::Ok({name}::{v}),\n"));
                }
                arms.push_str(&format!(
                    "::serde::json::Value::Str(tag) => match tag.as_str() {{\n\
                     {unit_arms}\
                     other => ::core::result::Result::Err(::serde::de::Error::msg(\
                         format!(\"unknown {name} variant {{other:?}}\"))),\n\
                     }},\n"
                ));
            }
            if !tuples.is_empty() {
                let mut tup_arms = String::new();
                for (v, arity) in &tuples {
                    if *arity == 1 {
                        tup_arms.push_str(&format!(
                            "{v:?} => ::core::result::Result::Ok({name}::{v}(\
                             ::serde::Deserialize::deserialize(payload)?)),\n"
                        ));
                    } else {
                        let inits: Vec<String> = (0..*arity)
                            .map(|k| format!("::serde::Deserialize::deserialize(&items[{k}])?"))
                            .collect();
                        tup_arms.push_str(&format!(
                            "{v:?} => {{\n\
                                 let items = payload.as_array()?;\n\
                                 if items.len() != {arity} {{\n\
                                     return ::core::result::Result::Err(\
                                         ::serde::de::Error::msg(format!(\
                                         \"expected {arity} fields for {name}::{v}, got {{}}\",\
                                          items.len())));\n\
                                 }}\n\
                                 ::core::result::Result::Ok({name}::{v}({}))\n\
                             }}\n",
                            inits.join(", ")
                        ));
                    }
                }
                arms.push_str(&format!(
                    "::serde::json::Value::Obj(pairs) if pairs.len() == 1 => {{\n\
                         let (tag, payload) = &pairs[0];\n\
                         match tag.as_str() {{\n\
                         {tup_arms}\
                         other => ::core::result::Result::Err(::serde::de::Error::msg(\
                             format!(\"unknown {name} variant {{other:?}}\"))),\n\
                         }}\n\
                     }},\n"
                ));
            }
            format!(
                "match v {{\n{arms}\
                 other => ::core::result::Result::Err(::serde::de::Error::msg(\
                     format!(\"invalid {name} value: {{other:?}}\"))),\n\
                 }}"
            )
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
             fn deserialize(v: &::serde::json::Value) \
                 -> ::core::result::Result<Self, ::serde::de::Error> {{\n{body}\n}}\n\
         }}"
    )
}
