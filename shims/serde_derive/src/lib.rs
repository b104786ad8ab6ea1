//! Hand-rolled `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the
//! vendored serde shim.
//!
//! Written directly against `proc_macro` (no `syn`/`quote`: the build
//! environment has no crates.io access). Supports exactly what the
//! workspace needs: **named-field structs** with the field attributes
//! `#[serde(default)]`, `#[serde(default = "path")]`, and
//! `#[serde(skip_serializing_if = "path")]`. Anything else (enums, tuple
//! structs, generics) panics at expansion time with a clear message.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// One parsed named field.
struct Field {
    name: String,
    /// `None` = required; `Some(None)` = `Default::default()`;
    /// `Some(Some(path))` = call `path()`.
    default: Option<Option<String>>,
    /// Predicate path: skip the field when `path(&self.field)` is true.
    skip_if: Option<String>,
}

fn parse_input(input: TokenStream) -> (String, Vec<Field>) {
    let mut iter = input.into_iter();
    // Scan top-level tokens for `struct <Name>`; attribute contents live
    // inside bracket groups (single token trees) so they cannot confuse us.
    for tt in iter.by_ref() {
        if let TokenTree::Ident(id) = &tt {
            let s = id.to_string();
            if s == "struct" {
                break;
            }
            if s == "enum" || s == "union" {
                panic!("serde shim derive supports only structs, got `{s}`");
            }
        }
    }
    let name = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        Some(_) => panic!("serde shim derive: expected struct name"),
        None => panic!("serde shim derive: missing struct name"),
    };
    for tt in iter {
        match tt {
            TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => {
                return (name, parse_fields(g.stream()));
            }
            TokenTree::Punct(p) if p.as_char() == '<' => {
                panic!("serde shim derive does not support generic structs");
            }
            TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis => {
                panic!("serde shim derive does not support tuple structs");
            }
            _ => {}
        }
    }
    panic!("serde shim derive: struct `{name}` has no named-field body");
}

fn parse_fields(body: TokenStream) -> Vec<Field> {
    let mut iter = body.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        let mut default = None;
        let mut skip_if = None;
        // Leading attributes (doc comments and #[serde(...)]).
        while matches!(iter.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            iter.next();
            match iter.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
                    parse_attr(g.stream(), &mut default, &mut skip_if);
                }
                _ => panic!("serde shim derive: malformed attribute"),
            }
        }
        // Optional visibility (`pub`, `pub(crate)`, ...).
        if matches!(iter.peek(), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
            iter.next();
            if matches!(iter.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
            {
                iter.next();
            }
        }
        let name = match iter.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("serde shim derive: expected field name, got {other:?}"),
        };
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            _ => panic!("serde shim derive: expected `:` after field `{name}`"),
        }
        // Skip the type: consume until a comma at angle-bracket depth 0.
        let mut depth = 0i32;
        for tt in iter.by_ref() {
            match tt {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => break,
                _ => {}
            }
        }
        fields.push(Field {
            name,
            default,
            skip_if,
        });
    }
    fields
}

fn parse_attr(
    attr: TokenStream,
    default: &mut Option<Option<String>>,
    skip_if: &mut Option<String>,
) {
    let mut iter = attr.into_iter();
    match iter.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return, // doc comment or unrelated attribute
    }
    let args = match iter.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => g.stream(),
        _ => return,
    };
    let mut iter = args.into_iter().peekable();
    while let Some(tt) = iter.next() {
        let key = match tt {
            TokenTree::Ident(id) => id.to_string(),
            TokenTree::Punct(p) if p.as_char() == ',' => continue,
            other => panic!("serde shim derive: unexpected attr token {other:?}"),
        };
        let mut value = None;
        if matches!(iter.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
            iter.next();
            match iter.next() {
                Some(TokenTree::Literal(lit)) => {
                    let s = lit.to_string();
                    value = Some(s.trim_matches('"').to_string());
                }
                other => {
                    panic!("serde shim derive: expected string after `{key} =`, got {other:?}")
                }
            }
        }
        match key.as_str() {
            "default" => *default = Some(value),
            "skip_serializing_if" => {
                *skip_if = Some(value.expect("skip_serializing_if needs a path"));
            }
            other => panic!("serde shim derive: unsupported serde attribute `{other}`"),
        }
    }
}

/// Derives `serde::Serialize` (shim data model) for a named-field struct.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, fields) = parse_input(input);
    let mut body = String::new();
    for f in &fields {
        let push = format!(
            "__fields.push((::std::string::String::from(\"{n}\"), \
             ::serde::Serialize::to_value(&self.{n})));",
            n = f.name
        );
        if let Some(pred) = &f.skip_if {
            body.push_str(&format!(
                "if !({pred}(&self.{n})) {{ {push} }}\n",
                n = f.name
            ));
        } else {
            body.push_str(&push);
            body.push('\n');
        }
    }
    let out = format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{\n\
                 let mut __fields: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = \
                     ::std::vec::Vec::new();\n\
                 {body}\
                 ::serde::Value::Object(__fields)\n\
             }}\n\
         }}\n"
    );
    out.parse()
        .expect("serde shim derive: generated invalid Serialize impl")
}

/// Derives `serde::Deserialize` (shim data model) for a named-field struct.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let (name, fields) = parse_input(input);
    let mut inits = String::new();
    for f in &fields {
        let fallback = match &f.default {
            None => format!(
                "return ::std::result::Result::Err(::serde::DeError::missing_field(\"{}\"))",
                f.name
            ),
            Some(None) => "::std::default::Default::default()".to_string(),
            Some(Some(path)) => format!("{path}()"),
        };
        inits.push_str(&format!(
            "{n}: match ::serde::object_get(__obj, \"{n}\") {{\n\
                 ::std::option::Option::Some(__v) => ::serde::Deserialize::from_value(__v)?,\n\
                 ::std::option::Option::None => {fallback},\n\
             }},\n",
            n = f.name
        ));
    }
    let out = format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn from_value(__value: &::serde::Value) -> \
                 ::std::result::Result<Self, ::serde::DeError> {{\n\
                 let __obj = match __value.as_object() {{\n\
                     ::std::option::Option::Some(m) => m,\n\
                     ::std::option::Option::None => return ::std::result::Result::Err(\n\
                         ::serde::DeError::custom(\"expected JSON object for {name}\")),\n\
                 }};\n\
                 ::std::result::Result::Ok({name} {{\n\
                     {inits}\
                 }})\n\
             }}\n\
         }}\n"
    );
    out.parse()
        .expect("serde shim derive: generated invalid Deserialize impl")
}
