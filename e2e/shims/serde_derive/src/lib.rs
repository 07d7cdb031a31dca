//! Derives for the offline `serde` stand-in: each emits an empty impl of
//! the marker trait for the (non-generic) type it is applied to.

use proc_macro::{TokenStream, TokenTree};

/// Name of the `struct` / `enum` the derive input declares.
fn type_name(input: TokenStream) -> String {
    let mut tokens = input.into_iter();
    while let Some(tt) = tokens.next() {
        if let TokenTree::Ident(kw) = &tt {
            let kw = kw.to_string();
            if kw == "struct" || kw == "enum" {
                match tokens.next() {
                    Some(TokenTree::Ident(name)) => {
                        if let Some(TokenTree::Punct(p)) = tokens.next() {
                            assert!(
                                p.as_char() != '<',
                                "serde stand-in: generic type {name} is not supported"
                            );
                        }
                        return name.to_string();
                    }
                    other => panic!("serde stand-in: expected a type name, found {other:?}"),
                }
            }
        }
    }
    panic!("serde stand-in: derive input is neither a struct nor an enum");
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    format!("impl ::serde::Serialize for {} {{}}", type_name(input))
        .parse()
        .expect("generated impl parses")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    format!(
        "impl<'de> ::serde::Deserialize<'de> for {} {{}}",
        type_name(input)
    )
    .parse()
    .expect("generated impl parses")
}
