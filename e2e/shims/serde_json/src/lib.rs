//! Offline stand-in for `serde_json`: the four names the engine uses, each
//! returning `Err` — manifests and pipeline specs cannot be written or
//! parsed in this build, which the benchmark never asks for.

use serde::{Deserialize, Serialize};

/// The only error this stand-in produces.
#[derive(Debug)]
pub struct Error(&'static str);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} unavailable offline (serde_json stand-in)", self.0)
    }
}

impl std::error::Error for Error {}

/// Parsed JSON; never constructed here.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
}

impl Serialize for Value {}
impl<'de> Deserialize<'de> for Value {}

pub fn to_string<T: ?Sized + Serialize>(_value: &T) -> Result<String, Error> {
    Err(Error("to_string"))
}

pub fn to_string_pretty<T: ?Sized + Serialize>(_value: &T) -> Result<String, Error> {
    Err(Error("to_string_pretty"))
}

pub fn from_str<'a, T: Deserialize<'a>>(_s: &'a str) -> Result<T, Error> {
    Err(Error("from_str"))
}
