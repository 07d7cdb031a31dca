//! Offline stand-in for `bytes`: `mistique-compress` lists it as a
//! dependency but imports nothing from it.
