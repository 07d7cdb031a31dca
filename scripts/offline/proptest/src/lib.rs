//! Empty offline stand-in for `proptest`: it only has to resolve.
//! `scripts/offline_test.sh` blanks the targets that would use it.
