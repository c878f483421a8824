//! Hostile command lines generated from a flag table, shared by the
//! `train` and `repro` unit tests (each `#[path]`-includes this file).

use gnn_bench::cli::{Cli, Kind};

/// For every row of `cli`: the synopsis mentions it, the flag given last
/// with its value missing says so, so does the flag followed by any row's
/// name in place of its value, and no hostile value gets past it as
/// anything but `Err("bad <flag>: …")` — a count (`N`) takes none of
/// them. An unknown flag and `--help` are the generated synopsis.
/// `operands` completes a line whose flags are fine.
pub fn check<A>(
    cli: &Cli<A>,
    operands: &[&str],
    parse: impl Fn(Vec<String>) -> Result<(), String>,
) {
    let usage = cli.usage();
    let line = |flags: &[&str]| -> Vec<String> {
        let words = flags.iter().chain(operands);
        words.map(|w| w.to_string()).collect()
    };
    for flag in &cli.flags {
        let name = flag.name;
        assert!(usage.contains(name), "usage lacks {name}");
        if !matches!(flag.kind, Kind::Value(_)) {
            let _ = parse(line(&[name]));
            continue;
        }
        let missing = parse(vec![name.to_string()]).expect_err("no value given");
        assert_eq!(missing, format!("{name} needs a value"));
        for other in &cli.flags {
            let swallowed = parse(line(&[name, other.name])).expect_err(other.name);
            assert_eq!(swallowed, missing, "{name} {}", other.name);
        }
        for hostile in [
            "zzz",
            "",
            "-1",
            "99999999999999999999999",
            "1e999",
            "nan",
            "@",
            ":",
        ] {
            match parse(line(&[name, hostile])) {
                Err(e) => assert!(e.starts_with(&format!("bad {name}: ")), "{e}"),
                Ok(()) => assert_ne!(flag.metavar, "N", "{name} took {hostile:?} as a count"),
            }
        }
    }
    let unknown = parse(line(&["--no-such-flag"])).expect_err("unknown flag");
    assert_eq!(unknown, format!("unknown flag --no-such-flag\n{usage}"));
    assert_eq!(parse(line(&["--help"])), Err(usage));
}
