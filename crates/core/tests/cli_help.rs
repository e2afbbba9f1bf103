//! `--help` and `-h` print the usage and succeed after any `spack-solve` command,
//! instead of being read as a spec, a batch file or a virtual.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_spack-solve"))
        .args(args)
        .output()
        .expect("spack-solve runs");
    let text = |b: Vec<u8>| String::from_utf8(b).expect("UTF-8 output");
    (out.status.code(), text(out.stdout), text(out.stderr))
}

#[test]
fn help_after_any_command_prints_usage_and_exits_zero() {
    for args in [
        &["--help"][..],
        &["-h"],
        &["help"],
        &["spec", "--help"],
        &["spec", "-h"],
        &["spec", "--reuse", "hdf5", "--help"],
        &["solve", "--help"],
        &["batch", "--help"],
        &["batch", "-h"],
        &["batch", "--json", "requests.txt", "--help"],
        &["providers", "--help"],
        &["list", "--help"],
        &["criteria", "-h"],
    ] {
        let (code, stdout, stderr) = run(args);
        assert_eq!(code, Some(0), "spack-solve {args:?} failed: {stderr}");
        assert!(stdout.contains("USAGE:"), "spack-solve {args:?} printed no usage: {stdout}");
        assert!(stderr.is_empty(), "spack-solve {args:?} complained: {stderr}");
    }
}

#[test]
fn usage_errors_still_fail() {
    let (code, _, stderr) = run(&[]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("USAGE:"), "{stderr}");
    let (code, _, stderr) = run(&["frobnicate"]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("unknown command 'frobnicate'"), "{stderr}");
    let (code, _, stderr) = run(&["spec"]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("no spec given"), "{stderr}");
}
