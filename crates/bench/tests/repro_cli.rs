//! `repro`'s argument handling, through the built binary: every command
//! goes through one table, so one command's checks stand for all.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn an_undeclared_flag_exits_2_naming_the_commands_flags() {
    // A typo must not fall through to the paper-scale `all` run.
    let out = repro(&["--smal"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("unknown flag `--smal`"),
        "{}",
        stderr(&out)
    );
    assert!(stderr(&out).contains("[--small]"), "{}", stderr(&out));

    // Declared for `validate` is `--configs`; for `forensics`, not
    // `--configs`; `--shards` went with the partitioned decide and
    // `--incremental` with the second detector.
    for args in [
        ["validate", "--config", "4"],
        ["forensics", "--configs", "4"],
        ["validate", "--shards", "4"],
        ["validate", "--incremental", "--no-explore"],
    ] {
        let out = repro(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            stderr(&out).contains(&format!("unknown flag `{}`", args[1])),
            "{}",
            stderr(&out)
        );
        assert!(stderr(&out).contains("usage: repro"), "{}", stderr(&out));
    }
}

#[test]
fn an_unparsable_or_missing_value_exits_2() {
    let out = repro(&["chaos", "--iterations", "x"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("--iterations wants an integer, got `x`"),
        "{}",
        stderr(&out)
    );
    assert_eq!(repro(&["chaos", "--iterations"]).status.code(), Some(2));
    assert_eq!(repro(&["serve", "--lease-ms", "0"]).status.code(), Some(2));
}

#[test]
fn an_unknown_experiment_exits_2_listing_every_id() {
    let out = repro(&["fig9", "--small"]);
    assert_eq!(out.status.code(), Some(2));
    for id in ["fig5", "ablate-victim", "ext-hybrid"] {
        assert!(stderr(&out).contains(id), "{}", stderr(&out));
    }
}

#[test]
fn probe_is_dispatched() {
    let out = repro(&["probe", "2", "0.3", "0", "120"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cyc     50"), "{stdout}");
    assert!(stdout.contains("final delivered="), "{stdout}");
    assert_eq!(repro(&["probe", "two"]).status.code(), Some(2));
    // Anything but 0 or 1 is refused, not silently read as "no recovery".
    for bad in ["yes", "2", "true"] {
        let out = repro(&["probe", "2", "0.3", bad, "120"]);
        assert_eq!(out.status.code(), Some(2), "{bad}");
        assert!(
            stderr(&out).contains(&format!("<recover:0|1> wants 0 or 1, got `{bad}`")),
            "{}",
            stderr(&out)
        );
    }
}

/// A configuration the runner would panic on is refused before it runs,
/// with the rule it breaks: a zero-depth buffer for `probe`, and a cycle
/// count whose sum with the warm-up overflows for `forensics`.
#[test]
fn unrunnable_configs_exit_2_naming_the_rule() {
    for (args, rule) in [
        (
            &["probe", "0", "0.3", "0", "120"][..],
            "buffers hold at least one flit",
        ),
        (
            &["forensics", "--cycles", "18446744073709551615"][..],
            "`warmup` + `measure` must fit in 64 bits",
        ),
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains(rule), "{args:?}: {}", stderr(&out));
    }
}
