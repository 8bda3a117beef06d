//! A closed stdout ends `watch` with an error value: a reader that
//! takes one line and goes away (`watch … | head -1`) leaves `watch` to
//! exit 2 with one `error:` line, not to panic in a print.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn watch_into_a_closed_pipe_exits_2_with_one_error_line() {
    let dir = std::env::temp_dir().join(format!("flowdiff-closed-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    // Five minutes of current capture at 1 s epochs print ≈ 100 kB:
    // more than the pipe holds plus what the reader buffers, so `watch`
    // cannot finish before the reader goes away.
    let paths = [(7, 12, "baseline.fcap"), (8, 300, "current.fcap")].map(|(seed, secs, name)| {
        let (log, _) = flowdiff_bench::tree_capture(1, seed, secs);
        let path = dir.join(name);
        std::fs::write(&path, log.to_wire_bytes()).expect("write capture");
        path
    });
    let mut child = Command::new(env!("CARGO_BIN_EXE_flowdiff-bench"))
        .arg("watch")
        .args(&paths)
        .args(["--epoch-secs", "1", "--window-secs", "4"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run watch");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("first line");
    assert!(first.starts_with("baseline: "), "first line: {first:?}");
    // The epoch lines are still to come: every one of them now meets a
    // pipe with no reader.
    drop(stdout);
    let out = child.wait_with_output().expect("wait for watch");
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "stderr: {stderr}");
    assert!(lines[0].starts_with("error: "), "stderr: {stderr}");
    assert!(lines[0].contains("Broken pipe"), "stderr: {stderr}");
}
