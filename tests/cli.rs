//! The `orthrus` binary as a shell pipeline stage sees it.

use std::process::{Command, Stdio};

/// A reader that goes away before the CLI writes (`orthrus list | head -0`)
/// ends the CLI quietly with status 0, not with a panic on the closed pipe.
#[test]
fn closed_stdout_exits_quietly() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let output = Command::new(env!("CARGO_BIN_EXE_orthrus"))
        .arg("list")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn orthrus");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
}
