//! The `exp` runner fails the run when a `BENCH_*.json` artifact cannot
//! be written, instead of reporting the error inside the markdown.

use std::process::Command;

#[test]
fn bench_write_failure_exits_nonzero() {
    let out = std::env::temp_dir().join(format!("dz-exp-cli-{}", std::process::id()));
    // A directory where the artifact file should go makes the write fail.
    std::fs::create_dir_all(out.join("BENCH_lossless.json")).expect("temp dir");
    let run = Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(["--quick", "--out"])
        .arg(&out)
        .arg("bench-lossless")
        .output()
        .expect("exp runs");
    std::fs::remove_dir_all(&out).expect("temp dir removed");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(!run.status.success(), "{stderr}");
    assert!(stderr.contains("BENCH_lossless.json"), "{stderr}");
}
