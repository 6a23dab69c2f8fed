//! The paper binaries' shared flag parser turns bad input into a usage
//! error (exit code 2) before any experiment work starts.

use std::process::Command;

#[test]
fn non_finite_scale_is_a_usage_error() {
    for scale in ["nan", "inf"] {
        let out = Command::new(env!("CARGO_BIN_EXE_exp_fig7"))
            .args(["--quick", "--scale", scale])
            .output()
            .expect("run exp_fig7");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--scale {scale}: {stderr}");
        assert!(stderr.contains("--scale"), "--scale {scale}: {stderr}");
    }
}
