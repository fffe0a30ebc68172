//! `vmtherm train` must refuse records with non-finite values instead of
//! writing a degenerate model.

use std::process::Command;

#[test]
fn train_exits_with_an_error_on_non_finite_records() {
    let dir = std::env::temp_dir().join(format!("vmtherm-train-input-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let records = dir.join("records.libsvm");
    let model = dir.join("model.txt");
    std::fs::write(&records, "50.5 1:0.25 2:0.5\n51.0 1:nan 2:inf\n").expect("records");

    let output = Command::new(env!("CARGO_BIN_EXE_vmtherm"))
        .arg("train")
        .arg("--records")
        .arg(&records)
        .arg("--out")
        .arg(&model)
        .output()
        .expect("run vmtherm");

    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "train accepted nan/inf: {stderr}");
    assert!(
        stderr.contains("line 2") && stderr.contains("non-finite"),
        "unexpected error: {stderr}"
    );
    assert!(!model.exists(), "a model was written");
    let _ = std::fs::remove_dir_all(&dir);
}
