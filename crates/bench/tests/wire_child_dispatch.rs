//! The `experiments` binary routes a re-executed wire child by its
//! world id before it reads any argument.

#[test]
fn a_wire_child_of_an_unknown_world_exits_2_naming_it() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_experiments"))
        .env(pdc_mpi::transport::ENV_WORLD, "no-such-world")
        .output()
        .expect("run experiments");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("unknown world \"no-such-world\""),
        "{stderr}"
    );
}
