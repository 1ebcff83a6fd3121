//! The line protocol end to end: submit → checkpoint → cancel → resume
//! → result, all through [`AuditService::handle`], plus the stdio loop
//! over in-memory streams.

use mvf::logic::VectorFunction;
use mvf::merge::PinAssignment;
use mvf::{SchemeKind, Workload};
use mvf_attack::AnyIoProgress;
use mvf_serve::checkpoint::GaFinal;
use mvf_serve::json::Value;
use mvf_serve::wire::encode_workload;
use mvf_serve::{AuditService, Checkpoint, CheckpointPhase, ServeConfig};

fn tiny_cfg() -> ServeConfig {
    let mut cfg = ServeConfig::default();
    cfg.flow.ga.population = 4;
    cfg.flow.ga.generations = 2;
    cfg.checkpoint_steps = 1;
    cfg.sweep_chunk = 5;
    cfg.attack_screen = false;
    cfg
}

fn workload_json(seed: u64) -> String {
    let w = mvf::Workload::new("PRESENT x2", mvf_sboxes::optimal_sboxes()[..2].to_vec())
        .with_seed(seed);
    encode_workload(&w).to_string()
}

fn parse_ok(response: &str) -> Value {
    let v = Value::parse(response).expect("response is valid JSON");
    assert_eq!(
        v.get("ok").and_then(Value::as_bool),
        Some(true),
        "request failed: {response}"
    );
    v
}

#[test]
fn submit_wait_returns_a_wellformed_report() {
    let service = AuditService::start(tiny_cfg());
    let response = service.handle(&format!(
        "{{\"cmd\":\"submit\",\"id\":\"a\",\"wait\":true,\"workload\":{}}}",
        workload_json(7)
    ));
    let v = parse_ok(&response);
    assert_eq!(v.get("status").and_then(Value::as_str), Some("done"));
    let report = v.get("report").expect("report attached");
    assert_eq!(
        report.get("name").and_then(Value::as_str),
        Some("PRESENT x2")
    );
    assert_eq!(report.get("seed").and_then(Value::as_u64), Some(7));
    let summary = report
        .get("summary")
        .and_then(Value::as_str)
        .expect("summary line");
    assert!(summary.contains("ok, area"), "summary: {summary}");
    let verdicts = report
        .get("plausibility")
        .and_then(Value::as_arr)
        .expect("plausibility verdicts attached");
    assert_eq!(verdicts.len(), 2);
    for verdict in verdicts {
        assert_eq!(verdict.get("identity").and_then(Value::as_bool), Some(true));
        assert_eq!(verdict.get("any_io").and_then(Value::as_bool), Some(true));
    }
    // The result is queryable again after the fact.
    let again = parse_ok(&service.handle("{\"cmd\":\"result\",\"id\":\"a\"}"));
    assert_eq!(
        again.get("report").map(Value::to_string),
        v.get("report").map(Value::to_string),
        "result must return the identical report"
    );
    // A done job's status surfaces the sweep solver's counters. The
    // solver has no inprocessing, so nothing is vivified or eliminated.
    let status = parse_ok(&service.handle("{\"cmd\":\"status\",\"id\":\"a\"}"));
    assert_eq!(status.get("status").and_then(Value::as_str), Some("done"));
    for counter in ["n_vivified", "n_eliminated", "n_reductions"] {
        assert!(
            status.get(counter).and_then(Value::as_u64).is_some(),
            "done status must carry {counter}: {status}"
        );
    }
    let counter = |name: &str| status.get(name).and_then(Value::as_u64).unwrap();
    assert!(
        counter("n_vivified") == 0 && counter("n_eliminated") == 0,
        "the solver has no inprocessing: {status}"
    );
    service.shutdown_and_join();
}

#[test]
fn cancel_checkpoint_resume_reproduces_the_uninterrupted_report() {
    let service = AuditService::start(tiny_cfg());
    // Uninterrupted reference run (pinned workload seed, so the derived
    // submission index does not matter).
    let full = parse_ok(&service.handle(&format!(
        "{{\"cmd\":\"submit\",\"id\":\"full\",\"wait\":true,\"workload\":{}}}",
        workload_json(0xBEE5)
    )));
    let want = full.get("report").expect("report").to_string();

    // Same workload again; cancel it as soon as a checkpoint exists.
    parse_ok(&service.handle(&format!(
        "{{\"cmd\":\"submit\",\"id\":\"killed\",\"workload\":{}}}",
        workload_json(0xBEE5)
    )));
    let checkpoint = loop {
        let response = service.handle("{\"cmd\":\"checkpoint\",\"id\":\"killed\"}");
        let v = Value::parse(&response).unwrap();
        if v.get("ok").and_then(Value::as_bool) == Some(true) {
            break v.get("checkpoint").unwrap().to_string();
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    parse_ok(&service.handle("{\"cmd\":\"cancel\",\"id\":\"killed\"}"));
    // Wait for the job to leave the running state (it may have finished
    // before the cancel landed — resuming from the captured checkpoint
    // is valid either way).
    loop {
        let v = parse_ok(&service.handle("{\"cmd\":\"status\",\"id\":\"killed\"}"));
        let status = v.get("status").and_then(Value::as_str).unwrap().to_string();
        if status == "cancelled" || status == "done" {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    // Resume from the captured checkpoint under a new job id.
    let resumed = parse_ok(&service.handle(&format!(
        "{{\"cmd\":\"submit\",\"id\":\"resumed\",\"wait\":true,\"checkpoint\":{checkpoint}}}"
    )));
    assert_eq!(
        resumed.get("report").expect("report").to_string(),
        want,
        "the resumed job's report must be bit-identical to the uninterrupted run"
    );
    service.shutdown_and_join();
}

#[test]
fn protocol_errors_are_reported_not_panicked() {
    let service = AuditService::start(tiny_cfg());
    for (request, needle) in [
        ("not json", "bad request"),
        ("{\"cmd\":\"frobnicate\"}", "unknown cmd"),
        ("{\"nope\":1}", "missing cmd"),
        ("{\"cmd\":\"status\"}", "missing id"),
        ("{\"cmd\":\"status\",\"id\":\"ghost\"}", "no job"),
        ("{\"cmd\":\"result\",\"id\":\"ghost\"}", "no job"),
        (
            "{\"cmd\":\"submit\",\"id\":\"x\"}",
            "workload or a checkpoint",
        ),
        (
            "{\"cmd\":\"submit\",\"id\":\"x\",\"workload\":{\"name\":1}}",
            "bad workload",
        ),
        (
            "{\"cmd\":\"submit\",\"id\":\"x\",\"checkpoint\":{\"format\":\"other\"}}",
            "bad checkpoint",
        ),
    ] {
        let v = Value::parse(&service.handle(request)).expect("error response is JSON");
        assert_eq!(
            v.get("ok").and_then(Value::as_bool),
            Some(false),
            "{request} must fail"
        );
        let error = v.get("error").and_then(Value::as_str).unwrap();
        assert!(error.contains(needle), "{request} → {error}");
    }
    service.shutdown_and_join();
}

#[test]
fn sweep_checkpoints_of_the_wrong_width_are_refused_and_the_service_keeps_answering() {
    let service = AuditService::start(tiny_cfg());
    let workload =
        Workload::new("PRESENT x2", mvf_sboxes::optimal_sboxes()[..2].to_vec()).with_seed(4);
    // Sweep cursors whose witness bounds or query counts cover three
    // candidates, not these two functions.
    for (id, best, queries) in [
        ("best", vec![usize::MAX; 3], vec![0; 2]),
        ("queries", vec![usize::MAX; 2], vec![0; 3]),
    ] {
        let checkpoint = Checkpoint {
            seed: 4,
            scheme: SchemeKind::Camouflage,
            failed_evaluations: 0,
            phase: CheckpointPhase::Sweep {
                ga: GaFinal {
                    best: PinAssignment::identity(&workload.functions),
                    history: Vec::new(),
                    evaluations: 0,
                },
                progress: AnyIoProgress {
                    pos: 0,
                    best,
                    queries,
                    resolved: Vec::new(),
                },
            },
            workload: workload.clone(),
        };
        let v = Value::parse(&service.handle(&format!(
            "{{\"cmd\":\"submit\",\"id\":\"{id}\",\"checkpoint\":{}}}",
            checkpoint.to_value()
        )))
        .expect("response is JSON");
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false), "{id}");
        let error = v.get("error").and_then(Value::as_str).unwrap();
        assert!(error.contains("bad checkpoint"), "{id}: {error}");
        // Refused up front: no job was queued, and the service answers.
        let status =
            Value::parse(&service.handle(&format!("{{\"cmd\":\"status\",\"id\":\"{id}\"}}")))
                .unwrap();
        assert!(
            status
                .get("error")
                .and_then(Value::as_str)
                .unwrap()
                .contains("no job"),
            "{id}: {status}"
        );
    }
    // The worker is still alive: a good workload runs to completion.
    parse_ok(&service.handle(&format!(
        "{{\"cmd\":\"submit\",\"id\":\"fine\",\"wait\":true,\"workload\":{}}}",
        workload_json(5)
    )));
    service.shutdown_and_join();
}

#[test]
fn duplicate_ids_are_rejected() {
    let service = AuditService::start(tiny_cfg());
    parse_ok(&service.handle(&format!(
        "{{\"cmd\":\"submit\",\"id\":\"dup\",\"wait\":true,\"workload\":{}}}",
        workload_json(1)
    )));
    let v = Value::parse(&service.handle(&format!(
        "{{\"cmd\":\"submit\",\"id\":\"dup\",\"workload\":{}}}",
        workload_json(1)
    )))
    .unwrap();
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
    service.shutdown_and_join();
}

#[test]
fn the_stdio_loop_answers_line_by_line_and_honors_shutdown() {
    let service = AuditService::start(tiny_cfg());
    let input = format!(
        "{{\"cmd\":\"submit\",\"id\":\"s\",\"wait\":true,\"workload\":{}}}\n{{\"cmd\":\"shutdown\"}}\n{{\"cmd\":\"status\",\"id\":\"s\"}}\n",
        workload_json(3)
    );
    let mut output: Vec<u8> = Vec::new();
    service
        .serve_lines(std::io::Cursor::new(input.into_bytes()), &mut output)
        .expect("in-memory streams cannot fail");
    let lines: Vec<&str> = std::str::from_utf8(&output).unwrap().lines().collect();
    // The third request is never served: shutdown stops the loop.
    assert_eq!(lines.len(), 2, "lines: {lines:?}");
    let first = parse_ok(lines[0]);
    assert!(first.get("report").is_some());
    parse_ok(lines[1]);
    assert!(service.is_shutdown());
    service.shutdown_and_join();
}

#[test]
fn malformed_lines_get_one_error_each_and_the_loop_keeps_serving() {
    use std::io::Read;
    let service = AuditService::start(tiny_cfg());
    // Not UTF-8, then one byte over the length cap (streamed, never
    // materialized here), then a status request, then a CRLF shutdown.
    let over_long = std::io::repeat(b'a').take(mvf_serve::MAX_LINE_BYTES as u64 + 1);
    let input = std::io::Cursor::new(b"\xff\xfe\n".to_vec())
        .chain(over_long)
        .chain(std::io::Cursor::new(
            b"\n{\"cmd\":\"status\",\"id\":\"ghost\"}\n{\"cmd\":\"shutdown\"}\r\n".to_vec(),
        ));
    let mut output: Vec<u8> = Vec::new();
    service
        .serve_lines(std::io::BufReader::new(input), &mut output)
        .expect("malformed lines are answered, not returned as errors");
    let lines: Vec<&str> = std::str::from_utf8(&output).unwrap().lines().collect();
    assert_eq!(lines.len(), 4, "one response per request line: {lines:?}");
    for (line, needle) in lines[..3]
        .iter()
        .zip(["not valid UTF-8", "longer than", "no job"])
    {
        let v = Value::parse(line).expect("error response is JSON");
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false), "{line}");
        let error = v.get("error").and_then(Value::as_str).unwrap();
        assert!(error.contains(needle), "{line}");
    }
    parse_ok(lines[3]);
    assert!(service.is_shutdown());
    service.shutdown_and_join();
}

#[test]
fn checkpoint_files_are_written_when_a_dir_is_configured() {
    let dir = std::env::temp_dir().join("mvf-serve-proto-ckpt");
    std::fs::create_dir_all(&dir).unwrap();
    let mut cfg = tiny_cfg();
    cfg.checkpoint_dir = Some(dir.clone());
    let service = AuditService::start(cfg);
    parse_ok(&service.handle(&format!(
        "{{\"cmd\":\"submit\",\"id\":\"disk\",\"wait\":true,\"workload\":{}}}",
        workload_json(9)
    )));
    let path = dir.join("disk.checkpoint.json");
    let cp = mvf_serve::Checkpoint::read(&path).expect("checkpoint file parses");
    assert_eq!(cp.seed, 9);
    std::fs::remove_file(&path).ok();
    service.shutdown_and_join();
}

#[test]
fn unrunnable_workloads_are_refused_and_the_service_keeps_answering() {
    let service = AuditService::start(tiny_cfg());
    let zero_inputs = VectorFunction::from_lookup_table(0, 1, &[1]).unwrap();
    // 13! input permutations overflow the sweep's u32 orbit indices at
    // the service's default (permutation) tier.
    let wide = VectorFunction::from_lookup_table(13, 1, &vec![0; 1 << 13]).unwrap();
    for (id, f) in [("zero", zero_inputs), ("wide", wide)] {
        let workload = Workload::new(id, vec![f]).with_seed(1);
        // A sweep-phase checkpoint of the same workload: resuming it
        // would plan the same orbit.
        let checkpoint = Checkpoint {
            seed: 1,
            scheme: SchemeKind::Camouflage,
            failed_evaluations: 0,
            phase: CheckpointPhase::Sweep {
                ga: GaFinal {
                    best: PinAssignment::identity(&workload.functions),
                    history: Vec::new(),
                    evaluations: 0,
                },
                progress: AnyIoProgress {
                    pos: 0,
                    best: vec![usize::MAX],
                    queries: vec![0],
                    resolved: Vec::new(),
                },
            },
            workload: workload.clone(),
        };
        for request in [
            format!(
                "{{\"cmd\":\"submit\",\"id\":\"{id}\",\"wait\":true,\"workload\":{}}}",
                encode_workload(&workload)
            ),
            format!(
                "{{\"cmd\":\"submit\",\"id\":\"{id}-cp\",\"wait\":true,\"checkpoint\":{}}}",
                checkpoint.to_value()
            ),
        ] {
            let v = Value::parse(&service.handle(&request)).expect("response is JSON");
            assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false), "{id}");
            let error = v.get("error").and_then(Value::as_str).unwrap();
            assert!(error.contains("unsupported workload"), "{id}: {error}");
        }
    }
    // Neither was queued: the worker is alive and the service answers.
    let v = Value::parse(&service.handle("{\"cmd\":\"status\",\"id\":\"zero\"}")).unwrap();
    assert!(v
        .get("error")
        .and_then(Value::as_str)
        .unwrap()
        .contains("no job"));
    parse_ok(&service.handle(&format!(
        "{{\"cmd\":\"submit\",\"id\":\"fine\",\"wait\":true,\"workload\":{}}}",
        workload_json(5)
    )));
    let status = parse_ok(&service.handle("{\"cmd\":\"status\",\"id\":\"fine\"}"));
    assert_eq!(status.get("status").and_then(Value::as_str), Some("done"));
    service.shutdown_and_join();
}
