//! ECO patch over the wire: `patch` registers a rebased revision whose
//! served reports are **bit-identical** to a cold session on the edited
//! circuit, while untouched cones answer from the transplanted result
//! cache (`"reused":true`) without re-executing. Chained patches must
//! land on the same content id as one batched patch.

use ltt_core::{BatchRunner, CheckSession};
use ltt_netlist::bench_format::parse_bench;
use ltt_netlist::{CircuitEdit, DelayInterval, NetId};
use ltt_serve::proto::{batch_json, ok_response};
use ltt_serve::{patched_id, Client, EditSpec, Json, ServeConfig, Server};

/// Two structurally independent output cones: an edit inside `y`'s cone
/// must leave every analysis and cached report for `z` transplantable.
const TWO_CONE: &str = "\
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
OUTPUT(z)
u = AND(a, b)
y = NAND(u, b)
v = OR(c, d)
z = NOT(v)
";

fn start_server() -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(&ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let join = std::thread::spawn(move || server.run());
    (addr, join)
}

fn register(client: &mut Client, name: &str, source: &str) -> String {
    let reply = client
        .call(&Json::obj([
            ("op", Json::str("register")),
            ("name", Json::str(name)),
            ("source", Json::str(source)),
        ]))
        .expect("register");
    assert_eq!(
        reply.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        reply.encode()
    );
    reply
        .get("circuit")
        .and_then(Json::as_str)
        .expect("content id")
        .to_string()
}

/// Drops wall-clock fields and (optionally) the per-report `reused`
/// markers, the only parts of a patched reply that a cold session cannot
/// reproduce.
fn strip(v: &Json, drop_reused: bool) -> Json {
    match v {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| {
                    let timing = matches!(k.as_str(), "elapsed_us" | "wall_us" | "stage_us");
                    !(timing || (drop_reused && k == "reused"))
                })
                .map(|(k, val)| (k.clone(), strip(val, drop_reused)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(|i| strip(i, drop_reused)).collect()),
        other => other.clone(),
    }
}

/// The explicit check set used throughout: every output crossed with δ
/// values straddling the interesting region.
fn check_items(names: &[&str], deltas: &[i64]) -> Vec<Json> {
    names
        .iter()
        .flat_map(|&n| {
            deltas
                .iter()
                .map(move |&d| Json::obj([("output", Json::str(n)), ("delta", Json::Int(d))]))
        })
        .collect()
}

fn patch_request(
    parent: &str,
    name: Option<&str>,
    edits: Vec<Json>,
    checks: Option<Vec<Json>>,
) -> Json {
    let mut fields = vec![
        ("op".to_string(), Json::str("patch")),
        ("circuit".to_string(), Json::str(parent)),
    ];
    if let Some(n) = name {
        fields.push(("name".to_string(), Json::str(n)));
    }
    fields.push(("edits".to_string(), Json::Arr(edits)));
    if let Some(c) = checks {
        fields.push(("checks".to_string(), Json::Arr(c)));
    }
    fields.push(("id".to_string(), Json::Int(7)));
    Json::Obj(fields)
}

/// Per-report `reused` flags in reply order.
fn reused_flags(reply: &Json) -> Vec<bool> {
    reply
        .get("reports")
        .and_then(Json::as_array)
        .expect("reports")
        .iter()
        .map(|r| r.get("reused") == Some(&Json::Bool(true)))
        .collect()
}

#[test]
fn patched_reports_match_a_cold_session_and_reuse_clean_cones() {
    let (addr, join) = start_server();
    let mut client = Client::connect(&addr).expect("connect");
    let parent_key = register(&mut client, "two-cone", TWO_CONE);

    let deltas = [5i64, 20, 21];
    let names = ["y", "z"];

    // Warm the parent's result cache so the patch has exact reports to
    // transplant for the untouched cone.
    let warm = client
        .call(&Json::obj([
            ("op", Json::str("batch_check")),
            ("circuit", Json::str(parent_key.clone())),
            ("checks", Json::Arr(check_items(&names, &deltas))),
        ]))
        .expect("warm batch");
    assert_eq!(warm.get("ok"), Some(&Json::Bool(true)), "{}", warm.encode());

    // Re-annotate `u` (inside y's cone, outside z's).
    let edit = Json::obj([("gate", Json::str("u")), ("delay", Json::Int(35))]);
    let served = client
        .call(&patch_request(
            &parent_key,
            Some("two-cone-v2"),
            vec![edit.clone()],
            Some(check_items(&names, &deltas)),
        ))
        .expect("patch");
    assert_eq!(
        served.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        served.encode()
    );

    // The envelope describes the delta: delay-only, one dirty net, and
    // all three of z's warmed reports carried across (y's cone contains
    // the dirty net, so its entries are discarded).
    assert_eq!(served.get("structural"), Some(&Json::Bool(false)));
    assert_eq!(served.get("cached"), Some(&Json::Bool(false)));
    assert_eq!(
        served.get("dirty"),
        Some(&Json::Arr(vec![Json::str("u")])),
        "{}",
        served.encode()
    );
    assert_eq!(served.get("transplanted"), Some(&Json::Int(3)));

    // Checks come back in request order: y's cone contains the dirty net
    // so its reports re-ran; z's were served from the transplanted cache.
    assert_eq!(
        reused_flags(&served),
        [false, false, false, true, true, true],
        "{}",
        served.encode()
    );

    // Oracle: the same edit applied in-process, verified by a cold
    // session under the registry's configuration. Byte-for-byte equal
    // once timing and the reuse markers are stripped.
    let parsed = parse_bench("two-cone", TWO_CONE, DelayInterval::fixed(10)).expect("parse");
    let u = parsed
        .net_by_name("u")
        .and_then(|n| parsed.net(n).driver())
        .expect("gate u");
    let edited = parsed
        .apply_edit(&[CircuitEdit::SetDelay {
            gate: u,
            delay: DelayInterval::fixed(35),
        }])
        .expect("edit")
        .circuit;
    let session = CheckSession::new(&edited, ltt_serve::session_config());
    let checks: Vec<(NetId, i64)> = names
        .iter()
        .flat_map(|&n| {
            let net = edited.net_by_name(n).expect("output");
            deltas.iter().map(move |&d| (net, d))
        })
        .collect();
    let check_names: Vec<String> = names
        .iter()
        .flat_map(|&n| deltas.iter().map(move |_| n.to_string()))
        .collect();
    let batch = BatchRunner::new(1).run(&session, &checks);
    let child_id = patched_id(
        &parent_key,
        &[EditSpec::SetDelay {
            gate: "u".to_string(),
            min: 35,
            max: 35,
        }],
    );
    let mut fields = vec![
        ("circuit".to_string(), Json::str(child_id.clone())),
        ("name".to_string(), Json::str("two-cone-v2")),
        ("cached".to_string(), Json::Bool(false)),
        ("structural".to_string(), Json::Bool(false)),
        ("dirty".to_string(), Json::Arr(vec![Json::str("u")])),
        ("transplanted".to_string(), Json::Int(3)),
    ];
    fields.append(&mut batch_json(&batch, &check_names));
    let expected = ok_response("patch", Some(&Json::Int(7)), fields);
    assert_eq!(
        strip(&served, true).encode(),
        strip(&expected, false).encode(),
        "patched reports must be bit-identical to a cold session"
    );

    // Re-sending the identical patch hits the resident revision, and by
    // now every report is cached — the whole batch answers from memory
    // with the same bytes.
    let again = client
        .call(&patch_request(
            &parent_key,
            Some("two-cone-v2"),
            vec![edit],
            Some(check_items(&names, &deltas)),
        ))
        .expect("patch again");
    assert_eq!(again.get("cached"), Some(&Json::Bool(true)));
    assert_eq!(reused_flags(&again), [true; 6], "{}", again.encode());
    // The resident replay recomputes nothing, so its delta envelope is
    // empty — but the check payload must still be byte-identical.
    assert_eq!(again.get("dirty"), Some(&Json::Arr(vec![])));
    assert_eq!(again.get("transplanted"), Some(&Json::Int(0)));
    let mut resend = strip(&again, true);
    if let Json::Obj(fields) = &mut resend {
        fields.retain(|(k, _)| !matches!(k.as_str(), "cached" | "dirty" | "transplanted"));
    }
    let mut cold = strip(&expected, false);
    if let Json::Obj(fields) = &mut cold {
        fields.retain(|(k, _)| !matches!(k.as_str(), "cached" | "dirty" | "transplanted"));
    }
    assert_eq!(
        resend.encode(),
        cold.encode(),
        "resident patch replay serves identical bytes"
    );

    // The revision is addressable by both content id and its new name.
    for key in [child_id.as_str(), "two-cone-v2"] {
        let reply = client
            .call(&Json::obj([
                ("op", Json::str("check")),
                ("circuit", Json::str(key)),
                ("output", Json::str("y")),
                ("delta", Json::Int(deltas[0])),
            ]))
            .expect("check on child");
        assert_eq!(
            reply.get("ok"),
            Some(&Json::Bool(true)),
            "{}",
            reply.encode()
        );
    }

    let _ = client.call(&Json::obj([("op", Json::str("shutdown"))]));
    drop(client);
    join.join().expect("server thread").expect("clean drain");
}

#[test]
fn chained_patches_land_on_the_same_revision_as_one_batch() {
    let (addr, join) = start_server();
    let mut client = Client::connect(&addr).expect("connect");
    let parent_key = register(&mut client, "two-cone", TWO_CONE);

    let e1 = Json::obj([("gate", Json::str("u")), ("delay", Json::Int(17))]);
    let e2 = Json::obj([("gate", Json::str("v")), ("delay", Json::Int(23))]);

    // parent --e1--> mid --e2--> chained.
    let mid = client
        .call(&patch_request(&parent_key, None, vec![e1.clone()], None))
        .expect("first patch");
    assert_eq!(mid.get("ok"), Some(&Json::Bool(true)), "{}", mid.encode());
    let mid_id = mid.get("circuit").and_then(Json::as_str).expect("mid id");
    let chained = client
        .call(&patch_request(mid_id, None, vec![e2.clone()], None))
        .expect("second patch");
    let chained_id = chained
        .get("circuit")
        .and_then(Json::as_str)
        .expect("chained id")
        .to_string();

    // parent --[e1,e2]--> batched: same content, so the incremental hash
    // must agree and the entry must already be resident.
    let batched = client
        .call(&patch_request(&parent_key, None, vec![e1, e2], None))
        .expect("batched patch");
    assert_eq!(
        batched.get("circuit").and_then(Json::as_str),
        Some(chained_id.as_str()),
        "chained and batched patches must produce the same revision id"
    );
    assert_eq!(batched.get("cached"), Some(&Json::Bool(true)));

    // A nameless patch answers by id but must not shadow the parent's
    // name binding.
    let by_name = client
        .call(&Json::obj([
            ("op", Json::str("check")),
            ("circuit", Json::str("two-cone")),
            ("output", Json::str("y")),
            ("delta", Json::Int(20)),
        ]))
        .expect("check by parent name");
    assert_eq!(
        by_name.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        by_name.encode()
    );

    let _ = client.call(&Json::obj([("op", Json::str("shutdown"))]));
    drop(client);
    join.join().expect("server thread").expect("clean drain");
}
