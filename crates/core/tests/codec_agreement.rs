//! The streaming wire codec against the tree codec it replaced.
//!
//! `ControlMsg::to_json` used to build a `Msg` tree (`to_msg`) and
//! serialise that; `ControlMsg::from_json` used to parse the whole text
//! into a tree and pick the fields out of it (`from_msg`). Both tree
//! halves live on here as the oracle. Over a seeded corpus of every
//! variant the encoder must be byte-identical (wire sizes feed the radio
//! energy model), and over mutations of those envelopes the decoder must
//! return the same `Result`, error text included: that text reaches the
//! `pogo-errors` log and so the chaos traces.
//!
//! The last test is the trust-boundary half: bytes off the network are
//! truncated, flipped and spliced, and decoding answers `Ok` or `Err`,
//! never a panic and never a stack overflow.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pogo_core::proto::{ControlMsg, ScriptSpec};
use pogo_core::Msg;
use pogo_sim::SimRng;

// ---- the oracle: the retired tree codec --------------------------------------

fn to_msg(ctl: &ControlMsg) -> Msg {
    match ctl {
        ControlMsg::Deploy {
            exp,
            version,
            scripts,
        } => Msg::obj([
            ("t", Msg::str("deploy")),
            ("exp", Msg::str(exp)),
            ("version", Msg::Num(*version as f64)),
            (
                "scripts",
                Msg::Arr(
                    scripts
                        .iter()
                        .map(|s| {
                            Msg::obj([("name", Msg::str(&s.name)), ("src", Msg::str(&s.source))])
                        })
                        .collect(),
                ),
            ),
        ]),
        ControlMsg::Undeploy { exp } => {
            Msg::obj([("t", Msg::str("undeploy")), ("exp", Msg::str(exp))])
        }
        ControlMsg::Subscribe {
            exp,
            channel,
            params,
            sub_ref,
        } => Msg::obj([
            ("t", Msg::str("sub")),
            ("exp", Msg::str(exp)),
            ("ch", Msg::str(channel)),
            ("params", params.clone()),
            ("ref", Msg::Num(*sub_ref as f64)),
        ]),
        ControlMsg::Unsubscribe { exp, sub_ref } => Msg::obj([
            ("t", Msg::str("unsub")),
            ("exp", Msg::str(exp)),
            ("ref", Msg::Num(*sub_ref as f64)),
        ]),
        ControlMsg::SetActive {
            exp,
            sub_ref,
            active,
        } => Msg::obj([
            ("t", Msg::str("setactive")),
            ("exp", Msg::str(exp)),
            ("ref", Msg::Num(*sub_ref as f64)),
            ("active", Msg::Bool(*active)),
        ]),
        ControlMsg::Data {
            exp,
            channel,
            msg,
            sub_ref,
        } => {
            let mut pairs = vec![
                ("t".to_owned(), Msg::str("data")),
                ("exp".to_owned(), Msg::str(exp)),
                ("ch".to_owned(), Msg::str(channel)),
                ("msg".to_owned(), msg.clone()),
            ];
            if let Some(r) = sub_ref {
                pairs.push(("ref".to_owned(), Msg::Num(*r as f64)));
            }
            Msg::Obj(pairs)
        }
    }
}

/// `ProtoError`'s `Display`, which is what callers log.
fn proto_error(detail: impl std::fmt::Display) -> String {
    format!("malformed protocol message: {detail}")
}

fn need_str(msg: &Msg, key: &str) -> Result<String, String> {
    msg.get(key)
        .and_then(Msg::as_str)
        .map(str::to_owned)
        .ok_or_else(|| proto_error(format_args!("missing string field `{key}`")))
}

fn need_num(msg: &Msg, key: &str) -> Result<f64, String> {
    msg.get(key)
        .and_then(Msg::as_num)
        .ok_or_else(|| proto_error(format_args!("missing numeric field `{key}`")))
}

fn from_msg(msg: &Msg) -> Result<ControlMsg, String> {
    let tag = need_str(msg, "t")?;
    let exp = need_str(msg, "exp")?;
    match tag.as_str() {
        "deploy" => {
            let version = need_num(msg, "version")? as u64;
            let scripts = msg
                .get("scripts")
                .and_then(Msg::as_arr)
                .ok_or_else(|| proto_error("missing scripts"))?
                .iter()
                .map(|s| {
                    Ok(ScriptSpec {
                        name: need_str(s, "name")?,
                        source: need_str(s, "src")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(ControlMsg::Deploy {
                exp,
                version,
                scripts,
            })
        }
        "undeploy" => Ok(ControlMsg::Undeploy { exp }),
        "sub" => Ok(ControlMsg::Subscribe {
            exp,
            channel: need_str(msg, "ch")?,
            params: msg.get("params").cloned().unwrap_or(Msg::Null),
            sub_ref: need_num(msg, "ref")? as u64,
        }),
        "unsub" => Ok(ControlMsg::Unsubscribe {
            exp,
            sub_ref: need_num(msg, "ref")? as u64,
        }),
        "setactive" => Ok(ControlMsg::SetActive {
            exp,
            sub_ref: need_num(msg, "ref")? as u64,
            active: msg
                .get("active")
                .and_then(|m| match m {
                    Msg::Bool(b) => Some(*b),
                    _ => None,
                })
                .ok_or_else(|| proto_error("missing active flag"))?,
        }),
        "data" => Ok(ControlMsg::Data {
            exp,
            channel: need_str(msg, "ch")?,
            msg: msg.get("msg").cloned().unwrap_or(Msg::Null),
            sub_ref: msg.get("ref").and_then(Msg::as_num).map(|n| n as u64),
        }),
        other => Err(proto_error(format_args!("unknown tag {other:?}"))),
    }
}

fn oracle_decode(text: &str) -> Result<ControlMsg, String> {
    let msg = Msg::from_json(text).map_err(proto_error)?;
    from_msg(&msg)
}

fn decode(text: &str) -> Result<ControlMsg, String> {
    ControlMsg::from_json(text).map_err(|e| e.to_string())
}

// ---- the corpus ---------------------------------------------------------------

const VARIANTS: usize = 6;

struct Gen(SimRng);

impl Gen {
    fn string(&mut self) -> String {
        const PIECES: &[&str] = &[
            "",
            "bench",
            "wifi-scan",
            "a b",
            "quo\"te",
            "back\\slash",
            "line\nfeed\ttab\rret",
            "\u{1}\u{8}\u{c}\u{1f}",
            "\u{7f}",
            "déjà",
            "漢字",
            "😀",
            "/slash",
            "{\"t\":\"data\"}",
        ];
        let mut out = String::new();
        for _ in 0..self.0.index(4) {
            out.push_str(self.0.pick::<&str>(PIECES));
        }
        out
    }

    fn num(&mut self) -> f64 {
        const EDGES: &[f64] = &[
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            3.7,
            -2.5e-7,
            60_000.0,
            999_999_999_999_999.0,
            1e15,
            1_000_000_000_000_001.0,
            -999_999_999_999_999.0,
            -1e15,
            9_007_199_254_740_992.0,
            9.3e18,
            1.5e300,
            5e-324,
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        match self.0.index(4) {
            0 => self.0.range_u64(0, 100_000) as f64,
            1 => self.0.range_f64(-1e6, 1e6),
            _ => *self.0.pick(EDGES),
        }
    }

    fn msg(&mut self, depth: usize) -> Msg {
        let kinds = if depth == 0 { 4 } else { 6 };
        match self.0.index(kinds) {
            0 => Msg::Null,
            1 => Msg::Bool(self.0.chance(0.5)),
            2 => Msg::Num(self.num()),
            3 => Msg::Str(self.string()),
            4 => Msg::Arr((0..self.0.index(4)).map(|_| self.msg(depth - 1)).collect()),
            _ => Msg::Obj(
                (0..self.0.index(5))
                    .map(|_| (self.string(), self.msg(depth - 1)))
                    .collect(),
            ),
        }
    }

    fn int(&mut self) -> u64 {
        const EDGES: &[u64] = &[
            0,
            1,
            999_999_999_999_999,
            1_000_000_000_000_000,
            (1 << 53) + 1,
            u64::MAX,
        ];
        if self.0.chance(0.5) {
            self.0.range_u64(0, 1_000)
        } else {
            *self.0.pick(EDGES)
        }
    }

    fn control(&mut self, variant: usize) -> ControlMsg {
        let exp = self.string();
        match variant {
            0 => ControlMsg::Deploy {
                exp,
                version: self.int(),
                scripts: (0..self.0.index(3))
                    .map(|_| ScriptSpec {
                        name: self.string(),
                        source: self.string(),
                    })
                    .collect(),
            },
            1 => ControlMsg::Undeploy { exp },
            2 => ControlMsg::Subscribe {
                exp,
                channel: self.string(),
                params: self.msg(2),
                sub_ref: self.int(),
            },
            3 => ControlMsg::Unsubscribe {
                exp,
                sub_ref: self.int(),
            },
            4 => ControlMsg::SetActive {
                exp,
                sub_ref: self.int(),
                active: self.0.chance(0.5),
            },
            _ => ControlMsg::Data {
                exp,
                channel: self.string(),
                msg: self.msg(4),
                sub_ref: self.0.chance(0.5).then(|| self.int()),
            },
        }
    }
}

/// `n` seeded messages, cycling through the variants.
fn corpus(seed: u64, n: usize) -> Vec<ControlMsg> {
    let mut gen = Gen(SimRng::seed_from_u64(seed));
    (0..n).map(|i| gen.control(i % VARIANTS)).collect()
}

/// Envelopes as the middleware really sends them: a deployment, the
/// registry's mirrored subscription, sensor samples, and the deepest
/// message the paper's scripts publish.
fn real_envelopes() -> Vec<String> {
    let place = |lat: f64| {
        Msg::obj([
            ("entry", Msg::Num(1_340_000_000_000.0)),
            ("exit", Msg::Num(1_340_000_600_000.0)),
            (
                "rep",
                Msg::obj([
                    ("t", Msg::Num(1_340_000_000_000.0)),
                    (
                        "aps",
                        Msg::Arr(vec![Msg::obj([
                            ("bssid", Msg::str("00:1a:2b:3c:4d:5e")),
                            ("level", Msg::Num(lat / 90.0)),
                        ])]),
                    ),
                ]),
            ),
        ])
    };
    [
        ControlMsg::Deploy {
            exp: "localization".into(),
            version: 3,
            scripts: vec![ScriptSpec {
                name: "scan.js".into(),
                source: "subscribe('wifi-scan', function (m) {\n  publish(\"scans\", m);\n});"
                    .into(),
            }],
        },
        ControlMsg::Subscribe {
            exp: "bench".into(),
            channel: "battery".into(),
            params: Msg::obj([("interval", Msg::Num(60_000.0))]),
            sub_ref: 0,
        },
        ControlMsg::SetActive {
            exp: "bench".into(),
            sub_ref: 0,
            active: false,
        },
        ControlMsg::Data {
            exp: "bench".into(),
            channel: "battery".into(),
            msg: Msg::obj([
                ("voltage", Msg::Num(3.912_345)),
                ("level", Msg::Num(0.87)),
                ("charging", Msg::Bool(false)),
                ("timestamp", Msg::Num(4_260_000.0)),
            ]),
            sub_ref: Some(0),
        },
        ControlMsg::Data {
            exp: "localization".into(),
            channel: "locations".into(),
            msg: Msg::obj([("places", Msg::Arr(vec![place(52.0), place(4.4)]))]),
            sub_ref: None,
        },
    ]
    .iter()
    .map(ControlMsg::to_json)
    .collect()
}

// ---- mutations ------------------------------------------------------------------

fn blanks(rng: &mut SimRng, out: &mut String) {
    for _ in 0..rng.index(3) {
        out.push(*rng.pick(&[' ', '\t', '\n', '\r']));
    }
}

/// Compact JSON with random blanks wherever the grammar allows them.
fn render_spaced(msg: &Msg, rng: &mut SimRng, out: &mut String) {
    blanks(rng, out);
    match msg {
        Msg::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_spaced(item, rng, out);
            }
            blanks(rng, out);
            out.push(']');
        }
        Msg::Obj(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                blanks(rng, out);
                out.push_str(&Msg::str(k.as_str()).to_json());
                blanks(rng, out);
                out.push(':');
                render_spaced(v, rng, out);
            }
            blanks(rng, out);
            out.push('}');
        }
        scalar => out.push_str(&scalar.to_json()),
    }
    blanks(rng, out);
}

/// One structural mutation of an envelope's top-level members.
fn mutate_members(pairs: &mut Vec<(String, Msg)>, gen: &mut Gen) {
    const KNOWN: &[&str] = &[
        "t", "exp", "ch", "msg", "params", "ref", "version", "scripts", "active",
    ];
    const TAGS: &[&str] = &[
        "deploy",
        "undeploy",
        "sub",
        "unsub",
        "setactive",
        "data",
        "warp",
        "",
    ];
    let at = |gen: &mut Gen, len: usize| gen.0.index(len.max(1)).min(len.saturating_sub(1));
    match gen.0.index(8) {
        // Reordered.
        0 => {
            for i in (1..pairs.len()).rev() {
                pairs.swap(i, gen.0.index(i + 1));
            }
        }
        // Duplicated, the copy carrying another value, before or after.
        1 if !pairs.is_empty() => {
            let i = at(gen, pairs.len());
            let copy = (pairs[i].0.clone(), gen.msg(2));
            let to = gen.0.index(pairs.len() + 1);
            pairs.insert(to, copy);
        }
        // Unknown member, anywhere.
        2 => {
            let to = gen.0.index(pairs.len() + 1);
            pairs.insert(to, (format!("x-{}", gen.string()), gen.msg(3)));
        }
        // Missing member.
        3 if !pairs.is_empty() => {
            pairs.remove(at(gen, pairs.len()));
        }
        // Wrong type.
        4 if !pairs.is_empty() => {
            let i = at(gen, pairs.len());
            pairs[i].1 = gen.msg(2);
        }
        // A member of another variant.
        5 => {
            let to = gen.0.index(pairs.len() + 1);
            pairs.insert(to, ((*gen.0.pick(KNOWN)).to_owned(), gen.msg(2)));
        }
        // Another tag over the same members.
        6 => {
            if let Some(tag) = pairs.iter_mut().find(|(k, _)| k == "t") {
                tag.1 = Msg::str(*gen.0.pick(TAGS));
            }
        }
        // A script entry that is not a script.
        _ => {
            if let Some((_, Msg::Arr(scripts))) = pairs.iter_mut().find(|(k, _)| k == "scripts") {
                let entry = match gen.0.index(3) {
                    0 => Msg::obj([("name", Msg::str("only-a-name.js"))]),
                    1 => Msg::obj([("name", Msg::Num(1.0)), ("src", Msg::str(""))]),
                    _ => gen.msg(1),
                };
                scripts.push(entry);
            }
        }
    }
}

fn assert_agree(text: &str, what: &str) {
    assert_eq!(
        decode(text),
        oracle_decode(text),
        "{what}: decoders disagree on {text:?}"
    );
}

// ---- the properties -----------------------------------------------------------

#[test]
fn encoder_is_byte_identical_to_the_tree_codec() {
    let corpus = corpus(0xC0DEC, 2_400);
    let mut seen = [0usize; VARIANTS];
    for (i, ctl) in corpus.iter().enumerate() {
        seen[i % VARIANTS] += 1;
        let json = ctl.to_json();
        assert_eq!(json, to_msg(ctl).to_json(), "message {i}: {ctl:?}");
        assert_eq!(
            json.capacity(),
            json.len(),
            "message {i}: the buffer is allocated at the wire size"
        );
    }
    assert!(seen.iter().all(|&n| n >= 400), "every variant: {seen:?}");
}

#[test]
fn decoder_agrees_with_the_tree_codec_on_clean_and_mutated_envelopes() {
    let mut gen = Gen(SimRng::seed_from_u64(0xDEC0DE));
    let (mut oks, mut errs) = (0usize, 0usize);
    for (i, ctl) in corpus(0xC0DEC, 2_400).iter().enumerate() {
        let clean = ctl.to_json();
        assert_agree(&clean, "clean");
        let Msg::Obj(members) = to_msg(ctl) else {
            unreachable!("envelopes are objects");
        };
        for round in 0..6 {
            let mut pairs = members.clone();
            for _ in 0..=round % 3 {
                mutate_members(&mut pairs, &mut gen);
            }
            let mut text = String::new();
            if round % 2 == 0 {
                render_spaced(&Msg::Obj(pairs), &mut gen.0, &mut text);
            } else {
                text = Msg::Obj(pairs).to_json();
            }
            assert_agree(&text, &format!("message {i} round {round}"));
            match decode(&text) {
                Ok(_) => oks += 1,
                Err(_) => errs += 1,
            }
        }
    }
    // The mutations must exercise both outcomes, not collapse into one.
    assert!(oks > 2_000 && errs > 2_000, "{oks} ok, {errs} err");
    // Not an object at all: validated, then refused for its missing tag.
    for text in ["[1,2]", "\"data\"", "12", "null", " [ {\"t\":\"data\"} ] "] {
        assert_agree(text, "non-object");
        assert_eq!(
            decode(text).unwrap_err(),
            proto_error("missing string field `t`")
        );
    }
}

#[test]
fn decoding_bytes_off_the_network_errs_but_never_panics() {
    let mut rng = SimRng::seed_from_u64(0x0FF_7E7);
    let mut seeds = real_envelopes();
    seeds.extend(corpus(0xBAD, 120).iter().map(ControlMsg::to_json));
    let (mut oks, mut errs) = (0usize, 0usize);
    for seed in &seeds {
        for _ in 0..60 {
            let mut bytes = seed.clone().into_bytes();
            for _ in 0..=rng.index(3) {
                let at = rng.index(bytes.len().max(1)).min(bytes.len());
                match rng.index(4) {
                    0 => bytes.truncate(at),
                    1 if at < bytes.len() => bytes[at] ^= 1 << rng.index(8),
                    2 if at < bytes.len() => {
                        bytes[at] = *rng.pick(b"{}[]\",:\\u0eE-.tfn \x00\x7f");
                    }
                    _ => {
                        let donor = rng.pick(&seeds).as_bytes();
                        let from = rng.index(donor.len().max(1)).min(donor.len());
                        let len = rng.index(24).min(donor.len() - from);
                        bytes.splice(at..at, donor[from..from + len].iter().copied());
                    }
                }
            }
            // The transport hands the middleware a `String`.
            let text = String::from_utf8_lossy(&bytes).into_owned();
            let outcome = catch_unwind(AssertUnwindSafe(|| decode(&text)))
                .unwrap_or_else(|_| panic!("decoding panicked on {text:?}"));
            assert_eq!(outcome, oracle_decode(&text), "on {text:?}");
            match outcome {
                Ok(_) => oks += 1,
                Err(_) => errs += 1,
            }
        }
    }
    assert!(oks > 100 && errs > 1_000, "{oks} ok, {errs} err");

    // Nesting: 200 kB of `[` used to overflow the collector's stack.
    for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
        let bomb = open.repeat(200_000);
        assert!(decode(&bomb).unwrap_err().contains("nesting deeper than"));
        let inside = format!("{{\"t\":\"data\",\"exp\":\"e\",\"ch\":\"c\",\"msg\":{bomb}");
        assert_agree(&inside, "bomb inside an envelope");
        assert!(decode(&inside).unwrap_err().contains("nesting deeper than"));
        // The envelope is one level itself: 127 more are fine, 128 are not.
        for (levels, fits) in [(127, true), (128, false)] {
            let msg = format!("{}1{}", open.repeat(levels), close.repeat(levels));
            let text = format!("{{\"t\":\"data\",\"exp\":\"e\",\"ch\":\"c\",\"msg\":{msg}}}");
            assert_agree(&text, "nesting boundary");
            assert_eq!(decode(&text).is_ok(), fits, "{levels} levels");
        }
    }
}
