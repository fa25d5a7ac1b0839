//! The device↔collector application protocol.
//!
//! Everything the two node roles exchange — script deployment,
//! subscription synchronization between broker counterparts (§4.2), and
//! experiment data — is a [`ControlMsg`] serialized as JSON into a
//! [`pogo_net::Payload::Data`] envelope. End-to-end acks ride the
//! envelope layer ([`pogo_net::Payload::Ack`]), not this one.

use std::fmt;

use pogo_ingest::jsonw;

use crate::value::{parse_members, Msg, WriteJson};

/// One script of an experiment, as pushed to devices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptSpec {
    /// File-style name, e.g. `scan.js`.
    pub name: String,
    /// PogoScript source text.
    pub source: String,
}

/// An experiment: id plus the scripts that run on each member device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentSpec {
    /// Unique experiment id (context name).
    pub id: String,
    /// Device-side scripts.
    pub scripts: Vec<ScriptSpec>,
}

/// A protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlMsg {
    /// Install (or update to) `version` of the experiment's scripts.
    Deploy {
        exp: String,
        version: u64,
        scripts: Vec<ScriptSpec>,
    },
    /// Remove the experiment and its context entirely.
    Undeploy { exp: String },
    /// The collector-side context subscribed to `channel`; mirror the
    /// subscription on the device broker. `sub_ref` names it in later
    /// SetActive/Unsubscribe calls and in targeted Data replies.
    Subscribe {
        exp: String,
        channel: String,
        params: Msg,
        sub_ref: u64,
    },
    /// Remove a mirrored subscription.
    Unsubscribe { exp: String, sub_ref: u64 },
    /// Release/renew a mirrored subscription.
    SetActive {
        exp: String,
        sub_ref: u64,
        active: bool,
    },
    /// Experiment data on `channel`. `sub_ref` is set when the message
    /// targets one mirrored subscription (sensor honouring parameters),
    /// `None` for ordinary channel publishes.
    Data {
        exp: String,
        channel: String,
        msg: Msg,
        sub_ref: Option<u64>,
    },
}

/// Error decoding a [`ControlMsg`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(String);

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed protocol message: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

/// A [`ControlMsg::Data`] borrowed from whoever holds its parts: what a
/// device context hands its node per published sample, so the message
/// tree is read once, by the encoder, and never cloned on the way.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DataRef<'a> {
    /// Experiment id.
    pub exp: &'a str,
    /// Channel published on.
    pub channel: &'a str,
    /// The message.
    pub msg: &'a Msg,
    /// The mirrored subscription targeted, if any.
    pub sub_ref: Option<u64>,
}

impl DataRef<'_> {
    /// Encodes to the JSON [`ControlMsg::to_json`] gives the owned form.
    pub fn to_json(self) -> String {
        self.to_sized_json()
    }

    /// The owned protocol message.
    pub(crate) fn to_control(self) -> ControlMsg {
        ControlMsg::Data {
            exp: self.exp.to_owned(),
            channel: self.channel.to_owned(),
            msg: self.msg.clone(),
            sub_ref: self.sub_ref,
        }
    }
}

impl WriteJson for DataRef<'_> {
    fn write_json<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        head("data", self.exp, out)?;
        str_member("ch", self.channel, out)?;
        member("msg", out)?;
        self.msg.write_json(out)?;
        if let Some(r) = self.sub_ref {
            num_member("ref", r, out)?;
        }
        out.write_char('}')
    }
}

/// `{"t":<tag>,"exp":<exp>` — how every envelope starts.
fn head<W: fmt::Write>(tag: &str, exp: &str, out: &mut W) -> fmt::Result {
    out.write_str("{\"t\":")?;
    jsonw::write_str(tag, out)?;
    str_member("exp", exp, out)
}

/// `,"<key>":` — a member after the first; keys need no escaping.
fn member<W: fmt::Write>(key: &str, out: &mut W) -> fmt::Result {
    out.write_str(",\"")?;
    out.write_str(key)?;
    out.write_str("\":")
}

fn str_member<W: fmt::Write>(key: &str, value: &str, out: &mut W) -> fmt::Result {
    member(key, out)?;
    jsonw::write_str(value, out)
}

/// Integers travel as JSON numbers, that is as the `f64` nearest to them.
fn num_member<W: fmt::Write>(key: &str, value: u64, out: &mut W) -> fmt::Result {
    member(key, out)?;
    jsonw::write_num(value as f64, out)
}

/// The envelope members any variant reads.
const MEMBERS: [&str; 9] = [
    "t", "exp", "ch", "msg", "params", "ref", "version", "scripts", "active",
];

fn take_str(slot: Option<Msg>, key: &str) -> Result<String, ProtoError> {
    match slot {
        Some(Msg::Str(s)) => Ok(s),
        _ => Err(ProtoError(format!("missing string field `{key}`"))),
    }
}

fn take_num(slot: &Option<Msg>, key: &str) -> Result<f64, ProtoError> {
    slot.as_ref()
        .and_then(Msg::as_num)
        .ok_or_else(|| ProtoError(format!("missing numeric field `{key}`")))
}

impl WriteJson for ControlMsg {
    fn write_json<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        match self {
            ControlMsg::Deploy {
                exp,
                version,
                scripts,
            } => {
                head("deploy", exp, out)?;
                num_member("version", *version, out)?;
                member("scripts", out)?;
                out.write_char('[')?;
                for (i, s) in scripts.iter().enumerate() {
                    out.write_str(if i == 0 { "{\"name\":" } else { ",{\"name\":" })?;
                    jsonw::write_str(&s.name, out)?;
                    str_member("src", &s.source, out)?;
                    out.write_char('}')?;
                }
                out.write_char(']')?;
            }
            ControlMsg::Undeploy { exp } => head("undeploy", exp, out)?,
            ControlMsg::Subscribe {
                exp,
                channel,
                params,
                sub_ref,
            } => {
                head("sub", exp, out)?;
                str_member("ch", channel, out)?;
                member("params", out)?;
                params.write_json(out)?;
                num_member("ref", *sub_ref, out)?;
            }
            ControlMsg::Unsubscribe { exp, sub_ref } => {
                head("unsub", exp, out)?;
                num_member("ref", *sub_ref, out)?;
            }
            ControlMsg::SetActive {
                exp,
                sub_ref,
                active,
            } => {
                head("setactive", exp, out)?;
                num_member("ref", *sub_ref, out)?;
                member("active", out)?;
                out.write_str(if *active { "true" } else { "false" })?;
            }
            ControlMsg::Data {
                exp,
                channel,
                msg,
                sub_ref,
            } => {
                return DataRef {
                    exp,
                    channel,
                    msg,
                    sub_ref: *sub_ref,
                }
                .write_json(out)
            }
        }
        out.write_char('}')
    }
}

impl ControlMsg {
    /// Encodes to JSON, into a buffer allocated once at the wire size.
    pub fn to_json(&self) -> String {
        self.to_sized_json()
    }

    /// Decodes from JSON text, streaming the envelope's top-level members:
    /// the first occurrence of a key counts, members no variant reads are
    /// validated and dropped, and `exp`, `ch`, `msg` and `params` move into
    /// the result.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError`] on malformed JSON, unknown tags or missing
    /// fields.
    pub fn from_json(text: &str) -> Result<ControlMsg, ProtoError> {
        // Each slot keeps the first occurrence of its key: what `Msg::get`
        // finds in a tree.
        let mut slots: [Option<Msg>; MEMBERS.len()] = Default::default();
        parse_members(text, |key, value| {
            if let Some(i) = MEMBERS.iter().position(|m| *m == key) {
                slots[i].get_or_insert(value);
            }
        })
        .map_err(|e| ProtoError(e.to_string()))?;
        let [t, exp, ch, msg, params, sub_ref, version, scripts, active] = slots;
        let tag = take_str(t, "t")?;
        let exp = take_str(exp, "exp")?;
        match tag.as_str() {
            "deploy" => {
                let version = take_num(&version, "version")? as u64;
                let scripts = scripts
                    .as_ref()
                    .and_then(Msg::as_arr)
                    .ok_or_else(|| ProtoError("missing scripts".into()))?
                    .iter()
                    .map(|s| {
                        Ok(ScriptSpec {
                            name: take_str(s.get("name").cloned(), "name")?,
                            source: take_str(s.get("src").cloned(), "src")?,
                        })
                    })
                    .collect::<Result<Vec<_>, ProtoError>>()?;
                Ok(ControlMsg::Deploy {
                    exp,
                    version,
                    scripts,
                })
            }
            "undeploy" => Ok(ControlMsg::Undeploy { exp }),
            "sub" => Ok(ControlMsg::Subscribe {
                exp,
                channel: take_str(ch, "ch")?,
                params: params.unwrap_or(Msg::Null),
                sub_ref: take_num(&sub_ref, "ref")? as u64,
            }),
            "unsub" => Ok(ControlMsg::Unsubscribe {
                exp,
                sub_ref: take_num(&sub_ref, "ref")? as u64,
            }),
            "setactive" => Ok(ControlMsg::SetActive {
                exp,
                sub_ref: take_num(&sub_ref, "ref")? as u64,
                active: match active {
                    Some(Msg::Bool(b)) => b,
                    _ => return Err(ProtoError("missing active flag".into())),
                },
            }),
            "data" => Ok(ControlMsg::Data {
                exp,
                channel: take_str(ch, "ch")?,
                msg: msg.unwrap_or(Msg::Null),
                sub_ref: sub_ref.as_ref().and_then(Msg::as_num).map(|n| n as u64),
            }),
            other => Err(ProtoError(format!("unknown tag {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(m: ControlMsg) {
        let json = m.to_json();
        let back = ControlMsg::from_json(&json).unwrap();
        assert_eq!(back, m, "roundtrip failed for {json}");
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(ControlMsg::Deploy {
            exp: "localization".into(),
            version: 2,
            scripts: vec![
                ScriptSpec {
                    name: "scan.js".into(),
                    source: "subscribe('wifi-scan', function (m) {});".into(),
                },
                ScriptSpec {
                    name: "clustering.js".into(),
                    source: "// big".into(),
                },
            ],
        });
        roundtrip(ControlMsg::Undeploy {
            exp: "localization".into(),
        });
        roundtrip(ControlMsg::Subscribe {
            exp: "e".into(),
            channel: "battery".into(),
            params: Msg::obj([("interval", Msg::Num(60_000.0))]),
            sub_ref: 5,
        });
        roundtrip(ControlMsg::Unsubscribe {
            exp: "e".into(),
            sub_ref: 5,
        });
        roundtrip(ControlMsg::SetActive {
            exp: "e".into(),
            sub_ref: 5,
            active: false,
        });
        roundtrip(ControlMsg::Data {
            exp: "e".into(),
            channel: "locations".into(),
            msg: Msg::obj([("lat", Msg::Num(52.0))]),
            sub_ref: None,
        });
        roundtrip(ControlMsg::Data {
            exp: "e".into(),
            channel: "locations".into(),
            msg: Msg::Null,
            sub_ref: Some(9),
        });
    }

    #[test]
    fn malformed_messages_rejected() {
        assert!(ControlMsg::from_json("not json").is_err());
        assert!(ControlMsg::from_json(r#"{"t":"data"}"#).is_err(), "no exp");
        assert!(
            ControlMsg::from_json(r#"{"t":"warp","exp":"e"}"#).is_err(),
            "unknown tag"
        );
        assert!(
            ControlMsg::from_json(r#"{"t":"sub","exp":"e","ch":"c"}"#).is_err(),
            "missing ref"
        );
    }

    #[test]
    fn script_source_survives_json_escaping() {
        let source = "var s = 'quote \\' and\nnewline';\nif (a > 1) { b(\"x\"); }";
        let m = ControlMsg::Deploy {
            exp: "e".into(),
            version: 1,
            scripts: vec![ScriptSpec {
                name: "s.js".into(),
                source: source.into(),
            }],
        };
        let back = ControlMsg::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
    }
}
