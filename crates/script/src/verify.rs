//! Structural bytecode verifier.
//!
//! [`check`] checks every invariant the VM's hot loop relies on, so a
//! compiler bug surfaces as a deterministic
//! [`VerifyError`] with a stable `VERIFY_*` code instead of a VM panic
//! that the differential fuzz happens to miss. The checks are in three
//! layers:
//!
//! 1. **Table shape** — side tables are internally consistent:
//!    `lines` parallels `ops`, site/chain names are non-empty, the
//!    keys of an object shape are distinct,
//!    resolution chains have at least one candidate with slot/upvalue
//!    references inside the frame, params fit the frame, and nested
//!    prototypes' upvalue recipes index *their parent's* frame/upvalue
//!    space.
//! 2. **Operand bounds** — every instruction's operand indexes its
//!    side table in bounds, and every jump target lands inside the
//!    instruction stream. Checked for *all* instructions, reachable or
//!    not, because dead code is still decoded by tooling.
//! 3. **Stack discipline** — an abstract stack-depth simulation over
//!    the reachable instructions proves the operand stack never
//!    underflows, every control-flow join is entered at one consistent
//!    depth, and execution cannot fall off the end of the stream.
//!
//! For a chunk that passes all three, layer 2 plus the fall-through
//! check guarantee the instruction pointer stays in bounds, and layer 3
//! guarantees `pop()` always has an operand. The VM does not lean on
//! that: its instruction fetch is bounds-checked for every chunk, so a
//! chunk that was never verified can panic the VM but not corrupt it.

use std::fmt;

use crate::bytecode::{ChainRef, Chunk, CompiledProgram, FnProto, Op, UpvalSrc};

/// Every code a [`VerifyError`] can carry. The set and spellings are
/// stable: tests, CI gates, and `pogo-lint --json` consumers match on
/// them, so treat additions as append-only.
pub const VERIFY_CODES: &[&str] = &[
    "VERIFY_LINES_LEN",
    "VERIFY_EMPTY_CHUNK",
    "VERIFY_PARAM_SLOT",
    "VERIFY_UPVAL_SRC",
    "VERIFY_SITE_NAME",
    "VERIFY_CHAIN_SHAPE",
    "VERIFY_CONST_INDEX",
    "VERIFY_PROTO_INDEX",
    "VERIFY_SHAPE_INDEX",
    "VERIFY_SLOT_INDEX",
    "VERIFY_UPVAL_INDEX",
    "VERIFY_GLOBAL_INDEX",
    "VERIFY_MEMBER_INDEX",
    "VERIFY_CHAIN_INDEX",
    "VERIFY_MATH_INDEX",
    "VERIFY_OPERAND",
    "VERIFY_JUMP_TARGET",
    "VERIFY_STACK_UNDERFLOW",
    "VERIFY_STACK_MERGE",
    "VERIFY_FALLTHROUGH_END",
    "VERIFY_SHAPE_KEYS",
];

/// A structural defect in a compiled chunk. `code` is from
/// [`VERIFY_CODES`]; `func` is a dotted path of function names from
/// `<main>` down; `at` is the offending instruction index (0 for
/// table-level defects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    pub code: &'static str,
    pub func: String,
    pub at: usize,
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} in {} at {:04}: {}",
            self.code, self.func, self.at, self.message
        )
    }
}

impl std::error::Error for VerifyError {}

/// Verifies a whole compiled program: the main chunk and every nested
/// prototype.
pub fn check(program: &CompiledProgram) -> Result<(), VerifyError> {
    verify_proto(&program.main, None, &mut String::from("<main>"))
}

fn err(code: &'static str, func: &str, at: usize, message: String) -> VerifyError {
    debug_assert!(VERIFY_CODES.contains(&code));
    VerifyError {
        code,
        func: func.to_owned(),
        at,
        message,
    }
}

fn verify_proto(
    proto: &FnProto,
    parent: Option<&FnProto>,
    path: &mut String,
) -> Result<(), VerifyError> {
    let chunk = &proto.chunk;
    verify_tables(proto, parent, path)?;
    verify_operands(proto, path)?;
    verify_stack(chunk, path)?;
    for p in &chunk.protos {
        let saved = path.len();
        path.push('.');
        path.push_str(&p.name);
        verify_proto(p, Some(proto), path)?;
        path.truncate(saved);
    }
    Ok(())
}

/// Layer 1: side tables and the function header.
fn verify_tables(proto: &FnProto, parent: Option<&FnProto>, path: &str) -> Result<(), VerifyError> {
    let chunk = &proto.chunk;
    if chunk.lines.len() != chunk.ops.len() {
        return Err(err(
            "VERIFY_LINES_LEN",
            path,
            0,
            format!(
                "line table has {} entries for {} instructions",
                chunk.lines.len(),
                chunk.ops.len()
            ),
        ));
    }
    if chunk.ops.is_empty() {
        // The VM fetches ops[0] unconditionally on frame entry.
        return Err(err(
            "VERIFY_EMPTY_CHUNK",
            path,
            0,
            "instruction stream is empty (no terminator)".into(),
        ));
    }
    for &(slot, _) in &proto.params {
        if slot >= chunk.n_slots {
            return Err(err(
                "VERIFY_PARAM_SLOT",
                path,
                0,
                format!(
                    "parameter slot {slot} outside frame of {} slots",
                    chunk.n_slots
                ),
            ));
        }
    }
    match parent {
        None => {
            if !proto.upvals.is_empty() {
                return Err(err(
                    "VERIFY_UPVAL_SRC",
                    path,
                    0,
                    "top-level function cannot capture upvalues".into(),
                ));
            }
        }
        Some(parent) => {
            for (i, src) in proto.upvals.iter().enumerate() {
                let ok = match *src {
                    UpvalSrc::ParentCell(s) => s < parent.chunk.n_slots,
                    UpvalSrc::ParentUpval(u) => (u as usize) < parent.upvals.len(),
                };
                if !ok {
                    return Err(err(
                        "VERIFY_UPVAL_SRC",
                        path,
                        0,
                        format!("upvalue {i} recipe {src:?} outside parent frame"),
                    ));
                }
            }
        }
    }
    for site in chunk.globals.iter().map(|s| &s.name).chain(
        chunk
            .members
            .iter()
            .map(|s| &s.name)
            .chain(chunk.chains.iter().map(|c| &c.name)),
    ) {
        if site.is_empty() {
            return Err(err(
                "VERIFY_SITE_NAME",
                path,
                0,
                "named access site with empty name".into(),
            ));
        }
    }
    for (i, shape) in chunk.shapes.iter().enumerate() {
        // `MakeObject` zips keys with values without looking for a
        // repeat; a literal that repeats a key is lowered to stores.
        if let Some((_, key)) = shape
            .iter()
            .enumerate()
            .find(|(j, key)| shape[..*j].contains(key))
        {
            return Err(err(
                "VERIFY_SHAPE_KEYS",
                path,
                0,
                format!("shape {i} repeats key `{key}`"),
            ));
        }
    }
    for (i, chain) in chunk.chains.iter().enumerate() {
        if chain.cands.is_empty() {
            return Err(err(
                "VERIFY_CHAIN_SHAPE",
                path,
                0,
                format!("chain {i} ({}) has no candidates", chain.name),
            ));
        }
        for (j, cand) in chain.cands.iter().enumerate() {
            let (ok, last_only) = match *cand {
                ChainRef::Local(s) | ChainRef::CellSlot(s) => (s < chunk.n_slots, false),
                ChainRef::Upval(u) => ((u as usize) < proto.upvals.len(), false),
                // The compiler emits the global fallback only as the
                // final candidate; a mid-chain global would shadow
                // later frame candidates and change probe semantics.
                ChainRef::Global => (true, true),
            };
            if !ok {
                return Err(err(
                    "VERIFY_CHAIN_SHAPE",
                    path,
                    0,
                    format!(
                        "chain {i} ({}) candidate {j} {cand:?} out of range",
                        chain.name
                    ),
                ));
            }
            if last_only && j + 1 != chain.cands.len() {
                return Err(err(
                    "VERIFY_CHAIN_SHAPE",
                    path,
                    0,
                    format!(
                        "chain {i} ({}) has Global candidate before the end",
                        chain.name
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// Layer 2: operand bounds for every instruction, reachable or not.
fn verify_operands(proto: &FnProto, path: &str) -> Result<(), VerifyError> {
    let chunk = &proto.chunk;
    let n_ops = chunk.ops.len();
    let oob = |code: &'static str, at: usize, what: &str, idx: usize, len: usize| {
        Err(err(
            code,
            path,
            at,
            format!("{what} index {idx} out of range (table has {len})"),
        ))
    };
    for (at, &op) in chunk.ops.iter().enumerate() {
        match op {
            Op::Const(i) if i as usize >= chunk.consts.len() => {
                return oob(
                    "VERIFY_CONST_INDEX",
                    at,
                    "constant",
                    i as usize,
                    chunk.consts.len(),
                );
            }
            Op::MakeClosure(i) if i as usize >= chunk.protos.len() => {
                return oob(
                    "VERIFY_PROTO_INDEX",
                    at,
                    "prototype",
                    i as usize,
                    chunk.protos.len(),
                );
            }
            Op::MakeObject(i) if i as usize >= chunk.shapes.len() => {
                return oob(
                    "VERIFY_SHAPE_INDEX",
                    at,
                    "shape",
                    i as usize,
                    chunk.shapes.len(),
                );
            }
            Op::LoadLocal(s)
            | Op::StoreLocal(s)
            | Op::DeclLocal(s)
            | Op::AddLocal(s, _)
            | Op::GetLocalMember(s, _)
            | Op::LoadCell(s)
            | Op::StoreCell(s)
            | Op::DeclCell(s)
            | Op::NewCell(s)
            | Op::ClearSlot(s)
            | Op::ForInPrep(s)
            | Op::ForInNext(s, _)
                if s >= chunk.n_slots =>
            {
                return oob(
                    "VERIFY_SLOT_INDEX",
                    at,
                    "frame slot",
                    s as usize,
                    chunk.n_slots as usize,
                );
            }
            Op::LoadUpval(u) | Op::StoreUpval(u) if u as usize >= proto.upvals.len() => {
                return oob(
                    "VERIFY_UPVAL_INDEX",
                    at,
                    "upvalue",
                    u as usize,
                    proto.upvals.len(),
                );
            }
            Op::LoadGlobal(i) | Op::StoreGlobal(i) | Op::DeclGlobal(i)
                if i as usize >= chunk.globals.len() =>
            {
                return oob(
                    "VERIFY_GLOBAL_INDEX",
                    at,
                    "global site",
                    i as usize,
                    chunk.globals.len(),
                );
            }
            Op::GetMember(i)
            | Op::GetLocalMember(_, i)
            | Op::SetMember(i)
            | Op::CallMethod(i, _)
                if i as usize >= chunk.members.len() =>
            {
                return oob(
                    "VERIFY_MEMBER_INDEX",
                    at,
                    "member site",
                    i as usize,
                    chunk.members.len(),
                );
            }
            Op::LoadChain(i) | Op::StoreChain(i) if i as usize >= chunk.chains.len() => {
                return oob(
                    "VERIFY_CHAIN_INDEX",
                    at,
                    "chain",
                    i as usize,
                    chunk.chains.len(),
                );
            }
            Op::MathCall(f, _) => {
                let n = crate::builtins::MATH_DISPATCH.len();
                if f as usize >= n {
                    return oob("VERIFY_MATH_INDEX", at, "Math builtin", f as usize, n);
                }
            }
            Op::AddLocal(_, d) if d != 1 && d != -1 => {
                return Err(err(
                    "VERIFY_OPERAND",
                    path,
                    at,
                    format!("AddLocal delta {d} (expected +1 or -1)"),
                ));
            }
            Op::FlowErr(kind) if kind > 1 => {
                return Err(err(
                    "VERIFY_OPERAND",
                    path,
                    at,
                    format!("FlowErr kind {kind} (expected 0=break or 1=continue)"),
                ));
            }
            _ => {}
        }
        if let Some(t) = op.jump_target().filter(|&t| t >= n_ops) {
            return oob("VERIFY_JUMP_TARGET", at, "jump target", t, n_ops);
        }
    }
    Ok(())
}

/// Layer 3: abstract stack-depth walk over reachable instructions, by
/// [`Op::stack_effect`], [`Op::jump_target`] and [`Op::falls_through`].
fn verify_stack(chunk: &Chunk, path: &str) -> Result<(), VerifyError> {
    let n_ops = chunk.ops.len();
    let mut depth_in: Vec<Option<u32>> = vec![None; n_ops];
    let mut work: Vec<usize> = Vec::with_capacity(16);
    depth_in[0] = Some(0);
    work.push(0);

    // Records `depth` as the entry depth of `ip`, queueing it on first
    // visit and rejecting inconsistent joins.
    let flow_to = |depth_in: &mut Vec<Option<u32>>,
                   work: &mut Vec<usize>,
                   from: usize,
                   ip: usize,
                   depth: u32|
     -> Result<(), VerifyError> {
        match depth_in[ip] {
            None => {
                depth_in[ip] = Some(depth);
                work.push(ip);
                Ok(())
            }
            Some(prev) if prev == depth => Ok(()),
            Some(prev) => Err(err(
                "VERIFY_STACK_MERGE",
                path,
                from,
                format!("join at {ip:04} entered at depth {depth} but previously {prev}"),
            )),
        }
    };

    while let Some(ip) = work.pop() {
        let op = chunk.ops[ip];
        let d = depth_in[ip].expect("worklist entries have a depth");
        let (pops, pushes) = op.stack_effect(chunk);
        if (d as usize) < pops {
            return Err(err(
                "VERIFY_STACK_UNDERFLOW",
                path,
                ip,
                format!("{op:?} needs {pops} operand(s), stack has {d}"),
            ));
        }
        let out = d - pops as u32 + pushes as u32;
        if let Some(t) = op.jump_target() {
            // `ForInNext`'s exit edge pushes no key.
            let at_target = if let Op::ForInNext(..) = op {
                out - 1
            } else {
                out
            };
            flow_to(&mut depth_in, &mut work, ip, t, at_target)?;
        }
        if op.falls_through() {
            if ip + 1 == n_ops {
                return Err(err(
                    "VERIFY_FALLTHROUGH_END",
                    path,
                    ip,
                    format!("{op:?} at end of stream can fall off the chunk"),
                ));
            }
            flow_to(&mut depth_in, &mut work, ip, ip + 1, out)?;
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    fn compiled(src: &str) -> CompiledProgram {
        compile(src).expect("fixture compiles")
    }

    #[test]
    fn verify_codes_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for c in VERIFY_CODES {
            assert!(seen.insert(*c), "duplicate code {c}");
            assert!(c.starts_with("VERIFY_"));
        }
    }

    #[test]
    fn compiler_output_verifies() {
        let prog = compiled(
            "var total = 0;\n\
             function add(x) { total = total + x; return total; }\n\
             for (var i = 0; i < 10; i++) { add(i); }\n\
             total;",
        );
        check(&prog).expect("compiler output is structurally valid");
    }

    #[test]
    fn truncated_chunk_is_rejected_not_panicked() {
        let prog = compiled("1 + 2;");
        let mut chunk = prog.main.chunk.clone();
        chunk.ops.pop(); // drop the ReturnResult terminator
        chunk.lines.pop();
        let main = std::rc::Rc::new(FnProto {
            name: prog.main.name.clone(),
            params: prog.main.params.clone(),
            upvals: prog.main.upvals.clone(),
            chunk,
        });
        let bad = CompiledProgram {
            main,
            op_count: prog.op_count,
            fn_count: prog.fn_count,
        };
        let e = check(&bad).unwrap_err();
        assert_eq!(e.code, "VERIFY_FALLTHROUGH_END");
    }
}
