//! Verifier properties over the differential corpus.
//!
//! Two obligations, mirroring the two halves of the verifier's
//! contract:
//!
//! 1. **Completeness on compiler output** — every chunk the compiler
//!    emits (random corpus or the real paper scripts) passes
//!    `verify::check`. A verifier that rejects valid output would
//!    fail deployments at the gate.
//!
//! 2. **Robustness on corrupted chunks** — a mutated chunk (flipped
//!    opcodes, perturbed operands, out-of-range jump targets,
//!    truncated tails) is *diagnosed*, never executed and never
//!    panicked over: `check` returns a `VerifyError` whose code is in
//!    the stable `VERIFY_CODES` table. This is what lets a host treat
//!    any verifier failure as a deterministic `VERIFY_*` diagnostic
//!    instead of a crash.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use common::{paper_scripts, VmGen};
use pogo_script::bytecode::{Chunk, CompiledProgram, FnProto, Op};
use pogo_script::{compile, verify, VERIFY_CODES};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

// ---- completeness ----------------------------------------------------------

/// Every compiler-emitted chunk across the full 1,600-seed
/// differential corpus verifies. `compile` runs the verifier
/// internally too, and in this (debug) build aborts when it fails.
#[test]
fn corpus_chunks_all_pass_the_verifier() {
    const CASES: u64 = 1600;
    let mut chunks = 0usize;
    for seed in 0..CASES {
        let src = VmGen::generate(seed);
        let program = match compile(&src) {
            Ok(p) => p,
            // Scope-buggy corpus programs still compile (PogoScript
            // resolves names at runtime); a parse error here would
            // be a generator bug.
            Err(e) => panic!("seed {seed}: compile failed: {e}\n--- script ---\n{src}"),
        };
        verify::check(&program)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n--- script ---\n{src}"));
        chunks += program.fn_count as usize;
    }
    assert!(
        chunks > 1600,
        "corpus produced suspiciously few chunks: {chunks}"
    );
}

#[test]
fn paper_scripts_pass_the_verifier() {
    for (name, src) in paper_scripts() {
        let program = compile(&src).unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
        verify::check(&program).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

// ---- robustness ------------------------------------------------------------

/// Rebuilds a program around a mutated main chunk. These tests never
/// run mutants, they only diagnose them.
fn with_main_chunk(orig: &CompiledProgram, chunk: Chunk) -> CompiledProgram {
    CompiledProgram {
        main: Rc::new(FnProto {
            name: orig.main.name.clone(),
            params: orig.main.params.clone(),
            upvals: orig.main.upvals.clone(),
            chunk,
        }),
        op_count: orig.op_count,
        fn_count: orig.fn_count,
    }
}

/// One structural corruption of a chunk. Returns a label for failure
/// messages and whether this mutation class is *guaranteed* invalid
/// (out-of-range indices and dangling control flow must always be
/// rejected; opcode/operand flips may accidentally produce a valid
/// chunk, which the verifier is right to accept).
fn mutate(chunk: &mut Chunk, rng: &mut SmallRng) -> (&'static str, bool) {
    let n = chunk.ops.len();
    match rng.gen_range(0..8usize) {
        // Control flow out of the chunk entirely.
        0 => {
            let i = rng.gen_range(0..n);
            chunk.ops[i] = Op::Jump((n + rng.gen_range(1..64usize)) as u32);
            ("jump-out-of-range", true)
        }
        // Retarget an existing jump out of range (offset flip). Falls
        // back to planting one if the chunk is jump-free.
        1 => {
            let jumps: Vec<usize> = (0..n)
                .filter(|&i| {
                    matches!(
                        chunk.ops[i],
                        Op::Jump(_)
                            | Op::JumpIfFalse(_)
                            | Op::JumpIfTruePeek(_)
                            | Op::JumpIfFalsePeek(_)
                            | Op::ForInNext(_, _)
                    )
                })
                .collect();
            if let Some(&i) = jumps.get(rng.gen_range(0..jumps.len().max(1))) {
                let bad = (n + rng.gen_range(1..1000usize)) as u32;
                chunk.ops[i] = match chunk.ops[i] {
                    Op::Jump(_) => Op::Jump(bad),
                    Op::JumpIfFalse(_) => Op::JumpIfFalse(bad),
                    Op::JumpIfTruePeek(_) => Op::JumpIfTruePeek(bad),
                    Op::JumpIfFalsePeek(_) => Op::JumpIfFalsePeek(bad),
                    Op::ForInNext(s, _) => Op::ForInNext(s, bad),
                    _ => unreachable!(),
                };
            } else {
                chunk.ops[n - 1] = Op::Jump(n as u32 + 1);
            }
            ("jump-offset-flip", true)
        }
        // Table indices past their pools.
        2 => {
            let i = rng.gen_range(0..n);
            chunk.ops[i] = Op::Const((chunk.consts.len() + rng.gen_range(0..9usize)) as u16);
            ("const-out-of-range", true)
        }
        3 => {
            let i = rng.gen_range(0..n);
            let past_slots = (chunk.n_slots as usize + rng.gen_range(0..9usize)) as u16;
            let past_members = (chunk.members.len() + rng.gen_range(0..9usize)) as u16;
            chunk.ops[i] = match rng.gen_range(0..7usize) {
                0 => Op::LoadLocal(past_slots),
                1 => Op::StoreGlobal((chunk.globals.len() + rng.gen_range(0..9usize)) as u16),
                2 => Op::GetMember(past_members),
                3 => Op::AddLocal(past_slots, 1),
                4 => Op::GetLocalMember(past_slots, 0),
                // Slot 0 may or may not exist; the member site does not.
                5 => Op::GetLocalMember(0, past_members),
                _ => Op::MakeClosure((chunk.protos.len() + rng.gen_range(0..9usize)) as u16),
            };
            ("table-index-out-of-range", true)
        }
        // Drop the tail: either dangling jumps or a lost terminator.
        4 => {
            chunk.ops.truncate(n - 1);
            chunk.lines.truncate(n - 1);
            ("truncated-tail", false)
        }
        // Swap two opcodes (order flip).
        5 if n >= 2 => {
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..n);
            chunk.ops.swap(i, j);
            ("opcode-swap", false)
        }
        // Replace an opcode with a stack-hungry one.
        6 => {
            let i = rng.gen_range(0..n);
            chunk.ops[i] = [Op::Pop, Op::Add, Op::SetIndex, Op::Swap][rng.gen_range(0..4usize)];
            ("opcode-flip", false)
        }
        // Widen a call's argument count (operand flip): the verifier
        // must catch the deeper stack pop.
        _ => {
            let i = rng.gen_range(0..n);
            chunk.ops[i] = Op::Call(250);
            ("call-arity-flip", false)
        }
    }
}

/// The slot-addressed ops name a frame slot and (for the fused read) a
/// member site; each operand out of range is its own stable code, and
/// so are an `AddLocal` delta the compiler never emits and an object
/// shape that repeats a key (`MakeObject` does not look for one).
#[test]
fn slot_addressed_ops_and_shapes_are_bounds_checked() {
    let program =
        compile("{\n  var o = { a: 1, b: 2 };\n  var i = 0;\n  i++;\n  --i;\n  o.a + o.b;\n}")
            .unwrap();
    let chunk = &program.main.chunk;
    let (n_slots, n_members) = (chunk.n_slots, chunk.members.len() as u16);
    let at = |want: fn(&Op) -> bool| chunk.ops.iter().position(want).expect("op is emitted");
    let add = at(|op| matches!(op, Op::AddLocal(..)));
    let read = at(|op| matches!(op, Op::GetLocalMember(..)));
    let (Op::AddLocal(slot, _), Op::GetLocalMember(recv, site)) = (chunk.ops[add], chunk.ops[read])
    else {
        unreachable!()
    };
    for (ip, op, code) in [
        (add, Op::AddLocal(n_slots, 1), "VERIFY_SLOT_INDEX"),
        (add, Op::AddLocal(u16::MAX, -1), "VERIFY_SLOT_INDEX"),
        (add, Op::AddLocal(slot, 2), "VERIFY_OPERAND"),
        (add, Op::AddLocal(slot, 0), "VERIFY_OPERAND"),
        (read, Op::GetLocalMember(n_slots, site), "VERIFY_SLOT_INDEX"),
        (
            read,
            Op::GetLocalMember(recv, n_members),
            "VERIFY_MEMBER_INDEX",
        ),
        (
            read,
            Op::GetLocalMember(recv, u16::MAX),
            "VERIFY_MEMBER_INDEX",
        ),
    ] {
        let mut mutant = chunk.clone();
        mutant.ops[ip] = op;
        let e = verify::check(&with_main_chunk(&program, mutant))
            .expect_err("an out-of-range operand must be rejected");
        assert_eq!(e.code, code, "{op:?}: {e}");
    }
    let mut mutant = chunk.clone();
    let key = mutant.shapes[0][0].clone();
    mutant.shapes[0] = Rc::from([key.clone(), key]);
    let e = verify::check(&with_main_chunk(&program, mutant)).unwrap_err();
    assert_eq!(e.code, "VERIFY_SHAPE_KEYS", "{e}");
}

/// Mutated chunks never panic the verifier, always come back with a
/// stable code when rejected, and the guaranteed-invalid mutation
/// classes are always rejected.
#[test]
fn mutated_chunks_are_rejected_with_stable_codes_and_never_panic() {
    const SEEDS: u64 = 120;
    const MUTATIONS_PER_PROGRAM: usize = 24;
    let mut rng = SmallRng::seed_from_u64(0x9e3779b97f4a7c15);
    let mut total = 0usize;
    let mut rejected = 0usize;

    for seed in 0..SEEDS {
        let src = VmGen::generate(seed);
        let program = compile(&src).unwrap();
        if program.main.chunk.ops.is_empty() {
            continue;
        }
        for _ in 0..MUTATIONS_PER_PROGRAM {
            // Mutate the main chunk or, when present, a nested proto —
            // the verifier must descend.
            let mut chunk = program.main.chunk.clone();
            let nested = !chunk.protos.is_empty() && rng.gen_range(0..10usize) < 3;
            let (label, must_reject) = if nested {
                let k = rng.gen_range(0..chunk.protos.len());
                let inner = &chunk.protos[k];
                let mut inner_chunk = inner.chunk.clone();
                let m = mutate(&mut inner_chunk, &mut rng);
                chunk.protos[k] = Rc::new(FnProto {
                    name: inner.name.clone(),
                    params: inner.params.clone(),
                    upvals: inner.upvals.clone(),
                    chunk: inner_chunk,
                });
                m
            } else {
                mutate(&mut chunk, &mut rng)
            };
            let mutant = with_main_chunk(&program, chunk);

            total += 1;
            let outcome = catch_unwind(AssertUnwindSafe(|| verify::check(&mutant)));
            match outcome {
                Err(_) => panic!(
                    "seed {seed}: verifier PANICKED on a {label} mutation\n--- script ---\n{src}"
                ),
                Ok(Err(e)) => {
                    rejected += 1;
                    assert!(
                        VERIFY_CODES.contains(&e.code),
                        "seed {seed}: {label} rejection used unknown code {:?}",
                        e.code
                    );
                    assert!(
                        !e.message.is_empty() && !e.func.is_empty(),
                        "seed {seed}: {label} rejection has an empty diagnostic: {e:?}"
                    );
                }
                Ok(Ok(())) => assert!(
                    !must_reject,
                    "seed {seed}: verifier accepted a {label} mutation\n--- script ---\n{src}"
                ),
            }
        }
    }

    // Opcode swaps can be benign, but the corpus as a whole must be
    // overwhelmingly caught or the checks are too weak to trust.
    assert!(
        rejected * 10 >= total * 7,
        "verifier caught only {rejected}/{total} mutations"
    );
}
