(** Closure-compiling backend for verified filter programs.

    {!Vm.exec} pays a dispatch — a fuel check, two counter bumps, a
    27-way match and an operand decode — for every executed
    instruction. This module removes it by translating verified
    bytecode to OCaml closures {e once, at load time}: a leader
    analysis splits the program into basic blocks (jump targets and
    the [Loop]/[End] structure start blocks; jumps, loop edges and
    verdicts end them), each straight-line instruction becomes a
    closure with its operands resolved at compile time (register index
    or immediate baked in), and the closures of a block are chained by
    direct continuation calls. Executing a block costs one indirect
    call per instruction and a single batched step-count update;
    blocks tail-call their successors (the verifier admits only
    forward jumps, so the one back-edge is [End] returning to its loop
    body), so compiled code needs no dispatch loop and no host stack
    depth proportional to the program. Every [Loop] first tries the
    loop-idiom pass, a small pattern library over bodies that walk the
    payload through a monotonically advancing counter — a single entry
    test then proves the whole loop fault-free and the scan runs with
    all state in host registers:

    - {e byte-scan fold}: load byte at the counter, fold, mix, mask,
      bump — the FNV/tee-hash shape;
    - {e scatter/store}: load, ALU-transform, store back, bump —
      xor-stream cipher masks and byte remaps, writing the
      copy-on-write clone directly with the clone forced once at loop
      entry;
    - {e histogram}: load, indexed scratch load ([Ldsx]), increment,
      indexed scratch store ([Stsx]), bump — the verifier's
      power-of-two arena rule (["scratch-index"]) is the proof that
      lets the host loop index the table unchecked;
    - {e rolling-hash window}: fold each byte into a window hash and
      emit at chunk boundaries — the content-defined-chunking shape;
      its conditional [Emit] splits the body into three blocks, but
      the whole region is recognized at the [Loop] and runs as one
      scan, charging the skipped-[Emit] step difference per boundary.

    Any other loop, and any count an idiom's entry test cannot prove,
    runs the block-chained body: the [Loop] sets the loop book and
    enters the body block, whose [End] loops back until the count runs
    out. That chain faults bit-identically.
    Register, scratch and loop-book indices were range-checked by the
    verifier and compile to unchecked accesses. Payload offsets and
    register divisors are runtime values: outside the idiom kernels,
    whose single entry test covers the whole scan, every payload
    load/store and register-divisor [Div]/[Rem] keeps its runtime test
    and faults with the interpreter's byte-identical message.

    The verifier's range analysis has two roles: it rejects programs
    whose access provably always faults (["range-oob"]), and its
    per-site verdicts ({!Vm.accesses}) are diagnostics for [kpathctl
    prog] and the corpus report.

    The compiler consumes only {!Vm.prog} values, which exist only by
    passing {!Vm.verify}, and relies on the verifier's structural
    invariants (matched [Loop]/[End] nesting, jumps that stay inside
    their loop region, static scratch bounds, non-zero immediate
    divisors) rather than re-checking them, exactly as the interpreter
    does.

    Observational equivalence is exact, not approximate: for every
    verified program, payload and per-edge state, {!exec} returns the
    same {!Vm.run} as {!Vm.exec} — same verdict, same [r_steps] (so
    per-instruction CPU accounting and the simulated timeline are
    bit-identical), same emit sequence, same payload bytes, and the
    same physical-identity contract on [r_data] (the input buffer
    itself unless a [Stp] forced the copy-on-write clone). The test
    suite enforces this over the fixture corpus, the canned samples
    and randomized programs ([vm-parity]). *)

type code
(** A compiled program: one closure per basic block plus the metadata
    to account steps exactly like the interpreter. Immutable and
    shareable — attach one [code] to any number of edges, each with
    its own {!state}. *)

val compile : ?idioms:bool -> Vm.prog -> code
(** Translate a verified program. Load-time cost is linear in the
    program; running it allocates nothing beyond what the interpreter
    allocates (the copy-on-write clone on the first [Stp] and the
    {!Vm.run} record). [?idioms] (default [true]) enables the
    loop-idiom pass; [~idioms:false] runs every loop block-chained —
    the path each idiom falls back to. The benches use it to measure
    what each idiom buys, and the parity suite uses it as a third
    differential backend. *)

val prog : code -> Vm.prog
(** The verified program this code was compiled from. *)

type block_bounds = { bb_first : int; bb_last : int }
(** One basic block: instructions [bb_first .. bb_last] inclusive. *)

val blocks : code -> block_bounds array
(** The basic blocks found by the leader analysis, in program order —
    what [kpathctl prog] prints next to the disassembly. *)

val block_tiers : code -> string array
(** One note per basic block (parallel to {!blocks}) naming the
    compilation tier that fired: a [Loop] block names its idiom or says
    it is block-chained, each block of an idiom's body says
    ["body of bN"] after its [Loop] block, and every other block is
    plain chained closures. [kpathctl prog] prints these so a slow
    program is diagnosable without reading the compiler. *)

type state
(** Mutable per-attachment state: scratch arena (persists across
    blocks), register file and loop books, all preallocated so a run
    does not allocate. One [state] per edge; never share across
    edges. *)

val new_state : code -> state

val exec :
  code ->
  state ->
  data:bytes ->
  len:int ->
  lblk:int ->
  emit:(int -> int -> unit) ->
  Vm.run
(** Run the compiled program over one block, with {!Vm.exec}'s exact
    contract (registers zeroed per run, scratch persistent, [data]
    never mutated, synchronous [emit]). Interrupt-safe: compiled
    closures perform no I/O, no blocking and no allocation. *)
