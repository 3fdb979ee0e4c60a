(* The threaded-code backend.

   [compile] translates each basic block of a resolved module
   ({!Vcode.t}) ONCE into a chain of pre-specialized OCaml closures:
   every instruction becomes a [step] closure with its successor
   captured, so executing a block is a run of direct calls with no
   instruction dispatch.  Beyond removing the interpreter's
   match-on-vinstr inner loop, compilation specializes everything it
   can see statically:

   - operands: constants fold into the closure, register indices
     statically within the frame's register file compile to unchecked
     array accesses, and the shapes that carry traffic (below) become
     single closures with no operand-evaluator indirection;
   - memory: loads and stores of 1, 2, 4 and 8 bytes share one
     prologue ([access]: the cycle tick, tag masking, the
     mapped-region check), probe the last-page cache, then read or
     write one little-endian word through Memory's word functions (the
     interpreter's own), falling back to the shared State/Memory
     routines on the slow paths (possibly-unmapped address, page
     straddle);
   - copies: a move whose destination is defined only there and read
     only later in its block compiles to nothing, its readers reading
     the move's source (see "copy forwarding" below);
   - control: a compare feeding the block's conditional branch fuses
     into one closure (the compare result is still written to its
     register, observably identical);
   - calls/intrinsics: argument vectors are built by arity-specialized
     closures, direct callees bind to their compiled function at
     compile time;
   - Algorithm 1 checks: an intrinsic of the check shape (ptr, size,
     site, with a result) runs inline whenever the machine bound its
     slot to a [Runtime.check] -- counter bump, tick, one metadata-entry
     read through the sanitizer page-cache slot and the fused compare --
     and calls the runtime's own check minus its tick only when the tag
     is 0 or the compare fails.

   Specialization rule: an instruction shape has an arm of its own
   only because a census of the 16 SPEC kernels under none and CECSan
   (103.7M executed instructions, DESIGN.md section 14) shows it
   carries traffic; every other shape -- cold operators and operand
   orders, slots, immediate moves, unusual sizes, registers outside
   the frame -- takes the one generic path, built from [ev]/[set] and
   the [binop] table.  Each operator is defined once: [binop] and
   [cmpop] hold the semantics, [test] builds every compare for [Icmp]
   and the fused branch alike, and commutative operators and compares
   take an immediate on the right ([canon], [mirror]), so one RI arm
   serves both orders.  The arms and their share of the census:

     add RR, RI (and IR)                    15.2%
     load 1/2/4 signed or not, 8 (7 arms)   13.2%
     gep base + index * k, both registers   13.1%
     compares RR/RI (12), fused or not      10.9%
     the inline Algorithm 1 check            7.8%
     gep base + field                        6.0%
     mul RR, RI (and IR)                     5.0%
     sub RR, RI, IR                          4.3%
     store 1/2/4/8 (4 arms)                  4.3%
     mov R                                   2.5%
     gep immediate base + index * k          2.2%
     shr RI 1.5%, and RI 0.7%, xor RR 0.4%

   Sign extension (8.0%) has a single arm, through [ev]/[set].  The
   cold shapes take 1.9% of the census, most of it mod, shl and
   operations on two immediates.

   Equivalence with the interpreter is a hard invariant, enforced by
   the differential suite in test_jit.ml.  The deterministic cycle
   accounting is replicated tick-for-tick:

   - block entry ticks the precomputed block cost (telemetry markers
     excluded) before any instruction effect;
   - calls tick [Cost.call - 1] BEFORE argument evaluation;
   - loads/stores tick [Cost.load - 1]/[Cost.store - 1], then compute
     the effective (tag-masked) address, then check the mapping, then
     touch memory -- loads of pointer width pass through the
     fault-injection filter exactly as in the interpreter;
   - a conditional branch ticks 1 before evaluating its condition;
   - telemetry markers run at zero cycles, and the per-site executed
     counter is bumped after argument evaluation but before intrinsic
     dispatch, so failing checks still count.

   Compiled closures capture NO per-run state: machine state, the
   intrinsic table and the by-name call path all arrive through the
   [env] threaded at execution time.  That is what makes a compiled
   program cacheable on the module ([Tir.Ir.m_vcache]) and reusable
   across machines and sanitizer runtimes, exactly like the resolved
   form it was compiled from. *)

open Tir.Ir

(* Per-run context: everything a compiled program needs from the
   executing machine.  [named] is the machine's by-name slow path
   (allocation family, libc with interception/TBI, registered externs). *)
type ctx = {
  st : State.t;
  itab : Runtime.intrinsic option array;
  checks : Runtime.check option array;
  named : string -> int array -> int;
  mutable depth : int;
}

(* Per-frame environment: one per VM call, threaded through every step
   of the callee's code. *)
type env = {
  c : ctx;
  regs : int array;
  fb : int;  (* frame base, for stack-slot addressing *)
  mutable ret : int;
}

type step = env -> unit

type jfunc = {
  jlf : Vcode.loaded_func;
  nregs : int;  (* register-file size (>= 1), = Array.length regs *)
  params : int list;
  mutable entry : step;  (* block 0; patched once all blocks compile *)
  mutable spare : int array option;
    (* retired register file, reused (re-zeroed) by the next call to
       this function.  Large register files otherwise cost a major-heap
       allocation on every call.  Nothing escapes a call with a
       reference to its register file, so reuse after return is safe;
       recursive activations simply allocate when the spare is taken. *)
}

type prog = { vc : Vcode.t; jfuncs : (string, jfunc) Hashtbl.t }

let dead_step : step = fun _ -> assert false

(* The call protocol of both backends.  [enter] counts the call, carves
   a 16-byte-aligned frame of [frame_size] below [sp] and makes [sp] its
   base, or traps on stack exhaustion with depth and [sp] untouched; it
   returns the caller's [sp], which [leave] restores.  The caller runs
   [leave] on both normal and exceptional exit. *)
let enter (c : ctx) (frame_size : int) : int =
  let st = c.st in
  let saved_sp = st.State.sp in
  let frame_base = (saved_sp - frame_size) / 16 * 16 in
  c.depth <- c.depth + 1;
  if frame_base < Layout46.stack_limit || c.depth > Vcode.max_call_depth
  then begin
    c.depth <- c.depth - 1;
    Report.trap ~addr:frame_base Report.Stack_exhausted
  end;
  st.State.sp <- frame_base;
  saved_sp

let leave (c : ctx) (saved_sp : int) : unit =
  c.depth <- c.depth - 1;
  c.st.State.sp <- saved_sp

let exec_jfunc (c : ctx) (jf : jfunc) (args : int array) : int =
  let saved_sp = enter c jf.jlf.Vcode.frame_size in
  let regs =
    match jf.spare with
    | Some r ->
      jf.spare <- None;
      Array.fill r 0 jf.nregs 0;
      r
    | None -> Array.make jf.nregs 0
  in
  let env = { c; regs; fb = c.st.State.sp; ret = 0 } in
  List.iteri
    (fun i r -> if i < Array.length args then env.regs.(r) <- args.(i))
    jf.params;
  (try jf.entry env
   with e ->
     leave c saved_sp;
     raise e);
  leave c saved_sp;
  jf.spare <- Some regs;
  env.ret

let call_m1 = Cost.call - 1
let load_m1 = Cost.load - 1
let store_m1 = Cost.store - 1
let page_mask = Layout46.page_size - 1

(* Cold out-of-budget path shared by the inlined ticks below; the
   diagnostic is State.tick's, byte for byte. *)
let out_of_cycles st =
  Report.trap Report.Out_of_cycles
    ~detail:(Printf.sprintf "budget %d" st.State.cycle_budget)

(* State.tick, inlined *)
let[@inline] tick st c =
  st.State.cycles <- st.State.cycles + c;
  if st.State.cycles > st.State.cycle_budget then out_of_cycles st

let sign_extend v size =
  let bits = size * 8 in
  let v = v land ((1 lsl bits) - 1) in
  if v land (1 lsl (bits - 1)) <> 0 then v - (1 lsl bits) else v

let zero_extend v size = v land ((1 lsl (size * 8)) - 1)

(* The mapped-region acceptance of State.check_mapped, inlined.  Every
   region base sits above the null guard, so an address this accepts is
   exactly one check_mapped accepts; on rejection the shared routine is
   called for the identical trap (and, defensively, execution proceeds
   if it somehow accepts). *)
let chk st a size =
  let last = a + size - 1 in
  if
    not
      ((a >= Layout46.heap_base && last < st.State.alloc.Alloc.brk)
       || (a >= Layout46.stack_limit && last < Layout46.stack_top)
       || (a >= Layout46.globals_base && last < st.State.globals_end))
  then State.check_mapped st a size

(* Raw sized accesses over the last-page cache; callers have checked the
   mapping (so [a] is nonnegative).  The words themselves are
   Memory's ([Memory.get_word] and friends), the interpreter's own
   definition; only the page probe and the straddle test are inlined
   here. *)
let pg (mem : Memory.t) a =
  if Layout46.page_of a = mem.Memory.last_pn then mem.Memory.last_page
  else Memory.page mem a
[@@inline]

let ld1 st a =
  Char.code (Bytes.unsafe_get (pg st.State.mem a) (a land page_mask))

let ld2 st a =
  let off = a land page_mask in
  if off + 2 <= Layout46.page_size then Memory.get16 (pg st.State.mem a) off
  else Memory.load st.State.mem a 2

let ld4 st a =
  let off = a land page_mask in
  if off + 4 <= Layout46.page_size then Memory.get32 (pg st.State.mem a) off
  else Memory.load st.State.mem a 4

(* includes the interpreter's pointer-width fault-injection filter; the
   filter's stateful branch must run whenever injection is armed *)
let ld8 st a =
  let off = a land page_mask in
  let v =
    if off + 8 <= Layout46.page_size then
      Memory.get_word (pg st.State.mem a) off
    else Memory.load st.State.mem a 8
  in
  match st.State.fault.Fault.tagflip_every with
  | None -> v
  | Some _ -> Fault.corrupt_load st.State.fault v

(* An 8-aligned word of a sanitizer area, through the page cache's
   sanitizer slot.  Aligned words never straddle a page, but two
   consecutive words can sit on different pages (a metadata entry's
   bounds, from entry 341 on), so each word probes on its own. *)
let san_ld8 (mem : Memory.t) a =
  let p =
    if Layout46.page_of a = mem.Memory.san_pn then mem.Memory.san_page
    else Memory.page mem a
  in
  Memory.get_word p (a land page_mask)

let sto1 st a v =
  Bytes.unsafe_set (pg st.State.mem a) (a land page_mask)
    (Char.unsafe_chr (v land 0xff))

let sto2 st a v =
  let off = a land page_mask in
  if off + 2 <= Layout46.page_size then Memory.set16 (pg st.State.mem a) off v
  else Memory.store st.State.mem a 2 v

let sto4 st a v =
  let off = a land page_mask in
  if off + 4 <= Layout46.page_size then Memory.set32 (pg st.State.mem a) off v
  else Memory.store st.State.mem a 4 v

let sto8 st a v =
  let off = a land page_mask in
  if off + 8 <= Layout46.page_size then
    Memory.set_word (pg st.State.mem a) off v
  else Memory.store st.State.mem a 8 v

(* The prologue of every load and store, in the interpreter's order:
   tick [cost], evaluate and mask the address, check the mapping.
   Returns the effective address. *)
let[@inline] access st cost (ea : env -> int) env size =
  tick st cost;
  let a = ea env land st.State.addr_mask in
  chk st a size;
  a

(* The operators, each defined once, with the interpreter's semantics:
   division by zero traps, shift counts wrap at 64. *)
let binop : binop -> int -> int -> int = function
  | Add -> ( + )
  | Sub -> ( - )
  | Mul -> ( * )
  | Div -> fun x y -> if y = 0 then Report.trap Report.Div_by_zero else x / y
  | Mod -> fun x y -> if y = 0 then Report.trap Report.Div_by_zero else x mod y
  | Shl -> fun x y -> x lsl (y land 63)
  | Shr -> fun x y -> x asr (y land 63)
  | And -> ( land )
  | Or -> ( lor )
  | Xor -> ( lxor )

let cmpop : cmpop -> int -> int -> bool = function
  | Eq -> ( = )
  | Ne -> ( <> )
  | Lt -> ( < )
  | Le -> ( <= )
  | Gt -> ( > )
  | Ge -> ( >= )

(* [mirror op] holds of (y, x) exactly when [op] holds of (x, y) *)
let mirror = function
  | Lt -> Gt
  | Gt -> Lt
  | Le -> Ge
  | Ge -> Le
  | (Eq | Ne) as op -> op

(* Commutative operators take an immediate on the right, so one arm
   covers both orders. *)
let canon = function
  | Ibin ({ op = Add | Mul | And | Or | Xor; a = Imm _ as a; b; _ } as r) ->
    Ibin { r with a = b; b = a }
  | i -> i

(* --- copy forwarding ---------------------------------------------------- *)

(* A move [d = s] compiles to nothing, and its readers read [s]
   instead, when
   - [d] has exactly one definition in the function (a parameter counts
     as one), this move;
   - every read of [d] is in the move's block, after the move;
   - [s] is an immediate, or a register not redefined after the move
     before [d]'s last read -- that last reader may itself redefine [s],
     because every instruction reads its operands before it writes.
   Forwarding is invisible: block costs are precomputed, a move neither
   ticks nor traps (moves from unresolved globals or out-of-frame
   registers are left alone), and [d]'s stale register is never read.
   A chain [d2 = d1; d1 = s] resolves against [s]: [d1]'s substitution
   and the position of [s]'s next definition carry over to [d2].

   The analysis is linear and allocation-free: one pass over the
   function records, per register, its definition count and the one
   block (with first and last position) that reads it, and, per move,
   the position of its source's next definition in the block (pending
   moves wait on their source register until it is redefined); then
   one pass over the moves alone decides, in program order, so that a
   chain's head is decided before its tail.  Its arrays are scratch,
   one set per domain, grown on demand and reused by every compile. *)

type scratch = {
  mutable ndef : int array;   (* reg -> definitions, parameters included *)
  mutable ublk : int array;   (* reg -> the block reading it; -1 none,
                                 -2 several *)
  mutable ufirst : int array; (* reg -> first read position in [ublk] *)
  mutable ulast : int array;  (* reg -> last read position (the
                                 terminator's is the block length) *)
  mutable pend : int array;   (* reg -> last move waiting on its next
                                 definition ... *)
  mutable pendb : int array;  (* ... valid while in this block *)
  mutable via : int array;    (* forwarded reg -> the move whose source
                                 its readers read (a chain's head);
                                 -1 when not forwarded *)
  mutable lim : int array;    (* forwarded reg -> next definition of its
                                 source *)
  mutable mblk : int array;   (* move -> block ... *)
  mutable mpos : int array;   (* ... and position *)
  mutable mnext : int array;  (* move -> previous move waiting on the
                                 same source *)
  mutable msrcnext : int array;
      (* move -> next definition of its source register in its block *)
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { ndef = [||]; ublk = [||]; ufirst = [||]; ulast = [||]; pend = [||];
        pendb = [||]; via = [||]; lim = [||]; mblk = [||]; mpos = [||];
        mnext = [||]; msrcnext = [||] })

(* the domain's scratch, with room for [nregs] registers and [ninstrs]
   moves *)
let scratch ~nregs ~ninstrs =
  let sc = Domain.DLS.get scratch_key in
  if Array.length sc.ndef < nregs then begin
    let n = max nregs (2 * Array.length sc.ndef) in
    sc.ndef <- Array.make n 0;
    sc.ublk <- Array.make n 0;
    sc.ufirst <- Array.make n 0;
    sc.ulast <- Array.make n 0;
    sc.pend <- Array.make n 0;
    sc.pendb <- Array.make n 0;
    sc.via <- Array.make n 0;
    sc.lim <- Array.make n 0
  end;
  if Array.length sc.mblk < ninstrs then begin
    let n = max ninstrs (2 * Array.length sc.mblk) in
    sc.mblk <- Array.make n 0;
    sc.mpos <- Array.make n 0;
    sc.mnext <- Array.make n 0;
    sc.msrcnext <- Array.make n 0
  end;
  sc

(* Fills [sc.via] for [lf]'s first [cap] registers; returns the number
   of forwarded moves. *)
let forward_copies (sc : scratch) (lf : Vcode.loaded_func) cap : int =
  let ndef = sc.ndef and ublk = sc.ublk and ufirst = sc.ufirst
  and ulast = sc.ulast and pend = sc.pend and pendb = sc.pendb
  and mnext = sc.mnext and msrcnext = sc.msrcnext in
  Array.fill ndef 0 cap 0;
  Array.fill ublk 0 cap (-1);
  Array.fill pendb 0 cap (-1);
  Array.fill sc.via 0 cap (-1);
  let read b k o =
    match o with
    | Reg x when x >= 0 && x < cap ->
      let u = Array.unsafe_get ublk x in
      if u = -1 then begin
        Array.unsafe_set ublk x b;
        Array.unsafe_set ufirst x k;
        Array.unsafe_set ulast x k
      end
      else if u = b then Array.unsafe_set ulast x k
      else Array.unsafe_set ublk x (-2)
    | _ -> ()
  [@@inline]
  in
  (* a definition of [r] at [k] in block [b] also resolves the moves
     waiting on [r] there *)
  let define b k r =
    if r >= 0 && r < cap then begin
      Array.unsafe_set ndef r (Array.unsafe_get ndef r + 1);
      if Array.unsafe_get pendb r = b then begin
        let m = ref (Array.unsafe_get pend r) in
        while !m >= 0 do
          Array.unsafe_set msrcnext !m k;
          m := Array.unsafe_get mnext !m
        done;
        Array.unsafe_set pendb r (-1)
      end
    end
  [@@inline]
  in
  List.iter
    (fun r -> if r >= 0 && r < cap then ndef.(r) <- ndef.(r) + 1)
    lf.Vcode.lf.f_params;
  let code = lf.Vcode.code in
  let nmoves = ref 0 in
  for b = 0 to Array.length code - 1 do
    let blk = code.(b) in
    for k = 0 to Array.length blk - 1 do
      match Array.unsafe_get blk k with
      | Vcode.Vplain i ->
        (match i with
         | Imov { dst; src } ->
           read b k src;
           (* a candidate: into a frame register, from an immediate or
              a frame register *)
           if dst >= 0 && dst < cap then begin
             match src with
             | Imm _ ->
               let m = !nmoves in
               incr nmoves;
               sc.mblk.(m) <- b;
               sc.mpos.(m) <- k;
               msrcnext.(m) <- max_int
             | Reg x when x >= 0 && x < cap ->
               let m = !nmoves in
               incr nmoves;
               sc.mblk.(m) <- b;
               sc.mpos.(m) <- k;
               msrcnext.(m) <- max_int;
               mnext.(m) <- (if pendb.(x) = b then pend.(x) else -1);
               pend.(x) <- m;
               pendb.(x) <- b
             | Reg _ | Glob _ -> ()
           end;
           define b k dst
         | Isext { src = o; dst; _ } | Iload { addr = o; dst; _ } ->
           read b k o;
           define b k dst
         | Ibin { a; b = o; dst; _ } | Icmp { a; b = o; dst; _ } ->
           read b k a;
           read b k o;
           define b k dst
         | Istore { addr; src; _ } -> read b k addr; read b k src
         | Igep { base; idx; dst; _ } ->
           read b k base;
           (match idx with Some o -> read b k o | None -> ());
           define b k dst
         | Islot { dst; _ } -> define b k dst
         | Icall _ | Iintrin _ -> ())
      | Vcode.Vcall { dst; args; _ } | Vcode.Vintrin { dst; args; _ } ->
        for j = 0 to Array.length args - 1 do
          read b k (Array.unsafe_get args j)
        done;
        (match dst with Some d -> define b k d | None -> ())
      | Vcode.Vtelem _ -> ()
    done;
    match lf.Vcode.terms.(b) with
    | Tret (Some o) | Tcbr (o, _, _) -> read b (Array.length blk) o
    | Tret None | Tbr _ -> ()
  done;
  let via = sc.via and lim = sc.lim in
  let forwarded = ref 0 in
  for m = 0 to !nmoves - 1 do
    let b = sc.mblk.(m) and k = sc.mpos.(m) in
    match code.(b).(k) with
    | Vcode.Vplain (Imov { dst = d; src }) ->
      let u = ublk.(d) in
      if ndef.(d) = 1 && (u = -1 || (u = b && ufirst.(d) > k)) then begin
        (* the move whose source a reader of [d] would read, and the
           position of that source's next definition *)
        let head, limit =
          match src with
          | Reg x when via.(x) >= 0 -> (via.(x), lim.(x))
          | Reg _ -> (m, msrcnext.(m))
          | Imm _ | Glob _ -> (m, max_int)
        in
        if u = -1 || ulast.(d) <= limit then begin
          via.(d) <- head;
          lim.(d) <- limit;
          incr forwarded
        end
      end
    | _ -> ()
  done;
  !forwarded

(* Test instrumentation: how many moves compilation has forwarded in
   this process.  A pinned count over the SPEC kernels fails a test if
   forwarding is silently disabled. *)
let forwarded_moves = ref 0

let compile_func (sc : scratch) (jfuncs : (string, jfunc) Hashtbl.t)
    (jf : jfunc) : unit =
  let lf = jf.jlf in
  let cap = jf.nregs in
  (* a register index statically within the frame's register file needs
     no bounds check; anything else keeps the interpreter's behaviour on
     malformed IR (a checked access that raises) *)
  let fast r = r >= 0 && r < cap in
  let nfwd = forward_copies sc lf cap in
  forwarded_moves := !forwarded_moves + nfwd;
  (* every operand a reader compiles goes through [res]: a forwarded
     register reads the source of its chain's head move *)
  let via = sc.via in
  let forwarded r = nfwd > 0 && fast r && Array.unsafe_get via r >= 0 in
  let res o =
    match o with
    | Reg r when forwarded r ->
      let m = Array.unsafe_get via r in
      (match lf.Vcode.code.(sc.mblk.(m)).(sc.mpos.(m)) with
       | Vcode.Vplain (Imov { src; _ }) -> src
       | _ -> assert false (* [via] names moves only *))
    | o -> o
  in
  let fwd_opnd = function Reg r -> forwarded r | Imm _ | Glob _ -> false in
  let res_instr i =
    let touched =
      nfwd > 0
      &&
      match i with
      | Imov { src = o; _ } | Isext { src = o; _ } | Iload { addr = o; _ } ->
        fwd_opnd o
      | Ibin { a; b; _ } | Icmp { a; b; _ } -> fwd_opnd a || fwd_opnd b
      | Istore { addr; src; _ } -> fwd_opnd addr || fwd_opnd src
      | Igep { base; idx; _ } ->
        fwd_opnd base || (match idx with Some o -> fwd_opnd o | None -> false)
      | Islot _ | Icall _ | Iintrin _ -> false
    in
    if touched then map_opnds res i else i
  in
  (* generic operand evaluators (the specialized shapes below bypass
     them): constants become constant closures, and a global still
     unresolved after {!Vcode.resolve} is unknown by construction -- it
     compiles to the interpreter's execution-time trap *)
  let ev (o : opnd) : env -> int =
    match res o with
    | Imm v -> fun _ -> v
    | Reg r when fast r -> fun env -> Array.unsafe_get env.regs r
    | Reg r -> fun env -> env.regs.(r)
    | Glob g ->
      fun _ -> Report.trap Report.Segfault ~detail:("unknown global " ^ g)
  in
  let set : int -> env -> int -> unit = fun d ->
    if fast d then fun env v -> Array.unsafe_set env.regs d v
    else fun env v -> env.regs.(d) <- v
  in
  (* arity-specialized argument-vector builders for calls/intrinsics *)
  let mk_argv (evs : (env -> int) array) : env -> int array =
    match evs with
    | [||] -> fun _ -> [||]
    | [| e0 |] -> fun env -> [| e0 env |]
    | [| e0; e1 |] -> fun env -> [| e0 env; e1 env |]
    | [| e0; e1; e2 |] -> fun env -> [| e0 env; e1 env; e2 env |]
    | [| e0; e1; e2; e3 |] -> fun env -> [| e0 env; e1 env; e2 env; e3 env |]
    | evs -> fun env -> Array.map (fun e -> e env) evs
  in
  let nblocks = Array.length lf.Vcode.code in
  (* forwarding cells let branches reference blocks not yet compiled
     (loops); they are patched below once every block has a step.  The
     one-load indirection per taken branch is the classic threaded-code
     trampoline. *)
  let cells = Array.init nblocks (fun _ -> ref dead_step) in
  let goto b : step =
    let cell = cells.(b) in
    fun env -> !cell env
  in
  let module A = Array in
  (* [test op a b]: the compare builder, shared by [Icmp] and the fused
     compare/branch.  An immediate on the left is mirrored to the right
     ([Imm < Reg] tests as [Reg > Imm]); the RR/RI shapes read the
     register file directly, everything else takes the generic
     evaluators. *)
  let rec test op a b : env -> bool =
    match op, a, b with
    | _, Imm _, Reg _ -> test (mirror op) b a
    | Eq, Reg x, Reg y when fast x && fast y ->
      fun env -> let r = env.regs in A.unsafe_get r x = A.unsafe_get r y
    | Eq, Reg x, Imm y when fast x -> fun env -> A.unsafe_get env.regs x = y
    | Ne, Reg x, Reg y when fast x && fast y ->
      fun env -> let r = env.regs in A.unsafe_get r x <> A.unsafe_get r y
    | Ne, Reg x, Imm y when fast x -> fun env -> A.unsafe_get env.regs x <> y
    | Lt, Reg x, Reg y when fast x && fast y ->
      fun env -> let r = env.regs in A.unsafe_get r x < A.unsafe_get r y
    | Lt, Reg x, Imm y when fast x -> fun env -> A.unsafe_get env.regs x < y
    | Le, Reg x, Reg y when fast x && fast y ->
      fun env -> let r = env.regs in A.unsafe_get r x <= A.unsafe_get r y
    | Le, Reg x, Imm y when fast x -> fun env -> A.unsafe_get env.regs x <= y
    | Gt, Reg x, Reg y when fast x && fast y ->
      fun env -> let r = env.regs in A.unsafe_get r x > A.unsafe_get r y
    | Gt, Reg x, Imm y when fast x -> fun env -> A.unsafe_get env.regs x > y
    | Ge, Reg x, Reg y when fast x && fast y ->
      fun env -> let r = env.regs in A.unsafe_get r x >= A.unsafe_get r y
    | Ge, Reg x, Imm y when fast x -> fun env -> A.unsafe_get env.regs x >= y
    | _ ->
      let f = cmpop op and ax = ev a and bx = ev b in
      fun env -> let x = ax env in f x (bx env)
  in
  (* The generic path: every plain instruction without an arm of its own
     below -- a cold shape, or a register outside the frame, which
     [ev]/[set] check exactly as the interpreter's array accesses do.
     Operands evaluate left to right, as in the interpreter. *)
  let generic (i : instr) (next : step) : step =
    match i with
    | Imov { dst; src } ->
      let e = ev src and set = set dst in
      fun env -> set env (e env); next env
    | Ibin { op; dst; a; b } ->
      let f = binop op and ax = ev a and bx = ev b and set = set dst in
      fun env -> let x = ax env in set env (f x (bx env)); next env
    | Icmp { op; dst; a; b } ->
      let t = test op a b and set = set dst in
      fun env -> set env (Bool.to_int (t env)); next env
    | Isext { dst; src; bytes } ->
      let set = set dst in
      let e = ev src in
      if bytes >= 8 then (fun env -> set env (e env); next env)
      else begin
        let bits = bytes * 8 in
        let mask = (1 lsl bits) - 1 in
        let sbit = 1 lsl (bits - 1) in
        let wrap = 1 lsl bits in
        fun env ->
          let v = e env land mask in
          set env (if v land sbit <> 0 then v - wrap else v);
          next env
      end
    | Iload { dst; addr; size; signed; _ } ->
      let ea = ev addr and set = set dst in
      fun env ->
        let st = env.c.st in
        let a = access st load_m1 ea env size in
        let v = Memory.load st.State.mem a size in
        set env
          (if size >= 8 then Fault.corrupt_load st.State.fault v
           else if signed then sign_extend v size
           else zero_extend v size);
        next env
    | Istore { addr; src; size; _ } ->
      let ea = ev addr and es = ev src in
      fun env ->
        let st = env.c.st in
        let a = access st store_m1 ea env size in
        Memory.store st.State.mem a size (es env);
        next env
    | Islot { dst; slot } ->
      let off = lf.Vcode.slot_off.(slot) and set = set dst in
      fun env -> set env (env.fb + off); next env
    | Igep { dst; base; idx; info } ->
      let eb = ev base and set = set dst in
      (match info, idx with
       | Gfield { off; _ }, _ -> fun env -> set env (eb env + off); next env
       | Gindex { elem_size; _ }, Some ix ->
         let ei = ev ix in
         fun env ->
           let b = eb env in
           set env (b + (ei env * elem_size));
           next env
       | Gindex _, None -> fun env -> set env (eb env); next env)
    | Icall _ | Iintrin _ ->
      (* Vcode.resolve lowers every call/intrinsic to
         Vcall/Vintrin/Vtelem; a plain one cannot reach the backend *)
      assert false
  in
  let compile_instr (vi : Vcode.vinstr) (next : step) : step =
    match vi with
    | Vcode.Vtelem { kind; site } ->
      if kind = 0 then
        (fun env ->
           Telemetry.bump_elided env.c.st.State.telem site;
           next env)
      else
        (fun env ->
           Telemetry.bump_covered env.c.st.State.telem site;
           next env)
    | Vcode.Vcall { dst; target; args } ->
      let argv = mk_argv (Array.map ev args) in
      let invoke : env -> int array -> int =
        match target with
        | Vcode.Vdirect clf ->
          (* every Vdirect target is a module function, so its compiled
             form is in the table by construction *)
          let cjf = Hashtbl.find jfuncs clf.Vcode.lf.f_name in
          fun env a -> exec_jfunc env.c cjf a
        | Vcode.Vnamed callee -> fun env a -> env.c.named callee a
      in
      (match dst with
       | Some d ->
         let set = set d in
         fun env ->
           tick env.c.st call_m1;
           let a = argv env in
           set env (invoke env a);
           next env
       | None ->
         fun env ->
           tick env.c.st call_m1;
           let a = argv env in
           ignore (invoke env a : int);
           next env)
    | Vcode.Vintrin { dst; islot; name; args; site } ->
      let argv = mk_argv (Array.map ev args) in
      (* every runtime registers its intrinsics before a machine binds
         the slots, so an unbound slot is unresolved for good *)
      let dispatch env a =
        match env.c.itab.(islot) with
        | Some fn -> fn env.c.st a
        | None -> Report.trap (Report.Unresolved_external ("intrinsic " ^ name))
      in
      let call : step =
        match dst with
        | Some d ->
          let set = set d in
          fun env ->
            let a = argv env in
            (* executed bump BEFORE dispatch, so failing checks count *)
            Telemetry.bump_executed env.c.st.State.telem site;
            set env (dispatch env a);
            next env
        | None ->
          fun env ->
            let a = argv env in
            Telemetry.bump_executed env.c.st.State.telem site;
            ignore (dispatch env a : int);
            next env
      in
      (match dst, args with
       | Some d, [| p; n; _ |] ->
         (* the check shape: Algorithm 1 inline where the machine bound
            this slot to a check, the closure call otherwise *)
         let ep = ev p and en = ev n in
         let set = set d in
         fun env ->
           (match env.c.checks.(islot) with
            | None -> call env
            | Some ck ->
              let ptr = ep env and size = en env in
              let st = env.c.st in
              Telemetry.bump_executed st.State.telem site;
              tick st ck.Runtime.ck_cost;
              let tag = Layout46.tag_of ptr in
              let raw = Layout46.strip ptr in
              let r =
                if tag = 0 then ck.Runtime.ck_slow st ptr size site
                else begin
                  let e = Layout46.meta_entry tag in
                  let lo = san_ld8 st.State.mem e in
                  let hi = san_ld8 st.State.mem (e + 8) in
                  if (raw - lo) lor (hi - (raw + size)) >= 0 then raw
                  else ck.Runtime.ck_slow st ptr size site
                end
              in
              set env r;
              next env)
       | _ -> call)
    | Vcode.Vplain i ->
      (* the specialized arms: the shapes the kernel census shows carry
         traffic (see the header), over frame registers only *)
      (match canon (res_instr i) with
       | Imov { dst = d; src = Reg s } when fast d && fast s ->
         fun env -> let r = env.regs in
           A.unsafe_set r d (A.unsafe_get r s); next env
       | Ibin { op = Add; dst = d; a = Reg x; b = Reg y }
         when fast d && fast x && fast y ->
         fun env -> let r = env.regs in
           A.unsafe_set r d (A.unsafe_get r x + A.unsafe_get r y); next env
       | Ibin { op = Add; dst = d; a = Reg x; b = Imm y }
         when fast d && fast x ->
         fun env -> let r = env.regs in
           A.unsafe_set r d (A.unsafe_get r x + y); next env
       | Ibin { op = Sub; dst = d; a = Reg x; b = Reg y }
         when fast d && fast x && fast y ->
         fun env -> let r = env.regs in
           A.unsafe_set r d (A.unsafe_get r x - A.unsafe_get r y); next env
       | Ibin { op = Sub; dst = d; a = Reg x; b = Imm y }
         when fast d && fast x ->
         fun env -> let r = env.regs in
           A.unsafe_set r d (A.unsafe_get r x - y); next env
       | Ibin { op = Sub; dst = d; a = Imm x; b = Reg y }
         when fast d && fast y ->
         fun env -> let r = env.regs in
           A.unsafe_set r d (x - A.unsafe_get r y); next env
       | Ibin { op = Mul; dst = d; a = Reg x; b = Reg y }
         when fast d && fast x && fast y ->
         fun env -> let r = env.regs in
           A.unsafe_set r d (A.unsafe_get r x * A.unsafe_get r y); next env
       | Ibin { op = Mul; dst = d; a = Reg x; b = Imm y }
         when fast d && fast x ->
         fun env -> let r = env.regs in
           A.unsafe_set r d (A.unsafe_get r x * y); next env
       | Ibin { op = And; dst = d; a = Reg x; b = Imm y }
         when fast d && fast x ->
         fun env -> let r = env.regs in
           A.unsafe_set r d (A.unsafe_get r x land y); next env
       | Ibin { op = Xor; dst = d; a = Reg x; b = Reg y }
         when fast d && fast x && fast y ->
         fun env -> let r = env.regs in
           A.unsafe_set r d (A.unsafe_get r x lxor A.unsafe_get r y); next env
       | Ibin { op = Shr; dst = d; a = Reg x; b = Imm y }
         when fast d && fast x ->
         let y = y land 63 in
         fun env -> let r = env.regs in
           A.unsafe_set r d (A.unsafe_get r x asr y); next env
       | Icmp { op; dst = d; a; b } when fast d ->
         let t = test op a b in
         fun env -> A.unsafe_set env.regs d (Bool.to_int (t env)); next env
       | Iload { dst = d; addr; size = (1 | 2 | 4 | 8) as size; signed; _ }
         when fast d ->
         let ea = ev addr in
         (match size, signed with
          | 1, false ->
            fun env -> let st = env.c.st in
              A.unsafe_set env.regs d (ld1 st (access st load_m1 ea env 1));
              next env
          | 1, true ->
            fun env -> let st = env.c.st in
              let v = ld1 st (access st load_m1 ea env 1) in
              A.unsafe_set env.regs d
                (if v land 0x80 <> 0 then v - 0x100 else v);
              next env
          | 2, false ->
            fun env -> let st = env.c.st in
              A.unsafe_set env.regs d (ld2 st (access st load_m1 ea env 2));
              next env
          | 2, true ->
            fun env -> let st = env.c.st in
              let v = ld2 st (access st load_m1 ea env 2) in
              A.unsafe_set env.regs d
                (if v land 0x8000 <> 0 then v - 0x10000 else v);
              next env
          | 4, false ->
            fun env -> let st = env.c.st in
              A.unsafe_set env.regs d (ld4 st (access st load_m1 ea env 4));
              next env
          | 4, true ->
            fun env -> let st = env.c.st in
              let v = ld4 st (access st load_m1 ea env 4) in
              A.unsafe_set env.regs d
                (if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v);
              next env
          | _ ->
            fun env -> let st = env.c.st in
              A.unsafe_set env.regs d (ld8 st (access st load_m1 ea env 8));
              next env)
       | Istore { addr; src; size = (1 | 2 | 4 | 8) as size; _ } ->
         (* the address, its check, then the value: the interpreter's
            order *)
         let ea = ev addr and es = ev src in
         (match size with
          | 1 ->
            fun env -> let st = env.c.st in
              let a = access st store_m1 ea env 1 in
              sto1 st a (es env); next env
          | 2 ->
            fun env -> let st = env.c.st in
              let a = access st store_m1 ea env 2 in
              sto2 st a (es env); next env
          | 4 ->
            fun env -> let st = env.c.st in
              let a = access st store_m1 ea env 4 in
              sto4 st a (es env); next env
          | _ ->
            fun env -> let st = env.c.st in
              let a = access st store_m1 ea env 8 in
              sto8 st a (es env); next env)
       | Igep { dst = d; base = Reg x; info = Gfield { off; _ }; _ }
         when fast d && fast x ->
         fun env -> let r = env.regs in
           A.unsafe_set r d (A.unsafe_get r x + off); next env
       | Igep { dst = d; base = Reg x; idx = Some (Reg y);
                info = Gindex { elem_size; _ } }
         when fast d && fast x && fast y ->
         fun env -> let r = env.regs in
           A.unsafe_set r d (A.unsafe_get r x + (A.unsafe_get r y * elem_size));
           next env
       | Igep { dst = d; base = Imm x; idx = Some (Reg y);
                info = Gindex { elem_size; _ } }
         when fast d && fast y ->
         fun env -> let r = env.regs in
           A.unsafe_set r d (x + (A.unsafe_get r y * elem_size)); next env
       | i -> generic i next)
  in
  let compile_term (t : term) : step =
    match t with
    | Tret None -> fun env -> env.ret <- 0
    | Tret (Some o) ->
      let e = ev o in
      fun env -> env.ret <- e env
    | Tbr b -> goto b
    | Tcbr (c, bt, bf) ->
      let ec = ev c in
      let gt = goto bt and gf = goto bf in
      fun env ->
        tick env.c.st 1;
        if ec env <> 0 then gt env else gf env
  in
  (* A compare feeding the block's conditional branch fuses into one
     closure.  Observably identical to compare-then-branch: the result
     is still written to its register first, and the interpreter also
     ticks the branch only after the compare wrote its register. *)
  let fused op d a b bt bf : step =
    let t = test op a b and gt = goto bt and gf = goto bf in
    fun env ->
      let c = t env in
      A.unsafe_set env.regs d (Bool.to_int c);
      tick env.c.st 1;
      if c then gt env else gf env
  in
  for b = 0 to nblocks - 1 do
    let code = lf.Vcode.code.(b) in
    let n = Array.length code in
    let term = lf.Vcode.terms.(b) in
    (* detect the compare/branch fusion; [upto] instructions remain to
       compile ahead of the (possibly fused) tail, forwarded moves
       compiling to nothing *)
    let tail, upto =
      match term with
      | Tcbr (c, bt, bf) when n > 0 ->
        (match res c, code.(n - 1) with
         | Reg c, Vcode.Vplain (Icmp { op; dst; a; b = cb })
           when dst = c && fast c ->
           fused op c (res a) (res cb) bt bf, n - 1
         | _ -> compile_term term, n)
      | _ -> compile_term term, n
    in
    let body = ref tail in
    for i = upto - 1 downto 0 do
      match code.(i) with
      | Vcode.Vplain (Imov { dst; _ }) when forwarded dst -> ()
      | vi -> body := compile_instr vi !body
    done;
    let body = !body in
    (* block entry: tick the precomputed cost (telemetry markers are
       free), then fall into the instruction chain *)
    let cost = lf.Vcode.costs.(b) in
    cells.(b) := (fun env -> tick env.c.st cost; body env)
  done;
  jf.entry <- !(cells.(0))

(* Test instrumentation: how many full compilations have run in this
   process.  The cache regression tests pin that repeated runs of one
   module bump this exactly once. *)
let compilations = ref 0

let compile (vc : Vcode.t) : prog =
  incr compilations;
  let jfuncs = Hashtbl.create 17 in
  (* two phases, like Vcode.resolve: create every function's record
     first so direct calls can bind, then compile the bodies *)
  let nregs = ref 1 and ninstrs = ref 0 in
  Hashtbl.iter
    (fun name lf ->
       let jf =
         { jlf = lf; nregs = max lf.Vcode.lf.f_nregs 1;
           params = lf.Vcode.lf.f_params; entry = dead_step;
           spare = None }
       in
       nregs := max !nregs jf.nregs;
       ninstrs :=
         max !ninstrs
           (Array.fold_left (fun n c -> n + Array.length c) 0 lf.Vcode.code);
       Hashtbl.replace jfuncs name jf)
    vc.Vcode.funcs;
  let sc = scratch ~nregs:!nregs ~ninstrs:!ninstrs in
  Hashtbl.iter (fun _ jf -> compile_func sc jfuncs jf) jfuncs;
  { vc; jfuncs }

type Tir.Ir.vm_cache += Cached of prog

let compile_cached ?fuel (vc : Vcode.t) : prog =
  (* fuel burn FIRST and unconditionally: a cache hit must be
     indistinguishable from a miss to the fuel watchdog *)
  Tir.Fuel.burn fuel (Tir.Ir.module_size vc.Vcode.md);
  let md = vc.Vcode.md in
  let rec find = function
    | Cached p :: rest -> if p.vc == vc then Some p else find rest
    | _ :: rest -> find rest
    | [] -> None
  in
  match find md.m_vcache with
  | Some p -> p
  | None ->
    let p = compile vc in
    md.m_vcache <- Cached p :: md.m_vcache;
    p

let find_func (p : prog) (name : string) : jfunc option =
  Hashtbl.find_opt p.jfuncs name
