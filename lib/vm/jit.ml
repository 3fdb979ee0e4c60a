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
     array accesses, and the common ALU/compare shapes (reg op reg,
     reg op imm) become single closures with no operand-evaluator
     indirection;
   - memory: loads and stores inline the whole fast path -- the cycle
     tick, tag masking, the mapped-region check, the last-page-cache
     probe and the little-endian byte assembly -- per static size
     class, falling back to the shared State/Memory routines on the
     slow paths (possibly-unmapped address, page straddle, unusual
     size);
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
   (allocation family, libc with interception/TBI, registered externs);
   [reresolve] re-resolves a late-registered intrinsic slot, memoizing
   into the machine's table. *)
type ctx = {
  st : State.t;
  itab : Runtime.intrinsic option array;
  checks : Runtime.check option array;
  named : string -> int array -> int;
  reresolve : int -> Runtime.intrinsic option;
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
   mapping (so [a] is nonnegative and the unsafe byte accesses stay
   within the page, which is always [Layout46.page_size] long).  Byte
   assembly is exactly Memory.load/store's little-endian semantics --
   an 8-byte load reassembles the stored 63-bit word (byte 7 carries
   bits 56..62), and both paths are mod-2^63 arithmetic throughout. *)
let ld1 st a =
  let mem = st.State.mem in
  let p =
    if Layout46.page_of a = mem.Memory.last_pn then mem.Memory.last_page
    else Memory.page mem a
  in
  Char.code (Bytes.unsafe_get p (a land page_mask))

let ld2 st a =
  let off = a land page_mask in
  if off + 2 <= Layout46.page_size then begin
    let mem = st.State.mem in
    let p =
      if Layout46.page_of a = mem.Memory.last_pn then mem.Memory.last_page
      else Memory.page mem a
    in
    Char.code (Bytes.unsafe_get p off)
    lor (Char.code (Bytes.unsafe_get p (off + 1)) lsl 8)
  end
  else Memory.load st.State.mem a 2

let ld4 st a =
  let off = a land page_mask in
  if off + 4 <= Layout46.page_size then begin
    let mem = st.State.mem in
    let p =
      if Layout46.page_of a = mem.Memory.last_pn then mem.Memory.last_page
      else Memory.page mem a
    in
    Char.code (Bytes.unsafe_get p off)
    lor (Char.code (Bytes.unsafe_get p (off + 1)) lsl 8)
    lor (Char.code (Bytes.unsafe_get p (off + 2)) lsl 16)
    lor (Char.code (Bytes.unsafe_get p (off + 3)) lsl 24)
  end
  else Memory.load st.State.mem a 4

(* the little-endian 8-byte word at [off], as Memory.load assembles it
   (the top byte contributes bits 56..62 of the 63-bit word) *)
let word p off =
  Char.code (Bytes.unsafe_get p off)
  lor (Char.code (Bytes.unsafe_get p (off + 1)) lsl 8)
  lor (Char.code (Bytes.unsafe_get p (off + 2)) lsl 16)
  lor (Char.code (Bytes.unsafe_get p (off + 3)) lsl 24)
  lor (Char.code (Bytes.unsafe_get p (off + 4)) lsl 32)
  lor (Char.code (Bytes.unsafe_get p (off + 5)) lsl 40)
  lor (Char.code (Bytes.unsafe_get p (off + 6)) lsl 48)
  lor (Char.code (Bytes.unsafe_get p (off + 7)) lsl 56)
[@@inline]

(* includes the interpreter's pointer-width fault-injection filter; the
   filter's stateful branch must run whenever injection is armed *)
let ld8 st a =
  let off = a land page_mask in
  let v =
    if off + 8 <= Layout46.page_size then begin
      let mem = st.State.mem in
      let p =
        if Layout46.page_of a = mem.Memory.last_pn then mem.Memory.last_page
        else Memory.page mem a
      in
      word p off
    end
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
  word p (a land page_mask)

let sto1 st a v =
  let mem = st.State.mem in
  let p =
    if Layout46.page_of a = mem.Memory.last_pn then mem.Memory.last_page
    else Memory.page mem a
  in
  Bytes.unsafe_set p (a land page_mask) (Char.unsafe_chr (v land 0xff))

let sto2 st a v =
  let off = a land page_mask in
  if off + 2 <= Layout46.page_size then begin
    let mem = st.State.mem in
    let p =
      if Layout46.page_of a = mem.Memory.last_pn then mem.Memory.last_page
      else Memory.page mem a
    in
    Bytes.unsafe_set p off (Char.unsafe_chr (v land 0xff));
    Bytes.unsafe_set p (off + 1) (Char.unsafe_chr ((v lsr 8) land 0xff))
  end
  else Memory.store st.State.mem a 2 v

let sto4 st a v =
  let off = a land page_mask in
  if off + 4 <= Layout46.page_size then begin
    let mem = st.State.mem in
    let p =
      if Layout46.page_of a = mem.Memory.last_pn then mem.Memory.last_page
      else Memory.page mem a
    in
    Bytes.unsafe_set p off (Char.unsafe_chr (v land 0xff));
    Bytes.unsafe_set p (off + 1) (Char.unsafe_chr ((v asr 8) land 0xff));
    Bytes.unsafe_set p (off + 2) (Char.unsafe_chr ((v asr 16) land 0xff));
    Bytes.unsafe_set p (off + 3) (Char.unsafe_chr ((v asr 24) land 0xff))
  end
  else Memory.store st.State.mem a 4 v

(* byte 7 keeps only bits 56..62: the memory holds 63-bit words *)
let sto8 st a v =
  let off = a land page_mask in
  if off + 8 <= Layout46.page_size then begin
    let mem = st.State.mem in
    let p =
      if Layout46.page_of a = mem.Memory.last_pn then mem.Memory.last_page
      else Memory.page mem a
    in
    Bytes.unsafe_set p off (Char.unsafe_chr (v land 0xff));
    Bytes.unsafe_set p (off + 1) (Char.unsafe_chr ((v asr 8) land 0xff));
    Bytes.unsafe_set p (off + 2) (Char.unsafe_chr ((v asr 16) land 0xff));
    Bytes.unsafe_set p (off + 3) (Char.unsafe_chr ((v asr 24) land 0xff));
    Bytes.unsafe_set p (off + 4) (Char.unsafe_chr ((v asr 32) land 0xff));
    Bytes.unsafe_set p (off + 5) (Char.unsafe_chr ((v asr 40) land 0xff));
    Bytes.unsafe_set p (off + 6) (Char.unsafe_chr ((v asr 48) land 0xff));
    Bytes.unsafe_set p (off + 7) (Char.unsafe_chr ((v asr 56) land 0x7f))
  end
  else Memory.store st.State.mem a 8 v

let compile_func (jfuncs : (string, jfunc) Hashtbl.t) (jf : jfunc) : unit =
  let lf = jf.jlf in
  let cap = jf.nregs in
  (* a register index statically within the frame's register file needs
     no bounds check; anything else keeps the interpreter's behaviour on
     malformed IR (a checked access that raises) *)
  let fast r = r >= 0 && r < cap in
  (* generic operand evaluators (the specialized shapes below bypass
     them): constants become constant closures, and a global still
     unresolved after {!Vcode.resolve} is unknown by construction -- it
     compiles to the interpreter's execution-time trap *)
  let ev : opnd -> env -> int = function
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
  (* interpreter-equivalent slow paths for loads/stores the fast arms
     below do not cover (unusual size, unchecked destination register) *)
  let generic_load dst addr size signed (next : step) : step =
    let ea = ev addr in
    let set = set dst in
    fun env ->
      let st = env.c.st in
      State.tick st load_m1;
      let a = State.effective st (ea env) in
      State.check_mapped st a size;
      let v = Memory.load st.State.mem a size in
      let v = if size >= 8 then Fault.corrupt_load st.State.fault v else v in
      set env
        (if size >= 8 then v
         else if signed then sign_extend v size
         else zero_extend v size);
      next env
  in
  let generic_store addr src size (next : step) : step =
    let ea = ev addr in
    let es = ev src in
    fun env ->
      let st = env.c.st in
      State.tick st store_m1;
      let a = State.effective st (ea env) in
      State.check_mapped st a size;
      Memory.store st.State.mem a size (es env);
      next env
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
           let st = env.c.st in
           st.State.cycles <- st.State.cycles + call_m1;
           if st.State.cycles > st.State.cycle_budget then out_of_cycles st;
           let a = argv env in
           set env (invoke env a);
           next env
       | None ->
         fun env ->
           let st = env.c.st in
           st.State.cycles <- st.State.cycles + call_m1;
           if st.State.cycles > st.State.cycle_budget then out_of_cycles st;
           let a = argv env in
           ignore (invoke env a : int);
           next env)
    | Vcode.Vintrin { dst; islot; name; args; site } ->
      let argv = mk_argv (Array.map ev args) in
      let dispatch env a =
        match env.c.itab.(islot) with
        | Some fn -> fn env.c.st a
        | None ->
          (* registered after load? re-resolve once, else trap *)
          (match env.c.reresolve islot with
           | Some fn -> fn env.c.st a
           | None ->
             Report.trap (Report.Unresolved_external ("intrinsic " ^ name)))
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
              st.State.cycles <- st.State.cycles + ck.Runtime.ck_cost;
              if st.State.cycles > st.State.cycle_budget then
                out_of_cycles st;
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
      (match i with
       | Imov { dst = d; src } when fast d ->
         (match src with
          | Imm v ->
            fun env -> Array.unsafe_set env.regs d v; next env
          | Reg s when fast s ->
            fun env ->
              let regs = env.regs in
              Array.unsafe_set regs d (Array.unsafe_get regs s);
              next env
          | src ->
            let e = ev src in
            fun env -> Array.unsafe_set env.regs d (e env); next env)
       | Imov { dst; src } ->
         let e = ev src in
         fun env -> env.regs.(dst) <- e env; next env
       | Ibin { op; dst = d; a; b } when fast d ->
         (* the hot ALU shapes compile to closures with no operand
            indirection at all *)
         let module A = Array in
         (match op, a, b with
          | Add, Reg x, Reg y when fast x && fast y ->
            fun env -> let r = env.regs in
              A.unsafe_set r d (A.unsafe_get r x + A.unsafe_get r y); next env
          | Add, Reg x, Imm y when fast x ->
            fun env -> let r = env.regs in
              A.unsafe_set r d (A.unsafe_get r x + y); next env
          | Add, Imm x, Reg y when fast y ->
            fun env -> let r = env.regs in
              A.unsafe_set r d (x + A.unsafe_get r y); next env
          | Sub, Reg x, Reg y when fast x && fast y ->
            fun env -> let r = env.regs in
              A.unsafe_set r d (A.unsafe_get r x - A.unsafe_get r y); next env
          | Sub, Reg x, Imm y when fast x ->
            fun env -> let r = env.regs in
              A.unsafe_set r d (A.unsafe_get r x - y); next env
          | Sub, Imm x, Reg y when fast y ->
            fun env -> let r = env.regs in
              A.unsafe_set r d (x - A.unsafe_get r y); next env
          | Mul, Reg x, Reg y when fast x && fast y ->
            fun env -> let r = env.regs in
              A.unsafe_set r d (A.unsafe_get r x * A.unsafe_get r y); next env
          | Mul, Reg x, Imm y when fast x ->
            fun env -> let r = env.regs in
              A.unsafe_set r d (A.unsafe_get r x * y); next env
          | Mul, Imm x, Reg y when fast y ->
            fun env -> let r = env.regs in
              A.unsafe_set r d (x * A.unsafe_get r y); next env
          | And, Reg x, Reg y when fast x && fast y ->
            fun env -> let r = env.regs in
              A.unsafe_set r d (A.unsafe_get r x land A.unsafe_get r y);
              next env
          | And, Reg x, Imm y when fast x ->
            fun env -> let r = env.regs in
              A.unsafe_set r d (A.unsafe_get r x land y); next env
          | Or, Reg x, Reg y when fast x && fast y ->
            fun env -> let r = env.regs in
              A.unsafe_set r d (A.unsafe_get r x lor A.unsafe_get r y);
              next env
          | Or, Reg x, Imm y when fast x ->
            fun env -> let r = env.regs in
              A.unsafe_set r d (A.unsafe_get r x lor y); next env
          | Xor, Reg x, Reg y when fast x && fast y ->
            fun env -> let r = env.regs in
              A.unsafe_set r d (A.unsafe_get r x lxor A.unsafe_get r y);
              next env
          | Xor, Reg x, Imm y when fast x ->
            fun env -> let r = env.regs in
              A.unsafe_set r d (A.unsafe_get r x lxor y); next env
          | Shl, Reg x, Imm y when fast x ->
            let y = y land 63 in
            fun env -> let r = env.regs in
              A.unsafe_set r d (A.unsafe_get r x lsl y); next env
          | Shr, Reg x, Imm y when fast x ->
            let y = y land 63 in
            fun env -> let r = env.regs in
              A.unsafe_set r d (A.unsafe_get r x asr y); next env
          | _ ->
            let ax = ev a and bx = ev b in
            (match op with
             | Add -> fun env ->
                 A.unsafe_set env.regs d (ax env + bx env); next env
             | Sub -> fun env ->
                 A.unsafe_set env.regs d (ax env - bx env); next env
             | Mul -> fun env ->
                 A.unsafe_set env.regs d (ax env * bx env); next env
             | Div ->
               fun env ->
                 let x = ax env and y = bx env in
                 if y = 0 then Report.trap Report.Div_by_zero;
                 A.unsafe_set env.regs d (x / y);
                 next env
             | Mod ->
               fun env ->
                 let x = ax env and y = bx env in
                 if y = 0 then Report.trap Report.Div_by_zero;
                 A.unsafe_set env.regs d (x mod y);
                 next env
             | Shl -> fun env ->
                 A.unsafe_set env.regs d (ax env lsl (bx env land 63));
                 next env
             | Shr -> fun env ->
                 A.unsafe_set env.regs d (ax env asr (bx env land 63));
                 next env
             | And -> fun env ->
                 A.unsafe_set env.regs d (ax env land bx env); next env
             | Or -> fun env ->
                 A.unsafe_set env.regs d (ax env lor bx env); next env
             | Xor -> fun env ->
                 A.unsafe_set env.regs d (ax env lxor bx env); next env))
       | Ibin { op; dst; a; b } ->
         let ax = ev a and bx = ev b in
         let f : int -> int -> int =
           match op with
           | Add -> ( + )
           | Sub -> ( - )
           | Mul -> ( * )
           | Div ->
             fun x y ->
               if y = 0 then Report.trap Report.Div_by_zero else x / y
           | Mod ->
             fun x y ->
               if y = 0 then Report.trap Report.Div_by_zero else x mod y
           | Shl -> fun x y -> x lsl (y land 63)
           | Shr -> fun x y -> x asr (y land 63)
           | And -> ( land )
           | Or -> ( lor )
           | Xor -> ( lxor )
         in
         fun env -> env.regs.(dst) <- f (ax env) (bx env); next env
       | Icmp { op; dst = d; a; b } when fast d ->
         let module A = Array in
         (match op, a, b with
          | Eq, Reg x, Reg y when fast x && fast y ->
            fun env -> let r = env.regs in
              A.unsafe_set r d
                (if A.unsafe_get r x = A.unsafe_get r y then 1 else 0);
              next env
          | Eq, Reg x, Imm y when fast x ->
            fun env -> let r = env.regs in
              A.unsafe_set r d (if A.unsafe_get r x = y then 1 else 0);
              next env
          | Ne, Reg x, Reg y when fast x && fast y ->
            fun env -> let r = env.regs in
              A.unsafe_set r d
                (if A.unsafe_get r x <> A.unsafe_get r y then 1 else 0);
              next env
          | Ne, Reg x, Imm y when fast x ->
            fun env -> let r = env.regs in
              A.unsafe_set r d (if A.unsafe_get r x <> y then 1 else 0);
              next env
          | Lt, Reg x, Reg y when fast x && fast y ->
            fun env -> let r = env.regs in
              A.unsafe_set r d
                (if A.unsafe_get r x < A.unsafe_get r y then 1 else 0);
              next env
          | Lt, Reg x, Imm y when fast x ->
            fun env -> let r = env.regs in
              A.unsafe_set r d (if A.unsafe_get r x < y then 1 else 0);
              next env
          | Le, Reg x, Reg y when fast x && fast y ->
            fun env -> let r = env.regs in
              A.unsafe_set r d
                (if A.unsafe_get r x <= A.unsafe_get r y then 1 else 0);
              next env
          | Le, Reg x, Imm y when fast x ->
            fun env -> let r = env.regs in
              A.unsafe_set r d (if A.unsafe_get r x <= y then 1 else 0);
              next env
          | Gt, Reg x, Reg y when fast x && fast y ->
            fun env -> let r = env.regs in
              A.unsafe_set r d
                (if A.unsafe_get r x > A.unsafe_get r y then 1 else 0);
              next env
          | Gt, Reg x, Imm y when fast x ->
            fun env -> let r = env.regs in
              A.unsafe_set r d (if A.unsafe_get r x > y then 1 else 0);
              next env
          | Ge, Reg x, Reg y when fast x && fast y ->
            fun env -> let r = env.regs in
              A.unsafe_set r d
                (if A.unsafe_get r x >= A.unsafe_get r y then 1 else 0);
              next env
          | Ge, Reg x, Imm y when fast x ->
            fun env -> let r = env.regs in
              A.unsafe_set r d (if A.unsafe_get r x >= y then 1 else 0);
              next env
          | _ ->
            let ax = ev a and bx = ev b in
            let f : int -> int -> bool =
              match op with
              | Eq -> ( = )
              | Ne -> ( <> )
              | Lt -> ( < )
              | Le -> ( <= )
              | Gt -> ( > )
              | Ge -> ( >= )
            in
            fun env ->
              A.unsafe_set env.regs d (if f (ax env) (bx env) then 1 else 0);
              next env)
       | Icmp { op; dst; a; b } ->
         let ax = ev a and bx = ev b in
         let f : int -> int -> bool =
           match op with
           | Eq -> ( = )
           | Ne -> ( <> )
           | Lt -> ( < )
           | Le -> ( <= )
           | Gt -> ( > )
           | Ge -> ( >= )
         in
         fun env ->
           env.regs.(dst) <- (if f (ax env) (bx env) then 1 else 0);
           next env
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
       | Iload { dst = d; addr; size; signed; _ } when fast d ->
         let ea = ev addr in
         (match size, signed with
          | 1, false ->
            fun env ->
              let st = env.c.st in
              st.State.cycles <- st.State.cycles + load_m1;
              if st.State.cycles > st.State.cycle_budget then
                out_of_cycles st;
              let a = ea env land st.State.addr_mask in
              chk st a 1;
              Array.unsafe_set env.regs d (ld1 st a);
              next env
          | 1, true ->
            fun env ->
              let st = env.c.st in
              st.State.cycles <- st.State.cycles + load_m1;
              if st.State.cycles > st.State.cycle_budget then
                out_of_cycles st;
              let a = ea env land st.State.addr_mask in
              chk st a 1;
              let v = ld1 st a in
              Array.unsafe_set env.regs d
                (if v land 0x80 <> 0 then v - 0x100 else v);
              next env
          | 2, false ->
            fun env ->
              let st = env.c.st in
              st.State.cycles <- st.State.cycles + load_m1;
              if st.State.cycles > st.State.cycle_budget then
                out_of_cycles st;
              let a = ea env land st.State.addr_mask in
              chk st a 2;
              Array.unsafe_set env.regs d (ld2 st a);
              next env
          | 2, true ->
            fun env ->
              let st = env.c.st in
              st.State.cycles <- st.State.cycles + load_m1;
              if st.State.cycles > st.State.cycle_budget then
                out_of_cycles st;
              let a = ea env land st.State.addr_mask in
              chk st a 2;
              let v = ld2 st a in
              Array.unsafe_set env.regs d
                (if v land 0x8000 <> 0 then v - 0x10000 else v);
              next env
          | 4, false ->
            fun env ->
              let st = env.c.st in
              st.State.cycles <- st.State.cycles + load_m1;
              if st.State.cycles > st.State.cycle_budget then
                out_of_cycles st;
              let a = ea env land st.State.addr_mask in
              chk st a 4;
              Array.unsafe_set env.regs d (ld4 st a);
              next env
          | 4, true ->
            fun env ->
              let st = env.c.st in
              st.State.cycles <- st.State.cycles + load_m1;
              if st.State.cycles > st.State.cycle_budget then
                out_of_cycles st;
              let a = ea env land st.State.addr_mask in
              chk st a 4;
              let v = ld4 st a in
              Array.unsafe_set env.regs d
                (if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v);
              next env
          | 8, _ ->
            fun env ->
              let st = env.c.st in
              st.State.cycles <- st.State.cycles + load_m1;
              if st.State.cycles > st.State.cycle_budget then
                out_of_cycles st;
              let a = ea env land st.State.addr_mask in
              chk st a 8;
              Array.unsafe_set env.regs d (ld8 st a);
              next env
          | _ -> generic_load d addr size signed next)
       | Iload { dst; addr; size; signed; _ } ->
         generic_load dst addr size signed next
       | Istore { addr; src; size; _ } ->
         (match size with
          | 1 ->
            let ea = ev addr in
            let es = ev src in
            fun env ->
              let st = env.c.st in
              st.State.cycles <- st.State.cycles + store_m1;
              if st.State.cycles > st.State.cycle_budget then
                out_of_cycles st;
              let a = ea env land st.State.addr_mask in
              chk st a 1;
              sto1 st a (es env);
              next env
          | 2 ->
            let ea = ev addr in
            let es = ev src in
            fun env ->
              let st = env.c.st in
              st.State.cycles <- st.State.cycles + store_m1;
              if st.State.cycles > st.State.cycle_budget then
                out_of_cycles st;
              let a = ea env land st.State.addr_mask in
              chk st a 2;
              sto2 st a (es env);
              next env
          | 4 ->
            let ea = ev addr in
            let es = ev src in
            fun env ->
              let st = env.c.st in
              st.State.cycles <- st.State.cycles + store_m1;
              if st.State.cycles > st.State.cycle_budget then
                out_of_cycles st;
              let a = ea env land st.State.addr_mask in
              chk st a 4;
              sto4 st a (es env);
              next env
          | 8 ->
            let ea = ev addr in
            let es = ev src in
            fun env ->
              let st = env.c.st in
              st.State.cycles <- st.State.cycles + store_m1;
              if st.State.cycles > st.State.cycle_budget then
                out_of_cycles st;
              let a = ea env land st.State.addr_mask in
              chk st a 8;
              sto8 st a (es env);
              next env
          | _ -> generic_store addr src size next)
       | Islot { dst; slot } ->
         let off = lf.Vcode.slot_off.(slot) in
         if fast dst then
           (fun env ->
              Array.unsafe_set env.regs dst (env.fb + off);
              next env)
         else (fun env -> env.regs.(dst) <- env.fb + off; next env)
       | Igep { dst = d; base; idx; info } when fast d ->
         let module A = Array in
         (match info, idx with
          | Gfield { off; _ }, _ ->
            (match base with
             | Reg x when fast x ->
               fun env -> let r = env.regs in
                 A.unsafe_set r d (A.unsafe_get r x + off); next env
             | base ->
               let eb = ev base in
               fun env -> A.unsafe_set env.regs d (eb env + off); next env)
          | Gindex { elem_size; _ }, Some ix ->
            (match base, ix with
             | Reg x, Reg y when fast x && fast y ->
               fun env -> let r = env.regs in
                 A.unsafe_set r d
                   (A.unsafe_get r x + (A.unsafe_get r y * elem_size));
                 next env
             | base, ix ->
               let eb = ev base and ei = ev ix in
               fun env ->
                 A.unsafe_set env.regs d (eb env + (ei env * elem_size));
                 next env)
          | Gindex _, None ->
            let eb = ev base in
            fun env -> A.unsafe_set env.regs d (eb env); next env)
       | Igep { dst; base; idx; info } ->
         let eb = ev base in
         (match info, idx with
          | Gfield { off; _ }, _ ->
            fun env -> env.regs.(dst) <- eb env + off; next env
          | Gindex { elem_size; _ }, Some ix ->
            let ei = ev ix in
            fun env ->
              env.regs.(dst) <- eb env + (ei env * elem_size);
              next env
          | Gindex _, None ->
            fun env -> env.regs.(dst) <- eb env; next env)
       | Icall _ | Iintrin _ ->
         (* Vcode.resolve lowers every call/intrinsic to
            Vcall/Vintrin/Vtelem; a plain one cannot reach the backend *)
         assert false)
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
        let st = env.c.st in
        st.State.cycles <- st.State.cycles + 1;
        if st.State.cycles > st.State.cycle_budget then out_of_cycles st;
        if ec env <> 0 then gt env else gf env
  in
  (* A compare feeding the block's conditional branch fuses into one
     closure.  Observably identical to compare-then-branch: the result
     is still written to its register first, and the interpreter also
     ticks the branch only after the compare wrote its register. *)
  let fused op d a b bt bf : step =
    let gt = goto bt and gf = goto bf in
    let module A = Array in
    let cmp : env -> bool =
      match op, a, b with
      | Eq, Reg x, Reg y when fast x && fast y ->
        fun env -> let r = env.regs in A.unsafe_get r x = A.unsafe_get r y
      | Eq, Reg x, Imm y when fast x ->
        fun env -> A.unsafe_get env.regs x = y
      | Ne, Reg x, Reg y when fast x && fast y ->
        fun env -> let r = env.regs in A.unsafe_get r x <> A.unsafe_get r y
      | Ne, Reg x, Imm y when fast x ->
        fun env -> A.unsafe_get env.regs x <> y
      | Lt, Reg x, Reg y when fast x && fast y ->
        fun env -> let r = env.regs in A.unsafe_get r x < A.unsafe_get r y
      | Lt, Reg x, Imm y when fast x ->
        fun env -> A.unsafe_get env.regs x < y
      | Le, Reg x, Reg y when fast x && fast y ->
        fun env -> let r = env.regs in A.unsafe_get r x <= A.unsafe_get r y
      | Le, Reg x, Imm y when fast x ->
        fun env -> A.unsafe_get env.regs x <= y
      | Gt, Reg x, Reg y when fast x && fast y ->
        fun env -> let r = env.regs in A.unsafe_get r x > A.unsafe_get r y
      | Gt, Reg x, Imm y when fast x ->
        fun env -> A.unsafe_get env.regs x > y
      | Ge, Reg x, Reg y when fast x && fast y ->
        fun env -> let r = env.regs in A.unsafe_get r x >= A.unsafe_get r y
      | Ge, Reg x, Imm y when fast x ->
        fun env -> A.unsafe_get env.regs x >= y
      | _ ->
        let ax = ev a and bx = ev b in
        (match op with
         | Eq -> fun env -> ax env = bx env
         | Ne -> fun env -> ax env <> bx env
         | Lt -> fun env -> ax env < bx env
         | Le -> fun env -> ax env <= bx env
         | Gt -> fun env -> ax env > bx env
         | Ge -> fun env -> ax env >= bx env)
    in
    fun env ->
      let c = cmp env in
      A.unsafe_set env.regs d (if c then 1 else 0);
      let st = env.c.st in
      st.State.cycles <- st.State.cycles + 1;
      if st.State.cycles > st.State.cycle_budget then out_of_cycles st;
      if c then gt env else gf env
  in
  for b = 0 to nblocks - 1 do
    let code = lf.Vcode.code.(b) in
    let n = Array.length code in
    let term = lf.Vcode.terms.(b) in
    (* detect the compare/branch fusion; [upto] instructions remain to
       compile ahead of the (possibly fused) tail *)
    let tail, upto =
      match term with
      | Tcbr (Reg c, bt, bf) when n > 0 && fast c ->
        (match code.(n - 1) with
         | Vcode.Vplain (Icmp { op; dst; a; b = cb }) when dst = c ->
           fused op c a cb bt bf, n - 1
         | _ -> compile_term term, n)
      | _ -> compile_term term, n
    in
    let body = ref tail in
    for i = upto - 1 downto 0 do
      body := compile_instr code.(i) !body
    done;
    let body = !body in
    (* block entry: tick the precomputed cost (telemetry markers are
       free), then fall into the instruction chain *)
    let cost = lf.Vcode.costs.(b) in
    cells.(b) :=
      (fun env ->
         let st = env.c.st in
         st.State.cycles <- st.State.cycles + cost;
         if st.State.cycles > st.State.cycle_budget then out_of_cycles st;
         body env)
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
  Hashtbl.iter
    (fun name lf ->
       Hashtbl.replace jfuncs name
         { jlf = lf; nregs = max lf.Vcode.lf.f_nregs 1;
           params = lf.Vcode.lf.f_params; entry = dead_step;
           spare = None })
    vc.Vcode.funcs;
  Hashtbl.iter (fun _ jf -> compile_func jfuncs jf) jfuncs;
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
