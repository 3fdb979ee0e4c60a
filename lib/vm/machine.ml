(* The machine: executes a Tir module under a sanitizer runtime with
   the deterministic cost model, through one of two backends sharing
   the same resolved code ({!Vcode}):

   - [Interp], the reference interpreter (this file's exec_func);
   - [Jit], the threaded-code backend ({!Jit}), required to be
     observably identical instruction for instruction.

   Module resolution is cached on the Ir itself (Vcode.resolve_cached),
   so creating many machines over one compiled module -- or running one
   module many times -- pays resolution once.  What cannot be shared is
   the runtime binding: intrinsic implementations belong to this
   machine's runtime, so each machine materializes its own [Jit.ctx]:
   the [itab] mapping the resolved code's intrinsic slots to
   implementations, the [checks] marking the slots the jit may run
   inline, and the call depth of the protocol both backends share
   ([Jit.enter]/[Jit.leave]). *)

open Tir.Ir

type outcome =
  | Exit of int
  (* the run finished under a Recover sink with at least one recorded
     report: the program's own exit code plus the ordered findings *)
  | Completed_with_bugs of {
      code : int;
      reports : Report.t list;
      suppressed : int;
    }
  | Bug of Report.t
  | Fault of Report.trap

type backend = Interp | Jit

type t = {
  st : State.t;
  md : modul;
  rt : Runtime.t;
  vc : Vcode.t;
  ctx : Jit.ctx;
  externs : (string, State.t -> int array -> int) Hashtbl.t;
}

let global_addr m name =
  match Hashtbl.find_opt m.vc.Vcode.globals name with
  | Some a -> a
  | None -> Report.trap Report.Segfault ~detail:("unknown global " ^ name)

let sign_extend v size =
  let bits = size * 8 in
  let v = v land ((1 lsl bits) - 1) in
  if v land (1 lsl (bits - 1)) <> 0 then v - (1 lsl bits) else v

let zero_extend v size = v land ((1 lsl (size * 8)) - 1)

(* allocation-family builtins get special routing through the effective
   allocator so that both runtime replacement (ASan) and instrumentation
   rewriting (CECSan) compose with calloc/realloc/strdup *)
let run_alloc_family (libc : Libc.ctx) name (args : int array) : int option =
  let st = libc.Libc.st in
  match name with
  | "malloc" -> Some (libc.Libc.malloc args.(0))
  | "free" ->
    libc.Libc.free args.(0);
    Some 0
  | "calloc" ->
    let n = args.(0) * args.(1) in
    let p = libc.Libc.malloc n in
    Memory.fill st.State.mem ~dst:(State.effective st p) ~len:n 0;
    State.tick st (Cost.mem_op n);
    Some p
  | "realloc" ->
    let old = args.(0) and size = args.(1) in
    if old = 0 then Some (libc.Libc.malloc size)
    else begin
      let old_size =
        match libc.Libc.usable old with
        | Some s -> s
        | None ->
          Report.trap ~addr:old Report.Heap_corruption
            ~detail:"realloc(): invalid pointer"
      in
      let p = libc.Libc.malloc size in
      Memory.copy st.State.mem ~src:(State.effective st old)
        ~dst:(State.effective st p) ~len:(min old_size size);
      State.tick st (Cost.mem_op (min old_size size));
      libc.Libc.free old;
      Some p
    end
  | _ -> None

(* Top-byte-ignore emulation at the libc boundary: when the runtime asks
   for TBI, pointer arguments are masked before the raw builtin runs (the
   MMU would ignore the tag bits), and for builtins returning one of
   their pointer arguments the caller's tagged value is restored, offset
   included -- which is exactly how a tagged pointer survives a round
   trip through uninstrumented libc on ARM. *)
let tbi_wrap (rt : Runtime.t) (st : State.t) (callee : string)
    (raw_fn : int array -> int) (args : int array) : int =
  if rt.Runtime.tbi_bits = 0 then raw_fn args
  else begin
    let mask = st.State.addr_mask in
    let sig_params =
      match Minic.Builtins.find callee with
      | Some s -> s.Minic.Builtins.params
      | None -> []
    in
    let is_ptr i v =
      match List.nth_opt sig_params i with
      | Some t -> Minic.Ast.is_pointer t
      | None -> v land lnot mask <> 0  (* varargs: mask if tagged *)
    in
    let masked = Array.mapi (fun i v -> if is_ptr i v then v land mask else v)
        args
    in
    let res = raw_fn masked in
    match Minic.Builtins.returns_pointer_arg callee with
    | Some k when res <> 0 && k < Array.length args ->
      args.(k) + (res - masked.(k))
    | _ -> res
  end

(* The by-name slow path: the allocation family, libc builtins (with
   interception and TBI), registered externs.  Pre-resolution guarantees
   [Vnamed] callees are never module functions, so the funcs lookup is
   skipped. *)
let exec_named (rt : Runtime.t) (libc : Libc.ctx) externs (callee : string)
    (args : int array) : int =
  let st = libc.Libc.st in
  match run_alloc_family libc callee args with
  | Some v -> v
  | None ->
    (match Libc.find callee with
     | Some raw_fn ->
       (match rt.Runtime.intercept callee with
        | Some wrapper ->
          let raw args = tbi_wrap rt st callee (fun a -> raw_fn libc a) args in
          wrapper st ~raw args
        | None ->
          (* no interceptor and no TBI: call straight through without
             building the wrapper closures *)
          if rt.Runtime.tbi_bits = 0 then raw_fn libc args
          else tbi_wrap rt st callee (fun a -> raw_fn libc a) args)
     | None ->
       (match Hashtbl.find_opt externs callee with
        | Some fn -> fn st args
        | None -> Report.trap (Report.Unresolved_external callee)))

(* Loads globals into the globals region and binds the resolved code to
   this runtime. *)
let create ?(st = State.create ()) ?(rt = Runtime.none) (md : modul) : t =
  st.State.addr_mask <-
    (if rt.Runtime.tbi_bits > 0 then (1 lsl (63 - rt.Runtime.tbi_bits)) - 1
     else -1);
  let vc = Vcode.resolve_cached md in
  (* global placement is part of the resolved code; the initializer
     images are per-machine state and are blitted fresh *)
  List.iter
    (fun g ->
       match Hashtbl.find_opt vc.Vcode.globals g.g_name with
       | Some addr ->
         Memory.blit_from_bytes st.State.mem g.g_image addr g.g_size
       | None -> ())
    md.m_globals;
  st.State.globals_end <- vc.Vcode.globals_end;
  let itab =
    Array.map (fun name -> Runtime.find_intrinsic rt name)
      vc.Vcode.intrin_names
  in
  (* a slot runs inline only while it is bound to the very closure its
     runtime registered for the check: a stub registered over the name
     before this point keeps the closure path.  Slots bind here, once;
     a name the runtime never registered stays unbound and traps *)
  let checks =
    Array.map
      (function
        | Some fn ->
          List.find_opt
            (fun ck -> ck.Runtime.ck_intrinsic == fn)
            rt.Runtime.checks
        | None -> None)
      itab
  in
  let libc =
    { Libc.st;
      malloc =
        (fun size ->
           match rt.Runtime.malloc with
           | Some f -> f st size
           | None -> Heap.malloc st size);
      free =
        (fun p ->
           match rt.Runtime.free_ with
           | Some f -> f st p
           | None -> Heap.free st p);
      usable =
        (fun p ->
           match rt.Runtime.usable_size with
           | Some f -> f st p
           | None -> Heap.usable_size st p) }
  in
  let externs = Hashtbl.create 4 in
  { st; md; rt; vc; externs;
    ctx = { Jit.st; itab; checks; named = exec_named rt libc externs;
            depth = 0 } }

let register_extern m name fn = Hashtbl.replace m.externs name fn

let rec exec_func m (lf : Vcode.loaded_func) (args : int array) : int =
  let st = m.st in
  let saved_sp = Jit.enter m.ctx lf.Vcode.frame_size in
  let frame_base = st.State.sp in
  let regs = Array.make (max lf.Vcode.lf.f_nregs 1) 0 in
  List.iteri
    (fun i r -> if i < Array.length args then regs.(r) <- args.(i))
    lf.Vcode.lf.f_params;
  let ev = function
    | Reg r -> regs.(r)
    | Imm v -> v
    | Glob g -> global_addr m g
  in
  let result = ref 0 in
  let finished = ref false in
  let block = ref 0 in
  (try
     while not !finished do
       let code = lf.Vcode.code.(!block) in
       let n = Array.length code in
       (* baseline: one cycle per instruction; telemetry markers are
          excluded from the precomputed per-block cost *)
       State.tick st lf.Vcode.costs.(!block);
       for pc = 0 to n - 1 do
         match Array.unsafe_get code pc with
         | Vcode.Vtelem { kind; site } ->
           if kind = 0 then Telemetry.bump_elided st.State.telem site
           else Telemetry.bump_covered st.State.telem site
         | Vcode.Vcall { dst; target; args } ->
           State.tick st (Cost.call - 1);
           let argv = Array.map ev args in
           let v =
             match target with
             | Vcode.Vdirect lf -> exec_func m lf argv
             | Vcode.Vnamed callee -> m.ctx.Jit.named callee argv
           in
           (match dst with Some d -> regs.(d) <- v | None -> ())
         | Vcode.Vintrin { dst; islot; name; args; site = _ } ->
           let argv = Array.map ev args in  (* site id is the last arg *)
           (* executed bump BEFORE dispatch, so failing checks count *)
           Telemetry.bump_executed st.State.telem
             argv.(Array.length argv - 1);
           (* every runtime registers its intrinsics before [create]
              binds the slots, so an unbound slot is unresolved *)
           (match m.ctx.Jit.itab.(islot) with
            | Some fn ->
              let v = fn st argv in
              (match dst with Some d -> regs.(d) <- v | None -> ())
            | None ->
              Report.trap (Report.Unresolved_external ("intrinsic " ^ name)))
         | Vcode.Vplain i ->
         match i with
         | Imov { dst; src } -> regs.(dst) <- ev src
         | Ibin { op; dst; a; b } ->
           let x = ev a and y = ev b in
           regs.(dst) <-
             (match op with
              | Add -> x + y
              | Sub -> x - y
              | Mul -> x * y
              | Div ->
                if y = 0 then Report.trap Report.Div_by_zero else x / y
              | Mod ->
                if y = 0 then Report.trap Report.Div_by_zero else x mod y
              | Shl -> x lsl (y land 63)
              | Shr -> x asr (y land 63)
              | And -> x land y
              | Or -> x lor y
              | Xor -> x lxor y)
         | Icmp { op; dst; a; b } ->
           let x = ev a and y = ev b in
           regs.(dst) <-
             (match op with
              | Eq -> if x = y then 1 else 0
              | Ne -> if x <> y then 1 else 0
              | Lt -> if x < y then 1 else 0
              | Le -> if x <= y then 1 else 0
              | Gt -> if x > y then 1 else 0
              | Ge -> if x >= y then 1 else 0)
         | Isext { dst; src; bytes } ->
           let v = ev src in
           regs.(dst) <- (if bytes >= 8 then v else sign_extend v bytes)
         | Iload { dst; addr; size; signed; _ } ->
           State.tick st (Cost.load - 1);
           let a = State.effective st (ev addr) in
           State.check_mapped st a size;
           let v = Memory.load st.State.mem a size in
           (* fault injection: pointer-sized loads of tagged values may
              come back with a flipped tag bit *)
           let v = if size >= 8 then Fault.corrupt_load st.State.fault v
             else v in
           regs.(dst) <-
             (if size >= 8 then v
              else if signed then sign_extend v size
              else zero_extend v size)
         | Istore { addr; src; size; _ } ->
           State.tick st (Cost.store - 1);
           let a = State.effective st (ev addr) in
           State.check_mapped st a size;
           Memory.store st.State.mem a size (ev src)
         | Islot { dst; slot } ->
           regs.(dst) <- frame_base + lf.Vcode.slot_off.(slot)
         | Igep { dst; base; idx; info } ->
           let b = ev base in
           regs.(dst) <-
             (match info, idx with
              | Gfield { off; _ }, _ -> b + off
              | Gindex { elem_size; _ }, Some i -> b + (ev i * elem_size)
              | Gindex _, None -> b)
         | Icall _ | Iintrin _ ->
           (* Vcode.resolve lowers every call/intrinsic to
              Vcall/Vintrin/Vtelem; a plain one cannot reach the backend *)
           assert false
       done;
       (match lf.Vcode.terms.(!block) with
        | Tret v ->
          result := (match v with Some o -> ev o | None -> 0);
          finished := true
        | Tbr b -> block := b
        | Tcbr (c, bt, bf) ->
          State.tick st 1;
          block := (if ev c <> 0 then bt else bf))
     done
   with e ->
     Jit.leave m.ctx saved_sp;
     raise e);
  Jit.leave m.ctx saved_sp;
  !result

(* Runs [entry] (default main) under the selected backend.  All ways a
   run can end are funneled into the [outcome] type.  A clean exit under
   a Recover sink that recorded findings becomes [Completed_with_bugs].
   [fuel] meters jit compilation (interpretation needs none); a
   [Tir.Fuel.Exhausted] escape is a supervision event, not an outcome,
   and propagates. *)
let run ?(entry = "main") ?(backend = Interp) ?fuel (m : t) : outcome =
  let finish code =
    m.rt.Runtime.at_exit m.st;
    let sink = m.st.State.sink in
    if Report.sink_recorded sink > 0 then
      Completed_with_bugs
        { code; reports = Report.sink_reports sink;
          suppressed = Report.sink_suppressed sink }
    else Exit code
  in
  let no_entry () =
    Fault { t_kind = Unresolved_external entry; t_addr = 0;
            t_detail = "no entry point" }
  in
  match
    match m.vc.Vcode.malformed, backend with
    | Some t, _ -> Fault t
    | None, Interp ->
      (match Hashtbl.find_opt m.vc.Vcode.funcs entry with
       | None -> no_entry ()
       | Some lf -> finish (exec_func m lf [||]))
    | None, Jit ->
      let prog = Jit.compile_cached ?fuel m.vc in
      (match Jit.find_func prog entry with
       | None -> no_entry ()
       | Some jf -> finish (Jit.exec_jfunc m.ctx jf [||]))
  with
  | outcome -> outcome
  | exception State.Exited code -> finish code
  | exception Report.Bug r -> Bug r
  | exception Report.Trap t -> Fault t

let pp_outcome fmt = function
  | Exit c -> Fmt.pf fmt "exit %d" c
  | Completed_with_bugs { code; reports; suppressed } ->
    Fmt.pf fmt "exit %d with %d recovered report%s%s" code
      (List.length reports)
      (if List.length reports = 1 then "" else "s")
      (if suppressed = 0 then ""
       else Printf.sprintf " (+%d suppressed)" suppressed)
  | Bug r -> Fmt.pf fmt "BUG %a" Report.pp r
  | Fault t -> Fmt.pf fmt "FAULT %a" Report.pp_trap t

(* Whether the outcome carries a sanitizer finding: halted on one, or
   completed with recovered ones.  A trap is not a finding. *)
let outcome_is_bug = function
  | Bug _ | Completed_with_bugs _ -> true
  | Exit _ | Fault _ -> false
